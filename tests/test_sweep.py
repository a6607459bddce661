"""Config parsing, canonical emission, sweep execution and row rendering."""

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nbofdma.sweep as sweep_mod
from nbofdma.analytic import total_ici_power
from nbofdma.montecarlo import estimate_ergodic_capacity, estimate_total_ici
from nbofdma.numerics import QuadratureError
from nbofdma.cli import main
from nbofdma.sweep import (
    ConfigError,
    SweepRow,
    emit,
    parse_config,
    preset_path,
    run_sweep,
    to_text,
)
from nbofdma.sysmodel import SystemConfig

BASE = """
sweep.axis = v_max
sweep.grid = 0, 50, 100
sweep.outputs = ici_exact, capacity_exact
"""


def base_system(spec):
    """The system config of the top-level settings at the first grid point."""
    return sweep_mod._scenario(spec, (), spec.grid[0])[0]


# ---------------------------------------------------------------------------
# parsing

def test_defaults_applied():
    spec = parse_config(BASE)
    system = base_system(spec)
    assert system.carrier_frequency_hz == 900e6
    assert system.subcarrier_spacing_hz == 2500.0
    assert system.symbol_period_s == 1.0 / 2500.0
    assert system.effective_power == 1.0
    assert system.wave_speed_mps == 3e8
    assert spec.plan.trials == 100000 and spec.plan.seed == 0
    assert spec.curves == ()
    assert spec.settings == ()


def test_comments_and_blank_lines_ignored():
    spec = parse_config("# leading comment\n\n" + BASE +
                        "system.carrier_frequency_hz = 3e9  # trailing\n")
    assert base_system(spec).carrier_frequency_hz == 3e9


def test_snr_shortcut_sets_noise():
    spec = parse_config(BASE + "system.snr_db = 20\n")
    assert base_system(spec).noise_variance == pytest.approx(0.01, rel=1e-12)
    spec = parse_config(BASE + "system.snr_db = 0\nsystem.effective_power = 2\n")
    assert base_system(spec).noise_variance == pytest.approx(2.0, rel=1e-12)


def test_snr_resolves_against_each_curves_power(tmp_path, capsys):
    text = BASE.replace("ici_exact, capacity_exact", "capacity_exact") + (
        "system.snr_db = 20\n"
        "curve.a.system.effective_power = 1\n"
        "curve.b.system.effective_power = 100\n")
    spec = parse_config(text)
    # the round trip that nbofdma sweep --trials makes
    rerun = parse_config(to_text(replace(spec, plan=replace(spec.plan, trials=500))))
    for parsed in (spec, rerun):
        cfg, _, _ = sweep_mod._scenario(parsed, dict(parsed.curves)["b"], 0.0)
        assert cfg.noise_variance == pytest.approx(1.0, rel=1e-12)
    # at one SNR the capacity does not depend on the power
    path = tmp_path / "snr.cfg"
    path.write_text(text)
    assert main(["sweep", "--config", str(path), "--trials", "500"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    for a, b in zip(rows[:3], rows[3:]):
        assert (a[0], b[0]) == ("a", "b")
        assert float(b[2]) == pytest.approx(float(a[2]), rel=1e-11)


def test_snr_and_noise_are_exclusive():
    text = BASE + "system.snr_db = 20\nsystem.noise_variance = 0.01\n"
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config(text)


SNR_BASE = "sweep.axis = snr_db\nsweep.grid = 0, 20\nsweep.outputs = capacity_exact\n"


@pytest.mark.parametrize("text,key", [
    (BASE + "mobility.max_velocity_mps = 80", "mobility.max_velocity_mps"),
    (BASE + "curve.a.mobility.max_velocity_mps = 80", "curve.a.mobility.max_velocity_mps"),
    (SNR_BASE + "system.snr_db = 20", "system.snr_db"),
    (SNR_BASE + "system.noise_variance = 0.1", "system.noise_variance"),
    (SNR_BASE + "curve.a.system.snr_db = 20", "curve.a.system.snr_db"),
    (BASE + "curve.a.system.snr_db = 20\ncurve.a.system.noise_variance = 0.1",
     "curve.a.system.noise_variance"),
    (BASE + "system.carrier_frequency_hz = 900e6\n"
     "curve.a.system.carrier_frequency_hz = 1e9\ncurve.b.system.carrier_frequency_hz = 3e9",
     "system.carrier_frequency_hz"),
    (BASE + "curve.a.system.half_subcarriers = 10\ncurve.b.system.half_subcarriers = 20\n"
     "system.half_subcarriers = 5", "system.half_subcarriers"),
    (BASE + "system.snr_db = 10\n"
     "curve.a.system.noise_variance = 0.1\ncurve.b.system.noise_variance = 0.2", "system.snr_db"),
])
def test_refuses_keys_that_change_nothing(text, key):
    with pytest.raises(ConfigError, match="^" + re.escape(key) + ":"):
        parse_config(text + "\n")
    # the same key takes effect where one curve keeps the top-level value
    if not key.startswith("curve.") and "curve." in text:
        parse_config(text + "\ncurve.c.cell.paths_per_device = 2\n")


AXIS = "sweep.axis = v_max\n"
GRID = "sweep.grid = 0, 50\n"
OUTS = "sweep.outputs = ici_exact\n"


@pytest.mark.parametrize("text,fragment", [
    (AXIS + GRID + OUTS + "system.carrier_ghz = 1", "unknown key"),
    (AXIS + GRID + "sweep.outputs = ici_exact, beauty", "unknown output"),
    (AXIS + OUTS + "sweep.grid = 10, 5", "strictly increasing"),
    (AXIS + OUTS + "sweep.grid = -5, 10", "non-negative"),
    (AXIS + GRID + OUTS + "system.half_subcarriers = 2.5", "integer"),
    (AXIS + GRID + OUTS + "mobility.max_velocity_mps = banana", "number"),
    (AXIS + GRID + OUTS + "curve.a.sweep.grid = 1", "scenario key"),
    (AXIS + GRID + OUTS + "curve.9lives.system.snr_db = 3", "identifier"),
    (AXIS + GRID + OUTS + "just some words", "key = value"),
    (AXIS + GRID + OUTS + "cell.radius_m = 1000", "unknown key 'cell.radius_m'"),
    (AXIS + GRID + OUTS + "curve.a.cell.scatterer_radius_m = 50", "scenario key"),
    (AXIS + GRID + OUTS + "mc.power_mode = coherent", "unknown key 'mc.power_mode'"),
])
def test_rejects_malformed_input(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text + "\n")


@pytest.mark.parametrize("text,fragment", [
    (AXIS + GRID + OUTS + "mc.trials = inf", "mc.trials: expected a finite number"),
    (AXIS + OUTS + "sweep.grid = 0, nan", "sweep.grid: expected a finite number"),
    (AXIS + OUTS + "sweep.grid = 0, inf", "sweep.grid: expected a finite number"),
    (AXIS + GRID + OUTS + "cell.paths_per_device = inf", "cell.paths_per_device: expected a"),
    (AXIS + GRID + OUTS + "system.noise_variance = inf", "system.noise_variance: expected"),
    (AXIS + GRID + OUTS + "mobility.max_velocity_mps = -inf", "mobility.max_velocity_mps"),
    (AXIS + GRID + OUTS + "curve.a.cell.paths_per_device = nan",
     "curve.a.cell.paths_per_device: expected"),
    (AXIS + GRID + OUTS + "system.snr_db = -4000", "noise power out of range"),
    ("sweep.axis = snr_db\nsweep.grid = -4000, 0\nsweep.outputs = capacity_exact",
     "noise power out of range"),
    (AXIS + GRID + OUTS + "system.subcarrier_spacing_hz = 1e-320",
     "symbol_period_s must be finite"),
    (AXIS + GRID + OUTS + "system.symbol_period_s = 1e300\nsystem.subcarrier_spacing_hz = 1e300",
     "symbol_period_s \\* subcarrier_spacing_hz overflows"),
    # the span x = V / c * f_c * T_s overflows at the second grid point
    (AXIS + "sweep.grid = 0, 1e20\nsweep.outputs = ici_approx\n"
     "system.carrier_frequency_hz = 1e300",
     "normalized Doppler is not finite at v_max_mps = 1e\\+20"),
    # x is finite at 1e10 m/s (V f_c alone would overflow), b^2/18 + b^4/60 is not
    (AXIS + "sweep.grid = 0, 1e10\nsweep.outputs = ici_approx\n"
     "system.carrier_frequency_hz = 1e300",
     "b = .* at v_max_mps = 10000000000.0 overflows the closed-form series"),
    # x overflows at its last factor, T_s = 1e10 s
    (AXIS + "sweep.grid = 1e10\nsweep.outputs = capacity_exact\n"
     "system.carrier_frequency_hz = 1e300\nsystem.subcarrier_spacing_hz = 1e-10\n"
     "system.symbol_period_s = 1e10",
     "normalized Doppler is not finite at v_max_mps = 10000000000.0"),
    # x is finite at 1 m/s with T_s = 1e10 s, b^2/18 + b^4/60 is not
    (AXIS + "sweep.grid = 1\nsweep.outputs = capacity_exact\n"
     "system.carrier_frequency_hz = 1e300\nsystem.subcarrier_spacing_hz = 1e-10\n"
     "system.symbol_period_s = 1e10", "b = .* at v_max_mps = 1.0 overflows the closed-form"),
    # b is finite, b^2/18 + b^4/60 of the bounds overflows (it printed inf)
    (AXIS + "sweep.grid = 1\nsweep.outputs = ici_bounds, ici_approx, capacity_approx\n"
     "system.carrier_frequency_hz = 1e300", "b = .* at v_max_mps = 1.0 overflows"),
    # b^2/18 + b^4/60 is finite, P_T times it is not (the sweep ran, then
    # refused to emit inf)
    (AXIS + "sweep.grid = 1e6\nsweep.outputs = ici_bounds\nsystem.effective_power = 1e300",
     "system.effective_power: P_T \\(b\\^2/18 \\+ b\\^4/60\\) overflows at "
     "v_max_mps = 1000000.0, where ici_bounds would"),
    (AXIS + "sweep.grid = 0, 10, 1e6\nsweep.outputs = ici_exact, ici_approx\n"
     "curve.a.system.effective_power = 1\ncurve.b.system.effective_power = 1e300",
     "curve 'b': curve.b.system.effective_power: .* at v_max_mps = 1000000.0, where ici_approx"),
    # noise / P_T overflows
    (AXIS + GRID + "sweep.outputs = capacity_approx\n"
     "system.effective_power = 1e-300\nsystem.noise_variance = 1e10",
     "system.noise_variance, system.effective_power: capacity_approx is not finite "
     "at v_max_mps = 0.0"),
    # noise / P_T is finite, log2(e) times it is not
    ("sweep.axis = snr_db\nsweep.grid = -3081, 0\nsweep.outputs = capacity_approx",
     "sweep.grid, system.effective_power: capacity_approx is not finite at snr_db = -3081.0"),
    # noise / P_T underflows to 0 where b = 0
    (AXIS + GRID + "sweep.outputs = capacity_approx\n"
     "curve.a.system.effective_power = 1e300\ncurve.a.system.noise_variance = 1e-300",
     "curve 'a': curve.a.system.noise_variance, curve.a.system.effective_power: "
     "capacity_approx is not finite at v_max_mps = 0.0"),
    ("sweep.axis = v_max\nsweep.grid = 0, 1e-300\nsweep.outputs = ici_exact\n"
     "curve.a.system.carrier_frequency_hz = 9e8\n"
     "curve.b.system.carrier_frequency_hz = 1e300\n"
     "curve.b.system.subcarrier_spacing_hz = 1e-300\n"
     "curve.b.system.symbol_period_s = 1e300",
     "curve 'b': sweep.grid, curve.b.system.carrier_frequency_hz, "
     "curve.b.system.subcarrier_spacing_hz, system.wave_speed_mps: "
     "the normalized Doppler b = .* at v_max_mps = 1e-300 overflows"),
])
def test_rejects_non_finite_numbers(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text + "\n")


@pytest.mark.parametrize("text,fragment", [
    (AXIS + GRID + "sweep.outputs = ici_exact, capacity_mc\nsystem.noise_variance = 0",
     "system.noise_variance: the noise power is 0 at v_max_mps = 0.0, where capacity_mc"),
    (AXIS + "sweep.grid = 10, 50\nsweep.outputs = capacity_mc\nsystem.noise_variance = 0",
     "system.noise_variance: .* v_max_mps = 10.0, where capacity_mc"),
    (AXIS + GRID + "sweep.outputs = capacity_exact\nsystem.snr_db = 4000",
     "system.snr_db: .* where capacity_exact needs positive noise"),
    (AXIS + GRID + "sweep.outputs = capacity_approx, sum_rate\nsystem.noise_variance = 0",
     "where capacity_approx, sum_rate need positive noise"),
    ("sweep.axis = snr_db\nsweep.grid = 0, 20, 4000\nsweep.outputs = capacity_exact\n"
     "mobility.max_velocity_mps = 0", "sweep.grid: .* snr_db = 4000.0"),
    (AXIS + GRID + "sweep.outputs = sum_rate\ncurve.a.system.snr_db = 20\n"
     "curve.b.system.snr_db = 4000", "curve 'b': curve.b.system.snr_db: .* v_max_mps = 0.0"),
    # P_T minus the useful power rounds to 0 at this speed
    (AXIS + "sweep.grid = 1e-6\nsweep.outputs = capacity_exact, capacity_approx, sum_rate\n"
     "system.noise_variance = 0", "v_max_mps = 1e-06, where capacity_exact, sum_rate need"),
    # b^2 / 18 underflows to 0 at this speed
    (AXIS + "sweep.grid = 1e-160\nsweep.outputs = capacity_approx\nsystem.noise_variance = 0",
     "v_max_mps = 1e-160, where capacity_approx needs"),
])
def test_rejects_zero_noise_where_capacity_needs_it(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text + "\n")


@pytest.mark.parametrize("text,fragment", [
    (AXIS + GRID + "sweep.outputs = ici_exact, capacity_mc\nsystem.noise_variance = 1e-320",
     r"^system.noise_variance, system.effective_power: the capacity needs positive noise and "
     r"P_T / noise at most 1e\+300; got inf at v_max_mps = 0.0$"),
    ("sweep.axis = snr_db\nsweep.grid = 20, 3010\nsweep.outputs = capacity_mc",
     r"^sweep.grid, system.effective_power: .*; got 9.9+e\+300 at snr_db = 3010.0$"),
    (AXIS + GRID + "sweep.outputs = capacity_mc\ncurve.a.system.snr_db = 20\n"
     "curve.b.system.snr_db = 3010",
     r"^curve 'b': curve.b.system.snr_db, system.effective_power: .* v_max_mps = 0.0$"),
])
def test_rejects_an_snr_beyond_the_capacity_rule(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text + "\n")


def test_capacity_mc_holds_past_the_old_reach_of_the_rule():
    # at 100 m/s the interference dwarfs the noise from 200 dB on, so the
    # capacity stays put up to the rule's 1e300 limit; a rule that started
    # no lower than ln t = -60 read 0.387 at 300 dB and 0 at 1e-300
    mc = "sweep.outputs = capacity_mc\nmc.trials = 512\nmc.seed = 1\n"
    by_snr = parse_config("sweep.axis = snr_db\nsweep.grid = 200, 300\n" + mc)
    by_noise = parse_config(AXIS + "sweep.grid = 100\nsystem.noise_variance = 1e-300\n" + mc)
    base, *others = [row.values["capacity_mc"] for row in run_sweep(by_snr) + run_sweep(by_noise)]
    assert base == pytest.approx(6.5849, abs=1e-4)
    for value in others:
        assert abs(value - base) <= 1e-12 * base


@pytest.mark.parametrize("text", [
    AXIS + GRID + "sweep.outputs = ici_exact, ici_bounds, ici_approx, ici_mc\n"
    "system.noise_variance = 0",
    AXIS + "sweep.grid = 10, 50\nsweep.outputs = capacity_exact, capacity_approx, sum_rate\n"
    "system.snr_db = 4000",
    AXIS + GRID + "sweep.outputs = sum_rate\nsystem.bandwidth_hz = 0\nsystem.noise_variance = 0",
])
def test_accepts_zero_noise_where_nothing_needs_it(text):
    assert base_system(parse_config(text + "\n")).noise_variance == 0.0


def test_accepts_zero_noise_where_the_interference_is_positive():
    spec = parse_config(AXIS + "sweep.grid = 1e-3\n"
                        "sweep.outputs = capacity_exact, capacity_approx, sum_rate\n"
                        "system.noise_variance = 0\n")
    assert total_ici_power(1e-3, base_system(spec)) == pytest.approx(7.9e-13, rel=0.01)
    (row,) = run_sweep(spec)
    assert row.error is None
    assert all(math.isfinite(value) for value in row.values.values())


def test_zero_noise_check_leaves_a_quadrature_failure_to_its_row():
    # at 1e12 m/s (b about 4e9) the useful-power quadrature exceeds its
    # budget: parsing accepts the point and the sweep marks its row failed,
    # as with noise
    spec = parse_config(AXIS + "sweep.grid = 1e12\nsweep.outputs = capacity_exact\n"
                        "system.noise_variance = 0\n")
    (row,) = run_sweep(spec)
    assert row.values["capacity_exact"] is None
    assert "did not converge" in row.error


@pytest.mark.parametrize("cfg", [
    SystemConfig(),
    SystemConfig(effective_power=1e-300),
    SystemConfig(symbol_period_s=2.0 / 2500.0, carrier_frequency_hz=3e9),
], ids=["default", "tiny-power", "sparse-3ghz"])
def test_leaks_nothing_shortcut_keeps_the_quadrature_answers(cfg):
    # the answer of running the useful-power quadrature at every point
    # against the shortcut that skips it from b = 1e-3 up
    def quadrature_answer(v):
        try:
            return total_ici_power(v, cfg) == 0.0
        except QuadratureError:
            return False
    answers = []
    for b in np.geomspace(1e-9, 1e4, 131):
        v = float(b) * cfg.wave_speed_mps \
            / (math.pi * cfg.carrier_frequency_hz * cfg.symbol_period_s)
        answers.append(sweep_mod._leaks_nothing(v, cfg))
        assert answers[-1] == quadrature_answer(v), f"b = {b}"
    assert answers[0] and not answers[-1]


@pytest.mark.parametrize("text,outputs,refused", [
    # montecarlo.block_bytes: 256 trials x (2N + 1) devices x (M paths + 7)
    # doubles for the interference; for the capacity (M + 3) on each draw
    # set's columns, its main draws' 21 + 2 (R - 1), R = N // 18, on 256
    # rows and its tail's 2N - 20 on 32, 5 doubles a trial and near draw
    # and 11 a device that it holds across blocks; plus eight tiles, against
    # 1.75 GiB; montecarlo.run_bytes adds, at 100 trials of 2 grid points,
    # 11 doubles a trial for the interference, too few to refuse a run whose
    # block fits, and for the capacity 69 a trial, 14 a tail draw and the
    # two points' node sums, 629 doubles a node of the rule
    ("system.half_subcarriers = 30081", "ici_mc", None),   # 1.75 GiB - 29 kB
    ("system.half_subcarriers = 30082", "ici_mc", "block"),    # 1.75 GiB + 25 kB
    ("system.half_subcarriers = 57120\ncell.paths_per_device = 1", "ici_mc", None),
    ("system.half_subcarriers = 57121\ncell.paths_per_device = 1", "ici_mc", "block"),
    ("system.half_subcarriers = 32767", "capacity_mc", None),   # 0.31 GiB
    ("system.half_subcarriers = 183167", "capacity_mc", None),   # 1.75 GiB - 56 kB
    ("system.half_subcarriers = 183168", "capacity_mc", "run"),    # 1.75 GiB + 12 kB
    ("system.half_subcarriers = 183225", "capacity_mc", "run"),
    ("system.half_subcarriers = 183226", "capacity_mc", "block"),   # 1.75 GiB + 1.3 kB
    ("system.half_subcarriers = 32767", "ici_mc, capacity_mc", "block"),
    ("system.half_subcarriers = 32768", "ici_mc", "block"),
    ("system.half_subcarriers = 8192\ncell.paths_per_device = 64", "ici_mc", "block"),
    ("curve.a.system.half_subcarriers = 10\ncurve.b.system.half_subcarriers = 40000", "ici_mc",
     "block"),
])
def test_refuses_monte_carlo_blocks_above_the_memory_limit(text, outputs, refused):
    # parse only: an accepted config of this size is never run here
    mc = AXIS + GRID + f"system.bandwidth_hz = 0\nsweep.outputs = {outputs}\nmc.trials = 100\n" \
        + text + "\n"
    if refused == "block":
        with pytest.raises(ConfigError, match="system.half_subcarriers, cell.paths_per_device: "
                           ".* bytes of draws"):
            parse_config(mc)
    elif refused == "run":
        with pytest.raises(ConfigError, match="mc.trials: 100 trials of the 2 grid points "
                           ".* bytes of Monte Carlo arrays"):
            parse_config(mc)
    else:
        parse_config(mc)
    # the analytic outputs allocate no block of draws
    parse_config(mc.replace(outputs, "ici_approx"))


def test_refuses_monte_carlo_runs_that_keep_too_much_per_trial():
    # fig4's 500 Hz curve, 11 points: the capacity keeps 57 doubles a
    # trial of columns and 11 influences a part, and its fit 93 more, about
    # 17 GB at 10^7 trials; the presets at their own trial counts fit
    for name in ("fig3", "fig4", "fig5"):
        parse_config(preset_path(name).read_text())
    text = (AXIS + "sweep.grid = 0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100\n"
            "sweep.outputs = capacity_mc\nsystem.snr_db = 20\n"
            "system.subcarrier_spacing_hz = 500\nsystem.half_subcarriers = 199\n")
    parse_config(text + "mc.trials = 1000000\n")
    with pytest.raises(ConfigError, match=r"^mc.trials: 10000000 trials of the 11 grid points "
                       r"at half_subcarriers = 199 .* above the limit"):
        parse_config(text + "mc.trials = 10000000\n")


def test_target_index_is_checked_against_each_curve():
    # every fig4 curve carries at least 79 sub-carriers, the base scenario 49
    preset = preset_path("fig4").read_text()
    assert parse_config(preset + "mc.target_index = 30\n").plan.target_index == 30
    text = AXIS + GRID + "sweep.outputs = ici_exact, ici_mc\nmc.trials = 300\n"
    with pytest.raises(ConfigError, match=r"curve 'b': curve.b.system.half_subcarriers: "
                       r"mc.target_index = 10 .*\[-5, 5\]"):
        parse_config(text + "mc.target_index = 10\n"
                     "curve.a.system.half_subcarriers = 24\n"
                     "curve.b.system.half_subcarriers = 5\n")
    with pytest.raises(ConfigError, match="mc.target_index = -25 "):
        parse_config(text + "mc.target_index = -25\n")


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="sweep.axis"):
        parse_config("sweep.grid = 1\nsweep.outputs = ici_exact\n")
    with pytest.raises(ConfigError, match="sweep.grid"):
        parse_config("sweep.axis = v_max\nsweep.outputs = ici_exact\n")
    with pytest.raises(ConfigError, match="sweep.outputs"):
        parse_config("sweep.axis = v_max\nsweep.grid = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(BASE + "mc.seed = 1\nmc.seed = 2\n")


def test_outputs_canonicalized_and_deduplicated():
    spec = parse_config("sweep.axis = v_max\nsweep.grid = 10\n"
                        "sweep.outputs = sum_rate, ici_exact, ici_exact\n")
    assert spec.outputs == ("ici_exact", "sum_rate")


def test_mc_outputs_demand_enough_trials():
    text = "sweep.axis = v_max\nsweep.grid = 10\nsweep.outputs = ici_mc\nmc.trials = 50\n"
    with pytest.raises(ConfigError, match="trials"):
        parse_config(text)
    # fine without the Monte Carlo columns
    parse_config(text.replace("ici_mc", "ici_exact"))


TWO_CARRIERS = ("curve.a.system.carrier_frequency_hz = 9e8\n"
                "curve.b.system.carrier_frequency_hz = 3e9\n")


@pytest.mark.parametrize("text,message", [
    # a top-level fault is not labelled with the first curve
    (AXIS + GRID + OUTS + "system.snr_db = -4000",
     "system.snr_db: snr_db = -4000.0 puts the noise power out of range"),
    (AXIS + GRID + OUTS + "system.symbol_period_s = 3e-4\n"
     "curve.a.system.carrier_frequency_hz = 9e8\ncurve.b.system.carrier_frequency_hz = 3e9",
     "system.symbol_period_s, system.subcarrier_spacing_hz: symbol_period_s * "
     "subcarrier_spacing_hz must be a positive integer (got 0.7499999999999999)"),
    # a curve's own key keeps the curve's label
    (AXIS + GRID + OUTS + "system.symbol_period_s = 3e-4\n"
     "curve.a.system.subcarrier_spacing_hz = 5000\ncurve.b.system.carrier_frequency_hz = 3e9",
     "curve 'a': system.symbol_period_s, curve.a.system.subcarrier_spacing_hz: "
     "symbol_period_s * subcarrier_spacing_hz must be a positive integer"),
    (AXIS + GRID + OUTS + "curve.a.system.snr_db = 3\ncurve.b.system.snr_db = -4000",
     "curve 'b': curve.b.system.snr_db: snr_db = -4000.0 puts"),
    ("sweep.axis = snr_db\nsweep.grid = -4000, 0\nsweep.outputs = capacity_exact",
     "sweep.grid: snr_db = -4000.0 puts"),
    (AXIS + GRID + OUTS + "cell.paths_per_device = 0",
     "cell.paths_per_device: paths_per_device must be a positive integer"),
    # the point checks on configs the scenarios accept: a top-level key
    # leads without a curve label, and a curve's own key keeps it
    (AXIS + "sweep.grid = 1e6\nsweep.outputs = ici_bounds\nsystem.effective_power = 1e300\n"
     + TWO_CARRIERS, "system.effective_power: P_T (b^2/18 + b^4/60) overflows"),
    (AXIS + GRID + "sweep.outputs = capacity_mc\nmc.trials = 300\nsystem.noise_variance = 0\n"
     + TWO_CARRIERS, "system.noise_variance: the noise power is 0"),
    (AXIS + GRID + "sweep.outputs = ici_mc\nmc.trials = 300\nsystem.bandwidth_hz = 0\n"
     "system.half_subcarriers = 40000\n" + TWO_CARRIERS,
     "system.half_subcarriers, cell.paths_per_device: 80001 devices x 8 paths"),
    (AXIS + GRID + OUTS + "mc.target_index = 10\nsystem.half_subcarriers = 5\n" + TWO_CARRIERS,
     "system.half_subcarriers: mc.target_index = 10 outside"),
    (AXIS + GRID + "sweep.outputs = ici_mc\nmc.trials = 300\nsystem.bandwidth_hz = 0\n"
     "curve.a.system.half_subcarriers = 10\ncurve.b.system.half_subcarriers = 40000\n",
     "curve 'b': curve.b.system.half_subcarriers, cell.paths_per_device: 80001 devices"),
    (AXIS + "sweep.grid = 0, 1e10\nsweep.outputs = ici_exact\n"
     "system.carrier_frequency_hz = 1e300\n"
     "curve.a.system.effective_power = 1\ncurve.b.system.effective_power = 2\n",
     "sweep.grid, system.carrier_frequency_hz, system.subcarrier_spacing_hz, "
     "system.wave_speed_mps: the normalized Doppler b = "),
    (AXIS + "sweep.grid = 0, 1e20\nsweep.outputs = ici_exact\n"
     "system.carrier_frequency_hz = 1e300\n"
     "curve.a.system.effective_power = 1\ncurve.b.system.effective_power = 2\n",
     "sweep.grid, system.carrier_frequency_hz, system.subcarrier_spacing_hz, "
     "system.wave_speed_mps, system.symbol_period_s: the normalized Doppler is not finite"),
])
def test_a_faulty_scenario_names_the_key_that_set_it(text, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        parse_config(text + "\n")


def test_invalid_scenario_reported_at_parse_time():
    with pytest.raises(ConfigError, match="^curve 'bad': system.bandwidth_hz, "
                       "system.half_subcarriers, curve.bad.system.subcarrier_spacing_hz: "):
        parse_config(BASE + "curve.bad.system.subcarrier_spacing_hz = 5000\n")


def test_curve_overrides_recorded_in_order():
    spec = parse_config(BASE +
                        "curve.a.system.carrier_frequency_hz = 900e6\n"
                        "curve.b.system.carrier_frequency_hz = 3e9\n"
                        "curve.b.system.effective_power = 10\n")
    assert [name for name, _ in spec.curves] == ["a", "b"]
    assert dict(spec.curves)["b"] == (
        ("system.carrier_frequency_hz", 3e9),
        ("system.effective_power", 10.0),
    )


def test_round_trip_identity():
    rich = """
    system.carrier_frequency_hz = 3e9
    system.symbol_period_s = 8e-4
    system.subcarrier_spacing_hz = 2500
    system.half_subcarriers = 10
    system.effective_power = 2
    cell.paths_per_device = 4
    mobility.max_velocity_mps = 30
    sweep.axis = snr_db
    sweep.grid = 0, 10, 20
    sweep.outputs = capacity_exact, capacity_mc
    mc.trials = 512
    mc.seed = 99
    mc.target_index = -2
    curve.slow.mobility.max_velocity_mps = 10
    curve.fast.system.carrier_frequency_hz = 9e8
    """
    spec = parse_config(rich)
    assert base_system(spec).symbol_period_s == 8e-4
    assert parse_config(to_text(spec)) == spec


# ---------------------------------------------------------------------------
# execution

def test_rows_ordered_curves_then_axis():
    spec = parse_config(BASE.replace("ici_exact, capacity_exact", "ici_approx") +
                        "curve.a.system.carrier_frequency_hz = 900e6\n"
                        "curve.b.system.carrier_frequency_hz = 3e9\n")
    rows = run_sweep(spec)
    assert [(r.curve, r.axis_value) for r in rows] == [
        ("a", 0.0), ("a", 50.0), ("a", 100.0),
        ("b", 0.0), ("b", 50.0), ("b", 100.0)]
    # the 3 GHz curve suffers more interference at matching speed
    assert rows[5].values["ici_approx"] > rows[2].values["ici_approx"]


def test_snr_axis_applies_noise():
    spec = parse_config("sweep.axis = snr_db\nsweep.grid = 0, 20\n"
                        "sweep.outputs = capacity_exact\n"
                        "mobility.max_velocity_mps = 100\n")
    rows = run_sweep(spec)
    assert rows[0].values["capacity_exact"] < rows[1].values["capacity_exact"]
    assert rows[1].values["capacity_exact"] == pytest.approx(5.824005160389218, rel=1e-11)


def test_quadrature_failure_marks_row_and_continues(monkeypatch):
    def explode(index, v, cfg):
        raise QuadratureError("synthetic failure", estimate=math.nan,
                              error_bound=math.inf)
    monkeypatch.setattr(sweep_mod, "finite_n_ici", explode)
    spec = parse_config(BASE)
    rows = run_sweep(spec)
    assert all(row.values["ici_exact"] is None for row in rows)
    assert all("synthetic failure" in row.error for row in rows)
    # the healthy column still computed on every row
    assert all(row.values["capacity_exact"] is not None for row in rows)
    text = emit(rows, spec, fmt="csv")
    header = text.splitlines()[0]
    assert header.endswith(",error")
    assert ",," in text.splitlines()[1]


def test_workers_do_not_change_output():
    # two curves of different sub-carrier counts make two Monte Carlo groups
    spec = parse_config("sweep.axis = v_max\nsweep.grid = 0, 60\n"
                        "sweep.outputs = ici_approx, ici_mc, capacity_mc\n"
                        "mc.trials = 512\nmc.seed = 5\n"
                        "curve.a.system.half_subcarriers = 24\n"
                        "curve.b.system.half_subcarriers = 6\n")
    serial = emit(run_sweep(spec, workers=1), spec)
    parallel = emit(run_sweep(spec, workers=2), spec)
    assert serial == parallel


@pytest.mark.parametrize("text", [
    "sweep.axis = v_max\nsweep.grid = 0, 35, 100\n"
    "curve.a.system.carrier_frequency_hz = 3e9\n"
    "curve.b.system.half_subcarriers = 5\n"
    "curve.c.cell.paths_per_device = 3\n"
    "curve.d.system.subcarrier_spacing_hz = 1250\n",
    "sweep.axis = snr_db\nsweep.grid = 0, 10, 30\nmobility.max_velocity_mps = 70\n"
    "mc.target_index = -3\n"
    "curve.a.system.half_subcarriers = 4\ncurve.b.system.half_subcarriers = 4\n"
    "curve.b.system.carrier_frequency_hz = 2e9\n",
], ids=["v_max", "snr_db"])
def test_monte_carlo_columns_equal_single_point_estimates(text):
    spec = parse_config(text + "sweep.outputs = ici_mc, capacity_mc\n"
                        "mc.trials = 300\nmc.seed = 11\n")
    rows = run_sweep(spec)
    assert len(rows) == len(spec.curves) * len(spec.grid)
    overrides = dict(spec.curves)
    for row in rows:
        cfg, cell, mob = sweep_mod._scenario(spec, overrides[row.curve], row.axis_value)
        ici = estimate_total_ici(spec.plan, cfg, cell, mob)
        capacity = estimate_ergodic_capacity(spec.plan, cfg, cell, mob)
        assert (row.values["ici_mc"], row.values["ici_mc_std_error"]) \
            == (ici.mean, ici.std_error)
        assert (row.values["capacity_mc"], row.values["capacity_mc_std_error"]) \
            == (capacity.mean, capacity.std_error)


# ---------------------------------------------------------------------------
# emission

def test_csv_layout():
    spec = parse_config(BASE + "curve.only.system.carrier_frequency_hz = 900e6\n")
    rows = run_sweep(spec)
    lines = emit(rows, spec, fmt="csv").splitlines()
    assert lines[0] == "curve,v_max_mps,ici_exact,capacity_exact"
    assert len(lines) == 1 + len(rows)
    assert lines[1].startswith("only,0.0,0.0,")


def test_csv_without_curves_drops_curve_column():
    spec = parse_config(BASE)
    lines = emit(run_sweep(spec), spec).splitlines()
    assert lines[0] == "v_max_mps,ici_exact,capacity_exact"


def test_empty_rows_give_header_only_csv():
    spec = parse_config(BASE)
    assert emit([], spec, fmt="csv") == "v_max_mps,ici_exact,capacity_exact\n"


def test_csv_cells_read_back_bit_for_bit():
    spec = parse_config("sweep.axis = v_max\nsweep.grid = 0, 33.3, 100\n"
                        "sweep.outputs = ici_exact, capacity_exact, ici_mc\nmc.trials = 300\n")
    rows = run_sweep(spec)
    lines = emit(rows, spec).splitlines()
    assert lines[2].startswith(f"33.3,{rows[1].values['ici_exact']!r},")
    names = lines[0].split(",")
    for row, line in zip(rows, lines[1:], strict=True):
        cells = {name: float(cell).hex() for name, cell in zip(names, line.split(","))}
        assert cells == {"v_max_mps": row.axis_value.hex(),
                         **{name: value.hex() for name, value in row.values.items()}}


def test_json_emission():
    spec = parse_config(BASE)
    rows = run_sweep(spec)
    payload = json.loads(emit(rows, spec, fmt="json"))
    assert len(payload) == 3
    assert payload[0]["v_max_mps"] == 0.0
    assert payload[0]["ici_exact"] == 0.0
    assert set(payload[0]) == {"v_max_mps", "ici_exact", "capacity_exact"}


def test_json_uses_null_for_failed_cells():
    spec = parse_config(BASE)
    rows = [SweepRow(curve="", axis_value=1.0,
                     values={"ici_exact": None, "capacity_exact": 2.0},
                     error="synthetic")]
    payload = json.loads(emit(rows, spec, fmt="json"))
    assert payload[0]["ici_exact"] is None
    assert payload[0]["error"] == "synthetic"


def test_nan_refused():
    spec = parse_config(BASE)
    rows = [SweepRow(curve="", axis_value=1.0,
                     values={"ici_exact": math.nan, "capacity_exact": 1.0})]
    with pytest.raises(ValueError, match="NaN"):
        emit(rows, spec, fmt="csv")


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_infinity_refused(value):
    spec = parse_config(BASE)
    rows = [SweepRow(curve="", axis_value=1.0,
                     values={"ici_exact": 1.0, "capacity_exact": value})]
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError, match="infinity"):
            emit(rows, spec, fmt=fmt)


def test_unknown_format_rejected():
    spec = parse_config(BASE)
    with pytest.raises(ValueError, match="format"):
        emit([], spec, fmt="yaml")


# ---------------------------------------------------------------------------
# presets

@pytest.mark.parametrize("name", ["fig3", "fig4", "fig5"])
def test_presets_parse(name):
    spec = parse_config(preset_path(name).read_text())
    assert spec.axis == "v_max"
    assert spec.grid == tuple(float(v) for v in range(0, 101, 10))
    assert spec.plan.seed == 42
    assert len(spec.curves) >= 2


def test_readme_configs_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        parse_config(block)


def test_unknown_preset():
    with pytest.raises(ValueError, match="preset"):
        preset_path("fig9")
