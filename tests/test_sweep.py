"""Config parsing, canonical emission, sweep execution and row rendering."""

import json
import math

import numpy as np
import pytest

import nbofdma.sweep as sweep_mod
from nbofdma.analytic import total_ici_power
from nbofdma.montecarlo import estimate_ergodic_capacity, estimate_total_ici
from nbofdma.numerics import QuadratureError
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


# ---------------------------------------------------------------------------
# parsing

def test_defaults_applied():
    spec = parse_config(BASE)
    assert spec.system.carrier_frequency_hz == 900e6
    assert spec.system.subcarrier_spacing_hz == 2500.0
    assert spec.system.symbol_period_s == 1.0 / 2500.0
    assert spec.system.effective_power == 1.0
    assert spec.system.wave_speed_mps == 3e8
    assert spec.plan.trials == 100000 and spec.plan.seed == 0
    assert spec.curves == ()
    assert not spec.explicit_symbol_period


def test_comments_and_blank_lines_ignored():
    spec = parse_config("# leading comment\n\n" + BASE +
                        "mobility.max_velocity_mps = 80  # trailing\n")
    assert spec.mobility.max_velocity_mps == 80.0


def test_snr_shortcut_sets_noise():
    spec = parse_config(BASE + "system.snr_db = 20\n")
    assert spec.system.noise_variance == pytest.approx(0.01, rel=1e-12)
    spec = parse_config(BASE + "system.snr_db = 0\nsystem.effective_power = 2\n")
    assert spec.system.noise_variance == pytest.approx(2.0, rel=1e-12)


def test_snr_and_noise_are_exclusive():
    text = BASE + "system.snr_db = 20\nsystem.noise_variance = 0.01\n"
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config(text)


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
    # b = pi V f_c / (c df) overflows at the second grid point
    (AXIS + "sweep.grid = 0, 1e10\nsweep.outputs = ici_approx\n"
     "system.carrier_frequency_hz = 1e300",
     "normalized Doppler is not finite at v_max_mps = 10000000000.0"),
    # b is finite, the symbol-window span pi V f_c T_s / c is not
    (AXIS + "sweep.grid = 1\nsweep.outputs = capacity_exact\n"
     "system.carrier_frequency_hz = 1e300\nsystem.subcarrier_spacing_hz = 1e-10\n"
     "system.symbol_period_s = 1e10", "normalized Doppler is not finite at v_max_mps = 1.0"),
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
     "curve 'b': the normalized Doppler b = .* at v_max_mps = 1e-300 overflows"),
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


@pytest.mark.parametrize("text", [
    AXIS + GRID + "sweep.outputs = ici_exact, ici_bounds, ici_approx, ici_mc\n"
    "system.noise_variance = 0",
    AXIS + "sweep.grid = 10, 50\nsweep.outputs = capacity_exact, capacity_approx, sum_rate\n"
    "system.snr_db = 4000",
    AXIS + GRID + "sweep.outputs = sum_rate\nsystem.bandwidth_hz = 0\nsystem.noise_variance = 0",
])
def test_accepts_zero_noise_where_nothing_needs_it(text):
    assert parse_config(text + "\n").system.noise_variance == 0.0


def test_accepts_zero_noise_where_the_interference_is_positive():
    spec = parse_config(AXIS + "sweep.grid = 1e-3\n"
                        "sweep.outputs = capacity_exact, capacity_approx, sum_rate\n"
                        "system.noise_variance = 0\n")
    assert total_ici_power(1e-3, spec.system) == pytest.approx(7.9e-13, rel=0.01)
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


@pytest.mark.parametrize("text,refused", [
    ("system.half_subcarriers = 32767", False),   # 65535 x 8 x 256 doubles: 1 GiB - 16 kiB
    ("system.half_subcarriers = 32768", True),
    ("system.half_subcarriers = 8192\ncell.paths_per_device = 33", True),
    ("curve.a.system.half_subcarriers = 10\ncurve.b.system.half_subcarriers = 40000", True),
])
def test_refuses_monte_carlo_blocks_above_the_memory_limit(text, refused):
    # parse only: an accepted config of this size is never run here
    mc = AXIS + GRID + "system.bandwidth_hz = 0\nsweep.outputs = ici_mc\n" + text + "\n"
    if refused:
        with pytest.raises(ConfigError, match="system.half_subcarriers: .* bytes of draws"):
            parse_config(mc)
    else:
        parse_config(mc)
    # the analytic outputs allocate no block of draws
    parse_config(mc.replace("ici_mc", "ici_approx"))


def test_target_index_is_checked_against_each_curve():
    # every fig4 curve carries at least 79 sub-carriers, the base scenario 49
    preset = preset_path("fig4").read_text()
    assert parse_config(preset + "mc.target_index = 30\n").plan.target_index == 30
    text = AXIS + GRID + "sweep.outputs = ici_exact, ici_mc\nmc.trials = 300\n"
    with pytest.raises(ConfigError, match=r"curve 'b': mc.target_index = 10 .*\[-5, 5\]"):
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


def test_invalid_scenario_reported_at_parse_time():
    with pytest.raises(ConfigError, match="curve 'bad'"):
        parse_config(BASE + "curve.bad.system.subcarrier_spacing_hz = 5000\n")


def test_curve_overrides_recorded_in_order():
    spec = parse_config(BASE +
                        "curve.a.system.carrier_frequency_hz = 900e6\n"
                        "curve.b.system.carrier_frequency_hz = 3e9\n"
                        "curve.b.mobility.max_velocity_mps = 10\n")
    assert [name for name, _ in spec.curves] == ["a", "b"]
    assert dict(spec.curves)["b"] == (
        ("system.carrier_frequency_hz", 3e9),
        ("mobility.max_velocity_mps", 10.0),
    )


def test_round_trip_identity():
    rich = """
    system.carrier_frequency_hz = 3e9
    system.symbol_period_s = 8e-4
    system.subcarrier_spacing_hz = 2500
    system.half_subcarriers = 10
    system.snr_db = 15
    cell.paths_per_device = 4
    mobility.max_velocity_mps = 30
    sweep.axis = snr_db
    sweep.grid = 0, 10, 20
    sweep.outputs = capacity_exact, capacity_mc
    mc.trials = 512
    mc.seed = 99
    mc.target_index = -2
    curve.slow.mobility.max_velocity_mps = 10
    curve.fast.mobility.max_velocity_mps = 100
    """
    spec = parse_config(rich)
    assert spec.explicit_symbol_period
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
    assert lines[1].startswith("only,0,0,")


def test_csv_without_curves_drops_curve_column():
    spec = parse_config(BASE)
    lines = emit(run_sweep(spec), spec).splitlines()
    assert lines[0] == "v_max_mps,ici_exact,capacity_exact"


def test_empty_rows_give_header_only_csv():
    spec = parse_config(BASE)
    assert emit([], spec, fmt="csv") == "v_max_mps,ici_exact,capacity_exact\n"


def test_twelve_significant_digits():
    spec = parse_config("sweep.axis = v_max\nsweep.grid = 100\n"
                        "sweep.outputs = capacity_exact\n")
    line = emit(run_sweep(spec), spec).splitlines()[1]
    assert line.split(",")[1] == "5.82400516039"


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


def test_unknown_preset():
    with pytest.raises(ValueError, match="preset"):
        preset_path("fig9")
