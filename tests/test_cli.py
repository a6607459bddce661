"""Command line behaviour: subcommands, exit codes, file and stdout output."""

import json
import math

import pytest

from nbofdma import __version__, cli, montecarlo
from nbofdma.analytic import capacity_upper, finite_n_ici
from nbofdma.cli import main
from nbofdma.montecarlo import Estimate

GOOD = """
sweep.axis = v_max
sweep.grid = 0, 100
sweep.outputs = capacity_exact
"""


def test_requires_subcommand(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_help_and_version(capsys):
    assert main(["--help"]) == 0
    assert "sweep" in capsys.readouterr().out
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_analytic_report(capsys):
    assert main(["analytic", "--v-max", "100"]) == 0
    out, err = capsys.readouterr()
    values = {line.split()[0]: float(line.split()[1])
              for line in out.strip().splitlines()}
    assert values["normalized_doppler"] == pytest.approx(0.3769911184307752, rel=1e-11)
    assert values["useful_power"] == pytest.approx(0.9921712405420337, rel=1e-11)
    assert values["ici_power"] == pytest.approx(0.007828759457966318, rel=1e-9)
    assert values["capacity_upper_bits"] == pytest.approx(5.824005160389218, rel=1e-11)
    assert "capacity_upper_approx_bits" in values  # 100 m/s is below the 133 m/s threshold
    assert err == ""
    assert values["ici_lower_bound"] <= values["ici_power"] <= values["ici_upper_bound"]


def test_analytic_leaves_out_the_approximations_beyond_their_regime(capsys):
    # at 1e6 m/s the capacity approximation is -19.6 bits
    assert main(["analytic", "--v-max", "1e6"]) == 0
    captured = capsys.readouterr()
    names = [line.split()[0] for line in captured.out.strip().splitlines()]
    assert "capacity_upper_bits" in names
    assert "ici_small_velocity_approx" not in names
    assert "capacity_upper_approx_bits" not in names
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("note: ") and "approx_validity_threshold_mps" in captured.err


def test_analytic_leaves_out_the_bounds_beyond_their_regime(capsys):
    # at 1e6 m/s the lower bound is 0 and the upper one 3.4e12 times P_T
    assert main(["analytic", "--v-max", "1e6"]) == 0
    captured = capsys.readouterr()
    values = {line.split()[0]: float(line.split()[1])
              for line in captured.out.strip().splitlines()}
    assert "ici_lower_bound" not in values and "ici_upper_bound" not in values
    assert values["ici_power"] == pytest.approx(0.99756007070, rel=1e-9)
    assert "ici_lower_bound, ici_upper_bound" in captured.err
    # just below the threshold the bounds are printed and bracket the power
    assert main(["analytic", "--v-max", "132"]) == 0
    captured = capsys.readouterr()
    values = {line.split()[0]: float(line.split()[1])
              for line in captured.out.strip().splitlines()}
    assert values["ici_lower_bound"] <= values["ici_power"] <= values["ici_upper_bound"]
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["--snr-db", "-4000"],                         # 10^400 overflows a float
    ["--effective-power", "inf"],
    ["--effective-power", "1e308", "--snr-db", "-10"],  # noise power overflows
])
def test_analytic_refuses_an_out_of_range_power(argv, capsys):
    assert main(["analytic", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("v_max, reason", [
    ("1e308", "overflows the Doppler span"),  # x is finite, b = pi x / (T_s df) is not
    ("inf", "must be finite and non-negative"),
    ("-1", "must be finite and non-negative"),
])
def test_analytic_refuses_a_speed_out_of_range(v_max, reason, capsys):
    assert main(["analytic", "--v-max", v_max]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --v-max ")
    assert reason in captured.err
    assert len(captured.err.splitlines()) == 1


def test_check_passes(capsys):
    assert main(["check", "--trials", "512"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 6
    assert "PASS  mc-agreement" in out
    assert "PASS  capacity-bound" in out


def test_check_flags_a_capacity_above_its_bound(monkeypatch, capsys):
    # 0.1 bit above the capacity at the mean powers, at a standard error the variate could deliver
    def inflated(plan, cfg, cell, mob):
        bound = capacity_upper(mob.max_velocity_mps, cfg)
        return Estimate(mean=bound + 0.1, std_error=1e-3, trials=plan.trials)
    monkeypatch.setattr(cli, "estimate_ergodic_capacity", inflated)
    assert main(["check", "--trials", "512"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  capacity-bound" in out
    assert out.count("FAIL") == 1


def test_check_flags_a_simulator_off_the_quadrature(monkeypatch, capsys):
    # 10% high, at a standard error the control variate could deliver
    def biased(plan, cfg, cell, mob):
        if isinstance(mob, list):  # a group: each member as if alone
            return [biased(plan, c, cell, m) for c, m in zip(cfg, mob)]
        exact = finite_n_ici(0, mob.max_velocity_mps, cfg)
        return Estimate(mean=1.1 * exact, std_error=1e-3 * exact, trials=plan.trials)
    monkeypatch.setattr(cli, "estimate_total_ici", biased)
    assert main(["check", "--trials", "512"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  mc-agreement" in out
    assert out.count("FAIL") == 1


def test_check_flags_a_group_that_differs_from_its_members(monkeypatch, capsys):
    # one ulp off in the group's second scenario
    def drifting(plan, cfg, cell, mob):
        estimates = montecarlo.estimate_total_ici(plan, cfg, cell, mob)
        if isinstance(mob, list):
            last = estimates[-1]
            estimates[-1] = Estimate(mean=math.nextafter(last.mean, math.inf),
                                     std_error=last.std_error, trials=last.trials)
        return estimates
    monkeypatch.setattr(cli, "estimate_total_ici", drifting)
    assert main(["check", "--trials", "512"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  mc-determinism" in out
    assert out.count("FAIL") == 1


def test_sweep_to_stdout(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(GOOD)
    assert main(["sweep", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "v_max_mps,capacity_exact"
    assert len(out.splitlines()) == 3


def test_sweep_to_file_and_json(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(GOOD)
    dest = tmp_path / "out.json"
    assert main(["sweep", "--config", str(cfg), "--format", "json",
                 "--output", str(dest)]) == 0
    payload = json.loads(dest.read_text())
    assert [row["v_max_mps"] for row in payload] == [0.0, 100.0]


def test_sweep_accepts_preset_name(tmp_path, capsys):
    dest = tmp_path / "fig5.csv"
    assert main(["sweep", "--config", "fig5", "--output", str(dest)]) == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "curve,v_max_mps,capacity_exact,sum_rate"
    assert len(lines) == 1 + 4 * 11


def test_seed_override_changes_monte_carlo(tmp_path):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text("sweep.axis = v_max\nsweep.grid = 50\n"
                   "sweep.outputs = ici_mc\nmc.trials = 512\n")
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(["sweep", "--config", str(cfg), "--output", str(a), "--seed", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--output", str(b), "--seed", "2"]) == 0
    assert main(["sweep", "--config", str(cfg), "--output", str(c), "--seed", "1"]) == 0
    assert a.read_text() != b.read_text()
    assert a.read_text() == c.read_text()


def test_trials_override_revalidated(tmp_path, capsys):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text("sweep.axis = v_max\nsweep.grid = 50\n"
                   "sweep.outputs = ici_mc\nmc.trials = 512\n")
    assert main(["sweep", "--config", str(cfg), "--trials", "10"]) == 1
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_worker_count_below_one_is_a_usage_error(workers, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
    assert main(["sweep", "--config", "fig3", "--workers", workers]) == 1
    assert "--workers" in capsys.readouterr().err


def test_config_error_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sweep.axis = sideways\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_preset_exits_1(capsys):
    assert main(["sweep", "--config", "fig9"]) == 1
    assert "preset" in capsys.readouterr().err


def test_missing_file_exits_3(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "missing" / "x.cfg")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_unwritable_output_exits_3(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(GOOD)
    dest = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--output", str(dest)]) == 3


def test_partial_numerical_failure_exits_2(tmp_path, capsys):
    cfg = tmp_path / "pathological.cfg"
    cfg.write_text("system.carrier_frequency_hz = 1e11\n"
                   "system.subcarrier_spacing_hz = 0.01\n"
                   "system.bandwidth_hz = 0\n"
                   "system.half_subcarriers = 1\n"
                   "sweep.axis = v_max\n"
                   "sweep.grid = 0, 1e4\n"
                   "sweep.outputs = ici_exact\n")
    assert main(["sweep", "--config", str(cfg), "--output",
                 str(tmp_path / "partial.csv")]) == 2
    err = capsys.readouterr().err
    assert "1 of 2" in err
    body = (tmp_path / "partial.csv").read_text()
    assert "error" in body.splitlines()[0]


def test_analytic_numerical_failure_exits_2(capsys):
    # at 1e9 m/s the leakage integrand of ici_finite_n sweeps about 1e6
    # sinc^2 lobes, beyond the quadrature budget; at 1e300 m/s the span
    # x = V_max / c * f_c * T_s = 1.2e297 and b = pi x are still finite, so
    # the report runs until the leakage refuses its oscillations
    for v_max in ("1e9", "1e300"):
        assert main(["analytic", "--v-max", v_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: ")
        assert "oscillations, beyond the subdivision budget" in captured.err
        assert len(captured.err.splitlines()) == 1
