"""Command line behaviour: subcommands, exit codes, file and stdout output."""

import json

import pytest

from nbofdma import __version__, cli
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
    out = capsys.readouterr().out
    values = {line.split()[0]: float(line.split()[1])
              for line in out.strip().splitlines()}
    assert values["normalized_doppler"] == pytest.approx(0.3769911184307752, rel=1e-11)
    assert values["useful_power"] == pytest.approx(0.9921712405420337, rel=1e-11)
    assert values["ici_power"] == pytest.approx(0.007828759457966318, rel=1e-9)
    assert values["capacity_upper_bits"] == pytest.approx(5.824005160389218, rel=1e-11)
    assert values["ici_lower_bound"] <= values["ici_power"] <= values["ici_upper_bound"]


def test_check_passes(capsys):
    assert main(["check", "--trials", "512"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 6
    assert "PASS  mc-agreement" in out
    assert "PASS  capacity-bound" in out


def test_check_flags_a_capacity_above_its_bound(monkeypatch, capsys):
    # 0.1 bit above the Jensen bound, at a standard error the variate could deliver
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
        exact = finite_n_ici(0, mob.max_velocity_mps, cfg)
        return Estimate(mean=1.1 * exact, std_error=1e-3 * exact, trials=plan.trials)
    monkeypatch.setattr(cli, "estimate_total_ici", biased)
    assert main(["check", "--trials", "512"]) == 2
    out = capsys.readouterr().out
    assert "FAIL  mc-agreement" in out
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
