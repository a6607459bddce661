"""A smoke run of ``tools/shares.py`` on a small capacity sweep."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from nbofdma import parse_config, run_sweep

SHARES = Path(__file__).resolve().parents[1] / "tools" / "shares.py"

# N = 12: a target, its +-2 and +-1 neighbours, a mid part and a tail
CONFIG = """
system.half_subcarriers = 12
system.snr_db = 20
sweep.axis = v_max
sweep.grid = 0, 60, 100
sweep.outputs = capacity_exact, capacity_mc
curve.a.system.subcarrier_spacing_hz = 2500
curve.b.system.subcarrier_spacing_hz = 1000
mc.trials = 100
mc.seed = 5
"""


def _tool():
    spec = importlib.util.spec_from_file_location("tools_shares", SHARES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_parts_shares_add_up_to_each_points_squared_standard_error(tmp_path, capsys):
    path = tmp_path / "small.cfg"
    path.write_text(CONFIG)
    assert _tool().main(["--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    parts = report["parts"]
    assert report["configs"] == 1
    assert set(parts) == {"target", "+-2", "+-1", "mid", "tail"}
    assert math.fsum(part["share"] for part in parts.values()) == pytest.approx(1.0, rel=1e-12)
    assert all(part[kind] >= 0.0 for part in parts.values()
               for kind in ("variance", "kernel_s", "factors_s", "build_s"))
    assert sum(part["factors_s"] for part in parts.values()) > 0.0
    # each point's summed variance is its squared standard error, which the
    # sweep reports alike, and a static point has none
    rows = {(row.curve, row.axis_value): row.values for row in run_sweep(parse_config(CONFIG))}
    points = report["points"]
    assert len(points) == len(rows) == 6
    for point in points:
        error = rows[point["curve"], point["v_max"]]["capacity_mc_std_error"]
        assert point["variance"] == pytest.approx(error ** 2, rel=1e-12, abs=0.0)
        assert (point["variance"] == 0.0) == (point["v_max"] == 0.0)
    assert math.fsum(point["share"] for point in points) == pytest.approx(1.0, rel=1e-12)
