"""A smoke run of ``tools/honesty.py`` on a small capacity sweep."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from nbofdma import parse_config, run_sweep

HONESTY = Path(__file__).resolve().parents[1] / "tools" / "honesty.py"

# fig4's 2500 Hz curve, whose 30 and 100 m/s points have quadrature values,
# and a static point
CONFIG = """
system.snr_db = 20
system.subcarrier_spacing_hz = 2500
system.half_subcarriers = 39
sweep.axis = v_max
sweep.grid = 0, 30, 100
sweep.outputs = capacity_mc
mc.trials = 100
mc.seed = 5
"""


def _tool():
    spec = importlib.util.spec_from_file_location("tools_honesty", HONESTY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_ratios_and_z_scores_are_those_of_the_seeds_sweeps(tmp_path, capsys):
    path = tmp_path / "small.cfg"
    path.write_text(CONFIG)
    tool = _tool()
    assert tool.main(["--config", str(path), "--first-seed", "3", "--seeds", "4",
                      "--resamples", "200"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seeds"] == [3, 6]
    points = {point["v_max"]: point for point in report["points"]}
    assert sorted(points) == [0.0, 30.0, 100.0]
    # the sweep of each seed reports the same estimates
    runs = {v_max: [] for v_max in points}
    for seed in range(3, 7):
        for row in run_sweep(parse_config(CONFIG.replace("mc.seed = 5", f"mc.seed = {seed}"))):
            runs[row.axis_value].append((row.values["capacity_mc"],
                                         row.values["capacity_mc_std_error"]))
    table = tool.quadrature_table()
    assert table[2500.0, 39, 8].keys() == {30.0, 100.0}
    for v_max, point in points.items():
        means, errors = np.array(runs[v_max]).T
        assert point["mean"] == pytest.approx(means.mean(), rel=1e-15)
        assert point["rms_std_error"] == pytest.approx(math.sqrt(np.mean(errors ** 2)), rel=1e-12)
        if v_max == 0.0:  # exact, with no spread
            assert point["spread"] == 0.0 and point["ratio"] is point["z"] is None
            continue
        spread = means.std(ddof=1)
        assert point["ratio"] == pytest.approx(math.sqrt(np.mean(errors ** 2)) / spread,
                                               rel=1e-12)
        low, high = point["ratio_90"]
        assert 0.0 < low <= high
        assert point["quadrature"] == table[2500.0, 39, 8][v_max]
        assert point["z"] == pytest.approx((means.mean() - point["quadrature"])
                                           / (spread / 2.0), rel=1e-9)
