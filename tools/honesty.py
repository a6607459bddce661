"""How honest the capacity Monte Carlo's reported standard error is, and how
far its mean lies from the independent quadrature, over a range of seeds.

    python3 tools/honesty.py --config PATH [--first-seed 0] [--seeds 200]
                             [--trials N] [--resamples 2000]

Run from the root of a source checkout; the package is imported from ``src/``.
Each seed first_seed, ..., first_seed + seeds - 1 replaces the config's
``mc.seed`` (and ``--trials`` its ``mc.trials``); its ``capacity_mc`` points
are estimated group by group, as the sweep groups them, without the other
outputs.  Printed as one JSON object with, per point (curve, v_max):

- ``ratio``: the RMS of the reported standard errors over the spread (the
  standard deviation) of the estimates, 1 for an honest standard error, and
  ``ratio_90``, its 90% percentile bootstrap interval over the seeds
  (``--resamples`` resamples, a fixed stream, less any that draws one seed
  alone);
- ``mean``, ``spread`` and ``rms_std_error`` in bit/s/Hz;
- ``quadrature`` and ``z``: where the point is one of the ergodic capacities
  that ``tests/test_montecarlo.py`` holds in ``CAPACITY_QUADRATURE`` (a
  default system but for the spacing and the sub-carrier count, the centre
  target), that value and the z of the mean of the estimates against it,
  the standard error of that mean from their spread; null elsewhere.

A static point has no spread, and reads null for both.  Uses the standard
library and numpy only.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def quadrature_table() -> dict:
    """``CAPACITY_QUADRATURE`` of ``tests/test_montecarlo.py``, read as a
    literal so that the tests stay its one source."""
    tree = ast.parse((ROOT / "tests" / "test_montecarlo.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "CAPACITY_QUADRATURE"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_montecarlo.py holds no CAPACITY_QUADRATURE")


def estimates(text: str, seeds: range, trials: int | None) -> dict:
    """Per point (curve, v_max): its (scenario, cell, target) and the
    (mean, standard error) of every seed, in bit/s/Hz."""
    sys.path.insert(0, str(ROOT / "src"))
    from nbofdma import montecarlo, sweep
    spec = sweep.parse_config(text)
    if "capacity_mc" not in spec.outputs:
        raise SystemExit("the config's sweep.outputs name no capacity_mc")
    groups = defaultdict(list)
    for curve, overrides in spec.curves or (("", ()),):
        for v_max in spec.grid:
            cfg, cell, mob = sweep._scenario(spec, overrides, v_max)
            groups[(cfg.half_subcarriers, cell)].append((curve, v_max, cfg, mob))
    points = {}
    for seed in seeds:
        plan = dataclasses.replace(spec.plan, seed=seed,
                                   **({} if trials is None else {"trials": trials}))
        for (_, cell), members in groups.items():
            found = montecarlo.estimate_ergodic_capacity(plan, [m[2] for m in members], cell,
                                                         [m[3] for m in members])
            for (curve, v_max, cfg, _), estimate in zip(members, found, strict=True):
                point = points.setdefault((curve, v_max), ((cfg, cell, plan.target_index), []))
                point[1].append((estimate.mean, estimate.std_error))
    return points


def reference(table: dict, cfg, cell, target: int, v_max: float) -> float | None:
    """The quadrature value of a point, or None where the table has none."""
    from nbofdma.sysmodel import SystemConfig
    for (spacing, half_subcarriers, paths), values in table.items():
        if (target == 0 and cell.paths_per_device == paths and v_max in values
                and cfg == SystemConfig(subcarrier_spacing_hz=spacing,
                                        half_subcarriers=half_subcarriers)):
            return values[v_max]
    return None


def report(points: dict, table: dict, resamples: int) -> list[dict]:
    """Each point's ratio, its bootstrap interval and its z (:func:`main`)."""
    rng = np.random.default_rng(0)
    rows = []
    for (curve, v_max), ((cfg, cell, target), runs) in points.items():
        means, errors = np.array(runs).T
        spread = float(means.std(ddof=1)) if len(means) > 1 else 0.0
        rms = math.sqrt(float(np.mean(errors ** 2)))
        row = {"curve": curve, "v_max": v_max, "mean": float(means.mean()), "spread": spread,
               "rms_std_error": rms, "ratio": None, "ratio_90": None, "quadrature": None,
               "z": None}
        if spread > 0.0:
            picks = rng.integers(0, len(means), (resamples, len(means)))
            spreads = means[picks].std(axis=1, ddof=1)
            kept = spreads > 0.0  # a resample of one seed alone has no spread
            ratios = np.sqrt(np.mean(errors[picks[kept]] ** 2, axis=1)) / spreads[kept]
            row["ratio"] = rms / spread
            row["ratio_90"] = [float(v) for v in np.percentile(ratios, [5.0, 95.0])]
            value = reference(table, cfg, cell, target, v_max)
            if value is not None:
                row["quadrature"] = value
                row["z"] = (row["mean"] - value) / (spread / math.sqrt(len(means)))
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, required=True, help="a sweep config")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--trials", type=int, help="replaces the config's mc.trials")
    parser.add_argument("--resamples", type=int, default=2000)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    if args.first_seed < 0 or args.resamples < 1:
        parser.error("--first-seed must be at least 0 and --resamples at least 1")
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    points = estimates(args.config.read_text(), seeds, args.trials)
    print(json.dumps({"config": str(args.config), "seeds": [seeds.start, seeds.stop - 1],
                      "points": report(points, quadrature_table(), args.resamples)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
