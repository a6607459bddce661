"""Where the capacity Monte Carlo's variance and CPU time go, part by part.

    python3 tools/shares.py [--config PATH] [--first-seed 0] [--seeds 40]

Run from the root of a source checkout; the package is imported from ``src/``.
Without ``--config`` it evaluates the fig4-capacity benchmark's configs
(``bench/run.py``), with ``mc.seed`` = first_seed, ..., first_seed + seeds - 1
and the workload's trials; with it, that one config as written.  Each config's
``capacity_mc`` points are estimated group by group, as the sweep groups them,
with spies on ``montecarlo``: ``_std_error`` reads each point's residuals, one
array a part, and ``sinc_squared`` (each part's kernel tile), ``_part_factors``
and the parts' column builders are timed in CPU seconds.  The parts are named
``target``, ``+-2``, ``+-1``, ``mid`` and ``tail``.  Printed as one JSON
object: per part its residual variance summed over every point and config
(bit^2; a point's squared standard error is the sum of its parts'), its share
of that sum and its CPU seconds; and per point (curve, v_max) its squared
standard errors summed over the configs, their share of the whole, which is
the point's share of the benchmark's accuracy factor, and its parts' shares.
Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _bench_configs(first_seed: int, seeds: int) -> list[str]:
    """fig4-capacity's bench configs at ``mc.seed`` first_seed, ..."""
    sys.path.insert(0, str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(bench)
    workload = bench.WORKLOADS["fig4-capacity"]
    return [workload.config(seed, workload.trials)
            for seed in range(first_seed, first_seed + seeds)]


def _part_name(ds, part, index_gaps) -> str:
    if part.mid:
        return "mid"
    if not part.mirrored:
        return "target" if part.gaps is None else "tail"
    return f"+-{round(abs(index_gaps[ds.columns[part.columns][0]]))}"


class Spies:
    """Per part name its summed residual variance and CPU seconds, and per
    point its parts' variances, read while installed on ``montecarlo``."""

    def __init__(self, montecarlo):
        self.mc = montecarlo
        self.variance = defaultdict(float)
        self.seconds = defaultdict(lambda: defaultdict(float))
        self.points = []  # per capacity estimate: {part: variance}
        self.names = {}  # id of each capacity part -> its name
        self.kept = []  # those parts, so that no id is reused
        self.kernel_names = {}  # a part's gap vector -> its name
        self.estimator = None  # of the current run: "capacity" or "other"
        self.order = []  # the current run's part names, in its parts' order

    def _timed(self, kind: str, name: str, function, *args, **kwargs):
        start = time.process_time()
        try:
            return function(*args, **kwargs)
        finally:
            self.seconds[name][kind] += time.process_time() - start

    def install(self):
        mc = self.mc
        originals = {name: getattr(mc, name) for name in
                     ("_layout", "_device_powers", "_part_factors", "_std_error",
                      "sinc_squared", "_near_columns", "_far_columns")}
        spies = self

        def layout(estimator, index_gaps, paths):
            sets = originals["_layout"](estimator, index_gaps, paths)
            if estimator == "capacity":
                for ds, part in mc._parts(sets):
                    spies.names[id(part)] = _part_name(ds, part, index_gaps)
                    spies.kept.append(part)
            return sets

        def device_powers(plan, cell, scenarios, gaps, sets, lent=None):
            parts = mc._parts(sets)
            names = [spies.names.get(id(part)) for _, part in parts]
            spies.estimator = "capacity" if all(names) else "other"
            spies.kernel_names = {gap[ds.columns[part.columns]].tobytes(): name
                                  for gap in gaps for (ds, part), name in zip(parts, names)}
            spies.order = names
            yield from originals["_device_powers"](plan, cell, scenarios, gaps, sets, lent)

        def kernel(gap, *args, **kwargs):
            name = spies.kernel_names.get(np.ascontiguousarray(gap[0, :, 0]).tobytes())
            if name is None:  # another estimator's part
                return originals["sinc_squared"](gap, *args, **kwargs)
            return spies._timed("kernel_s", name, originals["sinc_squared"], gap, *args, **kwargs)

        def part_factors(part, *args):
            return spies._timed("factors_s", spies.names[id(part)], originals["_part_factors"],
                                part, *args)

        def builder(original):
            def build(part, *args):
                name = spies.names.get(id(part))
                if name is None:
                    return original(part, *args)
                return spies._timed("build_s", name, original, part, *args)
            return build

        def std_error(residuals):
            if spies.estimator == "capacity":
                point = dict.fromkeys(spies.order, 0.0)  # a static point has no residuals
                for name, r in zip(spies.order, residuals):
                    # the summed variance of the part's mean, as _std_error forms it
                    point[name] = float(np.var(r, axis=0, ddof=1).sum() / len(r)) \
                        if len(r) > 1 else 0.0
                spies.points.append(point)
            return originals["_std_error"](residuals)

        replacements = {"_layout": layout, "_device_powers": device_powers,
                        "_part_factors": part_factors, "_std_error": std_error,
                        "sinc_squared": kernel,
                        "_near_columns": builder(originals["_near_columns"]),
                        "_far_columns": builder(originals["_far_columns"])}
        for name, spy in replacements.items():
            setattr(mc, name, spy)
        return lambda: [setattr(mc, name, original) for name, original in originals.items()]


def measure(configs: list[str]) -> dict:
    """The report :func:`main` prints for the sweep ``configs``' capacity points."""
    sys.path.insert(0, str(ROOT / "src"))
    from nbofdma import montecarlo, sweep
    spies = Spies(montecarlo)
    log2e = montecarlo.LOG2_E
    by_point = defaultdict(lambda: defaultdict(float))
    restore = spies.install()
    try:
        for text in configs:
            spec = sweep.parse_config(text)
            groups = defaultdict(list)
            for curve, overrides in spec.curves or (("", ()),):
                for v_max in spec.grid:
                    cfg, cell, mob = sweep._scenario(spec, overrides, v_max)
                    groups[(cfg.half_subcarriers, cell)].append((curve, v_max, cfg, mob))
            for (_, cell), members in groups.items():
                first = len(spies.points)
                montecarlo.estimate_ergodic_capacity(spec.plan, [m[2] for m in members], cell,
                                                     [m[3] for m in members])
                for (curve, v_max, *_), point in zip(members, spies.points[first:],
                                                     strict=True):
                    for name, variance in point.items():
                        by_point[(curve, v_max)][name] += log2e ** 2 * variance
    finally:
        restore()
    for point in by_point.values():
        for name, variance in point.items():
            spies.variance[name] += variance
    total = math.fsum(spies.variance.values())  # every point's squared standard error
    names = sorted(spies.variance, key=lambda n: -spies.variance[n])
    points = []
    for (curve, v_max), point in by_point.items():
        variance = math.fsum(point.values())
        points.append({"curve": curve, "v_max": v_max, "variance": variance,
                       "share": variance / total if total else 0.0,
                       "parts": {name: point[name] / variance if variance else 0.0
                                 for name in names if name in point}})
    return {
        "configs": len(configs),
        "parts": {name: {"variance": spies.variance[name],
                         "share": spies.variance[name] / total if total else 0.0,
                         **{kind: spies.seconds[name][kind]
                            for kind in ("kernel_s", "factors_s", "build_s")}}
                  for name in names},
        "points": points,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, help="one sweep config, run as written")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=40)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    configs = [args.config.read_text()] if args.config else _bench_configs(args.first_seed,
                                                                           args.seeds)
    print(json.dumps(measure(configs), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
