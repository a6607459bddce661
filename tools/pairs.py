"""Paired benchmark runs of two revisions, written to one JSON file.

    python3 tools/pairs.py --base REV --change REV --output BENCH_<n>.json [--first-seed 1]

Run from a git checkout.  Each revision is extracted with ``git archive`` into
a temporary directory of its own, and the base revision a second time, so
that an A/A comparison of two extracts of the same tree measures the noise of
the machine.  For each workload of ``BENCHMARK.json``, pair i of PAIRS runs
``bench/run.py --workload W --seed first_seed + i --seconds S --trace 0`` in
both trees, S the file's ``run_seconds``, the base first on even i and the
change first on odd i, and then the A/A pairs run the two base extracts the
same way on the same seeds.  The
file records the machine, the load average before and after, the seeds,
every run's metrics, and per metric the medians and quartiles of each side,
the per-pair ratios (change over base), the wins of the change (pairs where
it is better, in the metric's declared direction), the A/A ratios as the
noise floor a claim must exceed, and two verdicts: ``gain_shown``, whether
the change wins at least nine pairs in ten (a tie counts for neither) and
its median is better than the base's by more than the base's interquartile
range, the bar a claimed gain must clear; and ``within_bound``, whether its
median is worse than the base's by no more than the metric's ``bound`` in
``BENCHMARK.json``, a share of the base's median.  Uses the standard library
and numpy only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

PAIRS = 10  # alternating pairs a workload, and as many A/A pairs


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def extract(rev: str, where: Path) -> Path:
    """The tree of ``rev`` under ``where``, from ``git archive``."""
    where.mkdir(parents=True)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as archive:
        archive.extractall(where, **safe)
    return where


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its result line and wall time."""
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                           cwd=tree, capture_output=True, text=True, timeout=600)
    if child.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited {child.returncode}: {child.stderr}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "")}


def quartiles(values) -> list:
    return [float(q) for q in np.percentile(values, [25, 50, 75])]


def summary(first: list, second: list, better: str, bound: float) -> dict:
    """Medians and quartiles of each side's runs, the per-pair ratios second
    over first, the pairs where ``second`` is better, and the verdicts
    ``gain_shown`` and ``within_bound`` (``bound`` a share of the first
    side's median)."""
    first, second = np.array(first), np.array(second)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = second / first
    sign = 1.0 if better == "lower" else -1.0  # > 0: lower is better
    wins = sign * (first - second) > 0.0
    base, change = np.median(first), np.median(second)
    iqr = float(np.subtract(*np.percentile(first, [75, 25])))
    return {"base_quartiles": quartiles(first), "change_quartiles": quartiles(second),
            "base_iqr": iqr,
            "median_change_over_base": float(change / base) if base else None,
            "ratio_quartiles": quartiles(ratios), "wins": int(wins.sum()), "pairs": len(first),
            "gain_shown": bool(10 * wins.sum() >= 9 * len(first) and sign * (base - change) > iqr),
            "within_bound": bool(sign * (change - base) <= bound * abs(base))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--change", required=True, help="the revision measured against it")
    parser.add_argument("--output", required=True, type=Path)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    declared = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {metric["name"]: (metric["better"], metric["bound"])
               for metric in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    revisions = {"base": git("rev-parse", args.base).decode().strip(),
                 "change": git("rev-parse", args.change).decode().strip()}
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))

    with tempfile.TemporaryDirectory() as scratch:
        # three names of one length: the directory's length moves the wall time
        trees = {name: extract(revisions[rev], Path(scratch) / name)
                 for name, rev in (("t0", "base"), ("t1", "change"), ("t2", "base"))}
        record = {"tool": "tools/pairs.py", "revisions": revisions, "machine": machine(),
                  "loadavg_before": list(os.getloadavg()), "started": time.time(),
                  "seconds": seconds, "seeds": seeds, "workloads": {}}
        for workload in (w["name"] for w in declared["workloads"]):
            runs = {"base": [], "change": [], "aa_base": [], "aa_copy": []}
            for i, seed in enumerate(seeds):
                for kind, (first, second) in (("", ("t0", "t1")), ("aa_", ("t0", "t2"))):
                    order = [(first, 0), (second, 1)]
                    for tree, side in order if i % 2 == 0 else order[::-1]:
                        result = bench_run(trees[tree], workload, seed, seconds)
                        key = kind + (("base", "change") if not kind else ("base", "copy"))[side]
                        runs[key].append({"seed": seed, "correct": result["correct"],
                                          "failed": result["failed"],
                                          "metrics": {name: m["value"] for name, m
                                                      in result["metrics"].items()}})
                        print(f"{workload} seed {seed} {key}: "
                              + " ".join(f"{name}={m['value']:.4g}"
                                         for name, m in result["metrics"].items()), flush=True)
            values = {key: {name: [run["metrics"][name] for run in side] for name in metrics}
                      for key, side in runs.items()}
            record["workloads"][workload] = {
                "runs": runs,
                "metrics": {name: summary(values["base"][name], values["change"][name], *rule)
                            for name, rule in metrics.items()},
                # the noise floor: a second extract of the base against the first
                "aa_noise": {name: summary(values["aa_base"][name], values["aa_copy"][name],
                                           *rule) for name, rule in metrics.items()},
            }
        record["loadavg_after"] = list(os.getloadavg())
        record["finished"] = time.time()
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
