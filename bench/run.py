"""Benchmark of the nbofdma sweep pipeline, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ``src/``.
Each run writes the workload's configs, with ``mc.seed`` = 4N, ..., 4N + 3
(see ``SUBSEEDS``), then:

1. set-up: starts fresh interpreters that each import numpy and then, timed,
   import ``nbofdma`` and parse a config; ``setup_s`` is the median time;
2. with ``--trace 0``, sweeps the configs in turn with
   ``cli.main(["sweep", ...])`` in this process, each at least once and for at
   least S seconds in all, and reports the end-to-end metrics: median wall
   time, time to the target Monte Carlo accuracy, peak RSS and the share of
   grid points that passed;
3. with ``--trace 1``, alternates untraced and traced sweeps for S seconds and
   reports the per-layer metrics of the traced ones (medians) and the tracing
   overhead; the spans go to ``bench/out/<workload>-seed<N>-spans.jsonl``;
4. checks every sweep's CSV (``checks.py``), requires every sweep of one
   config to write the same bytes, in this run and in earlier runs of the
   same sources (``bench/out/digests.json``), and prints a machine record, the
   metrics with their units and, last, the result as one JSON line.

The timed region is the ``cli.main`` call, which writes the CSV; the checks,
digests and run records come after it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from spans import COUNTS, PER_LAYER_UNITS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_RUNS = 11
# Each run sweeps SUBSEEDS configs that differ only in mc.seed, which is
# SUBSEEDS * seed + k.  The time-to-accuracy metric averages their standard
# errors, so one run's figure rests on SUBSEEDS independent estimates, and
# each config is swept more than once when time allows.
SUBSEEDS = 4

GRID = "0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100"


@dataclass(frozen=True)
class Workload:
    trials: int
    text: str

    def config(self, seed: int, trials: int) -> str:
        return f"{self.text.strip()}\nmc.seed = {seed}\nmc.trials = {trials}\n"


# Scaled-down paper figures.  fig3-interference runs the incoherent Monte
# Carlo branch on 49 devices plus N=24 quadrature; fig4-capacity runs the
# coherent branch on up to 399 devices x 8 paths and no leakage quadrature.
# There is no workload dominated by quadrature: analytic outputs at N=1000
# (nearly all time in finite_n_ici) were tried, but on a shared 2-core Xeon
# VM their sweep time drifted by up to 50% within minutes, so the spread of
# ten runs exceeded the largest bound the benchmark may set.
WORKLOADS = {
    "fig3-interference": Workload(trials=2048, text=f"""
system.subcarrier_spacing_hz = 2500
sweep.axis = v_max
sweep.grid = {GRID}
sweep.outputs = ici_exact, ici_bounds, ici_approx, ici_mc
curve.fc_900mhz.system.carrier_frequency_hz = 900e6
curve.fc_3ghz.system.carrier_frequency_hz = 3e9
"""),
    "fig4-capacity": Workload(trials=256, text=f"""
system.carrier_frequency_hz = 900e6
system.snr_db = 20
sweep.axis = v_max
sweep.grid = {GRID}
sweep.outputs = capacity_exact, capacity_approx, capacity_mc
curve.spacing_2500hz.system.subcarrier_spacing_hz = 2500
curve.spacing_2500hz.system.half_subcarriers = 39
curve.spacing_1000hz.system.subcarrier_spacing_hz = 1000
curve.spacing_1000hz.system.half_subcarriers = 99
curve.spacing_500hz.system.subcarrier_spacing_hz = 500
curve.spacing_500hz.system.half_subcarriers = 199
"""),
}

# numpy, the package's one dependency, loads before the clock starts: its
# import is most of an interpreter's start-up and the package cannot change it
SETUP_CHILD = ("import sys, time; import numpy; sys.path.insert(0, sys.argv[1]); "
               "start = time.perf_counter(); import nbofdma; "
               "nbofdma.parse_config(open(sys.argv[2]).read()); "
               "print(time.perf_counter() - start, flush=True)")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "mc_time_to_accuracy_s": "s",
                    "peak_rss_mb": "MB", "points_passed_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """Import ``nbofdma`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "nbofdma" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'nbofdma'}")
    sys.path.insert(0, str(SRC))
    import nbofdma
    if Path(nbofdma.__file__).resolve().parent != (SRC / "nbofdma").resolve():
        raise BenchError(f"nbofdma imported from {nbofdma.__file__}, not {SRC}")
    return nbofdma


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nbofdma").rglob("*")):
        if path.suffix in (".py", ".cfg"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record(workload: str, mc_seeds, trials) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": list(os.getloadavg()),
            "workload": workload, "mc_seeds": mc_seeds, "trials": trials}


def measure_setup(config_path: Path) -> float:
    """Median time, over fresh interpreters, to import ``nbofdma`` and parse
    the config."""
    times = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(config_path)],
                               capture_output=True, text=True, timeout=60)
        if child.returncode != 0:
            raise BenchError(f"set-up interpreter exited with code {child.returncode}: "
                             f"{child.stderr.strip()}")
        times.append(float(child.stdout))
    return statistics.median(times)


class Sweeper:
    """Runs the CLI sweep on one config and keeps what each sweep wrote."""

    def __init__(self, config_path: Path, csv_path: Path):
        from nbofdma import cli
        self.cli = cli
        self.config_path = config_path
        self.argv = ["sweep", "--config", str(config_path), "--output", str(csv_path),
                     "--workers", "1"]
        self.csv_path = csv_path
        self.outputs = []  # (exit code, csv bytes) per sweep

    def run(self, tracer=None) -> float:
        self.csv_path.unlink(missing_ok=True)
        if tracer is None:
            start = time.perf_counter()
            code = self.cli.main(self.argv)
            wall = time.perf_counter() - start
        else:
            with tracer.installed(), tracer.span("cli.main"):
                start = time.perf_counter()
                code = self.cli.main(self.argv)
                wall = time.perf_counter() - start
        data = self.csv_path.read_bytes() if self.csv_path.exists() else b""
        self.outputs.append((code, data))
        return wall


def load_digests() -> dict:
    path = OUT / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def save_digests(digests: dict):
    path = OUT / "digests.json"
    pending = path.with_suffix(".tmp")
    pending.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    os.replace(pending, path)


def verify(outputs, reference: dict, known_digest) -> tuple:
    """Check every sweep's (exit code, CSV bytes) against the reference and
    against ``known_digest``, or the first CSV when that is None; return
    (attempted, failed, notes, digest)."""
    attempted = failed = 0
    notes = []
    digest = known_digest
    for index, (code, data) in enumerate(outputs):
        attempted += len(reference)
        failures = checks.check_sweep(data, reference)
        sha = hashlib.sha256(data).hexdigest()
        if digest is None:
            digest = sha
        if sha != digest:
            failures.setdefault("digest", f"CSV sha256 {sha} differs from {digest}")
        if code not in (0, 2):
            failures.setdefault("exit", f"sweep exited with code {code}")
        failed += len(failures)
        notes.extend(f"sweep {index}: {key}: {note}" for key, note in sorted(failures.items()))
    return attempted, failed, notes, digest


def run(workload_name: str, seed: int, seconds: float, trace: bool, trials=None,
        min_sweeps=None) -> tuple:
    """One benchmark run; returns (result, machine record, failure notes).

    ``trials`` and ``min_sweeps`` override the workload's trial count and the
    least number of untraced sweeps (one per config) or traced pairs (1).
    """
    if min_sweeps is None:
        min_sweeps = 1 if trace else SUBSEEDS
    import_package()
    workload = WORKLOADS[workload_name]
    trials = trials or workload.trials
    reference = json.loads(REFERENCE.read_text())[workload_name]
    mc_seeds = [SUBSEEDS * seed + k for k in range(SUBSEEDS)]
    machine = machine_record(workload_name, mc_seeds, trials)

    OUT.mkdir(exist_ok=True)
    stem = f"{workload_name}-seed{seed}"
    sweepers = []
    for mc_seed in mc_seeds:
        config_path = OUT / f"{stem}-mc{mc_seed}.cfg"
        config_path.write_text(workload.config(mc_seed, trials))
        sweepers.append(Sweeper(config_path, OUT / f"{stem}-mc{mc_seed}-trace{int(trace)}.csv"))

    setup = measure_setup(sweepers[0].config_path)
    walls, traced_walls, tracers = [], [], []
    start = time.perf_counter()
    while len(walls) < min_sweeps or time.perf_counter() - start < seconds:
        sweeper = sweepers[len(walls) % SUBSEEDS]
        walls.append(sweeper.run())
        if trace:
            tracers.append(Tracer())
            traced_walls.append(sweeper.run(tracers[-1]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests = load_digests()
    source = source_digest()
    attempted = failed = 0
    notes = []
    csv_sha256 = {}
    for mc_seed, sweeper in zip(mc_seeds, sweepers):
        if not sweeper.outputs:
            continue
        key = f"{source}:{workload_name}:{mc_seed}:{trials}"
        n_attempted, n_failed, n_notes, digests[key] = verify(
            sweeper.outputs, reference, digests.get(key))
        csv_sha256[mc_seed] = digests[key]
        attempted += n_attempted
        failed += n_failed
        notes.extend(f"mc.seed {mc_seed} {note}" for note in n_notes)
    save_digests(digests)

    wall = statistics.median(walls)
    if not trace:
        factors = [checks.accuracy_factor(s.outputs[0][1]) for s in sweepers if s.outputs]
        metrics = {
            "setup_s": setup,
            "wall_s": wall,
            "mc_time_to_accuracy_s": wall * statistics.fmean(factors),
            "peak_rss_mb": peak_rss_mb,
            "points_passed_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    else:
        per_sweep = [tracer.metrics() for tracer in tracers]
        metrics = {name: per_sweep[0][name] if name in COUNTS
                   else statistics.median(m[name] for m in per_sweep) for name in per_sweep[0]}
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / wall
        units = PER_LAYER_UNITS
        for name in COUNTS:
            if len({m[name] for m in per_sweep}) != 1:
                failed += 1
                notes.append(f"per-layer count {name} differs between traced sweeps")
        with open(OUT / f"{stem}-spans.jsonl", "w") as handle:
            for index, tracer in enumerate(tracers):
                tracer.write(handle, f"{stem}-{index}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = {"machine": machine, "walls_s": walls, "traced_walls_s": traced_walls,
              "csv_sha256": csv_sha256, "failures": notes, **result}
    (OUT / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, machine, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result, machine, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine))
    for note in notes:
        print(f"FAILED {note}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
