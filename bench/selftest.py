"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload once untraced and once traced at a tiny trial count,
with every check on, and shows that each metric prints with its unit.  Then
feeds the checks deliberately broken CSVs and a foreign digest and shows that
each is caught.  Exits 0 when the harness behaves, 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import checks
import run
from spans import COUNTS

TINY_TRIALS = 128


def _rewrite(data: bytes, key: str, column: str | None, change=None) -> bytes:
    """The CSV with ``column`` of point ``key`` set to change(value), a new
    column staying empty on the other rows; ``column=None`` drops the point."""
    rows = []
    for row in csv.DictReader(io.StringIO(data.decode())):
        hit = checks.point_key(row.get("curve", ""), row["v_max_mps"]) == key
        if column is None:
            if not hit:
                rows.append(row)
            continue
        row[column] = change(row.get(column, "")) if hit else row.get(column, "")
        rows.append(row)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue().encode()


def main() -> int:
    problems = []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    csvs = {}
    for name in run.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            names = {metric["name"]: metric["unit"] for metric in declared[kind]}
            result, _, notes = run.run(name, seed=1, seconds=0.0, trace=trace,
                                       trials=TINY_TRIALS, min_sweeps=1)
            for metric, entry in result["metrics"].items():
                print(f"  {name} {metric} {entry['value']:.6g} {entry['unit']}")
            expect(set(result["metrics"]) == set(names)
                   and all(entry["unit"] == names[m] for m, entry in result["metrics"].items()),
                   f"{name} trace={int(trace)}: every {kind} metric of BENCHMARK.json "
                   "printed with its unit")
            expect(result["correct"] and not notes,
                   f"{name} trace={int(trace)}: all checks pass ({notes[:3]})")
        csvs[name] = (run.OUT / f"{name}-seed1-mc{run.SUBSEEDS}-trace0.csv").read_bytes()
        expect(result["metrics"]["trace.coverage_ratio"]["value"] >= 0.95,
               f"{name}: traced spans cover at least 95% of the traced wall time")
        expect(all(isinstance(result["metrics"][c]["value"], int) for c in COUNTS),
               f"{name}: per-layer counts are whole numbers")

    reference = json.loads(run.REFERENCE.read_text())
    fig3, fig4 = csvs["fig3-interference"], csvs["fig4-capacity"]
    ref3, ref4 = reference["fig3-interference"], reference["fig4-capacity"]
    key3, key4 = "fc_900mhz@50.0", "spacing_500hz@50.0"

    def caught(data, ref, key, what):
        failures = checks.check_sweep(data, ref)
        expect(key in failures, f"check catches {what}: {failures.get(key)}")

    caught(_rewrite(fig3, key3, "ici_exact", lambda v: repr(float(v) * (1 + 1e-8))),
           ref3, key3, "an analytic cell off by 1e-8")
    caught(_rewrite(fig3, key3, "ici_mc", lambda v: repr(float(v) * 1.5)),
           ref3, key3, "a biased interference estimate")
    caught(_rewrite(fig3, "fc_900mhz@0.0", "ici_mc", lambda v: "1e-300"),
           ref3, "fc_900mhz@0.0", "static-network interference that is not exactly 0")
    caught(_rewrite(fig4, key4, "capacity_mc", lambda v: "100"),
           ref4, key4, "a simulated capacity above the Jensen bound")
    caught(_rewrite(fig4, key4, None), ref4, key4, "a missing grid point")
    caught(_rewrite(fig4, key4, "error", lambda v: "capacity_exact: did not converge"),
           ref4, key4, "a row with an error cell")
    caught(_rewrite(fig4, key4, "capacity_approx", lambda v: ""), ref4, key4, "an empty cell")

    _, failed, notes, _ = run.verify([(0, fig3)], ref3, known_digest="0" * 64)
    expect(failed == 1 and "sha256" in notes[0], "a CSV digest that differs from an earlier run")

    print("selftest " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
