"""Write ``reference.json``: the analytic columns of every benchmark workload.

    python3 bench/make_reference.py

The committed file was made from the package as of the commit that added the
benchmark.  Regenerate it only when a change to the analytic results is
intended; ``checks.py`` holds every later sweep to it at a relative 1e-9.
"""

from __future__ import annotations

import json
import re

import checks
import run


def analytic_columns(nbofdma, text: str) -> dict:
    spec = nbofdma.parse_config(text)
    outputs = [o for o in spec.outputs if o not in ("ici_mc", "capacity_mc")]
    text = re.sub(r"(?m)^sweep\.outputs = .*$", "sweep.outputs = " + ", ".join(outputs), text)
    spec = nbofdma.parse_config(text)
    points = {}
    for row in nbofdma.run_sweep(spec):
        if row.error:
            raise RuntimeError(f"{row.curve} at {row.axis_value}: {row.error}")
        points[checks.point_key(row.curve, row.axis_value)] = row.values
    return points


def main():
    nbofdma = run.import_package()
    reference = {name: analytic_columns(nbofdma, workload.config(0, workload.trials))
                 for name, workload in run.WORKLOADS.items()}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
