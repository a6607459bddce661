"""Correctness checks on the CSV one benchmark sweep writes.

Every grid point of the committed reference must be present once, carry no
``error`` cell and pass the checks below; a point that fails any of them
counts once towards the run's failed points.

* Analytic columns match the reference, made from the seed commit with
  ``make_reference.py``, to a relative 1e-9; a reference zero must stay an
  exact zero.
* ``ici_mc`` (rule A02 of the acceptance suite, at 5 instead of 3 standard
  errors): exactly 0 at V_max = 0, otherwise within max(5 std_error, 1%) of
  ``ici_exact``.  At the benchmark's 2048 trials one standard error is about
  1.2% of ``ici_exact``, so the 1% floor never applies and the rule is a pure
  3-sigma test; 0.27% of unbiased estimates fail it, and a run makes 80 of
  them.  At 5 sigma that share is below 1e-6, and a bias above about 6% still
  fails.
* ``capacity_mc`` (rule A08): at most ``capacity_exact`` + 3 std_error.
"""

from __future__ import annotations

import csv
import io

REL_TOL = 1e-9
ICI_MC_STDERRS = 5.0
# standard errors the time-to-accuracy metric is scaled to: 1% of the exact
# interference power (the A02 tolerance) and 0.01 bit/s/Hz of capacity
ICI_TARGET_SHARE = 0.01
CAPACITY_TARGET = 0.01


def point_key(curve: str, v_max) -> str:
    return f"{curve}@{float(v_max)!r}"


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def read_points(data: bytes) -> dict[str, dict[str, str]]:
    """CSV rows keyed by :func:`point_key`; a repeated point keeps the first
    and a row without a readable ``v_max_mps`` is dropped."""
    points = {}
    for row in csv.DictReader(io.StringIO(data.decode(errors="replace"))):
        v_max = _number(row.get("v_max_mps"))
        if v_max is not None:
            points.setdefault(point_key(row.get("curve", ""), v_max), row)
    return points


def _point_failure(row, reference) -> str | None:
    if row.get("error"):
        return f"error cell: {row['error']}"
    for column, expected in reference.items():
        value = _number(row.get(column))
        if value is None or abs(value - expected) > REL_TOL * abs(expected):
            return f"{column} {row.get(column)!r} differs from reference {expected!r}"
    v_max = float(row["v_max_mps"])
    if "ici_mc" in row:
        mc, se = _number(row["ici_mc"]), _number(row["ici_mc_std_error"])
        exact = _number(row["ici_exact"])
        if mc is None or se is None or exact is None:
            return "ici_mc cell empty"
        if v_max == 0.0 and mc != 0.0:
            return f"ici_mc {mc!r} is not exactly 0 in a static network"
        if abs(mc - exact) > max(ICI_MC_STDERRS * se, 0.01 * exact):
            return f"ici_mc {mc!r} outside max(5 stderr, 1%) of ici_exact {exact!r}"
    if "capacity_mc" in row:
        mc, se = _number(row["capacity_mc"]), _number(row["capacity_mc_std_error"])
        exact = _number(row["capacity_exact"])
        if mc is None or se is None or exact is None:
            return "capacity_mc cell empty"
        if mc > exact + 3.0 * se:
            return f"capacity_mc {mc!r} above capacity_exact {exact!r} + 3 stderr"
    return None


def check_sweep(data: bytes, reference: dict) -> dict[str, str]:
    """Failure note per failed point of one sweep's CSV; ``reference`` maps
    each point key to its analytic columns."""
    try:
        points = read_points(data)
    except csv.Error as exc:
        return {key: f"unreadable CSV: {exc!r}" for key in reference}
    failures = {}
    for key, expected in reference.items():
        row = points.get(key)
        note = "missing" if row is None else _point_failure(row, expected)
        if note:
            failures[key] = note
    for key in points.keys() - reference.keys():
        failures[key] = "not in the reference grid"
    return failures


def accuracy_factor(data: bytes) -> float:
    """Mean over Monte Carlo cells of (std_error / target)^2 (1.0 if none).

    Scaling wall time by it gives the time to reach the target standard
    errors, since the squared standard error falls as 1 / trials.
    """
    ratios = []
    for row in read_points(data).values():
        exact, se = _number(row.get("ici_exact")), _number(row.get("ici_mc_std_error"))
        if exact and se is not None:
            ratios.append((se / (ICI_TARGET_SHARE * exact)) ** 2)
        se = _number(row.get("capacity_mc_std_error"))
        if se is not None:
            ratios.append((se / CAPACITY_TARGET) ** 2)
    return sum(ratios) / len(ratios) if ratios else 1.0
