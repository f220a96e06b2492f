"""Output checks for the benchmark workloads.

Membership counts are checked against a lattice enumeration: every n = a^2
+ b^2 in the range is marked directly from the pairs (a, b).  It shares no
code with twosq's residual sieve, which it checks.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from math import isqrt

import numpy as np

# Largest number of lattice points expanded at once (bounds memory).
POINT_BATCH = 1 << 22
A_CHUNK = 1 << 16

# The Landau-Ramanujan constant, to more digits than a report prints.
LANDAU_RAMANUJAN = 0.76422365358922066299
# A report prints floats with 10 significant digits.
PRINT_TOL = 1e-10


def _isqrt_floor(v: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(v)) for 0 <= v < 2^52, exact."""
    r = np.floor(np.sqrt(v.astype(np.float64))).astype(np.int64)
    r -= r * r > v
    r += (r + 1) * (r + 1) <= v
    return r


def two_square_marks(lo: int, hi: int) -> np.ndarray:
    """marks[i] is True iff lo + 1 + i = a^2 + b^2, over the range (lo, hi]."""
    if not 0 <= lo <= hi or hi >= 1 << 52:
        raise ValueError(f"two_square_marks: need 0 <= lo <= hi < 2^52, got ({lo}, {hi}]")
    marks = np.zeros(hi - lo, dtype=bool)
    a_max = isqrt(hi // 2)  # a <= b covers every pair up to order
    for a0 in range(0, a_max + 1, A_CHUNK):
        a = np.arange(a0, min(a0 + A_CHUNK, a_max + 1), dtype=np.int64)
        a2 = a * a
        need = lo + 1 - a2  # b^2 >= need
        b_lo = np.where(need > 0, _isqrt_floor(np.maximum(need - 1, 0)) + 1, 0)
        b_lo = np.maximum(b_lo, a)
        b_hi = _isqrt_floor(hi - a2)
        cnt = np.maximum(b_hi - b_lo + 1, 0)
        ends = np.cumsum(cnt)
        i = 0
        while i < a.size:
            j = max(i + 1, int(np.searchsorted(ends, (ends[i - 1] if i else 0) + POINT_BATCH, side="right")))
            c = cnt[i:j]
            total = int(c.sum())
            if total:
                owner = np.repeat(np.arange(j - i), c)
                first = np.repeat(np.cumsum(c) - c, c)
                b = b_lo[i:j][owner] + (np.arange(total) - first)
                marks[a2[i:j][owner] + b * b - lo - 1] = True
            i = j
    return marks


def two_square_count(lo: int, hi: int) -> int:
    """Number of sums of two squares in (lo, hi]."""
    return int(np.count_nonzero(two_square_marks(lo, hi)))


# ---------------------------------------------------------------------------
# Per-command checks.  Each takes the workload params and the command's
# output bytes and returns None when the output is right, else a reason.
# ---------------------------------------------------------------------------


def _json(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


def _check_count(doc: dict, lo: int, hi: int) -> str | None:
    want = two_square_count(lo, hi)
    if doc.get("count") != want:
        return f"count {doc.get('count')} != lattice count {want} on ({lo}, {hi}]"
    return None


def check_count_low(params: dict, label: str, data: bytes) -> str | None:
    if label in ("count_t1", "count_t2"):
        doc = _json(data)
        if doc.get("kind") != "upto" or doc.get("x") != params["N"]:
            return f"unexpected report header {doc}"
        return _check_count(doc, 0, params["N"])
    doc = _json(data)
    value, tail = doc["landau"], doc["tail_bound"]
    if doc.get("truncation") != params["truncation"]:
        return f"truncation {doc.get('truncation')} != {params['truncation']}"
    if not value - PRINT_TOL <= LANDAU_RAMANUJAN <= value + tail + PRINT_TOL:
        return f"constant {LANDAU_RAMANUJAN} outside [{value}, {value} + {tail}]"
    return None


def check_window_high(params: dict, label: str, data: bytes) -> str | None:
    x, y = params["windows"][{"count_w1": 0, "count_w2": 1}[label]]
    doc = _json(data)
    if doc.get("kind") != "interval" or doc.get("x") != x or doc.get("y") != y:
        return f"unexpected report header {doc}"
    return _check_count(doc, x, x + y)


def check_scan_report(params: dict, label: str, data: bytes) -> str | None:
    if label == "scan_intervals":
        X, y = params["X"], params["y"]
        doc = _json(data)
        rows = doc["rows"]
        if doc["n_windows"] != X + 1 or len(rows) != X + 1:
            return f"{len(rows)} windows, expected {X + 1}"
        cum = np.concatenate([[0], np.cumsum(two_square_marks(X, 2 * X + y))])
        want = cum[y : y + X + 1] - cum[: X + 1]  # window (X + i, X + i + y]
        keys = np.fromiter((r["key"] for r in rows), dtype=np.int64, count=len(rows))
        got = np.fromiter((r["count"] for r in rows), dtype=np.int64, count=len(rows))
        if not np.array_equal(keys, np.arange(X, 2 * X + 1)):
            return "window keys are not X..2X"
        bad = np.flatnonzero(got != want)
        if bad.size:
            i = int(bad[0])
            return f"{bad.size} window counts differ, first at x={X + i}: {got[i]} != {want[i]}"
        if doc["total_count"] != int(want.sum()):
            return f"total_count {doc['total_count']} != {int(want.sum())}"
        return None
    x, Q, a = params["x"], params["Q"], params["a"]
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if rows[0] != ["q", "count", "predicted", "ratio", "applicable"] or len(rows) != Q + 2:
        return f"unexpected CSV shape: header {rows[0]}, {len(rows) - 1} rows"
    marks = two_square_marks(0, x)  # marks[i] <-> n = i + 1
    for row, q in zip(rows[1:], range(Q, 2 * Q + 1)):
        want = int(np.count_nonzero(marks[(a - 1) % q :: q]))
        if int(row[0]) != q or int(row[1]) != want:
            return f"row {row[:2]} != [{q}, {want}]"
    return None


def check_exact(params: dict, label: str, data: bytes) -> str | None:
    if label == "gpy_demo":
        doc = _json(data)
        if doc.get("mass_check", {}).get("within_bound") is not True:
            return "mass_check.within_bound is not true"
        return None
    if label == "verify":
        return None if _json(data).get("all_ok") is True else "verify: all_ok is not true"
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    values = [float(r[2]) for r in rows[1:]]
    if rows[0] != ["kind", "s", "value"] or not values:
        return f"unexpected CSV shape: header {rows[0]}, {len(values)} rows"
    if min(values) < 1.0:
        return f"g below 1: {min(values)}"
    if any(b > a for a, b in zip(values, values[1:])):
        return "g is not non-increasing in t"
    return None


CHECKS = {
    "count-low": check_count_low,
    "window-high": check_window_high,
    "scan-report": check_scan_report,
    "exact": check_exact,
}


def main(argv: list[str] | None = None) -> int:
    """Check outputs in a process of their own, so the parent's peak RSS stays small.

    (On Linux a child's ru_maxrss starts from its parent's peak, so a parent
    that had parsed a large report would inflate every later measurement.)
    Prints one JSON object: label -> null if right, else the reason.
    """
    ap = argparse.ArgumentParser(description="check benchmark outputs")
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--params", required=True, help="the workload's params as JSON")
    ap.add_argument("outputs", nargs="+", metavar="LABEL=PATH")
    args = ap.parse_args(argv)
    params = json.loads(args.params)
    result = {}
    for item in args.outputs:
        label, path = item.split("=", 1)
        try:
            with open(path, "rb") as fh:
                result[label] = CHECKS[args.workload](params, label, fh.read())
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            result[label] = f"unreadable output: {exc!r}"
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
