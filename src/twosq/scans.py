"""Desk-scale scan experiments: interval windows, progression grids, residue
grids, and the Maier-matrix double-sum comparison.

Counts are exact integers throughout; only final ratios and predictions are
floats.  The interval convention everywhere is (x, x+y], i.e. the window
count is count_upto(x+y) - count_upto(x).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from .arith import landau_constant, phi_S
from .errors import DomainError, ResourceError
from .primes import sieve_primes
from .sieve import is_two_square, iter_segments
from .special import halfdim_F

DEFAULT_LANDAU_TRUNCATION = 10**6
MAX_WINDOWS = 1 << 26
MAX_MAIER_ENUM = 10**8


@lru_cache(maxsize=4)
def _landau(truncation: int = DEFAULT_LANDAU_TRUNCATION) -> float:
    return landau_constant(truncation)[0]


def _progression_applicable(a: int, q: int) -> bool:
    """The progression prediction needs gcd(a, q) = 1 and a = 1 (mod gcd(4, q))."""
    return math.gcd(a, q) == 1 and a % math.gcd(4, q) == 1 % math.gcd(4, q)


@dataclass(frozen=True)
class PredictedAverage:
    value: float
    applicable: bool
    note: str = ""


def predicted_average(kind: str, **params) -> PredictedAverage:
    """Density-model prediction for a window or progression count.

    kind="interval" (params x, y): S * y / sqrt(ln x).
    kind="progression" (params x, q, a): S * x / (phi_S(q) sqrt(ln x)),
    flagged inapplicable unless gcd(a, q) = 1 and a = 1 (mod gcd(4, q)).
    """
    truncation = params.get("landau_truncation", DEFAULT_LANDAU_TRUNCATION)
    S = _landau(truncation)
    if kind == "interval":
        x, y = params["x"], params["y"]
        if math.log(x) <= 1.0:
            raise DomainError(f"predicted_average: need ln x > 1, got x={x}")
        return PredictedAverage(value=S * y / math.sqrt(math.log(x)), applicable=True)
    if kind == "progression":
        x, q, a = params["x"], params["q"], params["a"]
        if math.log(x) <= 1.0:
            raise DomainError(f"predicted_average: need ln x > 1, got x={x}")
        value = S * x / (float(phi_S(q)) * math.sqrt(math.log(x)))
        ok = _progression_applicable(a, q)
        note = "" if ok else "prediction requires gcd(a,q)=1 and a=1 (mod gcd(4,q))"
        return PredictedAverage(value=value, applicable=ok, note=note)
    raise DomainError(f"predicted_average: unknown kind {kind!r}")


@dataclass(frozen=True)
class ScanRow:
    key: int  # window start x, modulus q, or residue a
    count: int
    predicted: float
    ratio: float
    applicable: bool = True


@dataclass(frozen=True)
class ScanReport:
    """Per-window counts with their predictions and summary statistics."""

    kind: str
    params: dict
    rows: tuple[ScanRow, ...] = field(repr=False)
    total_count: int
    mean: float
    variance: float
    max_count: int
    argmax_key: int
    records: tuple[int, ...]
    histogram: dict[int, int] = field(repr=False)
    mean_ratio_valid: float | None

    @property
    def n_windows(self) -> int:
        return len(self.rows)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "n_windows": self.n_windows,
            "total_count": self.total_count,
            "mean": self.mean,
            "variance": self.variance,
            "max_count": self.max_count,
            "argmax_key": self.argmax_key,
            "records": list(self.records),
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "mean_ratio_valid": self.mean_ratio_valid,
            "rows": [
                {
                    "key": r.key,
                    "count": r.count,
                    "predicted": r.predicted,
                    "ratio": r.ratio,
                    "applicable": r.applicable,
                }
                for r in self.rows
            ],
        }

    def to_csv_rows(self) -> list[tuple]:
        return [(r.key, r.count, r.predicted, r.ratio, int(r.applicable)) for r in self.rows]


def _summarize(
    kind: str,
    params: dict,
    keys: Iterable[int],
    counts: np.ndarray,
    predicted: list[float],
    applicable: list[bool],
    record_threshold: float = 2.0,
) -> ScanReport:
    keys = list(keys)
    counts_l = [int(c) for c in counts]
    rows = tuple(
        ScanRow(
            key=k,
            count=c,
            predicted=p,
            ratio=(c / p if p > 0 else math.inf),
            applicable=ok,
        )
        for k, c, p, ok in zip(keys, counts_l, predicted, applicable)
    )
    n = len(rows)
    total = sum(counts_l)
    sum_sq = sum(c * c for c in counts_l)
    mean = total / n
    variance = max(0.0, sum_sq / n - mean * mean)
    imax = int(np.argmax(counts)) if n else 0
    valid_ratios = [r.ratio for r in rows if r.applicable and r.predicted > 0]
    return ScanReport(
        kind=kind,
        params=params,
        rows=rows,
        total_count=total,
        mean=mean,
        variance=variance,
        max_count=counts_l[imax] if n else 0,
        argmax_key=keys[imax] if n else 0,
        records=tuple(r.key for r in rows if r.applicable and r.count >= record_threshold * r.predicted),
        histogram=dict(Counter(counts_l)),
        mean_ratio_valid=(sum(valid_ratios) / len(valid_ratios)) if valid_ratios else None,
    )


def scan_intervals(
    X: int,
    y: int,
    stride: int = 1,
    threads: int = 1,
    landau_truncation: int = DEFAULT_LANDAU_TRUNCATION,
) -> ScanReport:
    """Window counts over (x, x+y] for x = X, X+stride, ..., <= 2X.

    One streaming sieve pass over (X, 2X+y] serves every window: cumulative
    member counts are sampled at all window boundaries, so each window costs
    O(1) regardless of stride.
    """
    if X < 16:
        raise DomainError(f"scan_intervals: X must be >= 16, got {X}")
    if not 1 <= y <= X:
        raise DomainError(f"scan_intervals: need 1 <= y <= X, got y={y}")
    if stride < 1:
        raise DomainError(f"scan_intervals: stride must be >= 1, got {stride}")
    xs = np.arange(X, 2 * X + 1, stride, dtype=np.int64)
    if xs.size > MAX_WINDOWS:
        raise ResourceError(f"scan_intervals: {xs.size} windows exceed budget {MAX_WINDOWS}")

    # Members in (X, t], sampled at t = x and t = x + y for every window x.
    at_start = np.zeros(xs.size, dtype=np.int64)
    at_end = np.zeros(xs.size, dtype=np.int64)
    base = 0
    for seg in iter_segments(X + 1, 2 * X + y, threads=threads):
        cum = base + np.cumsum(seg.bits, dtype=np.int64)
        for at, pts in ((at_start, xs), (at_end, xs + y)):
            inseg = (pts >= seg.lo) & (pts <= seg.hi)
            at[inseg] = cum[pts[inseg] - seg.lo]
        base = int(cum[-1])
    counts = at_end - at_start

    S = _landau(landau_truncation)
    predicted = (S * y / np.sqrt(np.log(xs.astype(np.float64)))).tolist()
    return _summarize(
        kind="intervals",
        params={"X": X, "y": y, "stride": stride},
        keys=[int(x) for x in xs],
        counts=counts,
        predicted=predicted,
        applicable=[True] * xs.size,
    )


def scan_progressions(
    x: int,
    Q: int,
    a: int,
    threads: int = 1,
    landau_truncation: int = DEFAULT_LANDAU_TRUNCATION,
) -> ScanReport:
    """Counts of members n <= x, n = a (mod q), for every q in [Q, 2Q]."""
    if x < 3:
        raise DomainError(f"scan_progressions: x must be >= 3, got {x}")
    if Q < 1 or a < 0:
        raise DomainError(f"scan_progressions: need Q >= 1 and a >= 0, got Q={Q}, a={a}")
    qs = list(range(Q, 2 * Q + 1))
    counts = np.zeros(len(qs), dtype=np.int64)
    for seg in iter_segments(1, x, threads=threads):
        for i, q in enumerate(qs):
            counts[i] += int(np.count_nonzero(seg.bits[(a - seg.lo) % q :: q]))
    S = _landau(landau_truncation)
    sqrt_log = math.sqrt(math.log(x))
    predicted = [S * x / (float(phi_S(q)) * sqrt_log) for q in qs]
    return _summarize(
        kind="progressions",
        params={"x": x, "Q": Q, "a": a},
        keys=qs,
        counts=counts,
        predicted=predicted,
        applicable=[_progression_applicable(a, q) for q in qs],
    )


def scan_residues(
    x: int,
    q: int,
    threads: int = 1,
    landau_truncation: int = DEFAULT_LANDAU_TRUNCATION,
) -> ScanReport:
    """Counts of members n <= x, n = a (mod q), for every residue a in [0, q)."""
    if x < 3:
        raise DomainError(f"scan_residues: x must be >= 3, got {x}")
    if q < 1:
        raise DomainError(f"scan_residues: q must be >= 1, got {q}")
    counts = np.zeros(q, dtype=np.int64)
    for seg in iter_segments(1, x, threads=threads):
        members = seg.members()
        if members.size:
            counts += np.bincount(members % q, minlength=q)
    S = _landau(landau_truncation)
    sqrt_log = math.sqrt(math.log(x))
    pred_q = S * x / (float(phi_S(q)) * sqrt_log)
    return _summarize(
        kind="residues",
        params={"x": x, "q": q},
        keys=list(range(q)),
        counts=counts,
        predicted=[pred_q] * q,
        applicable=[_progression_applicable(a, q) for a in range(q)],
    )


# ---------------------------------------------------------------------------
# Maier matrix double sum.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaierConfig:
    """Parameters of the sieved double-sum comparison.

    P = prod p^(alpha_p) over primes p = 3 (mod 4), p <= z, with alpha_p the
    least odd exponent such that p^alpha_p >= a (4x/Q + 1).  The target
    residue a must itself be an odd sum of two squares.
    """

    z: int
    a: int
    x: int
    Q: int
    delta: float = 0.1

    def __post_init__(self) -> None:
        if self.z < 2:
            raise DomainError(f"MaierConfig: z must be >= 2, got {self.z}")
        if self.Q < 1 or self.x < 2 * self.Q:
            raise DomainError(f"MaierConfig: need Q >= 1 and x >= 2Q, got x={self.x}, Q={self.Q}")
        if self.a % 2 == 0:
            raise DomainError(f"MaierConfig: a must be odd, got {self.a}")
        if not is_two_square(self.a):
            raise DomainError(f"MaierConfig: a={self.a} is not a sum of two squares")
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"MaierConfig: delta must be in (0, 1), got {self.delta}")

    @property
    def power_floor(self) -> Fraction:
        """a (4x/Q + 1): each p^alpha_p must reach this."""
        return self.a * (Fraction(4 * self.x, self.Q) + 1)

    @property
    def u_limit(self) -> Fraction:
        """4x/Q + 1: the sieved variable runs over u < u_limit / d^2."""
        return Fraction(4 * self.x, self.Q) + 1

    def P_exponents(self) -> dict[int, int]:
        """{p: alpha_p} for p = 3 (mod 4), p <= z (alpha_p odd, minimal)."""
        out: dict[int, int] = {}
        for p in sieve_primes(self.z):
            p = int(p)
            if p % 4 != 3:
                continue
            alpha = 1
            power = p
            while power < self.power_floor:
                alpha += 2
                power *= p * p
            out[p] = alpha
        return out


@dataclass(frozen=True)
class MaierReport:
    """Exactly enumerated double sum next to its sieve-function prediction."""

    config: MaierConfig
    P_exponents: dict[int, int]
    P: int
    d_terms: tuple[tuple[int, int], ...]
    lhs: int
    rhs: float
    ratio: float
    d1_count: int
    F_argument: float

    def to_json_dict(self) -> dict:
        return {
            "z": self.config.z,
            "a": self.config.a,
            "x": self.config.x,
            "Q": self.config.Q,
            "delta": self.config.delta,
            "P_exponents": {str(p): e for p, e in sorted(self.P_exponents.items())},
            "P": self.P,
            "d_terms": [[d, c] for d, c in self.d_terms],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "d1_count": self.d1_count,
            "F_argument": self.F_argument,
        }


def _count_sieved(u_bound: Fraction, rad_P: int) -> int:
    """#{u < u_bound : u = 1 (mod 4), gcd(u, rad_P) = 1} by direct enumeration."""
    top = math.ceil(u_bound) - 1  # largest admissible integer strictly below
    count = 0
    for u in range(1, top + 1, 4):
        if math.gcd(u, rad_P) == 1:
            count += 1
    return count


def maier_demo(config: MaierConfig) -> MaierReport:
    """Enumerate sum over d^2 | P of #{u < (4x/Q+1)/d^2 : u=1 (4), (u,P)=1}
    and compare with (x/Q) * (phi_S(P)/P) * F(ln(x/Q) / ln z).

    The residue a enters only the prime-power floor defining P; the u-range
    does not carry it.  phi_S(P)/P collapses to prod p/(p+1) over p | P
    because every exponent in P is odd.
    """
    exps = config.P_exponents()
    P = 1
    for p, e in exps.items():
        P *= p**e
    rad_P = 1
    for p in exps:
        rad_P *= p

    # All d with d^2 | P: exponent of p in d at most (alpha_p - 1)/2.
    ds = [1]
    for p, e in exps.items():
        ds = [d * p**c for d in ds for c in range(e // 2 + 1)]
    ds.sort()

    u_limit = config.u_limit
    if float(u_limit) * len(ds) > MAX_MAIER_ENUM:
        raise ResourceError(
            f"maier_demo: enumeration of ~{float(u_limit) * len(ds):.2e} candidates exceeds budget"
        )
    d_terms = []
    for d in ds:
        d_terms.append((d, _count_sieved(u_limit / (d * d), rad_P)))
    lhs = sum(c for _, c in d_terms)

    density = 1.0
    for p in exps:
        density *= p / (p + 1.0)
    ratio_xq = config.x / config.Q
    s_arg = math.log(ratio_xq) / math.log(config.z)
    rhs = ratio_xq * density * halfdim_F(s_arg)
    return MaierReport(
        config=config,
        P_exponents=exps,
        P=P,
        d_terms=tuple(d_terms),
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs if rhs else math.inf,
        d1_count=d_terms[0][1],
        F_argument=s_arg,
    )
