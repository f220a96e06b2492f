"""Desk-scale scan experiments: interval windows, progression grids, residue
grids, and the Maier-matrix double-sum comparison.

Counts are exact integers throughout; only final ratios and predictions are
floats.  The interval convention everywhere is (x, x+y], i.e. the window
count is count_upto(x+y) - count_upto(x).  A scan's rows are numpy columns
from the sieve to the report writer, and every scan checks its row count
against one budget, `reportio.MAX_SCAN_ROWS`, before it allocates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .arith import landau_constant, phi_S, phi_S_floats
from .errors import DomainError, ResourceError
from .primes import INT64_MAX, p3_primes
from .reportio import Records, check_rows
from .sieve import is_two_square, iter_segments
from .special import halfdim_F

# Euler-product truncation of the Landau-Ramanujan constant in predictions.
LANDAU_TRUNCATION = 10**6
# A row whose count reaches this multiple of its prediction is a record.
RECORD_THRESHOLD = 2.0
# Most u flags (one byte each) maier_demo sieves.
MAX_MAIER_ENUM = 10**8


@cache
def _landau() -> float:
    return landau_constant(LANDAU_TRUNCATION)[0]


def _progression_applicable(a, q):
    """The progression prediction needs gcd(a, q) = 1 and a = 1 (mod gcd(4, q)).

    a and q are ints below 2^63 or int64 arrays (one row per element).
    """
    m = np.gcd(4, q)
    return (np.gcd(a, q) == 1) & (a % m == 1 % m)


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
    if kind not in ("interval", "progression"):
        raise DomainError(f"predicted_average: unknown kind {kind!r}")
    S = _landau()
    x = params["x"]
    if math.log(x) <= 1.0:
        raise DomainError(f"predicted_average: need ln x > 1, got x={x}")
    if kind == "interval":
        return PredictedAverage(value=S * params["y"] / math.sqrt(math.log(x)), applicable=True)
    q, a = params["q"], params["a"]
    value = S * x / (float(phi_S(q)) * math.sqrt(math.log(x)))
    ok = bool(_progression_applicable(a, q))
    note = "" if ok else "prediction requires gcd(a,q)=1 and a=1 (mod gcd(4,q))"
    return PredictedAverage(value=value, applicable=ok, note=note)


ROW_FIELDS = ("key", "count", "predicted", "ratio", "applicable")
_KEY_NAMES = {"intervals": "x", "progressions": "q", "residues": "a"}


@dataclass(frozen=True)
class ScanReport:
    """Summary statistics over rows held as columns; a row's key is the window
    start x, the modulus q or the residue a."""

    kind: str
    params: dict
    keys: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    predicted: np.ndarray = field(repr=False)
    applicable: np.ndarray = field(repr=False)
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
        return len(self.keys)

    @cached_property
    def ratio(self) -> np.ndarray:
        """count / predicted, inf where the prediction is not positive; computed
        once, as the JSON and CSV rows share it."""
        out = np.full(self.counts.shape, math.inf)
        return np.divide(self.counts, self.predicted, out=out, where=self.predicted > 0)

    @property
    def csv_header(self) -> tuple[str, ...]:
        return (_KEY_NAMES[self.kind],) + ROW_FIELDS[1:]

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The row columns in ROW_FIELDS order."""
        return (self.keys, self.counts, self.predicted, self.ratio, self.applicable)

    def to_json_dict(self) -> dict:
        """The report as a document; its rows are read once, when it is written."""
        return {
            "kind": self.kind,
            "params": self.params,
            "n_windows": self.n_windows,
            "total_count": self.total_count,
            "mean": self.mean,
            "variance": self.variance,
            "max_count": self.max_count,
            "argmax_key": self.argmax_key,
            "records": self.records,
            "histogram": self.histogram,
            "mean_ratio_valid": self.mean_ratio_valid,
            "rows": Records(ROW_FIELDS, self.columns),
        }


def _summarize(
    kind: str,
    params: dict,
    keys: np.ndarray,
    counts: np.ndarray,
    predicted: np.ndarray,
    applicable: np.ndarray,
) -> ScanReport:
    values, mult = np.unique(counts, return_counts=True)
    histogram = dict(zip(values.tolist(), mult.tolist()))
    # Exact Python ints: squares of counts past 3.04e9 overflow int64.
    total = sum(c * m for c, m in histogram.items())
    sum_sq = sum(c * c * m for c, m in histogram.items())
    n = len(keys)
    mean = total / n
    imax = int(np.argmax(counts))
    valid = applicable & (predicted > 0)
    ratios = counts[valid] / predicted[valid]
    return ScanReport(
        kind=kind,
        params=params,
        keys=keys,
        counts=counts,
        predicted=predicted,
        applicable=applicable,
        total_count=total,
        mean=mean,
        variance=max(0.0, sum_sq / n - mean * mean),
        max_count=int(counts[imax]),
        argmax_key=int(keys[imax]),
        records=tuple(keys[applicable & (counts >= RECORD_THRESHOLD * predicted)].tolist()),
        histogram=histogram,
        # cumsum adds left to right in row order; np.sum's pairwise sum changes last digits.
        mean_ratio_valid=float(np.cumsum(ratios)[-1]) / ratios.size if ratios.size else None,
    )


def scan_intervals(X: int, y: int, stride: int = 1) -> ScanReport:
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
    check_rows("scan_intervals", X // stride + 1)
    xs = np.arange(X, 2 * X + 1, stride, dtype=np.int64)

    # Members in (X, t], sampled at t = x and t = x + y for every window x.
    at_start = np.zeros(xs.size, dtype=np.int64)
    at_end = np.zeros(xs.size, dtype=np.int64)
    base = 0
    for seg in iter_segments(X + 1, 2 * X + y):
        cum = base + np.cumsum(seg.bits, dtype=np.int64)
        for at, pts in ((at_start, xs), (at_end, xs + y)):
            inseg = (pts >= seg.lo) & (pts <= seg.hi)
            at[inseg] = cum[pts[inseg] - seg.lo]
        base = int(cum[-1])

    S = _landau()
    return _summarize(
        kind="intervals",
        params={"X": X, "y": y, "stride": stride},
        keys=xs,
        counts=at_end - at_start,
        predicted=S * y / np.sqrt(np.log(xs.astype(np.float64))),
        applicable=np.ones(xs.size, dtype=bool),
    )


def scan_progressions(x: int, Q: int, a: int) -> ScanReport:
    """Counts of members n <= x, n = a (mod q), for every q in [Q, 2Q]."""
    if x < 3:
        raise DomainError(f"scan_progressions: x must be >= 3, got {x}")
    if Q < 1 or not 0 <= a <= INT64_MAX:
        raise DomainError(f"scan_progressions: need Q >= 1 and 0 <= a <= 2^63 - 1, got Q={Q}, a={a}")
    check_rows("scan_progressions", Q + 1)
    qs = range(Q, 2 * Q + 1)
    counts = np.zeros(len(qs), dtype=np.int64)
    for seg in iter_segments(1, x):
        for i, q in enumerate(qs):
            counts[i] += int(np.count_nonzero(seg.bits[(a - seg.lo) % q :: q]))
    S = _landau()
    phis = phi_S_floats(Q, 2 * Q)
    keys = np.arange(Q, 2 * Q + 1, dtype=np.int64)
    return _summarize(
        kind="progressions",
        params={"x": x, "Q": Q, "a": a},
        keys=keys,
        counts=counts,
        predicted=S * x / (phis * math.sqrt(math.log(x))),
        applicable=_progression_applicable(a, keys),
    )


def scan_residues(x: int, q: int) -> ScanReport:
    """Counts of members n <= x, n = a (mod q), for every residue a in [0, q)."""
    if x < 3:
        raise DomainError(f"scan_residues: x must be >= 3, got {x}")
    if q < 1:
        raise DomainError(f"scan_residues: q must be >= 1, got {q}")
    check_rows("scan_residues", q)
    counts = np.zeros(q, dtype=np.int64)
    for seg in iter_segments(1, x):
        members = seg.members()
        if members.size:
            counts += np.bincount(members % q, minlength=q)
    S = _landau()
    pred_q = S * x / (float(phi_S(q)) * math.sqrt(math.log(x)))
    keys = np.arange(q, dtype=np.int64)
    return _summarize(
        kind="residues",
        params={"x": x, "q": q},
        keys=keys,
        counts=counts,
        predicted=np.full(q, pred_q),
        applicable=_progression_applicable(keys, q),
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
        for p in p3_primes(self.z).tolist():
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


def maier_demo(config: MaierConfig) -> MaierReport:
    """Enumerate sum over d^2 | P of #{u < (4x/Q+1)/d^2 : u=1 (4), (u,P)=1}
    and compare with (x/Q) * (phi_S(P)/P) * F(ln(x/Q) / ln z).

    The residue a enters only the prime-power floor defining P; the u-range
    does not carry it.  phi_S(P)/P collapses to prod p/(p+1) over p | P
    because every exponent in P is odd.  One sieve pass flags the
    u = 1 + 4i < 4x/Q + 1 (so i < x/Q) coprime to P; each d counts a prefix.
    """
    exps = config.P_exponents()
    # The d with d^2 | P have exponent of p at most (alpha_p - 1)/2; each is a
    # report row, charged before any of them is listed.
    check_rows("maier_demo", math.prod(e // 2 + 1 for e in exps.values()))
    n_u = -(-config.x // config.Q)
    if n_u > MAX_MAIER_ENUM:
        raise ResourceError(f"maier_demo: {n_u} sieved u exceed budget {MAX_MAIER_ENUM}")
    keep = np.ones(n_u, dtype=bool)
    for p in exps:
        keep[-pow(4, -1, p) % p :: p] = False  # p | 1 + 4i
    P = math.prod(p**e for p, e in exps.items())
    ds = [1]
    for p, e in exps.items():
        ds = [d * p**c for d in ds for c in range(e // 2 + 1)]
    ds.sort()
    # u = 1 + 4i < u_limit / d^2 exactly when i < (u_limit / d^2 - 1) / 4
    ends = [max(0, math.ceil((config.u_limit / (d * d) - 1) / 4)) for d in ds]
    d_terms = tuple((d, int(np.count_nonzero(keep[:end]))) for d, end in zip(ds, ends))
    lhs = sum(c for _, c in d_terms)

    density = math.prod((p / (p + 1.0) for p in exps), start=1.0)
    ratio_xq = config.x / config.Q
    s_arg = math.log(ratio_xq) / math.log(config.z)
    rhs = ratio_xq * density * halfdim_F(s_arg)
    return MaierReport(
        config=config,
        P_exponents=exps,
        P=P,
        d_terms=d_terms,
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs if rhs else math.inf,
        d1_count=d_terms[0][1],
        F_argument=s_arg,
    )
