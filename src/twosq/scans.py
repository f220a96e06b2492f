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
from .reportio import CHUNK_ROWS, Records, check_rows
from .sieve import is_two_square, iter_segments

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


@dataclass(frozen=True, eq=False)
class ScanReport:
    """Rows held as columns, a row's key being the window start x, the modulus q
    or the residue a; every summary statistic is derived from the columns."""

    kind: str
    params: dict
    keys: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    predicted: np.ndarray = field(repr=False)
    applicable: np.ndarray = field(repr=False)

    @property
    def n_windows(self) -> int:
        return len(self.keys)

    @cached_property
    def ratio(self) -> np.ndarray:
        """count / predicted, inf where the prediction is not positive; computed
        once, as the JSON and CSV rows share it."""
        out = np.full(self.counts.shape, math.inf)
        return np.divide(self.counts, self.predicted, out=out, where=self.predicted > 0)

    @cached_property
    def histogram(self) -> dict[int, int]:
        values, mult = np.unique(self.counts, return_counts=True)
        return dict(zip(values.tolist(), mult.tolist()))

    # Exact Python ints over the histogram: counts past 3.04e9 square past int64.
    @property
    def total_count(self) -> int:
        return sum(c * m for c, m in self.histogram.items())

    @property
    def mean(self) -> float:
        return self.total_count / self.n_windows

    @property
    def variance(self) -> float:
        sum_sq = sum(c * c * m for c, m in self.histogram.items())
        return max(0.0, sum_sq / self.n_windows - self.mean * self.mean)

    @property
    def max_count(self) -> int:
        return int(self.counts.max())

    @property
    def argmax_key(self) -> int:
        return int(self.keys[np.argmax(self.counts)])

    def _chunks(self):  # row slices for the two statistics below: their masks stay chunk-sized
        return (slice(i, i + CHUNK_ROWS) for i in range(0, self.n_windows, CHUNK_ROWS))

    def _record_keys(self) -> np.ndarray:
        """The keys of the record rows, an int64 column cut from `keys`."""
        cuts = (self.keys[s][self.applicable[s] & (self.counts[s] >= RECORD_THRESHOLD * self.predicted[s])]
                for s in self._chunks())
        return np.concatenate([self.keys[:0], *cuts])

    @property
    def records(self) -> tuple[int, ...]:
        return tuple(self._record_keys().tolist())

    @property
    def mean_ratio_valid(self) -> float | None:
        # in row order, each chunk's cumsum from the running total: np.sum's pairwise sum changes last digits
        total, size = 0.0, 0
        for s in self._chunks():
            ratios = self.ratio[s][self.applicable[s] & (self.predicted[s] > 0)]
            if ratios.size:
                ratios[0] += total
                total, size = float(np.cumsum(ratios)[-1]), size + ratios.size
        return total / size if size else None

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
            "records": self._record_keys(),
            "histogram": self.histogram,
            "mean_ratio_valid": self.mean_ratio_valid,
            "rows": Records(ROW_FIELDS, self.columns),
        }


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
    n = X // stride + 1
    check_rows("scan_intervals", n)

    # Members in (X, t] at t = x and t = x + y, x = X + i * stride: each column
    # meets a segment in one strided slice of its int32 prefix counts, base joins
    # after the store (base + int32 stays int32).  Keys come after, the rest in place.
    at_start = np.zeros(n, dtype=np.int64)
    at_end = np.zeros(n, dtype=np.int64)
    base = 0
    for seg in iter_segments(X + 1, 2 * X + y):
        cum = np.cumsum(seg.bits, dtype=np.int32)
        for at, t0 in ((at_start, X), (at_end, X + y)):
            i = max(0, -((t0 - seg.lo) // stride))  # the first t0 + i * stride >= seg.lo
            j = min(n, (seg.hi - t0) // stride + 1)
            if i < j:
                at[i:j] = cum[t0 + i * stride - seg.lo :: stride][: j - i]
                at[i:j] += base
        base += int(cum[-1])
        del cum, seg  # freed before the next segment is sieved
    at_end -= at_start
    del at_start

    keys = np.arange(X, 2 * X + 1, stride, dtype=np.int64)
    predicted = np.log(keys, dtype=np.float64)
    np.divide(_landau() * y, np.sqrt(predicted, out=predicted), out=predicted)
    return ScanReport(
        kind="intervals",
        params={"X": X, "y": y, "stride": stride},
        keys=keys,
        counts=at_end,
        predicted=predicted,
        applicable=np.ones(n, dtype=bool),
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
        del seg  # freed before the next segment is sieved
    S = _landau()
    phis = phi_S_floats(Q, 2 * Q)
    keys = np.arange(Q, 2 * Q + 1, dtype=np.int64)
    return ScanReport(
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
    pred_q = predicted_average("progression", x=x, q=q, a=1).value
    keys = np.arange(q, dtype=np.int64)
    return ScanReport(
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
    d_terms: tuple[tuple[int, int], ...]
    rhs: float
    F_argument: float

    @property
    def P(self) -> int:
        return math.prod(p**e for p, e in self.P_exponents.items())

    @cached_property
    def lhs(self) -> int:
        return sum(c for _, c in self.d_terms)

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs else math.inf

    @property
    def d1_count(self) -> int:
        return self.d_terms[0][1]

    def to_json_dict(self) -> dict:
        return {
            "z": self.config.z,
            "a": self.config.a,
            "x": self.config.x,
            "Q": self.config.Q,
            "delta": self.config.delta,
            "P_exponents": {str(p): e for p, e in sorted(self.P_exponents.items())},
            "P": self.P,
            "d_terms": self.d_terms,
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
    from .special import halfdim_F  # only here: the scans need no special functions
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
    ds = [1]
    for p, e in exps.items():
        ds = [d * p**c for d in ds for c in range(e // 2 + 1)]
    ds.sort()
    # u = 1 + 4i < u_limit / d^2 exactly when i < (u_limit / d^2 - 1) / 4 = (4x + Q - Q d^2) / (4 Q d^2)
    x, Q = config.x, config.Q
    ends = [max(0, -((Q * d * d - 4 * x - Q) // (4 * Q * d * d))) for d in ds]
    d_terms = tuple((d, int(np.count_nonzero(keep[:end]))) for d, end in zip(ds, ends))

    density = math.prod((p / (p + 1.0) for p in exps), start=1.0)
    ratio_xq = config.x / config.Q
    s_arg = math.log(ratio_xq) / math.log(config.z)
    return MaierReport(
        config=config,
        P_exponents=exps,
        d_terms=d_terms,
        rhs=ratio_xq * density * halfdim_F(s_arg),
        F_argument=s_arg,
    )
