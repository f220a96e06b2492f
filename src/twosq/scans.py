"""Desk-scale scan experiments: interval windows, progression grids, residue
grids, and the Maier-matrix double-sum comparison.

Counts are exact integers throughout; only final ratios and predictions are
floats.  The interval convention everywhere is (x, x+y], i.e. the window
count is count_upto(x+y) - count_upto(x).  A scan holds its counts, one
integer column (an interval scan's in the narrowest unsigned dtype that holds
y, one byte per window for y < 256), and derives its other columns from its
parameters a chunk of rows at a time (a progression scan slices its
predictions from one held float column); every scan checks its row count
against `reportio.MAX_SCAN_ROWS`, and its sieve bound against the prime-sieve
budget in its own name, before it allocates the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .arith import landau_constant, phi_S_floats
from .errors import DomainError, ResourceError
from .primes import INT64_MAX, check_sieve_limit, p3_primes
from .reportio import CHUNK_ROWS, Records, check_rows
from .sieve import _counts, is_two_square, iter_segments

# Euler-product truncation of the Landau-Ramanujan constant in predictions.
LANDAU_TRUNCATION = 10**6
# A row whose count reaches this multiple of its prediction is a record.
RECORD_THRESHOLD = 2.0
# Most u flags (one byte each) maier_demo sieves.
MAX_MAIER_ENUM = 10**8


@cache
def _landau() -> float:
    return landau_constant(LANDAU_TRUNCATION)[0]


def _progression_predictions(x: int, lo: int, hi: int) -> np.ndarray:
    """The density prediction S x / (phi_S(q) sqrt(ln x)) for every q in [lo, hi]."""
    return _landau() * x / (phi_S_floats(lo, hi) * math.sqrt(math.log(x)))


def _progression_applicable(a, q):
    """The progression prediction needs gcd(a, q) = 1 and a = 1 (mod gcd(4, q)).

    a and q are ints below 2^63 or int64 arrays (one row per element).
    """
    m = np.gcd(4, q)
    return (np.gcd(a, q) == 1) & (a % m == 1 % m)


ROW_FIELDS = ("key", "count", "predicted", "ratio", "applicable")
_KEY_NAMES = {"intervals": "x", "progressions": "q", "residues": "a"}


@dataclass(frozen=True, eq=False)
class ScanReport:
    """A scan's rows, a row's key being the window start x, the modulus q or
    the residue a.  The counts are held, and derive(i, j) gives the keys,
    predicted and applicable columns of rows [i, j) from the scan's parameters,
    and the ratio column and every summary statistic are derived from these a
    CHUNK_ROWS chunk at a time."""

    kind: str
    params: dict
    counts: np.ndarray = field(repr=False)
    derive: Callable[[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)

    @property
    def n_windows(self) -> int:
        return len(self.counts)

    def rows(self, i: int, j: int) -> tuple[np.ndarray, ...]:
        """The columns of rows [i, j) in ROW_FIELDS order; the ratio is
        count / predicted, inf where the prediction is not positive."""
        keys, predicted, applicable = self.derive(i, j)
        counts = self.counts[i:j]
        ratio = np.divide(counts, predicted, out=np.full(counts.shape, math.inf), where=predicted > 0)
        return keys, counts, predicted, ratio, applicable

    @cached_property
    def histogram(self) -> dict[int, int]:
        if self.counts.dtype.itemsize > 1:
            values, mult = np.unique(self.counts, return_counts=True)
        else:
            # one-byte counts are tallied a chunk at a time: np.unique sorts
            # them ~10x slower than int64 (5.8 against 0.55 ms on a bench scan)
            tally = np.zeros(256, dtype=np.int64)
            for i in range(0, self.n_windows, CHUNK_ROWS):
                tally += np.bincount(self.counts[i : i + CHUNK_ROWS], minlength=256)
            values = np.flatnonzero(tally)
            mult = tally[values]
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
        i = int(np.argmax(self.counts))
        return int(self.derive(i, i + 1)[0][0])

    @cached_property
    def _chunk_stats(self) -> tuple[np.ndarray, float | None]:
        """The record keys (an int64 column) and the mean ratio over valid
        rows, from one walk over the rows a CHUNK_ROWS chunk at a time."""
        cuts, total, size = [], 0.0, 0
        for i in range(0, self.n_windows, CHUNK_ROWS):
            keys, counts, predicted, ratio, applicable = self.rows(i, min(i + CHUNK_ROWS, self.n_windows))
            cuts.append(keys[applicable & (counts >= RECORD_THRESHOLD * predicted)])
            # in row order, each chunk's cumsum from the running total: np.sum's pairwise sum changes last digits
            ratios = ratio[applicable & (predicted > 0)]
            if ratios.size:
                ratios[0] += total
                total, size = float(np.cumsum(ratios)[-1]), size + ratios.size
        return np.concatenate(cuts), (total / size if size else None)

    @property
    def records(self) -> tuple[int, ...]:
        return tuple(self._chunk_stats[0].tolist())

    @property
    def mean_ratio_valid(self) -> float | None:
        return self._chunk_stats[1]

    @property
    def csv_header(self) -> tuple[str, ...]:
        return (_KEY_NAMES[self.kind],) + ROW_FIELDS[1:]

    def to_json_dict(self) -> dict:
        """The report as a document; its rows are derived once more, a chunk at
        a time, when it is written."""
        return {
            "kind": self.kind,
            "params": self.params,
            "n_windows": self.n_windows,
            "total_count": self.total_count,
            "mean": self.mean,
            "variance": self.variance,
            "max_count": self.max_count,
            "argmax_key": self.argmax_key,
            "records": self._chunk_stats[0],
            "histogram": self.histogram,
            "mean_ratio_valid": self.mean_ratio_valid,
            "rows": Records(ROW_FIELDS, self.n_windows, self.rows),
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
    if 2 * X + y > INT64_MAX:
        raise DomainError(f"scan_intervals: need 2X + y <= 2^63 - 1, got X={X}, y={y}")
    n = X // stride + 1
    check_rows("scan_intervals", n)
    check_sieve_limit("scan_intervals", math.isqrt(2 * X + y))

    # Members in (X, t] at t = x + y less those at t = x, x = X + i * stride:
    # each boundary meets a segment in one strided slice of its prefix counts,
    # added (or subtracted) in place with base, the members before it.  Counts
    # and prefixes are held modulo 2^k in the narrowest unsigned dtype above y,
    # and wrap freely: a window's count is at most y < 2^k, so it comes out exact.
    dtype = np.min_scalar_type(y)
    modulus = 1 << 8 * dtype.itemsize
    counts = np.zeros(n, dtype=dtype)
    base = 0
    for seg in iter_segments(X + 1, 2 * X + y):
        cum = np.cumsum(seg.bits, dtype=dtype)
        for add, t0 in ((np.subtract, X), (np.add, X + y)):
            i = max(0, -((t0 - seg.lo) // stride))  # the first t0 + i * stride >= seg.lo
            j = min(n, (seg.hi - t0) // stride + 1)
            if i < j:
                part = counts[i:j]
                add(part, cum[t0 + i * stride - seg.lo :: stride][: j - i], out=part)
                add(part, base, out=part)
        base = (base + int(cum[-1])) % modulus
        del cum, seg  # freed before the next segment is sieved

    scale = _landau() * y

    def derive(i: int, j: int):
        keys = np.arange(X + i * stride, X + j * stride, stride, dtype=np.int64)
        predicted = np.log(keys, dtype=np.float64)
        np.divide(scale, np.sqrt(predicted, out=predicted), out=predicted)
        return keys, predicted, np.ones(j - i, dtype=bool)

    return ScanReport(kind="intervals", params={"X": X, "y": y, "stride": stride}, counts=counts, derive=derive)


def scan_progressions(x: int, Q: int, a: int) -> ScanReport:
    """Counts of members n <= x, n = a (mod q), for every q in [Q, 2Q]."""
    if not 3 <= x <= INT64_MAX:
        raise DomainError(f"scan_progressions: need 3 <= x <= 2^63 - 1, got x={x}")
    if Q < 1 or not 0 <= a <= INT64_MAX:
        raise DomainError(f"scan_progressions: need Q >= 1 and 0 <= a <= 2^63 - 1, got Q={Q}, a={a}")
    check_rows("scan_progressions", Q + 1)
    counts = _counts("scan_progressions", 1, x, range(Q, 2 * Q + 1), a)
    # one phi_S sieve over [Q, 2Q] serves every derived pass
    predicted = _progression_predictions(x, Q, 2 * Q)

    def derive(i: int, j: int):
        keys = np.arange(Q + i, Q + j, dtype=np.int64)
        return keys, predicted[i:j], _progression_applicable(a, keys)

    return ScanReport(kind="progressions", params={"x": x, "Q": Q, "a": a}, counts=counts, derive=derive)


def scan_residues(x: int, q: int) -> ScanReport:
    """Counts of members n <= x, n = a (mod q), for every residue a in [0, q)."""
    if not 3 <= x <= INT64_MAX:
        raise DomainError(f"scan_residues: need 3 <= x <= 2^63 - 1, got x={x}")
    if q < 1:
        raise DomainError(f"scan_residues: q must be >= 1, got {q}")
    check_rows("scan_residues", q)
    check_sieve_limit("scan_residues", math.isqrt(x))
    counts = np.zeros(q, dtype=np.int64)
    for seg in iter_segments(1, x):
        members = seg.members()
        if members.size:
            counts += np.bincount(members % q, minlength=q)
    pred_q = _progression_predictions(x, q, q)[0]

    def derive(i: int, j: int):
        keys = np.arange(i, j, dtype=np.int64)
        return keys, np.full(j - i, pred_q), _progression_applicable(keys, q)

    return ScanReport(kind="residues", params={"x": x, "q": q}, counts=counts, derive=derive)


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

    def __post_init__(self) -> None:
        if self.z < 2:
            raise DomainError(f"MaierConfig: z must be >= 2, got {self.z}")
        check_sieve_limit("MaierConfig", self.z)  # P_exponents sieves the primes up to z
        if self.Q < 1 or self.x < 2 * self.Q:
            raise DomainError(f"MaierConfig: need Q >= 1 and x >= 2Q, got x={self.x}, Q={self.Q}")
        if self.a % 2 == 0 or not 1 <= self.a <= INT64_MAX:
            raise DomainError(f"MaierConfig: a must be odd and in [1, 2^63 - 1], got {self.a}")
        if not is_two_square(self.a):
            raise DomainError(f"MaierConfig: a={self.a} is not a sum of two squares")

    @property
    def power_floor(self) -> Fraction:
        """a (4x/Q + 1): each p^alpha_p must reach this."""
        return self.a * self.u_limit

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
    d_terms = tuple((d, int(np.count_nonzero(keep[:end])) if end else 0) for d, end in zip(ds, ends))

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
