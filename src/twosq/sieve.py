"""Membership and counting for the set of sums of two squares.

An integer n >= 1 is a sum of two squares (a^2 + b^2 with a, b >= 0) exactly
when every prime p = 3 (mod 4) divides n to an even power.  The parity sieve
tracks only those parities, for p <= sqrt(hi).  Where all are even, n has at
most one other prime factor = 3 (mod 4), to the first power, so n is a
member exactly when its odd part is 1 (mod 4).

A segment of n integers splits its base primes in two regimes.  Primes up
to n / 64 have many multiples each and take one Python iteration each: a
small array over the multiples of p holds the parity of v_p, toggled along
the multiples of p^2, p^3, ... with strided slices, and is ORed into the
segment with one strided store; nothing is divided.
Primes above n / 64 hit at most 65 positions each (only one or none when
p > n, the common case in short windows far out); a chunk of them walks
the segment together, one multiple of each per numpy round, and v_p's
parity there is found by exact int64 division.  The membership bits are
the marks inverted in place: a segment's memory is n bytes plus scratch.

Counts and scans stream segments through iter_segments on one thread: the
per-prime loop runs Python under the GIL, so a thread pool saved no time on
the benchmark's runs.  Counts drop each segment before the next is sieved.

Integers are restricted to the signed-64-bit range; work beyond 2^63 - 1 is
rejected rather than silently overflowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Iterator

import numpy as np

from .errors import DomainError, ResourceError
from .primes import INT64_MAX, factorize, p3_primes

# Default segment length for streaming scans (integers per segment).
DEFAULT_SEGMENT = 1 << 21

# Hard cap on a single allocation inside sieve_segment.
MAX_SEGMENT = 1 << 26

# Base primes above n // LARGE_PRIME_DIVISOR (n the segment length) hit at
# most LARGE_PRIME_DIVISOR + 1 positions each and skip the per-prime loop.
LARGE_PRIME_DIVISOR = 64

# Large base primes walked at once (bounds that pass's memory).
LARGE_PRIME_CHUNK = 1 << 14


def is_two_square(n: int) -> bool:
    """True iff n = a^2 + b^2 for some integers a, b >= 0 (n >= 1): every
    prime = 3 (mod 4) divides n to an even power."""
    if n < 1:
        raise DomainError(f"is_two_square: n must be >= 1, got {n}")
    return all(e % 2 == 0 for p, e in factorize(n).items() if p % 4 == 3)


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """Immutable membership table for a contiguous range [lo, hi].

    bits[i] is True iff lo + i is a sum of two squares.
    """

    lo: int
    hi: int
    bits: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def count_range(self, a: int, b: int) -> int:
        """Number of members in [a, b] (must lie inside [lo, hi])."""
        if a > b:
            return 0
        if a < self.lo or b > self.hi:
            raise DomainError(f"count_range: [{a}, {b}] outside [{self.lo}, {self.hi}]")
        return int(np.count_nonzero(self.bits[a - self.lo : b - self.lo + 1]))

    def members(self) -> np.ndarray:
        """All members in [lo, hi], ascending, as int64."""
        m = np.flatnonzero(self.bits).astype(np.int64, copy=False)
        m += self.lo  # in place, and exact: lo + index <= hi < 2^63
        return m


def sieve_segment(lo: int, hi: int, base_primes: np.ndarray | None = None) -> SegmentTable:
    """Parity sieve for membership over [lo, hi] (1 <= lo <= hi < 2^63).

    base_primes, if given, must hold the primes = 3 (mod 4) up to at least
    sqrt(hi) in ascending order (by default p3_primes(sqrt(hi)));
    iter_segments passes one list to every segment.
    """
    if not 1 <= lo <= hi <= INT64_MAX:
        raise DomainError(f"sieve_segment: need 1 <= lo <= hi < 2^63, got [{lo}, {hi}]")
    n = hi - lo + 1
    if n > MAX_SEGMENT:
        raise ResourceError(
            f"sieve_segment: segment of {n} integers exceeds budget {MAX_SEGMENT}; "
            "stream smaller segments instead"
        )
    if base_primes is None:
        base_primes = p3_primes(isqrt(hi))

    # m has odd part 3 (mod 4) iff m = 3 * 2^k (mod 2^(k+2)) for some k.  Steps
    # are capped at n (which hits the same one position) to stay below 2^63.
    bad = np.zeros(n, dtype=bool)
    k = 0
    while 3 << k <= hi:
        bad[((3 << k) - lo) % (4 << k) :: min(4 << k, n)] = True
        k += 1

    # Base primes above n // LARGE_PRIME_DIVISOR hit few positions each and go
    # through one vectorized pass, which reads nothing of the loop below.
    base_primes = base_primes[: np.searchsorted(base_primes, isqrt(hi), side="right")]
    split = int(np.searchsorted(base_primes, n // LARGE_PRIME_DIVISOR, side="right"))
    _mark_odd_valuations(bad, lo, base_primes[split:])

    # Valuation parity on the multiples of p alone: odd[j] is v_p of the j-th
    # multiple mod 2 (the first, at start < p <= n, is in the segment), the
    # multiples of p^2, p^3, ... lying every p, p^2, ... entries apart; one
    # strided OR then carries it into bad.
    for p in base_primes[:split].tolist():
        start = -lo % p
        odd = np.ones((n - 1 - start) // p + 1, dtype=bool)
        q = p * p
        while q <= hi:
            odd[(-lo % q - start) // p :: q // p] ^= True
            q *= p
        bad[start::p] |= odd

    return SegmentTable(lo=lo, hi=hi, bits=np.logical_not(bad, out=bad))


def _mark_odd_valuations(bad: np.ndarray, lo: int, primes: np.ndarray) -> None:
    """Set bad[i] where v_p(lo + i) is odd for some p in primes.

    Primes come LARGE_PRIME_CHUNK at a time and walk the segment together,
    one multiple of each still inside it per round; v_p's parity there is
    found by exact int64 division (lo + i < 2^63).
    """
    n = bad.size
    for c in range(0, primes.size, LARGE_PRIME_CHUNK):
        p = primes[c : c + LARGE_PRIME_CHUNK]
        pos = -lo % p
        while (keep := pos < n).any():
            p, pos = p[keep], pos[keep]
            # at: entries still divisible by p, q: their value with p divided out so far
            odd = np.ones(pos.size, dtype=bool)
            at, q, pa = np.arange(pos.size), (lo + pos) // p, p
            while at.size:
                more = q % pa == 0
                at, pa = at[more], pa[more]
                q = q[more] // pa
                odd[at] ^= True
            bad[pos[odd]] = True
            pos += p


def iter_segments(lo: int, hi: int, threads: int = 1) -> Iterator[SegmentTable]:
    """Stream SegmentTables of DEFAULT_SEGMENT integers covering [lo, hi] in
    order, all sieved against one list of base primes, p3_primes(sqrt(hi)).

    threads is ignored; it stays only because the benchmark probes pass it.
    """
    if hi < lo:
        return
    if lo < 1 or hi > INT64_MAX:
        raise DomainError(f"iter_segments: need 1 <= lo and hi < 2^63, got [{lo}, {hi}]")
    base = p3_primes(isqrt(hi))
    for a in range(lo, hi + 1, DEFAULT_SEGMENT):
        yield sieve_segment(a, min(a + DEFAULT_SEGMENT - 1, hi), base)


def _count(lo: int, hi: int, q: int = 1, a: int = 0) -> int:
    """Members n in [lo, hi] with n = a (mod q).  map drops each segment before
    the next is sieved (a generator expression's loop variable would hold it)."""
    return sum(map(lambda seg: int(np.count_nonzero(seg.bits[(a - seg.lo) % q :: q])), iter_segments(lo, hi)))


def count_upto(x: int) -> int:
    """Number of sums of two squares in [1, x]."""
    if x < 0:
        raise DomainError(f"count_upto: x must be >= 0, got {x}")
    return _count(1, x)


def count_interval(x: int, y: int) -> int:
    """Number of members in (x, x+y], i.e. count_upto(x+y) - count_upto(x)."""
    if x < 0:
        raise DomainError(f"count_interval: x must be >= 0, got {x}")
    if y < 1:
        raise DomainError(f"count_interval: y must be >= 1, got {y}")
    return _count(x + 1, x + y)


def count_progression(x: int, q: int, a: int) -> int:
    """Number of members n <= x with n = a (mod q)."""
    if q < 1:
        raise DomainError(f"count_progression: q must be >= 1, got {q}")
    if not 0 <= a < q:
        raise DomainError(f"count_progression: need 0 <= a < q, got a={a}, q={q}")
    if x < 0:
        raise DomainError(f"count_progression: x must be >= 0, got {x}")
    return _count(1, x, q, a)
