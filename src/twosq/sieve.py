"""Membership and counting for the set of sums of two squares.

An integer n >= 1 is a sum of two squares (a^2 + b^2 with a, b >= 0) exactly
when every prime p = 3 (mod 4) divides n to an even power.  The parity sieve
tracks only those parities, for p <= sqrt(hi).  Where all are even, n has at
most one other prime factor = 3 (mod 4), to the first power, so n is a
member exactly when its odd part is 1 (mod 4).

A segment of n integers holds one byte of marks per integer, and its base
primes split in two regimes.  Primes up to n / 64 have many multiples each
and take one Python iteration each: they count v_p's parity in the marks,
adding 1 along the multiples of p, subtracting 1 along those of p^2, adding
1 along p^3, ..., one strided in-place op per power, so a byte gains v_p
mod 2 from p; nothing is divided and nothing is allocated per prime.
Primes above n / 64 hit at most 65 positions each (only one or none when
p > n, the common case in short windows far out); a chunk of them walks
the segment together, one multiple of each per numpy round, and v_p's
parity there is found by exact int64 division.  The membership bits are
the marks inverted in place: a segment's memory is n bytes plus scratch.

A one-segment range streams its base primes = 3 (mod 4) up to sqrt(hi) a
block at a time from the residue-class prime sieve, so a short window far
out never holds them all; a range of several segments holds the list once
and hands it to every segment as a single block.

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
from .primes import INT64_MAX, factorize, iter_prime_blocks, p3_primes

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
    sqrt(hi) in ascending order, and is marked as one block; by default
    they are streamed from iter_prime_blocks(sqrt(hi), p3=True) a block at a
    time and never held whole.  iter_segments passes one list to every
    segment of a longer range.
    """
    if not 1 <= lo <= hi <= INT64_MAX:
        raise DomainError(f"sieve_segment: need 1 <= lo <= hi < 2^63, got [{lo}, {hi}]")
    n = hi - lo + 1
    if n > MAX_SEGMENT:
        raise ResourceError(
            f"sieve_segment: segment of {n} integers exceeds budget {MAX_SEGMENT}; "
            "stream smaller segments instead"
        )
    root = isqrt(hi)
    if base_primes is None:
        blocks = iter_prime_blocks(root, p3=True)  # refuses root > 2^30 before marks exist
    else:
        blocks = (base_primes[: np.searchsorted(base_primes, root, side="right")],)

    # marks[i] != 0 iff lo + i is ruled out.  The 2-adic marks and the large
    # primes store 1, between whole primes; a small prime p adds +1, -1, +1, ...
    # along p, p^2, p^3, ..., so its partial sums stay in {0, 1} and its net is
    # v_p mod 2.  At most 12 distinct primes = 3 (mod 4) divide any n < 2^63
    # (3 * 7 * ... * 79 = 1.40e17; times 83 it passes 2^63), so a byte never
    # exceeds 13 and the uint8 never wraps.
    marks = np.zeros(n, dtype=np.uint8)

    # m has odd part 3 (mod 4) iff m = 3 * 2^k (mod 2^(k+2)) for some k.  Steps
    # are capped at n (which hits the same one position) to stay below 2^63.
    k = 0
    while 3 << k <= hi:
        marks[((3 << k) - lo) % (4 << k) :: min(4 << k, n)] = 1
        k += 1

    # Each block's primes above n // LARGE_PRIME_DIVISOR hit few positions each
    # and go through one vectorized pass, the rest through the counter.  Marking
    # goes prime by prime, so blocks and passes may come in any order.  The
    # counter adds uint8 scalars (255 subtracts 1 mod 256), faster than ints.
    plus, minus = np.uint8(1), np.uint8(255)
    for block in blocks:
        split = int(np.searchsorted(block, n // LARGE_PRIME_DIVISOR, side="right"))
        _mark_odd_valuations(marks, lo, block[split:])
        for p in block[:split].tolist():
            q, d, e = p, plus, minus
            while q <= hi:
                if (start := -lo % q) < n:  # a power past n hits one position or none
                    view = marks[start::q]
                    np.add(view, d, out=view)
                q, d, e = q * p, e, d

    # a byte holding 2 or more is read as uint8 here, never as bool
    return SegmentTable(lo=lo, hi=hi, bits=np.logical_not(marks, out=marks.view(bool)))


def _mark_odd_valuations(marks: np.ndarray, lo: int, primes: np.ndarray) -> None:
    """Set marks[i] = 1 where v_p(lo + i) is odd for some p in primes.

    Primes come LARGE_PRIME_CHUNK at a time and walk the segment together,
    one multiple of each still inside it per round; v_p's parity there is
    found by exact int64 division (lo + i < 2^63).
    """
    n = marks.size
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
            marks[pos[odd]] = 1
            pos += p


def iter_segments(lo: int, hi: int, threads: int = 1) -> Iterator[SegmentTable]:
    """Stream SegmentTables of DEFAULT_SEGMENT integers covering [lo, hi] in
    order.  A range of more than one segment sieves every segment against
    one held list of base primes, p3_primes(sqrt(hi)); a range of one
    segment streams its base primes (see sieve_segment).

    threads is ignored; it stays only because the benchmark probes pass it.
    """
    if hi < lo:
        return
    if lo < 1 or hi > INT64_MAX:
        raise DomainError(f"iter_segments: need 1 <= lo and hi < 2^63, got [{lo}, {hi}]")
    base = p3_primes(isqrt(hi)) if hi - lo >= DEFAULT_SEGMENT else None
    for a in range(lo, hi + 1, DEFAULT_SEGMENT):
        yield sieve_segment(a, min(a + DEFAULT_SEGMENT - 1, hi), base)


def _count(lo: int, hi: int, q: int = 1, a: int = 0) -> int:
    """Members n in [lo, hi] with n = a (mod q).  map drops each segment before
    the next is sieved (a generator expression's loop variable would hold it)."""
    return sum(map(lambda seg: int(np.count_nonzero(seg.bits[(a - seg.lo) % q :: q])), iter_segments(lo, hi)))


def count_upto(x: int) -> int:
    """Number of sums of two squares in [1, x]."""
    if not 0 <= x <= INT64_MAX:
        raise DomainError(f"count_upto: need 0 <= x <= 2^63 - 1, got x={x}")
    return _count(1, x)


def count_interval(x: int, y: int) -> int:
    """Number of members in (x, x+y], i.e. count_upto(x+y) - count_upto(x)."""
    if x < 0:
        raise DomainError(f"count_interval: x must be >= 0, got {x}")
    if y < 1:
        raise DomainError(f"count_interval: y must be >= 1, got {y}")
    if x + y > INT64_MAX:
        raise DomainError(f"count_interval: need x + y <= 2^63 - 1, got x={x}, y={y}")
    return _count(x + 1, x + y)


def count_progression(x: int, q: int, a: int) -> int:
    """Number of members n <= x with n = a (mod q)."""
    if q < 1:
        raise DomainError(f"count_progression: q must be >= 1, got {q}")
    if not 0 <= a < q:
        raise DomainError(f"count_progression: need 0 <= a < q, got a={a}, q={q}")
    if not 0 <= x <= INT64_MAX:
        raise DomainError(f"count_progression: need 0 <= x <= 2^63 - 1, got x={x}")
    return _count(1, x, q, a)
