"""Membership and counting for the set of sums of two squares.

An integer n >= 1 is a sum of two squares (a^2 + b^2 with a, b >= 0) exactly
when every prime p = 3 (mod 4) divides n to an even power.  The parity sieve
tracks only those parities, for p <= sqrt(hi).  Where all are even, n has at
most one other prime factor = 3 (mod 4), to the first power, so n is a
member exactly when its odd part is 1 (mod 4).

A segment of n integers holds one byte of marks per integer, and its base
primes split in two regimes, each counting v_p's parity in the marks:
adding 1 along the multiples of p, subtracting 1 along those of p^2, adding
1 along p^3, ..., so a byte gains v_p mod 2 from p.  A class of positions
with many members takes strided stores; one with a single member or none is
counted by hand or listed, never sliced.
- Primes up to n / 64 have many multiples each and take one Python
  iteration each: one strided in-place add per power up to n.  A power past
  n hits one position or none, the same one for every further power, so
  that position is counted by hand, with no view and no numpy call.
- Primes above n / 64 hit at most 65 positions each, and in a short window
  far out most hit none: a chunk of them drops the primes whose multiples
  miss the segment, has every multiple of the rest listed at once (the
  bucket sieve of Oliveira e Silva, Herzog and Pardi, Math. Comp. 83, 2014)
  and counted with one unbuffered add, then the multiples of their squares,
  cubes, ... the same way.
The membership bits are the marks inverted in place: a segment's memory is
n bytes plus a chunk's scratch.

A range whose base primes = 3 (mod 4) up to sqrt(hi), as one int64 list,
would outweigh the marks of the whole range is sieved as one segment that
streams them in short blocks from the residue-class prime sieve, so a window
far out never holds them all; any other range of several segments holds the
list once and hands it to every segment as a single block.

Counts and scans stream segments through iter_segments on one thread: the
per-prime loop runs Python under the GIL, so a thread pool saved no time on
the benchmark's runs.  Counts drop each segment before the next is sieved.

Integers are restricted to the signed-64-bit range; work beyond 2^63 - 1 is
rejected rather than silently overflowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt, log
from typing import Iterator

import numpy as np

from .errors import DomainError, ResourceError
from .primes import INT64_MAX, check_sieve_limit, factorize, iter_prime_blocks, p3_primes

# Default segment length for streaming scans (integers per segment), one byte
# of marks per integer.  Shorter segments hold less but run the per-prime loop
# more often: on a 2-vCPU host (in-process, min of 5) 2^19 / 2^20 / 2^21 took
# 0.27 / 0.22 / 0.21 s for count_upto(1e8) and 0.14 / 0.11 / 0.09 s for 2^24
# integers at 1e12; `count --x 1e9` keeps its time at 2^20 (CLI, median of 7:
# 3.33 s, 3.57 s with 2^21 segments walking their large primes).
DEFAULT_SEGMENT = 1 << 20

# Hard cap on a single allocation inside sieve_segment.
MAX_SEGMENT = 1 << 26

# Base primes above n // LARGE_PRIME_DIVISOR (n the segment length) hit at
# most LARGE_PRIME_DIVISOR + 1 positions each and skip the per-prime loop.
LARGE_PRIME_DIVISOR = 64

# Hits listed at once, and at most as many primes, by the pass over primes
# above n // LARGE_PRIME_DIVISOR: it bounds its scratch, a few int64 arrays of
# a chunk.  On the same host 2^12 / 2^13 / 2^14 took 28 / 27 / 24 ms for 2^20
# integers at 1e14 (min of 7).
LARGE_PRIME_CHUNK = 1 << 13


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
    check_sieve_limit("sieve_segment", root)  # before any marks exist
    if base_primes is None:
        blocks = iter_prime_blocks(root, p3=True)
    else:
        blocks = (base_primes[: np.searchsorted(base_primes, root, side="right")],)

    # marks[i] != 0 iff lo + i is ruled out.  The 2-adic marks store 1 before
    # any prime is counted; a prime p adds +1, -1, +1, ... along p, p^2, p^3,
    # ..., so its partial sums stay in {0, 1} and its net is v_p mod 2.  At most
    # 12 distinct primes = 3 (mod 4) divide any n < 2^63 (3 * 7 * ... * 79 =
    # 1.40e17; times 83 it passes 2^63), so a byte never exceeds 13 and the
    # uint8 never wraps.
    marks = np.zeros(n, dtype=np.uint8)

    # m has odd part 3 (mod 4) iff m = 3 * 2^k (mod 2^(k+2)) for some k: one
    # strided store per k while 2^(k+2) <= n.  Past that, every m with v_2(m)
    # >= k is one of the at most 4 multiples of 2^k here, marked by hand.
    k = 0
    while 4 << k <= n:
        marks[((3 << k) - lo) % (4 << k) :: 4 << k] = 1
        k += 1
    for i in range(-lo % (1 << k), n, 1 << k):
        if (m := lo + i) // (m & -m) % 4 == 3:
            marks[i] = 1

    # Each prime's partial sums stay in {0, 1}, so blocks and regimes may come
    # in any order.  The per-prime loop adds uint8 scalars (255 subtracts 1
    # mod 256), faster than ints.
    plus, minus = np.uint8(1), np.uint8(255)
    for block in blocks:
        small = int(np.searchsorted(block, n // LARGE_PRIME_DIVISOR, side="right"))
        for p in block[:small].tolist():
            q, d, e = p, plus, minus
            while q <= n:
                view = marks[-lo % q :: q]
                np.add(view, d, out=view)
                q, d, e = q * p, e, d
            # the first power past n hits one position or none, and every
            # higher power only that one: count them there by hand
            if (start := -lo % q) < n:
                r, hits = (lo + start) // q, 1
                while r % p == 0:
                    r, hits = r // p, hits + 1
                if hits % 2:
                    marks[start] = marks.item(start) + (1 if d is plus else -1)
        _count_listed(marks, lo, block[small:])

    # a byte holding 2 or more is read as uint8 here, never as bool
    return SegmentTable(lo=lo, hi=hi, bits=np.logical_not(marks, out=marks.view(bool)))


def _count_listed(marks: np.ndarray, lo: int, primes: np.ndarray) -> None:
    """Count v_p's parity for each p in primes, a chunk of about
    LARGE_PRIME_CHUNK hits and at most LARGE_PRIME_CHUNK primes at a time:
    +1 at every multiple of p in the segment, -1 at every multiple of p^2,
    +1 along p^3, ..., each power's multiples listed at once and added
    unbuffered, as several primes may hit one position.  A power whose
    multiples miss the segment (so those of every higher power do too), or
    whose next power passes hi, drops its prime."""
    n = marks.size
    hi = lo + n - 1
    i = 0
    while i < primes.size:
        # a prime p >= primes[i] hits at most n // primes[i] + 1 positions, one if p > n
        p = primes[i : i + max(1, LARGE_PRIME_CHUNK * min(int(primes[i]), n) // n)]
        i += p.size
        q, d, e = p, np.uint8(1), np.uint8(255)
        while True:
            # drop the misses first, so the hit lists span only the primes that hit
            first = -lo % q
            keep = first < n
            p, q, first = p[keep], q[keep], first[keep]
            if not p.size:
                break
            hits = (n - 1 - first) // q + 1  # first + j * q for 0 <= j < hits
            # pos: j * q + first for the j-th hit of each power q
            ends = np.cumsum(hits)
            pos = np.arange(int(ends[-1]), dtype=np.int64)
            ends -= hits
            pos -= np.repeat(ends, hits)
            pos *= np.repeat(q, hits)
            pos += np.repeat(first, hits)
            np.add.at(marks, pos, d)
            keep = q <= hi // p
            p = p[keep]
            q = q[keep] * p
            d, e = e, d


def iter_segments(lo: int, hi: int, threads: int = 1) -> Iterator[SegmentTable]:
    """Stream SegmentTables covering [lo, hi] in order.

    A range of up to MAX_SEGMENT integers whose base primes, as one list
    (p3_primes(sqrt(hi)), about 8 * sqrt(hi) / (2 ln sqrt(hi)) bytes), would
    outweigh one byte of marks per integer, and any range of up to
    DEFAULT_SEGMENT integers, is one segment that streams its base primes
    (see sieve_segment).  Any other range is sieved DEFAULT_SEGMENT integers
    at a time, every segment against one held list.

    Callers check the range; sieve_segment refuses one outside [1, 2^63 - 1].
    threads is ignored; it stays only because the benchmark probes pass it.
    """
    if hi < lo:
        return
    n, root = hi - lo + 1, isqrt(hi)
    if n <= DEFAULT_SEGMENT or n <= MAX_SEGMENT and 4 * root > n * log(root):
        yield sieve_segment(lo, hi)
        return
    base = p3_primes(root)
    for a in range(lo, hi + 1, DEFAULT_SEGMENT):
        yield sieve_segment(a, min(a + DEFAULT_SEGMENT - 1, hi), base)


def _counts(who: str, lo: int, hi: int, qs=(1,), a: int = 0) -> np.ndarray:
    """Members n in [lo, hi] with n = a (mod q), an int64 count per q in qs, each
    segment dropped before the next is sieved; who names a refused sieve budget."""
    check_sieve_limit(who, isqrt(hi))
    counts = np.zeros(len(qs), dtype=np.int64)
    for seg in iter_segments(lo, hi):
        for i, q in enumerate(qs):
            counts[i] += np.count_nonzero(seg.bits[(a - seg.lo) % q :: q])
        del seg
    return counts


def count_upto(x: int) -> int:
    """Number of sums of two squares in [1, x]."""
    if not 0 <= x <= INT64_MAX:
        raise DomainError(f"count_upto: need 0 <= x <= 2^63 - 1, got x={x}")
    return int(_counts("count_upto", 1, x)[0])


def count_interval(x: int, y: int) -> int:
    """Number of members in (x, x+y], i.e. count_upto(x+y) - count_upto(x)."""
    if x < 0:
        raise DomainError(f"count_interval: x must be >= 0, got {x}")
    if y < 1:
        raise DomainError(f"count_interval: y must be >= 1, got {y}")
    if x + y > INT64_MAX:
        raise DomainError(f"count_interval: need x + y <= 2^63 - 1, got x={x}, y={y}")
    return int(_counts("count_interval", x + 1, x + y)[0])


def count_progression(x: int, q: int, a: int) -> int:
    """Number of members n <= x with n = a (mod q)."""
    if q < 1:
        raise DomainError(f"count_progression: q must be >= 1, got {q}")
    if not 0 <= a < q:
        raise DomainError(f"count_progression: need 0 <= a < q, got a={a}, q={q}")
    if not 0 <= x <= INT64_MAX:
        raise DomainError(f"count_progression: need 0 <= x <= 2^63 - 1, got x={x}")
    return int(_counts("count_progression", 1, x, (q,), a)[0])
