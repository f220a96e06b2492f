"""Membership and counting for the set of sums of two squares.

An integer n >= 1 is a sum of two squares (a^2 + b^2 with a, b >= 0) exactly
when every prime p = 3 (mod 4) divides n to an even power.  The bulk sieve
keeps a residual cofactor per position and divides out full prime powers for
every prime p <= sqrt(hi), so the residual left at the end is 1 or a single
prime; a residual = 3 (mod 4), or an odd total valuation at any tracked
p = 3 (mod 4), excludes the number.

Integers are restricted to the signed-64-bit range; work beyond 2^63 - 1 is
rejected rather than silently overflowing.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import isqrt
from typing import Iterator

import numpy as np

from .errors import DomainError, ResourceError
from .primes import factorize, sieve_primes

INT64_MAX = 2**63 - 1

# Bits per popcount block; build-time constant, keeps subrange counting O(1)
# blocks plus two partial edges.
POPCOUNT_BLOCK = 4096

# Default segment length for streaming scans (integers per segment).
DEFAULT_SEGMENT = 1 << 21

# Hard cap on a single allocation inside sieve_segment.
MAX_SEGMENT = 1 << 26


def is_two_square(n: int) -> bool:
    """True iff n = a^2 + b^2 for some integers a, b >= 0 (n >= 1): every
    prime = 3 (mod 4) divides n to an even power."""
    if n < 1:
        raise DomainError(f"is_two_square: n must be >= 1, got {n}")
    return all(e % 2 == 0 for p, e in factorize(n).items() if p % 4 == 3)


@dataclass(frozen=True)
class SegmentTable:
    """Immutable membership table for a contiguous range [lo, hi].

    bits[i] is True iff lo + i is a sum of two squares.  block_cum holds
    cumulative set-bit counts at POPCOUNT_BLOCK boundaries so that
    count_range works in O(1) full blocks.
    """

    lo: int
    hi: int
    bits: np.ndarray = field(repr=False)
    block_cum: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def bit(self, n: int) -> bool:
        if not self.lo <= n <= self.hi:
            raise DomainError(f"bit: {n} outside [{self.lo}, {self.hi}]")
        return bool(self.bits[n - self.lo])

    def count_range(self, a: int, b: int) -> int:
        """Number of members in [a, b] (must lie inside [lo, hi])."""
        if a > b:
            return 0
        if a < self.lo or b > self.hi:
            raise DomainError(f"count_range: [{a}, {b}] outside [{self.lo}, {self.hi}]")
        i, j = a - self.lo, b - self.lo + 1
        bi = (i + POPCOUNT_BLOCK - 1) // POPCOUNT_BLOCK
        bj = j // POPCOUNT_BLOCK
        if bi >= bj:
            return int(np.count_nonzero(self.bits[i:j]))
        head = int(np.count_nonzero(self.bits[i : bi * POPCOUNT_BLOCK]))
        tail = int(np.count_nonzero(self.bits[bj * POPCOUNT_BLOCK : j]))
        mid = int(self.block_cum[bj] - self.block_cum[bi])
        return head + mid + tail

    def members(self) -> np.ndarray:
        """All members in [lo, hi], ascending, as int64."""
        return self.lo + np.flatnonzero(self.bits).astype(np.int64)


def sieve_segment(lo: int, hi: int, base_primes: np.ndarray | None = None) -> SegmentTable:
    """Residual sieve for membership over [lo, hi] (hi >= lo >= 1).

    For every prime p <= sqrt(hi) the full p-power is divided out of each
    multiple; for p = 3 (mod 4) the valuation parity is tracked by toggling
    once per prime power p, p^2, ... dividing the position.
    """
    if lo < 1 or hi < lo:
        raise DomainError(f"sieve_segment: need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > INT64_MAX:
        raise DomainError(f"sieve_segment: hi must be < 2^63, got {hi}")
    n = hi - lo + 1
    if n > MAX_SEGMENT:
        raise ResourceError(
            f"sieve_segment: segment of {n} integers exceeds budget {MAX_SEGMENT}; "
            "stream smaller segments instead"
        )
    if base_primes is None and isqrt(hi) > 1 << 30:
        raise ResourceError(f"sieve_segment: base prime sieve to sqrt({hi}) exceeds memory budget")

    residual = np.arange(lo, hi + 1, dtype=np.int64)
    bad = np.zeros(n, dtype=bool)
    toggle = np.zeros(n, dtype=bool)

    if base_primes is None:
        base_primes = sieve_primes(isqrt(hi))

    for p in base_primes:
        p = int(p)
        if p * p > hi:
            break
        start = ((lo + p - 1) // p) * p
        if start > hi:
            continue
        pos = np.arange(start - lo, n, p)

        # Divide out the full p-power from every multiple.
        cur = pos
        while cur.size:
            residual[cur] //= p
            cur = cur[residual[cur] % p == 0]

        # Valuation parity: a position divisible by p^j gets j toggles.
        if p % 4 == 3:
            q = p
            while q <= hi:
                qstart = ((lo + q - 1) // q) * q
                if qstart <= hi:
                    toggle[qstart - lo :: q] ^= True
                q *= p
            bad[pos] |= toggle[pos]
            toggle[pos] = False

    # residual is now 1 or a prime > sqrt(hi); an exponent-1 prime
    # = 3 (mod 4) excludes the number.
    bad |= (residual % 4) == 3

    bits = ~bad
    nblocks = (n + POPCOUNT_BLOCK - 1) // POPCOUNT_BLOCK
    sums = np.add.reduceat(bits, np.arange(0, n, POPCOUNT_BLOCK)) if n else np.empty(0, int)
    block_cum = np.zeros(nblocks + 1, dtype=np.int64)
    np.cumsum(sums, out=block_cum[1:])
    return SegmentTable(lo=lo, hi=hi, bits=bits, block_cum=block_cum)


def iter_segments(
    lo: int,
    hi: int,
    segment: int = DEFAULT_SEGMENT,
    threads: int = 1,
) -> Iterator[SegmentTable]:
    """Stream SegmentTables covering [lo, hi] in order.

    With threads > 1 disjoint segments are sieved concurrently but always
    yielded in ascending order, so consumers see identical streams for any
    thread count.
    """
    if hi < lo:
        return
    if isqrt(hi) > 1 << 30:
        raise ResourceError(f"iter_segments: base prime sieve to sqrt({hi}) exceeds memory budget")
    base = sieve_primes(isqrt(hi))
    ranges = []
    a = lo
    while a <= hi:
        b = min(a + segment - 1, hi)
        ranges.append((a, b))
        a = b + 1
    if threads <= 1 or len(ranges) == 1:
        for a, b in ranges:
            yield sieve_segment(a, b, base)
        return
    # sliding submission window keeps memory at O(threads * segment) while
    # still yielding strictly in range order
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        idx = 0
        while idx < len(ranges) or pending:
            while idx < len(ranges) and len(pending) < 2 * threads:
                a, b = ranges[idx]
                pending.append(pool.submit(sieve_segment, a, b, base))
                idx += 1
            yield pending.popleft().result()


@dataclass(frozen=True)
class ProgressionQuery:
    """Count query: members n <= x with n = a (mod q)."""

    x: int
    q: int
    a: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise DomainError(f"ProgressionQuery: q must be >= 1, got {self.q}")
        if not 0 <= self.a < self.q:
            raise DomainError(f"ProgressionQuery: need 0 <= a < q, got a={self.a}, q={self.q}")
        if self.x < 0:
            raise DomainError(f"ProgressionQuery: x must be >= 0, got {self.x}")


def count_upto(x: int, threads: int = 1, segment: int = DEFAULT_SEGMENT) -> int:
    """Number of sums of two squares in [1, x]."""
    if x < 0:
        raise DomainError(f"count_upto: x must be >= 0, got {x}")
    if x == 0:
        return 0
    total = 0
    for seg in iter_segments(1, x, segment=segment, threads=threads):
        total += seg.count_range(seg.lo, seg.hi)
    return total


def count_interval(x: int, y: int, threads: int = 1, segment: int = DEFAULT_SEGMENT) -> int:
    """Number of members in (x, x+y], i.e. count_upto(x+y) - count_upto(x)."""
    if x < 0:
        raise DomainError(f"count_interval: x must be >= 0, got {x}")
    if y < 1:
        raise DomainError(f"count_interval: y must be >= 1, got {y}")
    total = 0
    for seg in iter_segments(x + 1, x + y, segment=segment, threads=threads):
        total += seg.count_range(seg.lo, seg.hi)
    return total


def count_progression(query: ProgressionQuery, threads: int = 1, segment: int = DEFAULT_SEGMENT) -> int:
    """Number of members n <= x with n = a (mod q)."""
    if query.x == 0:
        return 0
    total = 0
    for seg in iter_segments(1, query.x, segment=segment, threads=threads):
        members = seg.members()
        total += int(np.count_nonzero(members % query.q == query.a))
    return total
