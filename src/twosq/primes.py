"""Prime generation and factorization helpers used throughout the toolkit.

Everything here is deliberately elementary: simple and segmented sieves of
Eratosthenes (numpy bit arrays), the one trial-division loop (factorize) and
the one enumeration of squarefree products over a prime list.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError

# Segment length (in integers) for streaming prime enumeration.
PRIME_SEGMENT = 1 << 22


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def iter_prime_blocks(limit: int, segment: int = PRIME_SEGMENT) -> Iterator[np.ndarray]:
    """Yield primes <= limit in ascending blocks without sieving all at once.

    Memory stays O(segment + sqrt(limit)); used for the truncated Euler
    products where limit can be 10^8.
    """
    if limit < 2:
        return
    base_limit = isqrt(limit)
    base = sieve_primes(base_limit)
    yield base
    lo = base_limit + 1
    while lo <= limit:
        hi = min(lo + segment - 1, limit)
        flags = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            p = int(p)
            start = ((lo + p - 1) // p) * p
            if start <= hi:
                flags[start - lo :: p] = False
        yield (lo + np.flatnonzero(flags)).astype(np.int64)
        lo = hi + 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division; n >= 1."""
    if n < 1:
        raise DomainError(f"factorize: n must be >= 1, got {n}")
    out: dict[int, int] = {}
    m = n
    f = 2
    while f * f <= m:
        while m % f == 0:
            m //= f
            out[f] = out.get(f, 0) + 1
        f += 1 if f == 2 else 2
    if m > 1:
        out[m] = 1
    return out


def is_prime(n: int) -> bool:
    """Primality by trial division; fine for the desk-scale moduli used here."""
    return n >= 2 and factorize(n) == {n: 1}


def squarefree_products(primes: Sequence[int], R: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (r, its primes) for r = 1 and every product r < R of distinct
    primes from the ascending list primes.

    Depth-first, not in order of r; each prime tuple is ascending.  r = 1
    (the empty product) is yielded even when R <= 1.
    """
    stack: list[tuple[int, tuple[int, ...], int]] = [(1, (), 0)]
    while stack:
        r, facs, j0 = stack.pop()
        yield r, facs
        for j in range(j0, len(primes)):
            nxt = r * primes[j]
            if nxt >= R:
                # primes ascending, so larger j only overshoots further
                break
            stack.append((nxt, facs + (primes[j],), j + 1))
