"""Prime generation and factorization helpers used throughout the toolkit.

Simple and segmented sieves of Eratosthenes that keep one flag per odd
number (numpy bool arrays; 2 is added by hand), the one
factorization routine (trial division by small factors, then Pollard rho
with deterministic Miller-Rabin, exact on [1, 2^63 - 1]) and the one
enumeration of squarefree products over a prime list.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, ResourceError

INT64_MAX = 2**63 - 1

# Largest limit sieve_primes accepts (its flag array takes (limit + 1) / 2 bytes);
# iter_prime_blocks, whose run time grows with the limit, answers to it too.
MAX_SIEVE_LIMIT = 1 << 30

# Segment length (in integers) for streaming prime enumeration.
PRIME_SEGMENT = 1 << 22

# factorize trial-divides by f < TRIAL_BOUND before splitting the cofactor.
TRIAL_BOUND = 1 << 10

# Miller-Rabin with these bases is exact below 3.3e24 (far above 2^63).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceError(f"sieve_primes: sieve to {limit} exceeds memory budget (limit 2^30)")
    # flags[i] stands for 2i + 1, except flags[0], which stands for 2
    flags = np.ones((limit + 1) // 2, dtype=bool)
    for p in range(3, isqrt(limit) + 1, 2):
        if flags[p // 2]:
            flags[p * p // 2 :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def iter_prime_blocks(limit: int) -> Iterator[np.ndarray]:
    """Yield primes <= limit in ascending blocks without sieving all at once.

    The first block is the primes up to sqrt(limit); each later block holds
    the primes of one range of PRIME_SEGMENT integers, the last range cut at
    limit.  Memory stays O(PRIME_SEGMENT + sqrt(limit)); used for the
    truncated Euler products where limit can be 10^8.  Time grows with
    limit, so the sieve_primes budget (limit <= 2^30) holds here too.
    """
    if limit < 2:
        return
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceError(f"iter_prime_blocks: sieve to {limit} exceeds the prime-sieve budget (limit 2^30)")
    base_limit = isqrt(limit)
    base = sieve_primes(base_limit)
    yield base
    lo = base_limit + 1
    while lo <= limit:
        hi = min(lo + PRIME_SEGMENT - 1, limit)
        # flags[i] stands for the odd number first + 2i in [lo, hi]
        first = lo | 1
        flags = np.ones((hi - first) // 2 + 1, dtype=bool)
        for p in base[1:].tolist():  # base[0] is 2, which has no flags here
            start = (-(-lo // p) | 1) * p  # the first odd multiple >= lo
            flags[(start - first) // 2 :: p] = False
        block = np.flatnonzero(flags).astype(np.int64, copy=False)
        block *= 2
        block += first
        # 2 is streamed (rather than in base) only when limit < 4
        yield np.concatenate(([2], block)) if lo == 2 else block
        lo = hi + 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent}, ascending in p; 1 <= n <= 2^63 - 1."""
    if not 1 <= n <= INT64_MAX:
        raise DomainError(f"factorize: need 1 <= n <= 2^63 - 1, got {n}")
    out: dict[int, int] = {}
    f = 2
    while f < TRIAL_BOUND and f * f <= n:
        while n % f == 0:
            n //= f
            out[f] = out.get(f, 0) + 1
        f += 1 if f == 2 else 2
    # Every prime factor left in n is >= f, so a part below f^2 is prime.
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m < f * f or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_factor(m)
            parts += [d, m // d]
    return dict(sorted(out.items()))


def _rho_factor(m: int) -> int:
    """A factor 1 < d < m of the odd composite m (Pollard rho, Floyd cycles)."""
    for c in range(1, m):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            d = gcd(x - y, m)
        if d != m:
            return d
    raise AssertionError(f"_rho_factor: {m} is prime")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; n <= 2^63 - 1."""
    if n > INT64_MAX:
        raise DomainError(f"is_prime: n must be <= 2^63 - 1, got {n}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
