"""Prime generation and factorization helpers used throughout the toolkit.

One segmented sieve of Eratosthenes that streams its primes in blocks.  It
keeps one flag per odd number (2 is added by hand) for the list of all
primes, or one flag per n = 3 (mod 4) for the primes = 3 (mod 4) alone,
which are all the membership sieve and the Landau-Ramanujan product need
(the segmented sieve of one residue class, Bays and Hudson, BIT 17, 1977).
Also the one factorization routine (trial division by small factors, then
Pollard rho with deterministic Miller-Rabin, exact on [1, 2^63 - 1]) and the
one enumeration of squarefree products over a prime list.
"""

from __future__ import annotations

from array import array
from math import gcd, isqrt
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, ResourceError

INT64_MAX = 2**63 - 1

# Largest limit any prime sieve accepts: it bounds the primes returned and the
# time taken, both of which grow with the limit (a segment's flags do not).
MAX_SIEVE_LIMIT = 1 << 30

# Segment length (in integers) for streaming prime enumeration.  It sets the
# size of a block's flags and int64 primes, which a streamed sieve_segment
# holds, and the knee is here: on a 2-vCPU host (in-process, min of 7)
# 2^22 / 2^21 / 2^20 took 9.6 / 9.2 / 10.4 ms for p3_primes(1e7),
# 36.0 / 37.7 / 40.3 ms for landau_constant(3e7) and 0.40 / 0.48 / 0.56 s
# for p3_primes(3.2e8), where each block loops over more base primes.
PRIME_SEGMENT = 1 << 21

# factorize trial-divides by f < TRIAL_BOUND before splitting the cofactor.
TRIAL_BOUND = 1 << 10

# Miller-Rabin with these bases is exact below 3.3e24 (far above 2^63).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2)."""
    return _joined(iter_prime_blocks(limit))


def p3_primes(limit: int) -> np.ndarray:
    """The primes p = 3 (mod 4) with p <= limit as an int64 array."""
    return _joined(iter_prime_blocks(limit, p3=True))


def _joined(blocks: Iterator[np.ndarray]) -> np.ndarray:
    """The blocks end to end, each copied into the growing result and freed
    before the next is sieved: the peak is the result and one block."""
    out = array("q")
    for block in blocks:
        out.frombytes(memoryview(block).cast("B"))
        del block  # not held while the next block is sieved
    return np.frombuffer(out, dtype=np.int64)


def iter_prime_blocks(limit: int, p3: bool = False) -> Iterator[np.ndarray]:
    """Yield primes <= limit, or with p3 those = 3 (mod 4), in ascending blocks.

    The first block is the primes up to sqrt(limit); each later block holds
    the primes of one range of PRIME_SEGMENT integers, the last range cut at
    limit, sieved in one buffer of flags (one per odd n, or with p3 per
    n = 3 (mod 4)), so memory stays O(PRIME_SEGMENT + sqrt(limit)).  The base
    primes come from sieve_primes(sqrt(limit)), itself built from these
    blocks, so the recursion ends after a few levels.  Limits above
    MAX_SIEVE_LIMIT are refused at the call, before any block is sieved.
    """
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceError(f"iter_prime_blocks: sieve to {limit} exceeds the prime-sieve budget (limit 2^30)")
    return _prime_blocks(limit, p3)


def _prime_blocks(limit: int, p3: bool) -> Iterator[np.ndarray]:
    """The blocks of iter_prime_blocks, for a limit within the budget."""
    if limit < 2:
        return
    base_limit = isqrt(limit)
    base = sieve_primes(base_limit)
    yield base[base % 4 == 3] if p3 else base
    # flags[i] stands for first + step * i, first the least n >= lo with
    # n = -1 (mod step): the odd numbers, or those = 3 (mod 4)
    step = 4 if p3 else 2
    buffer = np.empty((min(PRIME_SEGMENT, limit) - 1) // step + 1, dtype=bool)
    odd_base = base[1:]  # base[0] is 2, which has no flags here
    odd_list = odd_base.tolist()
    lo = base_limit + 1
    while lo <= limit:
        hi = min(lo + PRIME_SEGMENT - 1, limit)
        first = lo + (-1 - lo) % step
        flags = buffer[: (hi - first) // step + 1]
        flags[:] = True
        # only primes up to sqrt(hi) strike this range.  k * p = first (mod step)
        # iff k = first * p (mod step), as p * p = 1; in int64, as first * p < 2^46
        ps = odd_base[: np.searchsorted(odd_base, isqrt(hi), side="right")]
        k = -(-lo // ps)
        k += (first * ps - k) % step
        for i, p in zip(((k * ps - first) // step).tolist(), odd_list):
            flags[i::p] = False
        block = np.flatnonzero(flags).astype(np.int64, copy=False)
        block *= step
        block += first
        # 2 is streamed (rather than in base) only when limit < 4
        yield np.concatenate(([2], block)) if lo == 2 and not p3 else block
        del block  # the caller has it; not held here while the next is sieved
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
    """A factor 1 < d < m of the odd composite m (Pollard rho with Brent's
    cycle finding, Brent 1980).

    The differences x - y are multiplied mod m a batch of 128 at a time and
    take one gcd per batch; when a batch's gcd hits m, the batch is walked
    again one step at a time from its start, ys.
    """
    for c in range(1, m):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y  # held while y walks on to r + 1, ..., 2r steps ahead of it
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = gcd(q, m)
                k += 128
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
        if g != m:
            return g
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
