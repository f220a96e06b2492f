import random
from bisect import bisect_left, bisect_right
from functools import cache
from math import isqrt, prod

import numpy as np
import pytest

from twosq.errors import DomainError, ResourceError
from twosq.primes import MAX_SIEVE_LIMIT, factorize, is_prime, iter_prime_blocks, sieve_primes


def trial_division(n: int) -> dict[int, int]:
    """Reference factorization: the plain trial-division loop."""
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


REFERENCE_LIMIT = 1_020_100  # above 1009^2 + 1 and 10^6 + 1


@cache
def reference_primes() -> list[int]:
    """The primes up to REFERENCE_LIMIT by the plain sieve of Eratosthenes
    over every integer."""
    flags = [False, False] + [True] * (REFERENCE_LIMIT - 1)
    for p in range(2, isqrt(REFERENCE_LIMIT) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(range(p * p, REFERENCE_LIMIT + 1, p))
    return [n for n, is_p in enumerate(flags) if is_p]


def primes_between(a: int, b: int) -> list[int]:
    primes = reference_primes()
    return primes[bisect_left(primes, a) : bisect_right(primes, b)]


def primes_upto(limit: int) -> list[int]:
    return primes_between(0, limit)


# p^2 +- 1 for a few p, 10^6 +- 1 (all below the reference limit)
EDGE_LIMITS = [q for p in (2, 3, 5, 7, 31, 97, 1009) for q in (p * p - 1, p * p, p * p + 1)] + [
    10**6 - 1, 10**6, 10**6 + 1
]


class TestSievePrimes:
    def test_matches_reference(self):
        for limit in range(0, 2001):
            assert sieve_primes(limit).tolist() == primes_upto(limit), limit

    @pytest.mark.parametrize("limit", EDGE_LIMITS)
    def test_matches_reference_at_edges(self, limit):
        got = sieve_primes(limit)
        assert got.dtype == np.int64
        assert got.tolist() == primes_upto(limit)

    def test_small(self):
        assert sieve_primes(1).tolist() == []
        assert sieve_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    @pytest.mark.parametrize("limit", [MAX_SIEVE_LIMIT + 1, 2**40])
    def test_budget(self, limit):
        # checked before the limit + 1 flag bytes are allocated
        with pytest.raises(ResourceError):
            sieve_primes(limit)

    @pytest.mark.parametrize("segment", [1, 2, 7, 64])
    def test_block_layout(self, monkeypatch, segment):
        # the base primes up to sqrt(limit), then one block per range of
        # segment integers from sqrt(limit) + 1, the last range cut at limit
        monkeypatch.setattr("twosq.primes.PRIME_SEGMENT", segment)
        for limit in [*range(0, 300), 1000, 4099]:
            root = isqrt(limit)
            ranges = [(0, root)] + [(a, min(a + segment - 1, limit)) for a in range(root + 1, limit + 1, segment)]
            blocks = list(iter_prime_blocks(limit))
            assert len(blocks) == (len(ranges) if limit >= 2 else 0), (limit, segment)
            for block, (a, b) in zip(blocks, ranges):
                assert block.dtype == np.int64
                assert block.tolist() == primes_between(a, b), (limit, segment, a, b)
            if blocks:
                assert np.concatenate(blocks).tolist() == sieve_primes(limit).tolist()

    def test_block_edges(self, monkeypatch):
        # limit 3: sqrt is 1, so 2 comes in a streamed block of its own
        monkeypatch.setattr("twosq.primes.PRIME_SEGMENT", 1)
        assert [b.tolist() for b in iter_prime_blocks(3)] == [[], [2], [3]]
        # limit 14, segment 1: each even number from 4 on is a block of its own, empty
        assert [b.tolist() for b in iter_prime_blocks(14)] == [[2, 3], [], [5], [], [7], [], [], [], [11], [], [13], []]
        monkeypatch.setattr("twosq.primes.PRIME_SEGMENT", 7)
        assert [b.tolist() for b in iter_prime_blocks(2)] == [[], [2]]

    @pytest.mark.parametrize("limit", [MAX_SIEVE_LIMIT + 1, 10**12])
    def test_streamed_budget(self, limit):
        # refused at the first block, before any segment is sieved
        with pytest.raises(ResourceError, match="budget"):
            next(iter_prime_blocks(limit))


class TestFactorize:
    def test_matches_trial_division_small(self):
        for n in range(1, 200_001):
            assert factorize(n) == trial_division(n), n

    def test_matches_trial_division_random(self):
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randint(1, 10**12)
            assert factorize(n) == trial_division(n), n

    def test_ascending_keys(self):
        n = 3037000493 * 1031 * 2**5
        assert list(factorize(n)) == [2, 1031, 3037000493]

    @pytest.mark.parametrize(
        "n,expected",
        [
            (2**63 - 1, {7: 2, 73: 1, 127: 1, 337: 1, 92737: 1, 649657: 1}),
            (2**61 - 1, {2**61 - 1: 1}),
            (3037000493**2, {3037000493: 2}),
            (2147483647 * 4294967291, {2147483647: 1, 4294967291: 1}),
            (1031**6, {1031: 6}),
            (1000000000000000003 * 2, {2: 1, 1000000000000000003: 1}),
        ],
    )
    def test_large(self, n, expected):
        assert factorize(n) == expected

    def test_random_near_domain_top(self):
        rng = random.Random(63)
        for _ in range(50):
            n = rng.randrange(2**62, 2**63)
            fac = factorize(n)
            assert prod(p**e for p, e in fac.items()) == n
            assert all(is_prime(p) for p in fac)

    def test_domain(self):
        for n in (0, -5, 2**63):
            with pytest.raises(DomainError):
                factorize(n)


class TestIsPrime:
    def test_matches_sieve(self):
        primes = set(sieve_primes(100_000).tolist())
        for n in range(-2, 100_001):
            assert is_prime(n) == (n in primes), n

    def test_strong_pseudoprimes(self):
        # strong pseudoprimes to the bases 2..7 and to 2..23 respectively
        assert not is_prime(3215031751)
        assert not is_prime(3825123056546413051)
        assert is_prime(2**61 - 1) and is_prime(1000000000000000003)

    def test_domain(self):
        with pytest.raises(DomainError):
            is_prime(2**63)
