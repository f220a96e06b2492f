import random
from bisect import bisect_left, bisect_right
from functools import cache
from math import gcd, isqrt, prod

import numpy as np
import pytest

from twosq.errors import DomainError, ResourceError
from twosq.primes import MAX_SIEVE_LIMIT, TRIAL_BOUND, factorize, is_prime, iter_prime_blocks, p3_primes, sieve_primes


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


def p3_between(a: int, b: int) -> list[int]:
    return [p for p in primes_between(a, b) if p % 4 == 3]


# every limit to 300, 31^2 - 1, 31^2 and 31^2 + 1, 1000 and 4099
BLOCK_LIMITS = [*range(0, 300), 960, 961, 962, 1000, 4099]


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
        # checked before the first block is sieved
        with pytest.raises(ResourceError):
            sieve_primes(limit)

    @pytest.mark.parametrize("segment", [1, 2, 7, 64])
    def test_recursion_through_blocks(self, monkeypatch, segment):
        # sieve_primes and p3_primes are the concatenated blocks, whose base
        # primes come from sieve_primes(sqrt(limit)); short segments make
        # every level stream
        monkeypatch.setattr("twosq.primes.PRIME_SEGMENT", segment)
        for limit in BLOCK_LIMITS:
            got, got3 = sieve_primes(limit), p3_primes(limit)
            assert got.dtype == got3.dtype == np.int64
            assert got.tolist() == primes_upto(limit), (limit, segment)
            assert got3.tolist() == p3_between(0, limit), (limit, segment)

    @pytest.mark.parametrize("segment", [1, 2, 7, 64])
    def test_block_layout(self, monkeypatch, segment):
        # the base primes up to sqrt(limit), then one block per range of
        # segment integers from sqrt(limit) + 1, the last range cut at limit;
        # with p3 each block keeps its primes = 3 (mod 4) alone
        monkeypatch.setattr("twosq.primes.PRIME_SEGMENT", segment)
        for p3, expect in ((False, primes_between), (True, p3_between)):
            for limit in BLOCK_LIMITS:
                root = isqrt(limit)
                ranges = [(0, root)] + [(a, min(a + segment - 1, limit)) for a in range(root + 1, limit + 1, segment)]
                blocks = list(iter_prime_blocks(limit, p3=p3))
                assert len(blocks) == (len(ranges) if limit >= 2 else 0), (limit, segment, p3)
                for block, (a, b) in zip(blocks, ranges):
                    assert block.dtype == np.int64
                    assert block.tolist() == expect(a, b), (limit, segment, p3, a, b)
                if blocks:
                    assert np.concatenate(blocks).tolist() == expect(0, limit)

    def test_block_edges(self, monkeypatch):
        # limit 3: sqrt is 1, so 2 comes in a streamed block of its own
        monkeypatch.setattr("twosq.primes.PRIME_SEGMENT", 1)
        assert [b.tolist() for b in iter_prime_blocks(3)] == [[], [2], [3]]
        assert [b.tolist() for b in iter_prime_blocks(3, p3=True)] == [[], [], [3]]
        # limit 14, segment 1: each even number from 4 on is a block of its own, empty
        assert [b.tolist() for b in iter_prime_blocks(14)] == [[2, 3], [], [5], [], [7], [], [], [], [11], [], [13], []]
        # with p3, every block but those of 7 and 11 is empty (the base block keeps 3)
        assert [b.tolist() for b in iter_prime_blocks(14, p3=True)] == [[3], [], [], [], [7], [], [], [], [11], [], [], []]
        monkeypatch.setattr("twosq.primes.PRIME_SEGMENT", 7)
        assert [b.tolist() for b in iter_prime_blocks(2)] == [[], [2]]
        assert [b.tolist() for b in iter_prime_blocks(2, p3=True)] == [[], []]

    @pytest.mark.parametrize("limit", [MAX_SIEVE_LIMIT + 1, 10**12])
    def test_streamed_budget(self, limit):
        # refused at the first block, before any segment is sieved
        with pytest.raises(ResourceError, match="budget"):
            next(iter_prime_blocks(limit))


class TestP3Primes:
    def test_matches_reference(self):
        for limit in range(0, 2001):
            got = p3_primes(limit)
            assert got.dtype == np.int64
            assert got.tolist() == [p for p in primes_upto(limit) if p % 4 == 3], limit

    @pytest.mark.parametrize("limit", EDGE_LIMITS)
    def test_matches_reference_at_edges(self, limit):
        got = p3_primes(limit)
        assert got.dtype == np.int64
        assert got.tolist() == [p for p in primes_upto(limit) if p % 4 == 3]


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

    def test_semiprimes_below_int64_max(self):
        # the integers ending at 2^63 - 1 with no factor below TRIAL_BOUND reach
        # rho whole; 79 of them are semiprimes p * q, the rest hold 3 or more
        # primes and are split more than once
        small = prod(primes_upto(TRIAL_BOUND))
        rough = [n for n in range(2**63 - 2000, 2**63) if gcd(n, small) == 1 and not is_prime(n)]
        semiprimes = 0
        for n in rough:
            fac = factorize(n)
            assert prod(p**e for p, e in fac.items()) == n
            assert all(p > TRIAL_BOUND and is_prime(p) for p in fac)
            semiprimes += sum(fac.values()) == 2
        assert semiprimes == 79

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
