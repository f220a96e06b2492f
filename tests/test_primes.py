import random
from math import prod

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


class TestSievePrimes:
    def test_small(self):
        assert sieve_primes(1).tolist() == []
        assert sieve_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    @pytest.mark.parametrize("limit", [MAX_SIEVE_LIMIT + 1, 2**40])
    def test_budget(self, limit):
        # checked before the limit + 1 flag bytes are allocated
        with pytest.raises(ResourceError):
            sieve_primes(limit)

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
