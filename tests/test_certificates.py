"""The sieve against membership certificates, out to 2^63 - 1.

A window's verdicts come from certificates built on primes.factorize and
checked by conftest.check_certificate with integer arithmetic alone, so
neither the factorization nor the sieve is trusted.
"""

import random
from functools import cache

import pytest

from twosq.primes import factorize
from twosq.sieve import sieve_segment

from .conftest import certificate, certificates_upto, check_certificate

# 2,000 integers at 1e15 and 1e17, and the short windows of TestLargePrimePass
# around prime powers that are members only if every power toggles
WINDOWS = {
    "1e15": (10**15, 10**15 + 1999),
    "1e17": (10**17, 10**17 + 1999),
    "3^26": (3**26 - 40, 3**26 + 88),
    "11^12": (11**12 - 40, 11**12 + 88),
    "7^14": (7**14 - 40, 7**14 + 88),
}


@cache
def certified(lo: int, hi: int) -> list[bool]:
    return [check_certificate(n, certificate(n, factorize(n))) for n in range(lo, hi + 1)]


@cache
def sieved(lo: int, hi: int) -> list[bool]:
    return sieve_segment(lo, hi).bits.tolist()


def test_certificates_upto_1e6():
    member, x, y = certificates_upto(10**6)
    rows = zip(member.tolist(), x.tolist(), y.tolist())
    next(rows)  # 0 is outside the domain
    verdicts = [check_certificate(n, cert) for n, cert in enumerate(rows, start=1)]
    assert verdicts == sieve_segment(1, 10**6).bits.tolist()


@pytest.mark.parametrize("window", WINDOWS)
def test_sieve_matches_certificates(window):
    assert sieved(*WINDOWS[window]) == certified(*WINDOWS[window])


def test_count_at_1e15():
    # count --x 999999999999999 --y 2000 counts this window
    assert sum(certified(*WINDOWS["1e15"])) == 262


def test_certificates_at_int64_max():
    # the sieve's base primes up to sqrt(2^63) exceed its prime budget today
    verdicts = certified(2**63 - 200, 2**63 - 1)
    assert 0 < sum(verdicts) < 200


@pytest.mark.parametrize("window", WINDOWS)
def test_flipped_bit_fails(window):
    # a sieve with one verdict flipped, at a seeded position, is caught
    bits = list(sieved(*WINDOWS[window]))
    i = random.Random(window).randrange(len(bits))
    bits[i] = not bits[i]
    assert bits != certified(*WINDOWS[window])


@pytest.mark.parametrize(
    "n, cert",
    [
        (25, (True, 3, 3)),  # 3^2 + 3^2 = 18
        (63, (False, 3, 1)),  # 3^2 divides 63
        (63, (False, 3, 2)),  # an even exponent
        (65, (False, 5, 1)),  # 5 = 1 (mod 4)
        (45, (False, 15, 1)),  # 15 = 3 * 5
        (5 * 2047, (False, 2047, 1)),  # 2047 = 23 * 89, a strong pseudoprime to base 2
    ],
)
def test_forged_certificates_refused(n, cert):
    with pytest.raises(AssertionError):
        check_certificate(n, cert)
