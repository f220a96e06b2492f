"""Shared fixtures and independent oracles.

The membership oracle here enumerates a^2 + b^2 lattice points directly and
must stay independent of the parity-sieve implementation it checks.  Past
the lattice's reach, each verdict comes with a certificate that
check_certificate verifies with integer arithmetic alone: nothing here
imports twosq, so a certificate may come from its code without being
trusted.
"""

from functools import cache
from math import isqrt

import numpy as np
import pytest


def two_square_marks(n_max: int) -> np.ndarray:
    """marks[n] = True iff n = a^2 + b^2 for some a, b >= 0, for 1 <= n <= n_max."""
    marks = np.zeros(n_max + 1, dtype=bool)
    for a in range(isqrt(n_max) + 1):
        rem = n_max - a * a
        bs = np.arange(0, isqrt(rem) + 1, dtype=np.int64)
        marks[a * a + bs * bs] = True
    marks[0] = False  # 0 is outside the domain
    return marks


# Miller-Rabin with these bases is exact below 3.3e24, far above 2^63.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@cache
def is_prime_mr(n: int) -> bool:
    if n < 2:
        return False
    for a in MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
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


def check_certificate(n: int, cert: tuple[bool, int, int]) -> bool:
    """The verdict that cert proves for n.

    (True, a, b) proves n = a^2 + b^2 a member.  (False, p, v) proves n a
    non-member: p is a prime = 3 (mod 4) and p^v, v odd, divides n exactly.
    A certificate that proves neither fails an assertion.
    """
    member, x, y = cert
    if member:
        assert x * x + y * y == n, (n, cert)
    else:
        assert x % 4 == 3 and y % 2 == 1 and n % x**y == 0 and n % x ** (y + 1) != 0, (n, cert)
        assert is_prime_mr(x), (n, cert)
    return member


def prime_two_squares(p: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = p, for p = 2 or a prime p = 1 (mod 4).

    Hermite-Serret: x^2 = -1 (mod p) is c^((p-1)/4) for a non-residue c, and
    Euclid's algorithm on (p, x) stops at the first remainder a below sqrt(p).
    """
    if p == 2:
        return 1, 1
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    r0, r1 = p, pow(c, (p - 1) // 4, p)
    while r1 * r1 > p:
        r0, r1 = r1, r0 % r1
    return r1, isqrt(p - r1 * r1)


def certificate(n: int, factors: dict[int, int]) -> tuple[bool, int, int]:
    """A certificate for n from its claimed factorization {p: e}: a prime
    = 3 (mod 4) to an odd power, or else a witness composed from one per
    prime power by the Brahmagupta-Fibonacci identity."""
    for p, e in factors.items():
        if p % 4 == 3 and e % 2:
            return False, p, e
    a, b = 1, 0
    for p, e in factors.items():
        if p % 4 == 3:
            a, b = a * p ** (e // 2), b * p ** (e // 2)
        else:
            c, d = prime_two_squares(p)
            for _ in range(e):
                a, b = a * c - b * d, a * d + b * c
    return True, abs(a), abs(b)


def certificates_upto(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certificates for 1 <= n <= n_max as three columns (member, x, y)
    indexed by n, with no factorization per n.

    A member's witness is a lattice point.  A non-member's prime is one
    p = 3 (mod 4) below sqrt(n_max) with v_p(n) odd, from the valuations
    along the multiples of p, p^2, ...; failing that, the one prime factor
    above sqrt(n_max), which is what those primes leave of n.
    """
    member = two_square_marks(n_max)
    x = np.zeros(n_max + 1, dtype=np.int64)
    y = np.zeros(n_max + 1, dtype=np.int64)
    for a in range(isqrt(n_max // 2) + 1):
        bs = np.arange(a, isqrt(n_max - a * a) + 1, dtype=np.int64)
        x[a * a + bs * bs] = a
        y[a * a + bs * bs] = bs
    unproved = ~member
    unproved[0] = False
    rest = np.arange(n_max + 1, dtype=np.int64)
    flags = np.ones(isqrt(n_max) + 1, dtype=bool)
    for p in range(2, flags.size):
        if not flags[p]:
            continue
        flags[p * p :: p] = False
        v = np.zeros(n_max // p + 1, dtype=np.int64)  # v[j] = v_p(j p)
        q = p
        while q <= n_max:
            v[:: q // p] += 1
            rest[::q] //= p
            q *= p
        if p % 4 == 3:
            odd = unproved[::p] & (v % 2 == 1)
            x[::p][odd], y[::p][odd] = p, v[odd]
            unproved[::p] &= ~odd
    x[unproved], y[unproved] = rest[unproved], 1
    return member, x, y


@pytest.fixture(scope="session")
def oracle_marks_10k() -> np.ndarray:
    return two_square_marks(10_000)


@pytest.fixture(scope="session")
def oracle_marks_100k() -> np.ndarray:
    return two_square_marks(100_000)


@pytest.fixture(scope="session")
def oracle_marks_6m() -> np.ndarray:
    # covers windows around 7^8 = 5,764,801
    return two_square_marks(6_000_000)
