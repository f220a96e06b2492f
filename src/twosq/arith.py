"""Arithmetic constants and multiplicative functions for two-squares counts.

Exact rational values (fractions.Fraction) wherever the downstream algebra
needs exactness; the Landau-Ramanujan density constant is a truncated Euler
product with a rigorous tail bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, ResourceError
from .primes import INT64_MAX, check_sieve_limit, factorize, is_prime, iter_prime_blocks, sieve_primes

# Euler's constant, 30 digits.
EULER_GAMMA = 0.577215664901532860606512090082

E_GAMMA = math.exp(EULER_GAMMA)
E_NEG_GAMMA = math.exp(-EULER_GAMMA)


def phi_S(q: int) -> Fraction:
    """Multiplicative normalizer for two-squares counts in progressions.

    Prime-power values: p^e for p = 1 (mod 4); p^(e+1)/(p+1) for
    p = 3 (mod 4); 2^(e-1) for p = 2, e >= 2; and 2 at q = 2.  Extended
    multiplicatively; phi_S(1) = 1.
    """
    if q < 1:
        raise DomainError(f"phi_S: q must be >= 1, got {q}")
    value = Fraction(1)
    for p, e in factorize(q).items():
        if p == 2:
            value *= 2 if e == 1 else 2 ** (e - 1)
        elif p % 4 == 1:
            value *= p**e
        else:
            value *= Fraction(p ** (e + 1), p + 1)
    return value


def phi_S_floats(lo: int, hi: int) -> np.ndarray:
    """float(phi_S(q)) for every q in [lo, hi], bit for bit, as float64.

    phi_S(q) = q * prod_{p = 3 (mod 4), p | q} p / (p + 1), halved when 4 | q.
    The primes up to sqrt(hi) are divided out of a copy of [lo, hi] in one
    pass; what is left is 1 or one prime.  Numerator and denominator are
    exact integers below hi^2 < 2^53, so one float64 division rounds them as
    Fraction.__float__ does.
    """
    if not 1 <= lo <= hi:
        raise DomainError(f"phi_S_floats: need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi >= 1 << 26:
        raise ResourceError(f"phi_S_floats: hi = {hi} must be below 2^26 for exact float64 ratios")
    rest = np.arange(lo, hi + 1, dtype=np.int64)
    num, den = rest.copy(), np.ones_like(rest)
    for p in sieve_primes(math.isqrt(hi)).tolist():
        power = p
        while power <= hi:
            rest[-lo % power :: power] //= p
            power *= p
        if p % 4 == 3:
            num[-lo % p :: p] *= p
            den[-lo % p :: p] *= p + 1
    big = rest % 4 == 3
    num[big] *= rest[big]
    den[big] *= rest[big] + 1
    num[-lo % 4 :: 4] //= 2  # 4 | q
    return num / den


def landau_constant(truncation_limit: int) -> tuple[float, float]:
    """Truncated product for the two-squares density constant, with tail bound.

    Returns (value, tail_bound) where value is
    (1/sqrt(2)) * prod_{p = 3 (4), p <= limit} (1 - p^-2)^(-1/2) and the true
    constant lies in [value, value + tail_bound].  The tail uses
    -log(1-x) <= x/(1-x) and sum_{n > P} n^-2 < 1/(P-1), so the bound is
    crude but rigorous.
    """
    if truncation_limit < 10:
        raise DomainError(f"landau_constant: truncation_limit must be >= 10, got {truncation_limit}")
    check_sieve_limit("landau_constant", truncation_limit)
    log_parts: list[float] = []
    for block in iter_prime_blocks(truncation_limit, p3=True):
        x = block.astype(np.float64)  # -1/p^2, then log1p of it, in place
        x *= x
        np.divide(-1.0, x, out=x)
        log_parts.append(float(np.sum(np.log1p(x, out=x))))
        del block, x  # not held while the next block is sieved
    log_product = math.fsum(log_parts)
    value = math.exp(-0.5 * log_product) / math.sqrt(2.0)

    # Remaining factors: 0 < -1/2 * sum_{p > P} log(1 - p^-2) and for P >= 10,
    # x/(1-x) <= (100/99) x at x = p^-2, so log-tail <= (50/99) / (P - 1).
    log_tail = (50.0 / 99.0) / (truncation_limit - 1)
    tail_bound = value * math.expm1(log_tail)
    return value, tail_bound


def roots_mod(p: int, forms: Sequence) -> Sequence[int]:
    """Ascending residues n in [0, p) with p | prod_i (a_i n + b_i), p prime.

    Closed form: a form with p not dividing a has the single root -b/a mod p;
    one with p | a has none, unless also p | b, when it covers every residue.
    """
    roots = set()
    for form in forms:
        if form.a % p:
            roots.add(-form.b * pow(form.a, -1, p) % p)
        elif form.b % p == 0:
            return range(p)
    return sorted(roots)


def nu(p: int, forms: Sequence) -> int:
    """Number of n in [1, p) with p dividing prod_i (a_i * n + b_i).

    The nonzero part of roots_mod; the range deliberately excludes n = 0,
    which is the convention the downstream weight algebra is built on.
    """
    if not is_prime(p):
        raise DomainError(f"nu: p must be prime, got {p}")
    if not forms:
        raise DomainError("nu: forms must be nonempty")
    roots = roots_mod(p, forms)
    return len(roots) - (0 in roots)


def p1_numbers(k: int, exclude_prime: int | None = None) -> list[int]:
    """First k positive integers whose prime factors are all = 1 (mod 4).

    1 is included (empty product).  Integers divisible by exclude_prime are
    skipped.
    """
    if k < 1:
        raise DomainError(f"p1_numbers: k must be >= 1, got {k}")
    if exclude_prime is not None and not (exclude_prime <= INT64_MAX and is_prime(exclude_prime)):
        raise DomainError(f"p1_numbers: exclude_prime must be a prime <= 2^63 - 1 or None, got {exclude_prime}")
    out: list[int] = []
    n = 1
    while len(out) < k:
        excluded = exclude_prime is not None and n % exclude_prime == 0
        if not excluded and all(p % 4 == 1 for p in factorize(n)):
            out.append(n)
        n += 1
    return out
