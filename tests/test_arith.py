import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twosq.admissible import LinearForm
from twosq.arith import landau_constant, nu, p1_numbers, phi_S, phi_S_floats
from twosq.errors import DomainError, ResourceError
from twosq.primes import factorize, iter_prime_blocks, sieve_primes


def reference_landau_constant(T: int) -> tuple[float, float]:
    """landau_constant by filtering the blocks of all primes to p = 3 (mod 4)
    and summing log1p(-1/p^2) block by block."""
    log_parts = []
    for block in iter_prime_blocks(T):
        sel = block[block % 4 == 3]
        if sel.size:
            x = 1.0 / (sel.astype(np.float64) ** 2)
            log_parts.append(float(np.sum(np.log1p(-x))))
    value = math.exp(-0.5 * math.fsum(log_parts)) / math.sqrt(2.0)
    return value, value * math.expm1((50.0 / 99.0) / (T - 1))


# The Landau-Ramanujan constant K, OEIS A064533, to 40 digits (the identity
# below evaluated once at 50 digits with mpmath's zeta and Dirichlet beta).
LANDAU_RAMANUJAN_40 = "0.7642236535892206629906987312500923281168"


def landau_ramanujan_oracle(digits: int = 50) -> Decimal:
    """K = 2^(-1/2) P3(2)^(1/2), P3(s) = prod_{p = 3 (mod 4)} (1 - p^-s)^-1, by
    Shanks's iteration of r(s) = zeta(s) (1 - 2^-s) / beta(s) = P3(s)^2 / P3(2s):
    ln P3(2) = sum_{k=1..7} ln r(2^k) / 2^k, the omitted ln P3(256) / 128 being
    O(3^-256).  eta(s) and beta(s) come from the Cohen-Villegas-Zagier
    acceleration of their alternating series, and zeta(s) = eta(s) / (1 - 2^(1-s));
    no sieve is involved."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        n = digits + 40  # error below 2 (3 + sqrt 8)^-n
        d = (3 + Decimal(8).sqrt()) ** n
        d = (d + 1 / d) / 2

        def alternating(a):  # sum_{j >= 0} (-1)^j a(j)
            b, c, total = Decimal(-1), -d, Decimal(0)
            for j in range(n):
                c = b - c
                total += c * a(j)
                b = b * (j + n) * (j - n) * 2 / ((2 * j + 1) * (j + 1))
            return total / d

        log_p3 = Decimal(0)
        for k in range(1, 8):
            s = 2**k
            eta = alternating(lambda j: 1 / Decimal(j + 1) ** s)
            beta = alternating(lambda j: 1 / Decimal(2 * j + 1) ** s)
            zeta = eta / (1 - Decimal(2) ** (1 - s))
            log_p3 += ((1 - Decimal(2) ** -s) * zeta / beta).ln() / s
        return +((log_p3 / 2).exp() / Decimal(2).sqrt())


class TestLandauRamanujanOracle:
    def test_matches_published_digits(self):
        K = landau_ramanujan_oracle()
        assert abs(K - Decimal(LANDAU_RAMANUJAN_40)) < Decimal("1e-40")
        assert abs(float(K) - float(LANDAU_RAMANUJAN_40)) <= math.ulp(float(LANDAU_RAMANUJAN_40))

    @pytest.mark.parametrize("T", [10**e for e in range(1, 8)])
    def test_inside_truncated_product_interval(self, T):
        K = landau_ramanujan_oracle()
        value, tail_bound = landau_constant(T)
        assert Decimal(value) <= K <= Decimal(value) + Decimal(tail_bound)

    def test_scan_truncation_gap(self):
        # the scans predict with landau_constant(10^6), which sits this far below K
        value, _ = landau_constant(10**6)
        assert Decimal("1.294e-8") < landau_ramanujan_oracle() - Decimal(value) < Decimal("1.295e-8")


class TestPhiS:
    def test_prime_power_table(self):
        assert phi_S(3) == Fraction(9, 4)  # p = 3 (mod 4), e = 1
        assert phi_S(2) == 2
        assert phi_S(4) == 2  # 2^(e-1) at e = 2
        assert phi_S(8) == 4
        assert phi_S(5) == 5  # p = 1 (mod 4)
        assert phi_S(9) == Fraction(27, 4)
        assert phi_S(1) == 1

    def test_multiplicative_example(self):
        assert phi_S(12) == Fraction(9, 2)  # phi_S(4) * phi_S(3)

    @given(
        m=st.integers(min_value=1, max_value=10**6),
        n=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=60)
    def test_multiplicative(self, m, n):
        if math.gcd(m, n) == 1:
            assert phi_S(m * n) == phi_S(m) * phi_S(n)

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_S(0)

    @pytest.mark.parametrize(
        "lo,hi",
        [(1, 5000), (3**14 - 50, 3**14 + 50), (7**9 - 20, 7**9 + 20), ((1 << 26) - 300, (1 << 26) - 1)]
        # ending on a prime power: under `while power < hi` phi_S_floats(1, 9)[-1]
        # read 5.0625 where phi_S(9) = 6.75
        + [(max(1, hi - 50), hi) for hi in (9, 27, 49, 121, 3**14, 7**8)],
    )
    def test_floats_match_single_q(self, lo, hi):
        # == on floats: every value must equal float(phi_S(q)) bit for bit
        assert phi_S_floats(lo, hi).tolist() == [float(phi_S(q)) for q in range(lo, hi + 1)]

    def test_floats_domain(self):
        with pytest.raises(DomainError):
            phi_S_floats(0, 5)
        with pytest.raises(DomainError):
            phi_S_floats(6, 5)
        with pytest.raises(ResourceError):
            phi_S_floats(1, 1 << 26)


class TestLandauConstant:
    def test_monotone_and_consistent(self):
        v4, t4 = landau_constant(10**4)
        v5, t5 = landau_constant(10**5)
        v6, t6 = landau_constant(10**6)
        assert v4 <= v5 <= v6
        assert abs(v5 - v4) <= max(t4, t5)
        assert abs(v6 - v5) <= max(t5, t6)

    def test_minimum_truncation_self_consistency(self):
        v10, t10 = landau_constant(10)
        v_big, _ = landau_constant(10**6)
        assert abs(v_big - v10) <= t10

    def test_domain(self):
        with pytest.raises(DomainError):
            landau_constant(9)

    def test_tail_bound_tiny_at_1e6(self):
        _, tail = landau_constant(10**6)
        assert tail < 1e-5

    def test_value_and_tail_at_1e7(self):
        value, tail = landau_constant(10**7)
        assert abs(value - 0.764223) < 1e-5
        assert tail < 1e-6

    # (10^6 + 1, 7) is left out: 1.4e5 blocks of 7 integers take about 50 s,
    # and T = 1000 already runs segment 7 through its empty and one-prime blocks
    @pytest.mark.parametrize(
        "T,segment", [(T, s) for T in (10, 1000, 10**6 + 1) for s in (None, 7, 4096) if (T, s) != (10**6 + 1, 7)]
    )
    def test_matches_all_primes_route(self, monkeypatch, T, segment):
        # the blocks of primes = 3 (mod 4) sieved on their own cover the same
        # ranges as the filtered blocks of all primes, so every per-block sum,
        # and the product, agree bit for bit
        if segment is not None:
            monkeypatch.setattr("twosq.primes.PRIME_SEGMENT", segment)
        assert landau_constant(T) == reference_landau_constant(T)

    def test_peak_one_block(self):
        # one block of primes = 3 (mod 4), its floats and the flag buffer
        # (8.8 MiB when every prime was flagged and each block filtered)
        tracemalloc.start()
        try:
            value, _ = landau_constant(3 * 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20
        assert abs(value - 0.764223) < 1e-5


class TestNu:
    def test_single_form(self):
        assert nu(7, [LinearForm(1, 1)]) == 1  # one root, n = 6

    def test_two_forms(self):
        assert nu(3, [LinearForm(1, 1), LinearForm(1, 5)]) == 2

    def test_degenerate_shared_factor(self):
        # 3 | gcd(3, 3): every n in [1, 3) gives 0 mod 3
        assert nu(3, [LinearForm(3, 3)]) == 2

    def test_domain(self):
        with pytest.raises(DomainError):
            nu(4, [LinearForm(1, 1)])
        with pytest.raises(DomainError):
            nu(7, [])

    @given(
        p=st.sampled_from([3, 7, 11, 19, 23]),
        coeffs=st.lists(
            st.tuples(st.integers(1, 2**62), st.integers(1, 2**62)), min_size=1, max_size=4
        ),
    )
    @example(p=7, coeffs=[(2**62, 1)])
    @settings(max_examples=40)
    def test_brute_force_agreement(self, p, coeffs):
        forms = [LinearForm(a, b) for a, b in coeffs]
        direct = sum(
            1 for n in range(1, p) if math.prod(f(n) for f in forms) % p == 0
        )
        assert nu(p, forms) == direct

    def test_large_coefficients_match_brute_force(self):
        # a * n overflows int64 here; the root count must stay exact
        for a in (10**17 + 3, 3 * 10**17 + 7, 9 * 10**18 + 1):
            forms = [LinearForm(a, 5), LinearForm(1, 2)]
            for p in sieve_primes(3000)[1:].tolist():
                direct = sum(1 for n in range(1, p) if (a * n + 5) * (n + 2) % p == 0)
                assert nu(p, forms) == direct, (a, p)

    def test_bounded_by_k_for_unit_slopes(self):
        forms = [LinearForm(1, b) for b in (1, 5, 13)]
        for p in (3, 7, 11, 19):
            assert nu(p, forms) <= len(forms)

    @given(
        p=st.sampled_from([3, 7, 11, 19, 23, 31]),
        coeffs=st.lists(
            st.tuples(st.integers(1, 50), st.integers(1, 50)), min_size=1, max_size=5
        ),
    )
    @settings(max_examples=40)
    def test_root_count_bounds(self, p, coeffs):
        forms = [LinearForm(a, b) for a, b in coeffs]
        v = nu(p, forms)
        assert 0 <= v <= p - 1
        if all(f.a % p != 0 for f in forms):
            # each form has one root mod p; n = 0 is excluded from the range
            assert v <= len(forms)


class TestP1Numbers:
    def test_first_five(self):
        assert p1_numbers(5) == [1, 5, 13, 17, 25]

    def test_exclusion(self):
        assert p1_numbers(5, 13) == [1, 5, 17, 25, 29]

    def test_k1(self):
        assert p1_numbers(1) == [1]
        assert p1_numbers(1, 5) == [1]

    @pytest.mark.parametrize(
        "k, exclude, message",
        [
            (0, None, "p1_numbers: k must be >= 1, got 0"),
            (3, 9, "p1_numbers: exclude_prime must be a prime <= 2^63 - 1 or None, got 9"),
            (3, 1, "p1_numbers: exclude_prime must be a prime <= 2^63 - 1 or None, got 1"),
            (3, 2**63, f"p1_numbers: exclude_prime must be a prime <= 2^63 - 1 or None, got {2**63}"),
        ],
        ids=["k-below-1", "exclude-not-prime", "exclude-one", "exclude-above-int64"],
    )
    def test_refusal_names_its_function(self, k, exclude, message):
        with pytest.raises(DomainError) as exc:
            p1_numbers(k, exclude)
        assert str(exc.value) == message

    def test_all_factors_1mod4(self):
        for h in p1_numbers(60):
            for p in factorize(h):
                assert p % 4 == 1, (h, p)

    def test_growth(self):
        # h_k stays within a fixed multiple of k sqrt(log(k+2))
        hs = p1_numbers(100)
        worst = max(h / (k * math.sqrt(math.log(k + 2))) for k, h in enumerate(hs, start=1))
        assert worst <= 8.0
