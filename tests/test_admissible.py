import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosq.admissible import (
    AdmissibleSystem,
    LinearForm,
    build_default_set,
    compute_W,
    find_v0,
    is_p3_admissible,
    size_conditions,
)
from twosq.arith import p1_numbers
from twosq.errors import AdmissibilityError, DomainError
from twosq.primes import factorize, is_prime


def brute_force_admissible(forms, p_limit):
    """Independent check: try every residue for every prime = 3 (mod 4) up to
    p_limit, extended by the primes dividing some gcd(a, b) (the only primes
    beyond max(k, p_limit) that can cover all residues)."""
    candidates = {p for p in range(3, p_limit + 1, 4) if is_prime(p)}
    for f in forms:
        candidates.update(p for p in factorize(math.gcd(f.a, f.b)) if p % 4 == 3)
    for p in sorted(candidates):
        if all(math.prod(f(n) for f in forms) % p == 0 for n in range(p)):
            return False
    return True


class TestLinearForm:
    def test_eval(self):
        form = LinearForm(3, 7)
        assert form(5) == 22

    def test_positive_coefficients(self):
        with pytest.raises(DomainError):
            LinearForm(0, 1)
        with pytest.raises(DomainError):
            LinearForm(1, 0)
        with pytest.raises(DomainError):
            LinearForm(-1, 2)


class TestAdmissibility:
    def test_examples(self):
        assert is_p3_admissible([LinearForm(1, 1), LinearForm(1, 5)])
        assert not is_p3_admissible([LinearForm(3, 3)])
        assert not is_p3_admissible([LinearForm(1, 1), LinearForm(1, 2), LinearForm(1, 3)])

    def test_empty(self):
        with pytest.raises(DomainError):
            is_p3_admissible([])

    @given(
        coeffs=st.lists(
            st.tuples(st.integers(1, 50), st.integers(1, 100)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    @settings(max_examples=60)
    def test_matches_brute_force(self, coeffs):
        forms = [LinearForm(a, b) for a, b in coeffs]
        assert is_p3_admissible(forms) == brute_force_admissible(forms, 10 * len(forms))


class TestDefaultSet:
    def test_examples(self):
        assert [(f.a, f.b) for f in build_default_set(3)] == [(1, 1), (1, 5), (1, 13)]
        assert [(f.a, f.b) for f in build_default_set(5, 13)] == [
            (1, 1), (1, 5), (1, 17), (1, 25), (1, 29),
        ]
        assert [(f.a, f.b) for f in build_default_set(1)] == [(1, 1)]

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 25, 50, 100])
    def test_admissible_up_to_100(self, k):
        forms = build_default_set(k)
        assert is_p3_admissible(forms)
        offsets = [f.b for f in forms]
        assert offsets == p1_numbers(k)

    def test_coprime_to_p0(self):
        for f in build_default_set(20, 5):
            assert f.b % 5 != 0


class TestComputeW:
    def test_examples(self):
        X = round(math.exp(125))  # threshold 2 * 125^(1/3) = 10
        assert compute_W(X, 1) == 21
        assert compute_W(X, 7) == 3
        assert compute_W(10) == 1

    def test_structure(self):
        for X in (10**4, 10**6, 10**9, round(math.exp(300))):
            W = compute_W(X)
            threshold = 2.0 * math.log(X) ** (1.0 / 3.0)
            for p, e in factorize(W).items():
                assert e == 1
                assert p % 4 == 3
                assert p <= threshold

    def test_domain(self):
        with pytest.raises(DomainError):
            compute_W(2)


class TestFindV0:
    def test_examples(self):
        assert find_v0([LinearForm(1, 1), LinearForm(1, 5)], 3) == 0
        assert find_v0([LinearForm(1, 1)], 21) == 0
        # pinned by exhaustive search over [0, 21)
        assert find_v0([LinearForm(1, 3), LinearForm(1, 7)], 21) == 1

    def test_least(self):
        forms = [LinearForm(1, 3), LinearForm(1, 7)]
        best = min(
            v for v in range(21) if all(math.gcd(f(v), 21) == 1 for f in forms)
        )
        assert find_v0(forms, 21) == best

    def test_failure(self):
        with pytest.raises(AdmissibilityError):
            find_v0([LinearForm(1, 1), LinearForm(1, 2), LinearForm(1, 3)], 3)

    def test_shift_invariance(self):
        forms = build_default_set(4)
        W = 21
        v0 = find_v0(forms, W)
        for m in range(12):
            for f in forms:
                assert math.gcd(f(v0 + m * W), W) == 1


class TestAdmissibleSystem:
    def test_build_and_serialize(self):
        system = AdmissibleSystem.build(build_default_set(3), W=21)
        assert system.W == 21
        assert set(system.nu_table) == {3, 7}
        doc = system.to_json_dict()
        assert doc == {"forms": [[1, 1], [1, 5], [1, 13]], "p0": 1, "W": 21, "v0": 0}

    def test_distinctness(self):
        with pytest.raises(DomainError):
            AdmissibleSystem.build([LinearForm(1, 1), LinearForm(1, 1)], W=1)

    def test_rejects_inadmissible(self):
        with pytest.raises(AdmissibilityError):
            AdmissibleSystem.build([LinearForm(3, 3)], W=1)

    def test_W_validation(self):
        with pytest.raises(DomainError):
            AdmissibleSystem.build([LinearForm(1, 1)], W=9)  # not squarefree
        with pytest.raises(DomainError):
            AdmissibleSystem.build([LinearForm(1, 1)], W=5)  # 5 = 1 (mod 4)
        with pytest.raises(DomainError):
            AdmissibleSystem.build([LinearForm(1, 1)], p0=3, W=21)  # p0 | W
        for W in (0, -21):  # refused before W is factorized
            with pytest.raises(DomainError, match=rf"AdmissibleSystem: W must be >= 1, got {W}$"):
                AdmissibleSystem.build([LinearForm(1, 1)], W=W)

    def test_p0_coefficient_constraint(self):
        with pytest.raises(DomainError):
            AdmissibleSystem.build([LinearForm(2, 1)], p0=5, W=1)  # even a with p0 > 1
        with pytest.raises(DomainError):
            AdmissibleSystem.build([LinearForm(5, 1)], p0=5, W=1)  # p0 | a

    def test_from_X(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = AdmissibleSystem.build(build_default_set(2), X=10**6)
        assert system.W == 3
        assert system.v0 == 0

    def test_side_condition_warnings(self):
        forms = build_default_set(4)
        msgs = size_conditions(forms, 10**6)
        assert any("k=4" in m for m in msgs)
        with pytest.warns(UserWarning):
            AdmissibleSystem.build(forms, X=10**6)

    def test_coefficient_size_conditions(self):
        # at X = 1000, (ln X)^(1/3) = 1.904, and k = 1 is within (ln X)^(1/5) = 1.471
        assert size_conditions([LinearForm(2, 1000)], 1000) == [
            "a=2 exceeds (ln X)^(1/3)=1.904",
            "a=2 is even",
            "b=1000 is not < X=1000",
        ]

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: AdmissibleSystem.build([LinearForm(1, 1)], p0=9, W=1),
             "AdmissibleSystem: p0 must be 1 or a prime <= 2^63 - 1, got 9"),
            (lambda: AdmissibleSystem.build([LinearForm(1, 1)], p0=2**63, W=1),
             f"AdmissibleSystem: p0 must be 1 or a prime <= 2^63 - 1, got {2**63}"),
            (lambda: AdmissibleSystem.build([LinearForm(1, 1)], W=2**63),
             f"AdmissibleSystem: W must be <= 2^63 - 1, got {2**63}"),
            (lambda: AdmissibleSystem.build([LinearForm(1, 1)]), "AdmissibleSystem: provide W or X"),
            (lambda: find_v0([LinearForm(1, 1)], 0), "find_v0: W must be >= 1, got 0"),
        ],
        ids=["p0-not-prime", "p0-above-int64", "W-above-int64", "neither-W-nor-X", "find_v0-W-below-1"],
    )
    def test_refusal_names_its_function(self, call, message):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message
