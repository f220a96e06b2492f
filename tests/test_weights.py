import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from twosq.admissible import AdmissibleSystem, LinearForm, build_default_set
from twosq.arith import roots_mod
from twosq.errors import DomainError
from twosq.primes import squarefree_products
from twosq.sieve import is_two_square, sieve_segment
from twosq.weights import (
    CLASS_CHUNK,
    _scaled_lambdas,
    build_weights,
    gamma_p3_indicator,
    check_weight_mass,
    quadratic_forms,
    verify_sieve_summation,
    weight_w,
    weighted_experiment,
    ystar_from_lambda,
)


def direct_pair_sums(ws):
    """Reference: Q_nu, Q_nu-1 and the weight-mass bound by the plain Fraction
    double loop over every ordered pair (d, e), with the factors of [d, e]
    taken from the union of prime sets."""
    nu_t = ws.nu_table
    items = [(set(ws.support_factors[d]), ws.lam[d]) for d in ws.support if ws.lam[d]]
    q_nu = q_nu1 = bound = Fraction(0)
    for dfacs, lam_d in items:
        for efacs, lam_e in items:
            t_nu = t_nu1 = lam_d * lam_e
            t_bound = abs(t_nu)
            for p in dfacs | efacs:
                t_nu *= Fraction(nu_t[p], p)
                t_nu1 *= Fraction(nu_t[p] - 1, p - 1)
                t_bound *= nu_t[p]
            q_nu += t_nu
            q_nu1 += t_nu1
            bound += t_bound
    return q_nu, q_nu1, bound


def assert_matches_reference(ws):
    q_nu, q_nu1, bound = direct_pair_sums(ws)
    rep = quadratic_forms(ws)
    assert rep.Q_nu == q_nu
    assert rep.Q_nu_minus1 == q_nu1
    # the bound depends on ws alone; any report over (X, 2X] will do
    assert check_weight_mass(ws, weighted_experiment(ws, 50, 100)).bound == bound


def divisor_sum_totals(ns, roots, lam_scaled, R):
    """Reference: sum of scaled lambda_d over support d dividing the form
    product, per n.  The primes hitting each n are collected in ascending
    order and the support d dividing the product are enumerated as their
    squarefree products below R, one n at a time."""
    hit_primes = [[] for _ in range(len(ns))]
    for p, rs in roots.items():
        rem = ns % p
        for r in rs:
            for i in np.flatnonzero(rem == r).tolist():
                hit_primes[i].append(p)
    return [sum(lam_scaled[d] for d, _ in squarefree_products(ps, R)) for ps in hit_primes]


def reference_experiment(ws, X_lo, X_hi):
    """Reference: (class_size, sum_w, sum_hits_w, class_unweighted_avg) of a
    weighted experiment by the per-n route over the whole class at once."""
    sysm = ws.system
    first_n = X_lo + 1 + ((sysm.v0 - (X_lo + 1)) % sysm.W)
    ns = np.arange(first_n, X_hi + 1, sysm.W, dtype=np.int64)
    hits = np.zeros(ns.size, dtype=np.int64)
    for form in sysm.forms:
        table = sieve_segment(form(X_lo + 1), form(X_hi))
        hits += table.bits[form.a * ns + form.b - table.lo]
    lam_scaled, denom = _scaled_lambdas(ws)
    primes = sorted({p for facs in ws.support_factors.values() for p in facs})
    roots = {p: roots_mod(p, sysm.forms) for p in primes}
    totals = divisor_sum_totals(ns, roots, lam_scaled, ws.R)
    sum_w = sum(t * t for t in totals)
    sum_hw = sum(h * t * t for t, h in zip(totals, hits.tolist()))
    d2 = denom * denom
    return ns.size, Fraction(sum_w, d2), Fraction(sum_hw, d2), Fraction(int(hits.sum()), ns.size)


def assert_matches_reference_route(ws, X_lo, X_hi):
    report = weighted_experiment(ws, X_lo, X_hi)
    class_size, sum_w, sum_hits_w, class_avg = reference_experiment(ws, X_lo, X_hi)
    assert report.class_size == class_size
    assert report.sum_w == sum_w
    assert report.sum_hits_w == sum_hits_w
    assert report.class_unweighted_avg == class_avg
    return report


@pytest.fixture(scope="module")
def k1_system():
    return AdmissibleSystem.build([LinearForm(1, 1)], W=1)


@pytest.fixture(scope="module")
def k1_weights(k1_system):
    return build_weights(k1_system, 10)


class TestBuildWeights:
    def test_worked_example(self, k1_weights):
        ws = k1_weights
        assert ws.support == (1, 3, 7)
        assert ws.lam[1] == Fraction(5, 3)
        assert ws.lam[3] == Fraction(-3, 2)
        assert ws.lam[7] == Fraction(-7, 6)
        assert ws.ystar[1] == Fraction(5, 3)
        assert ws.ystar[3] == 0
        assert ws.ystar[7] == 0

    def test_trivial_support(self, k1_system):
        ws = build_weights(k1_system, 2)
        assert ws.support == (1,)
        assert ws.lam[1] == 1
        assert ws.ystar[1] == 1
        assert ws.Q_nu == 1
        assert ws.Q_nu_minus1 == 1

    def test_sign_matches_mu(self):
        system = AdmissibleSystem.build(build_default_set(3), W=1)
        ws = build_weights(system, 200)
        for d in ws.support:
            if ws.lam[d] == 0:
                continue
            mu_d = -1 if len(ws.support_factors[d]) % 2 else 1
            assert (ws.lam[d] > 0) == (mu_d > 0), d

    def test_lambda1_monotone_in_R(self):
        system = AdmissibleSystem.build(build_default_set(2), W=1)
        lam1s = [build_weights(system, R).lam[1] for R in (5, 20, 80, 320)]
        assert all(a <= b for a, b in zip(lam1s, lam1s[1:]))

    def test_lambda_max_attained(self, k1_weights):
        assert k1_weights.lambda_max == Fraction(5, 3)
        assert k1_weights.lambda_max in {abs(v) for v in k1_weights.lam.values()}

    def test_support_respects_W_and_p0(self):
        system = AdmissibleSystem.build(build_default_set(2), W=21)
        ws = build_weights(system, 100)
        for r in ws.support:
            assert math.gcd(r, 21) == 1

    def test_support_membership(self, k1_weights):
        assert 1 in k1_weights.support
        assert 3 in k1_weights.support
        assert 9 not in k1_weights.support  # not squarefree
        assert 11 not in k1_weights.support  # beyond the cutoff R = 10
        assert 5 not in k1_weights.support  # 5 = 1 (mod 4)


class TestQuadraticForms:
    def test_worked_example(self, k1_weights):
        rep = quadratic_forms(k1_weights)
        assert rep.Q_nu == Fraction(5, 3)
        assert rep.Q_nu_minus1 == Fraction(25, 9)
        assert rep.diag_nu == Fraction(5, 3)
        assert rep.diag_nu_minus1 == Fraction(25, 9)
        assert rep.identities_hold

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("W", [1, 21])
    def test_identities_exact(self, k, W):
        system = AdmissibleSystem.build(build_default_set(k), W=W)
        ws = build_weights(system, 150)
        rep = quadratic_forms(ws)
        assert rep.Q_nu == rep.diag_nu
        assert rep.Q_nu_minus1 == rep.diag_nu_minus1
        assert_matches_reference(ws)

    def test_identities_with_general_slopes(self):
        system = AdmissibleSystem.build([LinearForm(3, 2), LinearForm(1, 5)], W=1)
        ws = build_weights(system, 120)
        rep = quadratic_forms(ws)
        assert rep.identities_hold
        assert_matches_reference(ws)

    def test_bench_system(self):
        forms = [LinearForm(1, h) for h in (37, 89, 137, 197)]
        system = AdmissibleSystem.build(forms, W=3)
        ws = build_weights(system, 1000)
        assert quadratic_forms(ws).identities_hold
        assert_matches_reference(ws)

    def test_identities_large_support(self):
        ws = build_weights(AdmissibleSystem.build(build_default_set(3), W=21), 3000)
        assert len(ws.support) == 282
        assert quadratic_forms(ws).identities_hold

    def test_pair_budget(self, k1_weights, monkeypatch):
        import twosq.weights as wmod
        from twosq.errors import ResourceError

        monkeypatch.setattr(wmod, "MAX_SUPPORT_PAIRS", 4)
        with pytest.raises(ResourceError):
            quadratic_forms(k1_weights)

    def test_identities_with_nu_zero_prime(self):
        # {n+3}: the only root mod 3 is n = 0, so nu(3) = 0; the prime is
        # dropped from the support (lambda vanished on it anyway) and the
        # identities survive
        system = AdmissibleSystem.build([LinearForm(1, 3)], W=1)
        ws = build_weights(system, 10)
        assert ws.support == (1, 7)
        assert ws.nu_table[3] == 0
        rep = quadratic_forms(ws)
        assert rep.identities_hold
        assert ystar_from_lambda(ws, 1) == ws.ystar[1]
        assert_matches_reference(ws)


class TestYstarRoundTrip:
    @pytest.mark.parametrize("W", [1, 21])
    def test_exact(self, W):
        system = AdmissibleSystem.build(build_default_set(3), W=W)
        ws = build_weights(system, 300)
        checked = 0
        for r in ws.support:
            if r > 1 and all(ws.nu_table[p] > 1 for p in ws.support_factors[r]):
                assert ystar_from_lambda(ws, r) == ws.ystar[r], r
                checked += 1
        assert checked > 0

    def test_r1_always_defined(self, k1_weights):
        assert ystar_from_lambda(k1_weights, 1) == k1_weights.ystar[1]

    def test_rejects_nu_one(self, k1_weights):
        with pytest.raises(DomainError):
            ystar_from_lambda(k1_weights, 3)  # nu(3) = 1 for {n+1}


class TestWeightW:
    def test_off_class_is_zero(self):
        system = AdmissibleSystem.build(build_default_set(2), W=21)
        ws = build_weights(system, 50)
        v0 = system.v0
        assert weight_w(ws, v0 + 1) == 0

    def test_coprime_gives_lambda1_squared(self, k1_weights):
        assert weight_w(k1_weights, 1) == Fraction(25, 9)  # n+1 = 2

    def test_worked_value(self, k1_weights):
        # n = 20: n+1 = 21 = 3*7, sum = 5/3 - 3/2 - 7/6 = -1
        assert weight_w(k1_weights, 20) == 1

    def test_nonnegative(self, k1_weights):
        for n in range(1, 200):
            assert weight_w(k1_weights, n) >= 0

    def test_matches_fast_path(self):
        # the scaled-integer route used in bulk scans must agree with the
        # pointwise gcd-chain definition; the second class spans more than
        # one chunk of the serial pass
        cases = [(3, 3, 60, 1000, 1400), (2, 1, 30, 10**5, 10**5 + 20_000)]
        for k, W, R, X_lo, X_hi in cases:
            system = AdmissibleSystem.build(build_default_set(k), W=W)
            ws = build_weights(system, R)
            report = weighted_experiment(ws, X_lo, X_hi)
            sum_w = sum_hits_w = Fraction(0)
            for n in range(X_lo + 1, X_hi + 1):
                if n % W == system.v0 % W:
                    w = weight_w(ws, n)
                    sum_w += w
                    sum_hits_w += w * sum(is_two_square(form(n)) for form in system.forms)
            assert report.sum_w == sum_w
            assert report.sum_hits_w == sum_hits_w
        assert report.class_size > CLASS_CHUNK


class TestWeightedExperiment:
    def test_range_validation(self):
        system = AdmissibleSystem.build([LinearForm(1, 1)], W=1)
        ws = build_weights(system, 10)
        with pytest.raises(DomainError):
            weighted_experiment(ws, 100, 100)

    def test_empty_class_flagged(self):
        system = AdmissibleSystem.build(build_default_set(2), W=21)
        ws = build_weights(system, 10)
        v0 = system.v0
        # a window of width 1 that misses the class
        lo = v0 + 21 * 50
        report = weighted_experiment(ws, lo, lo + 1)
        assert report.empty_class
        assert report.weighted_avg is None

    def test_k1_average_in_unit_interval(self, k1_weights):
        report = weighted_experiment(k1_weights, 10**4, 2 * 10**4)
        assert report.weighted_avg is not None
        assert 0 <= report.weighted_avg <= 1
        assert 0 <= report.class_unweighted_avg <= 1

    def test_threads_deterministic(self, monkeypatch):
        # the exact sums do not depend on how the class is split into work
        # units: one whole-class chunk and many small chunks agree
        import twosq.weights as wmod

        system = AdmissibleSystem.build(build_default_set(2), W=3)
        ws = build_weights(system, 100)
        r1 = weighted_experiment(ws, 10**4, 3 * 10**4)
        assert r1.class_size <= CLASS_CHUNK
        monkeypatch.setattr(wmod, "CLASS_CHUNK", 1000)
        r2 = weighted_experiment(ws, 10**4, 3 * 10**4)
        assert r1.sum_w == r2.sum_w
        assert r1.sum_hits_w == r2.sum_hits_w

    def test_class_streamed_in_chunks(self):
        # 10^6 members: held whole, the class cost about 32 B per member in
        # int64 arrays (a 32 MB traced peak); streamed, the peak is set by the
        # 1 MB membership table and one chunk
        ws = build_weights(AdmissibleSystem.build([LinearForm(1, 1)], W=1), 10)
        tracemalloc.start()
        try:
            report = weighted_experiment(ws, 10**6, 2 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.class_size == 10**6
        assert peak < 12 * 2**20

    def test_hits_bounded_by_k(self):
        system = AdmissibleSystem.build(build_default_set(3), W=3)
        ws = build_weights(system, 50)
        report = weighted_experiment(ws, 5000, 15000)
        assert 0 <= report.weighted_avg <= 3
        assert 0 <= report.overall_unweighted_avg <= 3


# (forms, W, p0, R, X_lo, X_hi)
REFERENCE_CASES = {
    "slope_3": ([(3, 2), (1, 5)], 1, 1, 120, 20_000, 30_000),
    "p0_7": ([(1, 1), (1, 5)], 3, 7, 400, 10_000, 20_000),
    "W_21": ([(1, 1), (1, 5), (1, 13)], 21, 1, 300, 30_000, 60_000),
    "R_1": ([(1, 1)], 1, 1, 1, 5_000, 10_000),
    "dead_prime": ([(1, 3)], 1, 1, 100, 10_000, 20_000),
    "bench": ([(1, 37), (1, 89), (1, 137), (1, 197)], 3, 1, 1000, 100_000, 150_000),
}


def reference_case_weights(name):
    forms, W, p0, R, X_lo, X_hi = REFERENCE_CASES[name]
    system = AdmissibleSystem.build([LinearForm(a, b) for a, b in forms], W=W, p0=p0)
    return build_weights(system, R), X_lo, X_hi


class TestReferenceRoute:
    """The per-support-element pass equals the per-n divisor-sum route."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_matches_per_n_route(self, name):
        ws, X_lo, X_hi = reference_case_weights(name)
        report = assert_matches_reference_route(ws, X_lo, X_hi)
        assert report.sum_w > 0
        if name == "R_1":
            assert ws.support == (1,)
        if name == "dead_prime":
            assert ws.nu_table[3] == 0
        if name == "p0_7":
            assert all(d % 7 for d in ws.support) and 11 * 19 in ws.support
        if name == "bench":
            assert report.class_size > CLASS_CHUNK

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("name", ["slope_3", "W_21", "bench"])
    def test_any_chunk_size(self, name, chunk, monkeypatch):
        import twosq.weights as wmod

        ws, X_lo, _ = reference_case_weights(name)
        monkeypatch.setattr(wmod, "CLASS_CHUNK", chunk)
        # 201 members: many chunks, and at chunk 7 a shorter last chunk
        report = assert_matches_reference_route(ws, X_lo, X_lo + 201 * ws.system.W)
        assert report.class_size == 201


class TestWeightMass:
    def test_within_explicit_bound_small(self):
        system = AdmissibleSystem.build(build_default_set(2), W=3)
        ws = build_weights(system, 30)
        rep = check_weight_mass(ws, weighted_experiment(ws, 2 * 10**4, 4 * 10**4))
        assert rep.within_bound
        assert rep.bound > 0

    def test_main_term_is_x_over_w_times_qnu(self):
        system = AdmissibleSystem.build(build_default_set(2), W=3)
        ws = build_weights(system, 30)
        rep = check_weight_mass(ws, weighted_experiment(ws, 12345, 2 * 12345))
        assert rep.main_term == Fraction(12345, 3) * ws.Q_nu

    def test_rejects_report_not_over_x_2x(self):
        system = AdmissibleSystem.build(build_default_set(2), W=3)
        ws = build_weights(system, 30)
        with pytest.raises(DomainError):
            check_weight_mass(ws, weighted_experiment(ws, 1000, 3000))
        with pytest.raises(DomainError):
            check_weight_mass(ws, weighted_experiment(build_weights(system, 50), 1000, 2000))


class TestSummation:
    def test_smoke_small_R(self):
        rep = verify_sieve_summation(0.5, gamma_p3_indicator, 10)
        # exact left side over support {1, 3, 7}: 1 + 1/2 + 1/6
        assert abs(rep.lhs - (1 + 0.5 + 1 / 6)) < 1e-12
        assert rep.rhs > 0

    @pytest.mark.parametrize("kappa", [0.5, 0.75, 1.0])
    def test_integral_closed_form(self, kappa):
        # int_0^1 t^(kappa-1) dt = 1/kappa; at kappa = 1/2 it is the 2.0 that
        # an adaptive quadrature of the same integral returns
        rep = verify_sieve_summation(kappa, gamma_p3_indicator, 100)
        assert rep.integral == 1 / kappa
        assert rep.rhs == pytest.approx(rep.singular_series * math.log(100) ** kappa / rep.gamma_factor / kappa, rel=1e-15)

    def test_gamma_bound_violation(self):
        with pytest.raises(DomainError):
            verify_sieve_summation(0.5, lambda p: 3.0, 100)

    def test_asymptotic_accuracy_midsize(self):
        rep = verify_sieve_summation(0.5, gamma_p3_indicator, 10**5)
        assert rep.rel_error < 0.08

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_sieve_summation(0.0, gamma_p3_indicator, 100)
        with pytest.raises(DomainError):
            verify_sieve_summation(0.5, gamma_p3_indicator, 1)
