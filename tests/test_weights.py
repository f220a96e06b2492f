import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from twosq.admissible import AdmissibleSystem, LinearForm, build_default_set, compute_W
from twosq.arith import roots_mod
from twosq.errors import DomainError, ResourceError
from twosq.primes import factorize, is_prime, squarefree_products
from twosq.sieve import is_two_square, sieve_segment
from twosq.weights import (
    CLASS_CHUNK,
    WeightedScanReport,
    _class_offsets,
    build_weights,
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


def support_scan_weights(ws):
    """Reference: (lam, ystar, Q_nu, Q_nu-1) by scanning the whole support for
    the multiples of each element, once for the lambda tails and once for the
    1/phi sums: the direct O(|support|^2) route."""
    nu_table = ws.nu_table
    supp = [(r, ws.support_factors[r]) for r in ws.support]
    support = ws.support

    gfac = {}
    for r, facs in supp:
        acc = Fraction(1)
        for p in facs:
            acc *= Fraction(nu_table[p], p - nu_table[p])
        gfac[r] = acc

    lam = {}
    for d, facs in supp:
        tail = sum((gfac[r] for r in support if r % d == 0), Fraction(0))
        mu_d = -1 if len(facs) % 2 else 1
        lead = Fraction(1)
        for p in facs:
            lead *= Fraction(p, nu_table[p])
        lam[d] = mu_d * lead * tail

    ystar = {}
    for r, facs in supp:
        if all(nu_table[p] > 1 for p in facs):
            tot = Fraction(0)
            for s, sfacs in supp:
                if s % r == 0:
                    phi_s = 1
                    for p in sfacs:
                        phi_s *= p - 1
                    tot += Fraction(1, phi_s)
            ystar[r] = r * tot
        else:
            ystar[r] = Fraction(0)

    q_nu = sum((gfac[r] for r in support), Fraction(0))
    q_nu1 = Fraction(0)
    for r, facs in supp:
        if ystar[r]:
            acc = ystar[r] * ystar[r]
            for p in facs:
                acc *= Fraction(nu_table[p] - 1, p - nu_table[p])
            q_nu1 += acc
    return lam, ystar, q_nu, q_nu1


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
    lam_scaled, denom = ws.lam_scaled, ws.lam_denom
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


def seeded_pair_sum_cases(seed=33, count=8):
    """(forms, W, R) for `count` admissible systems: the one-element support
    of {n+1} at W = 21, R = 10 (3 and 7 divide W), then random forms a*n + b
    with a <= 5, b <= 30, W in {1, 3, 7, 21, 33} and R <= 200, drawn with a
    fixed seed.  The draw is checked to hold a general slope and a support
    prime with nu(p) = 1, where the (nu-1)/(p-1) factor vanishes."""
    rng = random.Random(seed)
    cases = [((LinearForm(1, 1),), 21, 10)]
    while len(cases) < count:
        forms = tuple(dict.fromkeys(LinearForm(rng.randint(1, 5), rng.randint(1, 30)) for _ in range(rng.randint(1, 3))))
        W, R = rng.choice((1, 3, 7, 21, 33)), rng.randint(20, 200)
        try:
            AdmissibleSystem.build(forms, W=W)
        except DomainError:
            continue
        cases.append((forms, W, R))
    weights = [build_weights(AdmissibleSystem.build(forms, W=W), R) for forms, W, R in cases]
    assert weights[0].support == (1,)
    assert any(form.a > 1 for forms, _, _ in cases for form in forms)
    assert any(ws.nu_table[p] == 1 for ws in weights for d in ws.support for p in ws.support_factors[d])
    return cases


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
        # d = 1, the empty product, is in the support even at R = 1
        for R in (1, 2):
            ws = build_weights(k1_system, R)
            assert ws.support == (1,)
            assert ws.lam[1] == 1
            assert ws.ystar[1] == 1
            assert ws.Q_nu == 1
            assert ws.Q_nu_minus1 == 1

    def test_nu_at_least_p_refused(self):
        # AdmissibleSystem.build never caches such a nu; built directly, the
        # system is refused by name at its first unusable prime
        system = AdmissibleSystem(forms=(LinearForm(1, 1),), p0=1, W=3, v0=0, nu_table={3: 3})
        with pytest.raises(DomainError) as exc:
            build_weights(system, 10)
        assert str(exc.value) == "build_weights: nu(3) = 3 >= 3; system not usable at this prime"

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


def brute_nu(forms, p):
    return sum(1 for n in range(1, p) if math.prod(f(n) for f in forms) % p == 0)


class TestSupportOracle:
    """The support against a scan of every r < R: r is in it, with its
    ascending prime tuple, exactly when r is squarefree and each prime of r is
    = 3 (mod 4), prime to W*p0 and has nu(p) > 0; the nu table is the
    system's plus nu of every such prime, whatever its nu."""

    @pytest.mark.parametrize(
        "forms, W, p0",
        [
            ([(1, 3)], 1, 1),  # nu(3) = 0: 3 and its multiples leave the support
            ([(1, 1), (1, 5)], 21, 1),
            ([(1, 1), (1, 5), (1, 13)], 3, 7),
            ([(1, 1)], 1, 1),
            ([(1, 1), (1, 5), (1, 13)], 1, 1),
        ],
    )
    @pytest.mark.parametrize("R", [2, 10, 25, 500])
    def test_matches_brute_force(self, forms, W, p0, R):
        system = AdmissibleSystem.build([LinearForm(a, b) for a, b in forms], W=W, p0=p0)
        ws = build_weights(system, R)
        prime_nu = {
            p: brute_nu(system.forms, p)
            for p in range(3, R, 4)
            if is_prime(p) and (W * p0) % p
        }
        want = {}
        for r in range(1, R):
            fac = factorize(r)
            if all(e == 1 and prime_nu.get(p, 0) > 0 for p, e in fac.items()):
                want[r] = tuple(sorted(fac))
        assert ws.support == tuple(want)
        assert dict(ws.support_factors) == want
        assert ws.nu_table == {**system.nu_table, **prime_nu}


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

    @pytest.mark.parametrize("forms, W, R", seeded_pair_sum_cases())
    def test_seeded_systems_match_reference(self, forms, W, R):
        assert_matches_reference(build_weights(AdmissibleSystem.build(forms, W=W), R))

    def test_identities_large_support(self):
        ws = build_weights(AdmissibleSystem.build(build_default_set(3), W=21), 3000)
        assert len(ws.support) == 282
        assert quadratic_forms(ws).identities_hold

    def test_pair_budget(self, k1_weights, monkeypatch):
        # both direct pair sums refuse a support of 3^2 = 9 pairs, each in the
        # name of the function that was called
        import twosq.weights as wmod

        report = weighted_experiment(k1_weights, 1000, 2000)
        monkeypatch.setattr(wmod, "MAX_SUPPORT_PAIRS", 4)
        with pytest.raises(ResourceError, match=r"^quadratic_forms: \|support\|\^2 = 9 exceeds 4; reduce R$"):
            quadratic_forms(k1_weights)
        with pytest.raises(ResourceError, match=r"^check_weight_mass: \|support\|\^2 = 9 exceeds 4; reduce R$"):
            check_weight_mass(k1_weights, report)

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

    @pytest.mark.parametrize("n", [0, -5])
    def test_refusal_names_its_function(self, k1_weights, n):
        with pytest.raises(DomainError) as exc:
            weight_w(k1_weights, n)
        assert str(exc.value) == f"weight_w: n must be >= 1, got {n}"

    def test_matches_fast_path(self):
        # the scaled-integer route used in bulk scans must agree with the
        # pointwise gcd-chain definition, also across the boundaries of the
        # serial pass's chunks: (k, W, R, X_lo, X_hi, at least this many chunks)
        cases = [
            (3, 3, 60, 1000, 1400, 1),
            (2, 1, 30, 10**5, 10**5 + 20_000, 2),
            # 10^4 members; the parents 7 and 11 divide 77, 133, 161, 217 and
            # 209, 253, while 43, 47, ..., 283 divide no other support element
            (3, 3, 300, 10**5, 10**5 + 30_000, 3),
        ]
        for k, W, R, X_lo, X_hi, chunks in cases:
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
            assert -(-report.class_size // CLASS_CHUNK) >= chunks


def table_per_form_experiment(ws, X_lo, X_hi):
    """Reference: the weighted experiment with one membership table per form,
    the whole class in one chunk, and the sums taken over object arrays.  A
    support d divides the form product at the members where each of its
    primes divides some form value, read from the values mod p."""
    sysm = ws.system
    tables = [sieve_segment(form(X_lo + 1), form(X_hi)) for form in sysm.forms]
    total_hits_all = sum(int(np.count_nonzero(t.bits[:: f.a])) for f, t in zip(sysm.forms, tables))
    first_n = X_lo + 1 + ((sysm.v0 - (X_lo + 1)) % sysm.W)
    ns = np.arange(first_n, X_hi + 1, sysm.W, dtype=np.int64)
    hits = np.zeros(ns.size, dtype=np.int64)
    for form, table in zip(sysm.forms, tables):
        hits += table.bits[form.a * ns + form.b - table.lo]
    primes = {p for facs in ws.support_factors.values() for p in facs}
    divides = {p: np.any([(f.a * ns + f.b) % p == 0 for f in sysm.forms], axis=0) for p in primes}
    totals = np.zeros(ns.size, dtype=object)
    for d in ws.support:
        on = np.ones(ns.size, dtype=bool)
        for p in ws.support_factors[d]:
            on &= divides[p]
        totals[on] += ws.lam_scaled[d]
    w = totals**2
    d2 = ws.lam_denom**2
    return WeightedScanReport(
        X_lo=X_lo, X_hi=X_hi, R=ws.R, k=sysm.k, W=sysm.W, v0=sysm.v0,
        class_size=ns.size,
        class_hits=int(hits.sum()),
        sum_w=Fraction(int(w.sum()), d2),
        sum_hits_w=Fraction(int((w * hits).sum()), d2),
        overall_unweighted_avg=Fraction(total_hits_all, X_hi - X_lo),
    )


def counted_tables(monkeypatch):
    """The membership tables weighted_experiment sieves, recorded as it runs."""
    import twosq.weights as wmod

    made = []
    monkeypatch.setattr(wmod, "sieve_segment", lambda lo, hi: made.append(sieve_segment(lo, hi)) or made[-1])
    return made


# (forms, W, R, X, membership tables); at these X the CLI takes W = compute_W(X) = 3
RUN_CASES = {
    "bench": ([(1, 37), (1, 89), (1, 137), (1, 197)], 3, 1000, 206_582, 1),
    "k4": ([(1, 1), (1, 5), (1, 13), (1, 17)], 3, 1000, 100_000, 1),
    "slope_1000": ([(1, 1), (1000, 1)], 1, 100, 5_000, 2),
    "slope_3": ([(1, 1), (3, 2), (1, 5)], 1, 120, 20_000, 2),
    "slope_3_W3": ([(1, 1), (3, 2), (1, 5)], 3, 120, 20_000, 2),
    "disjoint": ([(1, 1), (1, 50_001)], 1, 100, 10_000, 2),
    "slopes_overlap": ([(1, 5), (2, 1)], 1, 100, 10_000, 2),
}


class TestMembershipRuns:
    """Forms of one leading coefficient whose windows overlap share a table."""

    @pytest.mark.parametrize("name", sorted(RUN_CASES))
    def test_matches_table_per_form(self, name, monkeypatch):
        forms, W, R, X, n_tables = RUN_CASES[name]
        ws = build_weights(AdmissibleSystem.build([LinearForm(a, b) for a, b in forms], W=W), R)
        made = counted_tables(monkeypatch)
        assert weighted_experiment(ws, X, 2 * X) == table_per_form_experiment(ws, X, 2 * X)
        assert len(made) == n_tables
        if name in ("bench", "k4"):
            assert compute_W(X) == W
            assert made[0].hi - made[0].lo + 1 == X + forms[-1][1] - forms[0][1]

    @pytest.mark.parametrize("budget, spans", [
        (10_004, [(10_002, 20_005), (11_002, 21_001)]),
        (10_003, [(10_002, 20_001), (10_006, 20_005), (11_002, 21_001)]),
    ])
    def test_run_closes_at_segment_budget(self, budget, spans, monkeypatch):
        # over (10^4, 2 * 10^4] one table spans 10,004 values for n + 1 and
        # n + 5, and 11,000 with n + 1001: a run closes before it would pass
        # the budget, and every form still runs with the same sums
        import twosq.weights as wmod

        system = AdmissibleSystem.build([LinearForm(1, 1001), LinearForm(1, 5), LinearForm(1, 1)], W=1)
        ws = build_weights(system, 100)
        X = 10_000
        whole = weighted_experiment(ws, X, 2 * X)
        monkeypatch.setattr(wmod, "MAX_SEGMENT", budget)
        made = counted_tables(monkeypatch)
        assert weighted_experiment(ws, X, 2 * X) == whole == table_per_form_experiment(ws, X, 2 * X)
        assert [(t.lo, t.hi) for t in made] == spans

    def test_form_past_segment_budget_refused_before_sieving(self, monkeypatch):
        # 3000n + 1 spans 89,997,001 values over (30000, 60000], past 2^26: the
        # experiment refuses by name before it sieves the table of n + 1
        ws = build_weights(AdmissibleSystem.build([LinearForm(1, 1), LinearForm(3000, 1)], W=1), 100)
        made = counted_tables(monkeypatch)
        with pytest.raises(ResourceError, match=r"^weighted_experiment: "):
            weighted_experiment(ws, 30_000, 60_000)
        assert made == []

    def test_bench_system_memory(self):
        # the seed-0 bench gpy-demo's 68,861 class members: one shared table,
        # and chunks of 2^12 members summed over Python ints with no object
        # arrays of t^2 and hits * t^2, each support element adding lambda_d
        # along its class offsets (0.90 MiB traced; 1.57 MiB with chunks of
        # 2^13, 6.6 MiB with four tables and those object arrays)
        forms, W, R, X, _ = RUN_CASES["bench"]
        ws = build_weights(AdmissibleSystem.build([LinearForm(a, b) for a, b in forms], W=W), R)
        tracemalloc.start()
        try:
            report = weighted_experiment(ws, X, 2 * X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.class_size == 68_861
        assert peak <= 1.5 * 2**20


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
        assert report.class_size == 0
        assert report.empty_class
        assert report.weighted_avg is None
        assert report.class_unweighted_avg is None

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
        monkeypatch.setattr(wmod, "CLASS_CHUNK", 10**4)
        r1 = weighted_experiment(ws, 10**4, 3 * 10**4)
        assert r1.class_size <= wmod.CLASS_CHUNK
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

    def test_value_span_budget(self):
        # n + 1 over (X_lo, X_hi] takes 2^26 + 1 values: refused before any
        # membership table is allocated
        ws = build_weights(AdmissibleSystem.build([LinearForm(1, 1)], W=1), 10)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                weighted_experiment(ws, 10**6, 10**6 + 2**26 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_form_value_past_int64(self):
        # n + 1 at n = 2^63 - 1 is 2^63
        ws = build_weights(AdmissibleSystem.build([LinearForm(1, 1)], W=1), 10)
        with pytest.raises(DomainError):
            weighted_experiment(ws, 2**63 - 10, 2**63 - 1)

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
    "R_2": ([(1, 1)], 1, 1, 2, 5_000, 10_000),
}


def reference_case_weights(name):
    forms, W, p0, R, X_lo, X_hi = REFERENCE_CASES[name]
    system = AdmissibleSystem.build([LinearForm(a, b) for a, b in forms], W=W, p0=p0)
    return build_weights(system, R), X_lo, X_hi


class TestClassOffsets:
    """Each support element's class offsets are the class indices, by brute
    force, at which it divides the form product."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_matches_brute_force(self, name):
        ws, X_lo, _ = reference_case_weights(name)
        sysm = ws.system
        first_n = X_lo + 1 + (sysm.v0 - (X_lo + 1)) % sysm.W
        offsets = _class_offsets(ws, first_n)
        assert sorted(offsets) == list(ws.support[1:])

        def product(i):
            return math.prod(f(first_n + sysm.W * i) for f in sysm.forms)

        for d, offs in offsets.items():
            assert sorted(offs.tolist()) == [i for i in range(d) if product(i) % d == 0], d


class TestSupportScanRoute:
    """The sums over support multiples equal the per-element support scans."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_matches_support_scans(self, name):
        ws, _, _ = reference_case_weights(name)
        lam, ystar, q_nu, q_nu1 = support_scan_weights(ws)
        assert ws.lam == lam
        assert ws.ystar == ystar
        assert ws.Q_nu == q_nu
        assert ws.Q_nu_minus1 == q_nu1


class TestReferenceRoute:
    """The per-support-element pass equals the per-n divisor-sum route."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_matches_per_n_route(self, name):
        ws, X_lo, X_hi = reference_case_weights(name)
        report = assert_matches_reference_route(ws, X_lo, X_hi)
        assert report.sum_w > 0
        if name in ("R_1", "R_2"):
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


# pi to 46 digits, for Gamma(1/2) = sqrt(pi)
PI = Decimal("3.141592653589793238462643383279502884197169399")


def p3_summation_weight(r):
    """prod 1/(p - 1) over the primes p of r if r is squarefree and every p is
    3 (mod 4), else 0; r factored by trial division."""
    wt, f = Fraction(1), 2
    while r > 1:
        if f * f > r:
            f = r  # what is left is prime
        if r % f == 0:
            r //= f
            if f % 4 != 3 or r % f == 0:
                return Fraction(0)
            wt /= f - 1
        f += 1
    return wt


def summation_oracle(R):
    """Reference for verify_sieve_summation with no sieve and no float series:
    the exact left side over r < R, and S and the right side
    S (ln R)^(1/2) / sqrt(pi) * 2 at 40 digits, the primes below R found by
    trial division."""
    lhs = sum(map(p3_summation_weight, range(1, R)), Fraction(0))
    primes = [p for p in range(2, R) if all(p % f for f in range(2, math.isqrt(p) + 1))]
    with localcontext(prec=40):
        one = Decimal(1)
        every = math.prod((one - one / p for p in primes), start=one)
        p3 = math.prod((one - one / p for p in primes if p % 4 == 3), start=one)
        S = every.sqrt() / p3
        return lhs, S, S * Decimal(R).ln().sqrt() / PI.sqrt() * 2


class TestSummation:
    def test_smoke_small_R(self):
        rep = verify_sieve_summation(10)
        # exact left side over support {1, 3, 7}: 1 + 1/2 + 1/6
        assert abs(rep.lhs - (1 + 0.5 + 1 / 6)) < 1e-12
        assert rep.rhs > 0

    @pytest.mark.parametrize("R", [2, 3, 4, 10, 1000, 10**4])
    def test_matches_independent_oracle(self, R):
        lhs, S, rhs = summation_oracle(R)
        rep = verify_sieve_summation(R)
        assert abs(Fraction(rep.lhs) - lhs) <= lhs / 10**14
        for got, want in ((rep.singular_series, S), (rep.rhs, rhs)):
            assert abs(Decimal(got) - want) <= want * Decimal("1e-14"), (got, want)

    def test_asymptotic_accuracy_midsize(self):
        rep = verify_sieve_summation(10**5)
        assert rep.rel_error < 0.08

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_sieve_summation(1)
