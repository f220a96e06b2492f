"""Exact-rational squared-divisor-sum sieve weights and their experiments.

The weight on n is w_n = (sum over d | prod_i L_i(n) of lambda_d)^2 when
n = v0 (mod W), else 0; the support of lambda is squarefree d < R composed
of primes = 3 (mod 4), coprime to W*p0.  With nu(p) the number of roots of
the form product in [1, p),

  lambda_d = mu(d) (prod_{p|d} p/nu(p)) sum_{r: d|r} prod_{p|r} nu(p)/(p - nu(p)),

the two quadratic forms

  Q_nu     = sum_{d,e} lambda_d lambda_e prod_{p|de} nu(p)/p
  Q_nu-1   = sum_{d,e} lambda_d lambda_e prod_{p|de} (nu(p)-1)/(p-1)

diagonalize exactly to

  Q_nu     = sum_r prod_{p|r} nu(p)/(p - nu(p)),
  Q_nu-1   = sum_r (ystar_r)^2 prod_{p|r} (nu(p)-1)/(p - nu(p)),

with ystar_r = r * sum_{s: r|s} 1/phi(s) on the part of the support where
nu(p) > 1 for all p | r, and 0 elsewhere.  Everything is computed in exact
rational arithmetic; the identities are verified by computing both routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .admissible import AdmissibleSystem
from .arith import nu as nu_of, p3_squarefree_factored, roots_mod
from .errors import DomainError, ResourceError
from .primes import sieve_primes, squarefree_products
from .sieve import INT64_MAX, SegmentTable, sieve_segment

# Direct double sums are O(|support|^2); refuse beyond this many pairs.
MAX_SUPPORT_PAIRS = 4_000_000

# Largest single membership table a weighted experiment may allocate.
MAX_VALUE_SPAN = 1 << 26

# Class members per chunk of a weighted experiment.  Only one chunk's n, hit
# counts, form values, member index lists and divisor sums are held at once,
# so the experiment's memory does not grow with the class.
CLASS_CHUNK = 1 << 14


@dataclass(frozen=True)
class WeightSystem:
    """Divisor-sum weights for one admissible system at support cutoff R.

    support lists the admissible squarefree d < R with their prime tuples.
    Q_nu and Q_nu_minus1 hold the diagonal-route values of the two quadratic
    forms (the direct double sums are recomputed by quadratic_forms for
    verification).
    """

    system: AdmissibleSystem
    R: int
    support: tuple[int, ...]
    support_factors: Mapping[int, tuple[int, ...]] = field(repr=False)
    nu_table: Mapping[int, int] = field(repr=False)
    lam: Mapping[int, Fraction] = field(repr=False)
    ystar: Mapping[int, Fraction] = field(repr=False)
    Q_nu: Fraction
    Q_nu_minus1: Fraction

    @property
    def lambda_max(self) -> Fraction:
        return max(abs(v) for v in self.lam.values())

    def to_json_dict(self) -> dict:
        return {
            "R": self.R,
            "support": list(self.support),
            "lambda": {str(d): str(self.lam[d]) for d in self.support},
            "Q_nu": str(self.Q_nu),
            "Q_nu_minus1": str(self.Q_nu_minus1),
        }


def build_weights(system: AdmissibleSystem, R: int) -> WeightSystem:
    """Exact lambda_d, ystar_r and diagonal quadratic forms for cutoff R.

    A prime with nu(p) = 0 (every root of the form product at n = 0, as for
    {n+3} at p = 3) is dropped from the support: lambda vanishes on every
    multiple of such p, so no weight changes, and dropping it keeps the
    closed-form ystar route equal to its defining route.
    """
    if R < 1:
        raise DomainError(f"build_weights: R must be >= 1, got {R}")
    supp = p3_squarefree_factored(R, system.W * system.p0)

    nu_table: dict[int, int] = dict(system.nu_table)
    for _, facs in supp:
        for p in facs:
            if p not in nu_table:
                nu_table[p] = nu_of(p, system.forms)
    for p, v in nu_table.items():
        if v >= p:
            raise DomainError(f"build_weights: nu({p}) = {v} >= {p}; system not usable at this prime")
    dead = [p for p, v in nu_table.items() if v == 0]
    if dead:
        supp = [(r, facs) for r, facs in supp if all(p not in dead for p in facs)]
    support = tuple(r for r, _ in supp)
    factors = {r: facs for r, facs in supp}

    # prod_{p|r} nu(p)/(p - nu(p)) per support element
    gfac: dict[int, Fraction] = {}
    for r, facs in supp:
        acc = Fraction(1)
        for p in facs:
            acc *= Fraction(nu_table[p], p - nu_table[p])
        gfac[r] = acc

    lam: dict[int, Fraction] = {}
    for d, facs in supp:
        tail = sum((gfac[r] for r in support if r % d == 0), Fraction(0))
        mu_d = -1 if len(facs) % 2 else 1
        lead = Fraction(1)
        for p in facs:
            lead *= Fraction(p, nu_table[p])
        lam[d] = mu_d * lead * tail

    ystar: dict[int, Fraction] = {}
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

    return WeightSystem(
        system=system,
        R=R,
        support=support,
        support_factors=factors,
        nu_table=nu_table,
        lam=lam,
        ystar=ystar,
        Q_nu=q_nu,
        Q_nu_minus1=q_nu1,
    )


def ystar_from_lambda(ws: WeightSystem, r: int) -> Fraction:
    """The slow defining route for ystar: mu(r) (prod (p-nu)/(nu-1)) times
    sum over support multiples d of r of lambda_d prod_{p|d} (nu-1)/(p-1).

    Only defined when nu(p) > 1 for all p | r; used to cross-check the
    closed form r * sum_{s: r|s} 1/phi(s)."""
    facs = ws.support_factors[r]
    if any(ws.nu_table[p] <= 1 for p in facs):
        raise DomainError(f"ystar_from_lambda: nu(p) <= 1 for some p | {r}")
    mu_r = -1 if len(facs) % 2 else 1
    lead = Fraction(1)
    for p in facs:
        lead *= Fraction(p - ws.nu_table[p], ws.nu_table[p] - 1)
    tot = Fraction(0)
    for d, dfacs in ws.support_factors.items():
        if d % r == 0:
            term = ws.lam[d]
            for p in dfacs:
                term *= Fraction(ws.nu_table[p] - 1, p - 1)
            tot += term
    return mu_r * lead * tot


@dataclass(frozen=True)
class QuadFormReport:
    """Direct double sums over (d, e) next to their diagonal-route values."""

    Q_nu: Fraction
    Q_nu_minus1: Fraction
    diag_nu: Fraction
    diag_nu_minus1: Fraction
    lambda_max: Fraction

    @property
    def identities_hold(self) -> bool:
        return self.Q_nu == self.diag_nu and self.Q_nu_minus1 == self.diag_nu_minus1


def _scaled_lambdas(ws: WeightSystem) -> tuple[dict[int, int], int]:
    """lambda_d * D as integers, D = lcm of the lambda denominators."""
    denom = 1
    for v in ws.lam.values():
        denom = denom * v.denominator // math.gcd(denom, v.denominator)
    return {d: int(v * denom) for d, v in ws.lam.items()}, denom


def _pair_sum(ws: WeightSystem, coeff: Mapping[int, int], f: Mapping[int, Fraction | int]) -> Fraction | int:
    """sum over support d, e with coeff_d coeff_e != 0 of coeff_d coeff_e F([d, e]),
    for the multiplicative F with F(p) = f[p].

    The support is squarefree, so [d, e] = d * (e / gcd(d, e)) with coprime
    factors and F([d, e]) = F(d) F(e / gcd(d, e)); e / gcd(d, e) divides e,
    so it is a support element too, and F is tabulated once per element.
    Each unordered pair is visited once: the diagonal plus twice the sum over
    d < e, with the inner sum kept per d.  This is still the direct double
    sum over pairs; it uses none of the diagonalizing identities, so it stays
    an independent check of the diagonal route.
    """
    F = {d: math.prod(f[p] for p in ws.support_factors[d]) for d in ws.support}
    items = [(d, coeff[d]) for d in ws.support if coeff[d]]
    total: Fraction | int = 0
    for i, (d, c_d) in enumerate(items):
        inner: Fraction | int = 0
        for e, c_e in items[i + 1 :]:
            inner += c_e * F[e // math.gcd(d, e)]
        total += c_d * F[d] * (c_d + 2 * inner)
    return total


def quadratic_forms(ws: WeightSystem) -> QuadFormReport:
    """Both quadratic forms by the direct O(|support|^2) double sum."""
    support = ws.support
    if len(support) ** 2 > MAX_SUPPORT_PAIRS:
        raise ResourceError(
            f"quadratic_forms: |support|^2 = {len(support) ** 2} exceeds {MAX_SUPPORT_PAIRS}; reduce R"
        )
    nu_t = ws.nu_table
    lam_scaled, denom = _scaled_lambdas(ws)
    d2 = denom * denom
    q_nu = Fraction(_pair_sum(ws, lam_scaled, {p: Fraction(v, p) for p, v in nu_t.items()}), d2)
    q_nu1 = Fraction(_pair_sum(ws, lam_scaled, {p: Fraction(v - 1, p - 1) for p, v in nu_t.items()}), d2)
    return QuadFormReport(
        Q_nu=q_nu,
        Q_nu_minus1=q_nu1,
        diag_nu=ws.Q_nu,
        diag_nu_minus1=ws.Q_nu_minus1,
        lambda_max=ws.lambda_max,
    )


def weight_w(ws: WeightSystem, n: int) -> Fraction:
    """Pointwise weight w_n, exactly.

    Divisibility of the form product by a support element d is decided by a
    gcd chain against the individual form values (the product itself is
    never factorized)."""
    if n < 1:
        raise DomainError(f"weight_w: n must be >= 1, got {n}")
    sysm = ws.system
    if n % sysm.W != sysm.v0 % sysm.W:
        return Fraction(0)
    values = [form(n) for form in sysm.forms]
    total = Fraction(0)
    for d in ws.support:
        rem = d
        for v in values:
            rem //= math.gcd(rem, v)
            if rem == 1:
                break
        if rem == 1:
            total += ws.lam[d]
    return total * total


# ---------------------------------------------------------------------------
# Weighted scan over a range: exact integer accumulation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedScanReport:
    """Sums and averages from one weighted scan over (X_lo, X_hi].

    hits(n) counts the forms whose value at n is a sum of two squares.  The
    averages are None (and empty_class is set) when the congruence class or
    the weight mass is empty.
    """

    X_lo: int
    X_hi: int
    R: int
    k: int
    W: int
    v0: int
    class_size: int
    sum_w: Fraction
    sum_hits_w: Fraction
    weighted_avg: Fraction | None
    class_unweighted_avg: Fraction | None
    overall_unweighted_avg: Fraction
    empty_class: bool

    def to_json_dict(self) -> dict:
        return {
            "X_lo": self.X_lo,
            "X_hi": self.X_hi,
            "R": self.R,
            "k": self.k,
            "W": self.W,
            "v0": self.v0,
            "class_size": self.class_size,
            "sum_w": str(self.sum_w),
            "sum_hits_w": str(self.sum_hits_w),
            "weighted_avg": None if self.weighted_avg is None else str(self.weighted_avg),
            "class_unweighted_avg": None
            if self.class_unweighted_avg is None
            else str(self.class_unweighted_avg),
            "overall_unweighted_avg": str(self.overall_unweighted_avg),
            "weighted_avg_float": None if self.weighted_avg is None else float(self.weighted_avg),
            "class_unweighted_avg_float": None
            if self.class_unweighted_avg is None
            else float(self.class_unweighted_avg),
            "overall_unweighted_avg_float": float(self.overall_unweighted_avg),
            "empty_class": self.empty_class,
        }


def _membership_tables(system: AdmissibleSystem, X_lo: int, X_hi: int) -> list[SegmentTable]:
    """One membership table per form covering its value range on (X_lo, X_hi]."""
    tables = []
    for form in system.forms:
        lo, hi = form(X_lo + 1), form(X_hi)
        if hi > INT64_MAX:
            raise DomainError(f"weighted experiment: form value {hi} exceeds 2^63")
        if hi - lo + 1 > MAX_VALUE_SPAN:
            raise ResourceError(f"weighted experiment: value span {hi - lo + 1} exceeds budget")
        tables.append(sieve_segment(lo, hi))
    return tables


def _chunk_divisor_sums(
    n0: int,
    size: int,
    W: int,
    by_top: dict[int, list[int]],
    roots: dict[int, Sequence[int]],
    lam_scaled: dict[int, int],
) -> np.ndarray:
    """Exact sum of scaled lambda_d over support d dividing the form product,
    per n = n0 + W*i for 0 <= i < size, as an object array of Python ints.

    The support is walked instead of the n.  d = 1 divides the product at
    every n; a squarefree d > 1 divides it exactly at the n where d / p
    does and p hits (n is a root of the product mod p), p the largest prime
    of d.  by_top groups the support elements above 1 by that prime, primes
    ascending, so the members of d / p, whose primes are all below p, are
    known before d is visited.  Each d adds lambda_d at its members, which
    are distinct positions, so the fancy-index add is exact and no Python
    code runs per n.
    """
    totals = np.full(size, lam_scaled[1], dtype=object)
    members = {1: np.arange(size)}
    for p, ds in by_top.items():
        # support primes are coprime to W, so the n = r (mod p) are every
        # p-th member from i = (r - n0) / W (mod p)
        w_inv = pow(W, -1, p)
        hit = np.zeros(size, dtype=bool)
        for r in roots[p]:
            hit[(r - n0) * w_inv % p :: p] = True
        for d in ds:
            parent = members[d // p]
            ix = parent[hit[parent]]
            members[d] = ix
            totals[ix] += lam_scaled[d]
    return totals


def weighted_experiment(
    ws: WeightSystem,
    X_lo: int,
    X_hi: int,
) -> WeightedScanReport:
    """Weighted and unweighted membership-hit averages over (X_lo, X_hi].

    Computes sum w_n, sum hits(n) w_n over the class n = v0 (mod W), the
    weighted average of hits, the unweighted average over the same class,
    and the unweighted average over all n in range.  The class is processed
    serially in chunks of CLASS_CHUNK members.  In each chunk one pass over
    the support, in order of largest prime, finds the members each d divides
    and adds the integer lambda_d * D (D the common lambda denominator) to
    their totals t_n; then sum w_n = sum t_n^2 / D^2.  Every sum is in Python
    integers, so the results are exact and do not depend on the chunking.
    """
    if X_hi <= X_lo:
        raise DomainError(f"weighted_experiment: need X_hi > X_lo, got ({X_lo}, {X_hi}]")
    sysm = ws.system
    W, v0, k = sysm.W, sysm.v0, sysm.k

    tables = _membership_tables(sysm, X_lo, X_hi)

    # Unweighted average over every n in range: one progression count per form.
    total_hits_all = 0
    for form, table in zip(sysm.forms, tables):
        # table.lo = form(X_lo + 1), so the form's image is every a-th bit
        total_hits_all += int(np.count_nonzero(table.bits[:: form.a]))
    overall_avg = Fraction(total_hits_all, X_hi - X_lo)

    first_n = X_lo + 1 + ((v0 - (X_lo + 1)) % W)
    class_size = len(range(first_n, X_hi + 1, W))
    if class_size == 0:
        return WeightedScanReport(
            X_lo=X_lo, X_hi=X_hi, R=ws.R, k=k, W=W, v0=v0,
            class_size=0,
            sum_w=Fraction(0), sum_hits_w=Fraction(0),
            weighted_avg=None, class_unweighted_avg=None,
            overall_unweighted_avg=overall_avg, empty_class=True,
        )

    lam_scaled, denom = _scaled_lambdas(ws)
    by_top: dict[int, list[int]] = {}
    for d in ws.support[1:]:
        by_top.setdefault(ws.support_factors[d][-1], []).append(d)
    roots = {p: roots_mod(p, sysm.forms) for p in by_top}

    hit_total = 0
    sum_w_scaled = 0
    sum_hw_scaled = 0
    step = CLASS_CHUNK * W
    for chunk_lo in range(first_n, X_hi + 1, step):
        ns = np.arange(chunk_lo, min(chunk_lo + step, X_hi + 1), W, dtype=np.int64)
        hits = np.zeros(ns.size, dtype=np.int64)
        for form, table in zip(sysm.forms, tables):
            hits += table.bits[form.a * ns + form.b - table.lo]
        hit_total += int(hits.sum())
        t = _chunk_divisor_sums(chunk_lo, ns.size, W, by_top, roots, lam_scaled)
        w = t * t
        # builtin sum, not ndarray.sum: it adds totals that fit a C long
        # without allocating, and costs about the same on big ones
        sum_w_scaled += sum(w.tolist())
        sum_hw_scaled += sum((w * hits).tolist())

    d2 = denom * denom
    sum_w = Fraction(sum_w_scaled, d2)
    sum_hits_w = Fraction(sum_hw_scaled, d2)
    empty = sum_w_scaled == 0
    return WeightedScanReport(
        X_lo=X_lo, X_hi=X_hi, R=ws.R, k=k, W=W, v0=v0,
        class_size=class_size,
        sum_w=sum_w,
        sum_hits_w=sum_hits_w,
        weighted_avg=None if empty else Fraction(sum_hw_scaled, sum_w_scaled),
        class_unweighted_avg=Fraction(hit_total, class_size),
        overall_unweighted_avg=overall_avg,
        empty_class=empty,
    )


@dataclass(frozen=True)
class WeightMassReport:
    """Measured weight mass vs (X/W) * Q_nu with the explicit per-pair bound."""

    X: int
    measured: Fraction
    main_term: Fraction
    bound: Fraction

    @property
    def within_bound(self) -> bool:
        return abs(self.measured - self.main_term) <= self.bound


def check_weight_mass(ws: WeightSystem, report: WeightedScanReport) -> WeightMassReport:
    """Compare sum of w_n over (X, 2X] in the class against (X/W) Q_nu.

    report is the weighted_experiment of ws over (X, 2X]; its sum_w is the
    measured mass.  The discrepancy bound is
    sum_{d,e} |lambda_d lambda_e| prod_{p|de} nu(p): one unit per
    (d, e, residue class) triple, since each residue class mod W[d,e]
    contributes X/(W[d,e]) + theta with |theta| < 1.
    """
    X = report.X_lo
    if report.X_hi != 2 * X or report.R != ws.R:
        raise DomainError(
            f"check_weight_mass: need a report over (X, 2X] at R={ws.R}, got ({X}, {report.X_hi}] at R={report.R}"
        )
    main = Fraction(X, ws.system.W) * ws.Q_nu
    lam_scaled, denom = _scaled_lambdas(ws)
    abs_scaled = {d: abs(v) for d, v in lam_scaled.items()}
    bound = Fraction(_pair_sum(ws, abs_scaled, ws.nu_table), denom * denom)
    return WeightMassReport(X=X, measured=report.sum_w, main_term=main, bound=bound)


# ---------------------------------------------------------------------------
# Dimension-kappa summation check.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummationReport:
    """Left side (exact enumeration) vs right side (asymptotic main term)."""

    kappa: float
    R: int
    lhs: float
    rhs: float
    singular_series: float
    gamma_factor: float
    integral: float

    @property
    def rel_error(self) -> float:
        return abs(self.lhs - self.rhs) / self.rhs if self.rhs else math.inf


def gamma_p3_indicator(p: int) -> float:
    """Density 1 on primes = 3 (mod 4), 0 elsewhere (dimension 1/2)."""
    return 1.0 if p % 4 == 3 else 0.0


def verify_sieve_summation(kappa: float, gamma_spec: Callable[[int], float], R: int) -> SummationReport:
    """Compare sum_{r<R} mu^2(r) prod_{p|r} gamma/(p-gamma) against
    S_gamma (ln R)^kappa / Gamma(kappa) * int_0^1 t^(kappa-1) dt,
    where S_gamma = prod_{p<R} (1 - gamma(p)/p)^(-1) (1 - 1/p)^kappa and the
    integral is 1/kappa.

    The left side is an exact enumeration over the squarefree support; the
    right side is the asymptotic main term.  gamma must satisfy
    0 <= gamma(p) <= min(2 kappa, p/2).
    """
    if R < 2:
        raise DomainError(f"verify_sieve_summation: R must be >= 2, got {R}")
    if kappa <= 0:
        raise DomainError(f"verify_sieve_summation: kappa must be > 0, got {kappa}")

    primes = [int(p) for p in sieve_primes(R - 1)]
    gam: dict[int, float] = {}
    for p in primes:
        gp = float(gamma_spec(p))
        if not 0.0 <= gp <= min(2.0 * kappa, 0.5 * p):
            raise DomainError(f"verify_sieve_summation: gamma({p}) = {gp} outside [0, min(2 kappa, p/2)]")
        gam[p] = gp
    active = [p for p in primes if gam[p] > 0.0]
    ratios = {p: gam[p] / (p - gam[p]) for p in active}

    terms: list[float] = []
    for _, facs in squarefree_products(active, R):
        # multiplied in ascending prime order, so each term's rounding is fixed
        wt = 1.0
        for p in facs:
            wt *= ratios[p]
        terms.append(wt)
    lhs = math.fsum(terms)

    log_parts = [
        -math.log1p(-gam[p] / p) + kappa * math.log1p(-1.0 / p) for p in primes
    ]
    s_gamma = math.exp(math.fsum(log_parts))

    integral = 1.0 / kappa
    gamma_factor = math.gamma(kappa)
    rhs = s_gamma * math.log(R) ** kappa / gamma_factor * integral
    return SummationReport(
        kappa=kappa,
        R=R,
        lhs=lhs,
        rhs=rhs,
        singular_series=s_gamma,
        gamma_factor=gamma_factor,
        integral=integral,
    )
