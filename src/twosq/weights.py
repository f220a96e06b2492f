"""Exact-rational squared-divisor-sum sieve weights and their experiments.

The weight on n is w_n = (sum over d | prod_i L_i(n) of lambda_d)^2 when
n = v0 (mod W), else 0.  The support of lambda is built from its primes, the
p = 3 (mod 4) below R coprime to W*p0 with nu(p) > 0, nu(p) being the number
of roots of the form product in [1, p): it is d = 1 and every squarefree
d < R made of them.  Then

  lambda_d = mu(d) (prod_{p|d} p/nu(p)) sum_{r: d|r} prod_{p|r} nu(p)/(p - nu(p)),

the two quadratic forms

  Q_nu     = sum_{d,e} lambda_d lambda_e prod_{p|de} nu(p)/p
  Q_nu-1   = sum_{d,e} lambda_d lambda_e prod_{p|de} (nu(p)-1)/(p-1)

diagonalize exactly to

  Q_nu     = sum_r prod_{p|r} nu(p)/(p - nu(p)),
  Q_nu-1   = sum_r (ystar_r)^2 prod_{p|r} (nu(p)-1)/(p - nu(p)),

with ystar_r = r * sum_{s: r|s} 1/phi(s) on the part of the support where
nu(p) > 1 for all p | r, and 0 elsewhere.  The sums over r in lambda_d and
over s in ystar_r run over support multiples; `_multiple_sums` gives them for
every element at once, a support prime at a time (the zeta transform over the
squarefree lattice).  Everything is computed in exact rational arithmetic:
Fractions, or integer numerator/denominator pairs where a sum runs over
every pair of support elements; the identities are verified by computing
both routes.  verify_sieve_summation checks the summation lemma at the
paper's sieve dimension 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .admissible import AdmissibleSystem
from .arith import nu as nu_of, roots_mod
from .errors import DomainError, ResourceError
from .primes import check_sieve_limit, p3_primes, sieve_primes, squarefree_products
from .sieve import MAX_SEGMENT, SegmentTable, sieve_segment

# Direct double sums are O(|support|^2); refuse beyond this many pairs.
MAX_SUPPORT_PAIRS = 4_000_000

# Class members per chunk of a weighted experiment.  Only one chunk's hit
# counts and divisor sums (squared one Python int at a time) are held at once,
# so the experiment's memory does not grow with the class beyond one
# membership table per run of forms.  A chunk costs one index add per support
# element (see _chunk_divisor_sums), so small chunks are cheap: on the seed-0
# bench gpy-demo (68,861 members, support 119) the traced peak is 0.90 MiB at
# 2^12 against 1.57 MiB at 2^13.
CLASS_CHUNK = 1 << 12


@dataclass(frozen=True)
class WeightSystem:
    """Divisor-sum weights for one admissible system at support cutoff R.

    support lists 1 and the admissible squarefree d < R with their prime tuples.
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

    @cached_property
    def lam_denom(self) -> int:  # D, the lcm of the lambda denominators
        return math.lcm(*(v.denominator for v in self.lam.values()))

    @cached_property
    def lam_scaled(self) -> dict[int, int]:  # lambda_d * D as integers
        return {d: v.numerator * (self.lam_denom // v.denominator) for d, v in self.lam.items()}

    def check_pair_budget(self, who: str) -> None:
        """Refuse, in the name of `who`, a support of more than MAX_SUPPORT_PAIRS
        pairs: the budget of every direct pair sum over it."""
        if len(self.support) ** 2 > MAX_SUPPORT_PAIRS:
            raise ResourceError(f"{who}: |support|^2 = {len(self.support) ** 2} exceeds {MAX_SUPPORT_PAIRS}; reduce R")

    def to_json_dict(self) -> dict:
        return {
            "R": self.R,
            "support": list(self.support),
            "lambda": {str(d): self.lam[d] for d in self.support},
            "Q_nu": self.Q_nu,
            "Q_nu_minus1": self.Q_nu_minus1,
        }


def build_weights(system: AdmissibleSystem, R: int) -> WeightSystem:
    """Exact lambda_d, ystar_r and diagonal quadratic forms for cutoff R.

    The support is built from its primes: each p = 3 (mod 4) below R coprime
    to W*p0 with nu(p) > 0.  A prime with nu(p) = 0 (every root of the form
    product at n = 0, as for {n+3} at p = 3) is dropped before any product is
    formed: lambda would vanish on every multiple of such p, so no weight
    changes, and dropping it keeps the closed-form ystar route equal to its
    defining route.  d = 1, the empty product, is always in the support, so
    R = 1 and R = 2 both give the support (1,), with lambda_1 = Q_nu = 1.
    """
    if R < 1:
        raise DomainError(f"build_weights: R must be >= 1, got {R}")
    check_sieve_limit("build_weights", R - 1)
    primes = [p for p in p3_primes(R - 1).tolist() if math.gcd(p, system.W * system.p0) == 1]
    nu_table = dict(system.nu_table) | {p: nu_of(p, system.forms) for p in primes if p not in system.nu_table}
    for p, v in nu_table.items():
        if v >= p:
            raise DomainError(f"build_weights: nu({p}) = {v} >= {p}; system not usable at this prime")
    supp = sorted(squarefree_products([p for p in primes if nu_table[p]], R))
    support = tuple(r for r, _ in supp)
    factors = {r: facs for r, facs in supp}

    def prod_nu(facs: tuple[int, ...], f: Callable[[int, int], Fraction]) -> Fraction:
        """prod over the primes p of a support element of f(p, nu(p))."""
        return math.prod((f(p, nu_table[p]) for p in facs), start=Fraction(1))

    tail = _multiple_sums(supp, {r: prod_nu(facs, lambda p, v: Fraction(v, p - v)) for r, facs in supp})
    phi_tail = _multiple_sums(supp, {r: Fraction(1, math.prod(p - 1 for p in facs)) for r, facs in supp})
    lam = {d: (-1) ** len(facs) * prod_nu(facs, lambda p, v: Fraction(p, v)) * tail[d] for d, facs in supp}
    ystar = {r: r * phi_tail[r] if all(nu_table[p] > 1 for p in facs) else Fraction(0) for r, facs in supp}
    q_nu1 = sum((ystar[r] ** 2 * prod_nu(facs, lambda p, v: Fraction(v - 1, p - v)) for r, facs in supp), Fraction(0))
    return WeightSystem(
        system=system,
        R=R,
        support=support,
        support_factors=factors,
        nu_table=nu_table,
        lam=lam,
        ystar=ystar,
        Q_nu=tail[1],
        Q_nu_minus1=q_nu1,
    )


def _multiple_sums(supp: Sequence[tuple[int, tuple[int, ...]]], values: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """{d: sum of values[r] over support r with d | r}.

    The support is squarefree and closed under divisors, so this is the zeta
    transform over its lattice: for each support prime p in turn, every d
    adds the sum held at d * p, which is in the support only when p does not
    divide d.  The support is ascending, so each prime stops at the first
    d * p past its end.
    """
    acc = dict(values)
    top = supp[-1][0]
    for p in (r for r, facs in supp if len(facs) == 1):
        for d, _ in supp:
            dp = d * p
            if dp > top:
                break
            if dp in acc:
                acc[d] += acc[dp]
    return acc


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

    @property
    def identities_hold(self) -> bool:
        return self.Q_nu == self.diag_nu and self.Q_nu_minus1 == self.diag_nu_minus1


def _pair_sum(who: str, ws: WeightSystem, coeff: Mapping[int, int], f: Mapping[int, Fraction | int]) -> Fraction:
    """sum over support d, e with coeff_d coeff_e != 0 of coeff_d coeff_e F([d, e]),
    for the multiplicative F with F(p) = f[p]; a support of more than
    MAX_SUPPORT_PAIRS pairs is refused first, in the name of `who`, the
    public function that was called.

    The support is squarefree, so [d, e] = d * (e / gcd(d, e)) with coprime
    factors and F([d, e]) = F(d) F(e / gcd(d, e)); e / gcd(d, e) divides e,
    so it is a support element too, and F = A / B is tabulated once per
    element as integer products of the numerators and denominators of f.
    Each unordered pair is visited once: the diagonal plus twice the sum
    over d < e, kept per d as a pair of ints (n, den).  Each term c_e A / B
    is put in lowest terms t / b, as Fraction's product would, and added by
    Fraction's own step (Henrici; Knuth, TAOCP 2, 4.5.1): with
    g = gcd(den, b), n becomes n (b / g) + t (den / g) and den (den / g) b.
    The c_e are the integers lambda * D, which share most factors of B, so
    den stays far below the lcm of the B (1 bit against 7,177 for f = nu/p,
    k = 3, W = 21, R = 10^4).  This is still the direct double sum over
    pairs; it uses none of the diagonalizing identities, so it stays an
    independent check of the diagonal route.
    """
    ws.check_pair_budget(who)
    A = {d: math.prod(f[p].numerator for p in ws.support_factors[d]) for d in ws.support}
    B = {d: math.prod(f[p].denominator for p in ws.support_factors[d]) for d in ws.support}
    items = [(d, coeff[d]) for d in ws.support if coeff[d]]
    total = Fraction(0)
    for i, (d, c_d) in enumerate(items):
        n, den = 0, 1
        for e, c_e in items[i + 1 :]:
            m = e // math.gcd(d, e)
            t, b = c_e * A[m], B[m]
            g = math.gcd(t, b)
            t, b = t // g, b // g
            g = math.gcd(den, b)
            s = den // g
            n = n * (b // g) + t * s
            den = s * b
        total += Fraction(c_d * A[d] * (c_d * den + 2 * n), B[d] * den)
    return total


def quadratic_forms(ws: WeightSystem) -> QuadFormReport:
    """Both quadratic forms by the direct O(|support|^2) double sum."""
    nu_t = ws.nu_table
    d2 = ws.lam_denom**2
    q_nu = Fraction(_pair_sum("quadratic_forms", ws, ws.lam_scaled, {p: Fraction(v, p) for p, v in nu_t.items()}), d2)
    q_nu1 = Fraction(
        _pair_sum("quadratic_forms", ws, ws.lam_scaled, {p: Fraction(v - 1, p - 1) for p, v in nu_t.items()}), d2
    )
    return QuadFormReport(Q_nu=q_nu, Q_nu_minus1=q_nu1, diag_nu=ws.Q_nu, diag_nu_minus1=ws.Q_nu_minus1)


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
    """Sums from one weighted scan over (X_lo, X_hi] and the averages they give.

    hits(n) counts the forms whose value at n is a sum of two squares, and
    class_hits is its sum over the class.  weighted_avg is None (and
    empty_class is set) when the weight mass is empty, as it is for an empty
    class; class_unweighted_avg is None when the class is empty.
    """

    X_lo: int
    X_hi: int
    R: int
    k: int
    W: int
    v0: int
    class_size: int
    class_hits: int
    sum_w: Fraction
    sum_hits_w: Fraction
    overall_unweighted_avg: Fraction

    @property
    def empty_class(self) -> bool:
        return self.sum_w == 0

    @property
    def weighted_avg(self) -> Fraction | None:
        return None if self.empty_class else self.sum_hits_w / self.sum_w

    @property
    def class_unweighted_avg(self) -> Fraction | None:
        return Fraction(self.class_hits, self.class_size) if self.class_size else None

    def to_json_dict(self) -> dict:
        return {
            "X_lo": self.X_lo,
            "X_hi": self.X_hi,
            "R": self.R,
            "k": self.k,
            "W": self.W,
            "v0": self.v0,
            "class_size": self.class_size,
            "sum_w": self.sum_w,
            "sum_hits_w": self.sum_hits_w,
            "weighted_avg": self.weighted_avg,
            "class_unweighted_avg": self.class_unweighted_avg,
            "overall_unweighted_avg": self.overall_unweighted_avg,
            "weighted_avg_float": None if self.weighted_avg is None else float(self.weighted_avg),
            "class_unweighted_avg_float": None
            if self.class_unweighted_avg is None
            else float(self.class_unweighted_avg),
            "overall_unweighted_avg_float": float(self.overall_unweighted_avg),
            "empty_class": self.empty_class,
        }


def _class_offsets(ws: WeightSystem, first_n: int) -> dict[int, np.ndarray]:
    """{d: the class indices i mod d at which support d > 1 divides the form
    product at n = first_n + W i}: a squarefree d divides it exactly when
    n mod d is in the CRT product of its primes' root sets.  Walking the
    support ascending, a prime p carries its roots r to (r - first_n) / W
    mod p (p is coprime to W), and d = e p, p its largest prime, joins each
    offset of e with each of p by the CRT.  is_p3_admissible refuses a form
    with p | gcd(a, b), which would cover every residue, so each form has at
    most one root mod p and d at most k^omega(d) offsets."""
    W, forms = ws.system.W, ws.system.forms
    offsets: dict[int, list[int]] = {}
    for d in ws.support[1:]:
        p = ws.support_factors[d][-1]
        e = d // p
        if e == 1:
            offsets[d] = [(r - first_n) * pow(W, -1, p) % p for r in roots_mod(p, forms)]
        else:
            inv = pow(e, -1, p)
            offsets[d] = [a + e * ((b - a) * inv % p) for a in offsets[e] for b in offsets[p]]
    return {d: np.array(offs, dtype=np.int64) for d, offs in offsets.items()}


def _chunk_divisor_sums(c0: int, size: int, offsets: dict[int, np.ndarray], lam_scaled: dict) -> np.ndarray:
    """Exact sum of scaled lambda_d over support d dividing the form product,
    per class member c0 + i, 0 <= i < size, as an object array of Python ints:
    d = 1 divides it at every member, and each d > 1 at every d-th member from
    each of its class offsets.  np.add.at adds in place with no gathered copy
    (on the seed-0 bench gpy-demo, 40 KB less peak RSS than `totals[ix] +=`),
    and no Python code runs per n."""
    totals = np.full(size, lam_scaled[1], dtype=object)
    for d, offs in offsets.items():
        ix = ((offs - c0) % d)[:, None] + np.arange(0, size, d)
        np.add.at(totals, ix[ix < size], lam_scaled[d])
    return totals


def check_form_windows(forms: Sequence, X_lo: int, X_hi: int) -> None:
    """Refuse, in weighted_experiment's name, an empty (X_lo, X_hi] or one over
    which a form's values span more than MAX_SEGMENT: checked before any table
    is sieved, and by a caller before it builds the weights."""
    if X_hi <= X_lo:
        raise DomainError(f"weighted_experiment: need X_hi > X_lo, got ({X_lo}, {X_hi}]")
    for form in forms:
        span = form(X_hi) - form(X_lo + 1) + 1
        if span > MAX_SEGMENT:
            raise ResourceError(f"weighted_experiment: {form} spans {span} values, past budget {MAX_SEGMENT}")


def _membership_tables(forms: Sequence, X_lo: int, X_hi: int) -> list[SegmentTable]:
    """A membership table per form over its values on (X_lo, X_hi].  A run of
    forms of one leading coefficient whose windows overlap shares one, closed
    before its span would pass MAX_SEGMENT.  Each form's own window is checked
    by check_form_windows before any run is sieved; sieve_segment refuses a
    value past 2^63 - 1."""
    check_form_windows(forms, X_lo, X_hi)
    runs: list[list] = [[]]
    for form in sorted(set(forms), key=lambda f: (f.a, f.b)):  # in a run, the last form reaches furthest
        run, lo, hi = runs[-1], form(X_lo + 1), form(X_hi)
        if run and (form.a != run[0].a or lo > run[-1](X_hi) or hi - run[0](X_lo + 1) >= MAX_SEGMENT):
            runs.append(run := [])
        run.append(form)
    tables = {}
    for run in runs:
        tables.update(dict.fromkeys(run, sieve_segment(run[0](X_lo + 1), run[-1](X_hi))))
    return [tables[form] for form in forms]


def weighted_experiment(ws: WeightSystem, X_lo: int, X_hi: int) -> WeightedScanReport:
    """Weighted and unweighted membership-hit averages over (X_lo, X_hi].

    Computes sum w_n, sum hits(n) w_n over the class n = v0 (mod W), the
    weighted average of hits, the unweighted average over the same class,
    and the unweighted average over all n in range, reading hits from one
    membership table per run of forms.  The class is processed serially in
    chunks of CLASS_CHUNK members.  In each chunk one pass over the support
    adds the integer lambda_d * D (D the common lambda denominator) to the
    totals t_n of the members d divides, read from its class offsets (found
    once per experiment); then sum w_n = sum t_n^2 / D^2.  Every sum is in
    Python integers, so the results are exact and do not depend on the
    chunking.
    """
    sysm = ws.system
    W, v0, k = sysm.W, sysm.v0, sysm.k

    # One strided view per form: element i is the membership of its value at
    # n = X_lo + 1 + i.  The unweighted average over every n counts the views.
    tables = _membership_tables(sysm.forms, X_lo, X_hi)
    views = [t.bits[f(X_lo + 1) - t.lo :: f.a][: X_hi - X_lo] for f, t in zip(sysm.forms, tables)]
    total_hits_all = sum(int(np.count_nonzero(view)) for view in views)

    # the class is the view elements i0, i0 + W, ...; with none the chunk loop below runs zero times
    i0 = (v0 - (X_lo + 1)) % W
    offsets = _class_offsets(ws, X_lo + 1 + i0)

    hit_total = sum_w_scaled = sum_hw_scaled = 0
    step = CLASS_CHUNK * W
    for i in range(i0, X_hi - X_lo, step):
        hits = np.sum([view[i : i + step : W] for view in views], axis=0, dtype=np.int64)
        hit_total += int(hits.sum())
        t = _chunk_divisor_sums((i - i0) // W, hits.size, offsets, ws.lam_scaled)
        for v, h in zip(t.tolist(), hits.tolist()):
            sq = v * v
            sum_w_scaled += sq
            sum_hw_scaled += h * sq

    d2 = ws.lam_denom**2
    return WeightedScanReport(
        X_lo=X_lo, X_hi=X_hi, R=ws.R, k=k, W=W, v0=v0,
        class_size=len(range(i0, X_hi - X_lo, W)),
        class_hits=hit_total,
        sum_w=Fraction(sum_w_scaled, d2),
        sum_hits_w=Fraction(sum_hw_scaled, d2),
        overall_unweighted_avg=Fraction(total_hits_all, X_hi - X_lo),
    )


@dataclass(frozen=True)
class WeightMassReport:
    """Measured weight mass vs (X/W) * Q_nu with the explicit per-pair bound."""

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
    abs_scaled = {d: abs(v) for d, v in ws.lam_scaled.items()}
    bound = Fraction(_pair_sum("check_weight_mass", ws, abs_scaled, ws.nu_table), ws.lam_denom**2)
    return WeightMassReport(measured=report.sum_w, main_term=main, bound=bound)


# ---------------------------------------------------------------------------
# Dimension-1/2 summation check.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummationReport:
    """Left side (exact enumeration) vs right side (asymptotic main term)."""

    R: int
    lhs: float
    singular_series: float

    @property
    def rhs(self) -> float:
        return self.singular_series * math.log(self.R) ** 0.5 / math.gamma(0.5) * 2.0

    @property
    def rel_error(self) -> float:
        return abs(self.lhs - self.rhs) / self.rhs if self.rhs else math.inf


def verify_sieve_summation(R: int) -> SummationReport:
    """The paper's dimension-1/2 sieve, density 1 on the primes p = 3 (mod 4):
    compare sum_{r<R} mu^2(r) prod_{p|r} 1/(p-1), over the r made of those
    primes, against S (ln R)^(1/2) / Gamma(1/2) * int_0^1 t^(-1/2) dt, where
    S = prod_{p<R, p=3 (4)} (1 - 1/p)^(-1) * prod_{p<R} (1 - 1/p)^(1/2).

    The left side is an exact enumeration over the squarefree support; the
    right side is the asymptotic main term.
    """
    if R < 2:
        raise DomainError(f"verify_sieve_summation: R must be >= 2, got {R}")
    check_sieve_limit("verify_sieve_summation", R - 1)

    primes = [int(p) for p in sieve_primes(R - 1)]
    ratios = {p: 1.0 / (p - 1.0) for p in primes if p % 4 == 3}

    terms: list[float] = []
    for _, facs in squarefree_products(list(ratios), R):
        # multiplied in ascending prime order, so each term's rounding is fixed
        wt = 1.0
        for p in facs:
            wt *= ratios[p]
        terms.append(wt)
    lhs = math.fsum(terms)

    log_parts = [
        (-math.log1p(-1.0 / p) if p % 4 == 3 else 0.0) + 0.5 * math.log1p(-1.0 / p) for p in primes
    ]
    return SummationReport(R=R, lhs=lhs, singular_series=math.exp(math.fsum(log_parts)))
