"""Systems of linear forms avoiding full residue covers mod primes = 3 (mod 4).

A system {L_i(n) = a_i n + b_i} with positive coefficients is admissible
here when for every prime p = 3 (mod 4) some residue n (mod p) keeps the
product of the forms coprime to p.  Only finitely many primes need checking:
any p > k that divides no gcd(a_i, b_i) has at most k < p roots.

The module also builds the small modulus W (product of primes = 3 (mod 4)
up to 2 (ln X)^(1/3), minus an optional excluded prime p0) and the shift v0
with gcd(L_j(v0), W) = 1 for all j.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

from .arith import nu, p1_numbers, roots_mod
from .errors import AdmissibilityError, DomainError
from .primes import INT64_MAX, factorize, is_prime, p3_primes


@dataclass(frozen=True)
class LinearForm:
    """L(n) = a*n + b with 0 < a, b <= 2^63 - 1."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b <= 0:
            raise DomainError(f"LinearForm: coefficients must be positive, got a={self.a}, b={self.b}")
        if max(self.a, self.b) > INT64_MAX:
            raise DomainError(f"LinearForm: coefficients must be <= 2^63 - 1, got a={self.a}, b={self.b}")

    def __call__(self, n: int) -> int:
        return self.a * n + self.b

    def __str__(self) -> str:
        return f"{self.a}n+{self.b}" if self.a != 1 else f"n+{self.b}"


def is_p3_admissible(forms: Sequence[LinearForm]) -> bool:
    """True iff no prime p = 3 (mod 4) has all residues covering the product.

    Exhaustive check for p <= k and for p dividing some gcd(a_i, b_i); every
    other prime = 3 (mod 4) has at most k < p covered residues.
    """
    if not forms:
        raise DomainError("is_p3_admissible: forms must be nonempty")
    k = len(forms)
    candidates = set(p3_primes(k).tolist())
    for form in forms:
        g_ = math.gcd(form.a, form.b)
        candidates.update(p for p in factorize(g_) if p % 4 == 3)
    for p in sorted(candidates):
        if len(roots_mod(p, forms)) == p:
            return False
    return True


def build_default_set(k: int, p0: int = 1) -> list[LinearForm]:
    """Forms n + h_i where h_1..h_k are the first k integers composed of
    primes = 1 (mod 4) and coprime to p0.  Always admissible: at n = 0 every
    form value has no factor = 3 (mod 4)."""
    if k < 1:
        raise DomainError(f"build_default_set: k must be >= 1, got {k}")
    return [LinearForm(1, h) for h in p1_numbers(k, p0 if p0 > 1 else None)]


def compute_W(X: int, p0: int = 1) -> int:
    """Product of primes p <= 2 (ln X)^(1/3) with p = 3 (mod 4), p != p0."""
    if X < 3:
        raise DomainError(f"compute_W: X must be >= 3, got {X}")
    threshold = 2.0 * math.log(X) ** (1.0 / 3.0)
    return math.prod(p for p in p3_primes(int(threshold)).tolist() if p != p0)


def find_v0(forms: Sequence[LinearForm], W: int) -> int:
    """Least v0 in [0, W) with gcd(L_j(v0), W) = 1 for every j.

    Found per prime p | W (allowed residue sets) and combined; since W is
    tiny at these scales the combination is an exhaustive scan, which makes
    'least' exact.
    """
    if W < 1:
        raise DomainError(f"find_v0: W must be >= 1, got {W}")
    if W == 1:
        return 0
    # Per-prime feasibility first, for a precise error on failure.
    for p in factorize(W):
        if len(roots_mod(p, forms)) == p:
            raise AdmissibilityError(
                f"find_v0: every residue mod {p} hits the form product; no valid v0"
            )
    for v in range(W):
        if all(math.gcd(form(v), W) == 1 for form in forms):
            return v
    raise AdmissibilityError("find_v0: no valid residue mod W (unreachable for admissible forms)")


def size_conditions(forms: Sequence[LinearForm], X: int) -> list[str]:
    """Violations of the size conditions k <= (ln X)^(1/5), a_i <= (ln X)^(1/3),
    a_i odd, b_i < X.  Informational at desk scale; hard errors only in
    paper-strict mode."""
    logx = math.log(X) if X > 1 else 0.0
    k = len(forms)
    out = []
    if k > logx ** 0.2:
        out.append(f"k={k} exceeds (ln X)^(1/5)={logx ** 0.2:.3f}")
    for form in forms:
        if form.a > logx ** (1.0 / 3.0):
            out.append(f"a={form.a} exceeds (ln X)^(1/3)={logx ** (1/3):.3f}")
        if form.a % 2 == 0:
            out.append(f"a={form.a} is even")
        if form.b >= X:
            out.append(f"b={form.b} is not < X={X}")
    return out


@dataclass(frozen=True)
class AdmissibleSystem:
    """Validated admissible system with its modulus data.

    forms are pairwise distinct and admissible; W is squarefree with all
    prime factors = 3 (mod 4) and p0 excluded; gcd(L_j(v0), W) = 1 for all j.
    nu_table caches nu(p) for the primes dividing W.
    """

    forms: tuple[LinearForm, ...]
    p0: int
    W: int
    v0: int
    nu_table: Mapping[int, int]

    @property
    def k(self) -> int:
        return len(self.forms)

    @classmethod
    def build(
        cls,
        forms: Sequence[LinearForm],
        p0: int = 1,
        W: int | None = None,
        X: int | None = None,
    ) -> "AdmissibleSystem":
        forms = tuple(forms)
        if len(set(forms)) != len(forms):
            raise DomainError("AdmissibleSystem: forms must be pairwise distinct")
        if p0 != 1 and not is_prime(p0):
            raise DomainError(f"AdmissibleSystem: p0 must be 1 or prime, got {p0}")
        if not is_p3_admissible(forms):
            raise AdmissibilityError("AdmissibleSystem: forms are not admissible")
        if p0 > 1:
            for form in forms:
                if math.gcd(2 * p0, form.a) != 1:
                    raise DomainError(
                        f"AdmissibleSystem: gcd(2*p0, a)={math.gcd(2 * p0, form.a)} != 1 for {form}"
                    )
        if W is None:
            if X is None:
                raise DomainError("AdmissibleSystem: provide W or X")
            W = compute_W(X, p0)
        else:
            for p, e in factorize(W).items():
                if e > 1 or p % 4 != 3:
                    raise DomainError(f"AdmissibleSystem: W={W} is not a squarefree product of primes = 3 (mod 4)")
                if p == p0:
                    raise DomainError(f"AdmissibleSystem: p0={p0} divides W={W}")
        if X is not None:
            for msg in size_conditions(forms, X):
                warnings.warn(f"size condition violated: {msg}", stacklevel=2)
        v0 = find_v0(forms, W)
        nu_table = {p: nu(p, forms) for p in factorize(W)}
        return cls(forms=forms, p0=p0, W=W, v0=v0, nu_table=nu_table)

    def to_json_dict(self) -> dict:
        return {
            "forms": [[form.a, form.b] for form in self.forms],
            "p0": self.p0,
            "W": self.W,
            "v0": self.v0,
        }
