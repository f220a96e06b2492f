"""Delay-differential sieve functions: Buchstab omega, its envelope sup,
and the half-dimensional sieve pair F, f.

All three satisfy method-of-steps recurrences:

    omega(u) = 1/u                 on (0, 2],
    (u omega(u))'        = omega(u-1)             for u >= 2,

    F(s) = 2 e^(gamma/2) / sqrt(pi s)             on (0, 2],
    f(s) = 0                                      on [0, 1],
    (sqrt(s) F(s))'      = (1/2) s^(-1/2) f(s-1)  for s > 2,
    (sqrt(s) f(s))'      = (1/2) s^(-1/2) F(s-1)  for s > 1.

One integration of the f-equation from its zero initial data gives the
closed form sqrt(s) f(s) = (2 e^(gamma/2)/sqrt(pi)) * asinh(sqrt(s-1)) on
[1, 3]; tables start marching from there.

Tabulation uses a uniform dyadic grid (step 1/4096) so that the
unit delay is always grid-aligned.  Each marching step integrates its
right-hand side by Simpson's rule; the midpoint delay value is obtained by
half-offset cubic interpolation with stencils that never straddle a window
junction (the functions have derivative discontinuities there).  The first
F window (2, 4] is special: f(s-1) ~ C sqrt(s-2) at its left edge, so each
step is integrated by Gauss-Legendre after the substitution t = 2 + v^2,
which removes the corner exactly.

Accuracy is estimated by rebuilding at half the step (Richardson); the
builders refuse to return tables whose estimate exceeds 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import ConvergenceError, DomainError
from .reportio import check_rows

# Euler's constant, 30 digits.
EULER_GAMMA = 0.577215664901532860606512090082

E_GAMMA = math.exp(EULER_GAMMA)
E_NEG_GAMMA = math.exp(-EULER_GAMMA)

# F(1) = 2 e^(gamma/2)/sqrt(pi); also the constant in the f closed form.
_HALFDIM_A = 2.0 * math.exp(EULER_GAMMA / 2.0) / math.sqrt(math.pi)

# The one table grid: step, omega table end, F/f table end (even), and the
# least s at which F is evaluated.
TABLE_H = 1.0 / 4096.0
OMEGA_UMAX = 50
HALFDIM_SMAX = 40
HALFDIM_SMIN = 1e-3

# Table error budget (Richardson estimate must come in under this).
TABLE_TOL = 1e-9

# Envelope threshold defining where the sup search for g may stop.
G_ENVELOPE_EPS = 1e-9
G_SEARCH_CAP = 50.0

# Known strict bound g(t) > 1: below this resolution the sup is reported as
# just above 1 rather than as numerical noise around it.
G_RESOLUTION_FLOOR = 1e-12

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

# Half-offset cubic interpolation weights: value at node0 + 1.5h from the
# four nodes [0,1,2,3]h (centered), and the two one-sided variants used when
# a window junction sits at the stencil edge.
_MID_CENTER = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
_MID_RIGHT = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0  # eval at node0 + 0.5h
_MID_LEFT = np.array([1.0, -5.0, 15.0, 5.0]) / 16.0  # eval at node0 + 2.5h


def omega_closed(u: float) -> float:
    """omega on its initial interval (0, 2]."""
    return 1.0 / u


def halfdim_F_closed(s: float) -> float:
    """F on its initial interval (0, 2]."""
    return _HALFDIM_A / math.sqrt(s)


def halfdim_f_closed(s: float) -> float:
    """f on [0, 3]: zero up to 1, then the one-step asinh integral."""
    if s <= 1.0:
        return 0.0
    return _HALFDIM_A * math.asinh(math.sqrt(s - 1.0)) / math.sqrt(s)


@dataclass(frozen=True)
class DelayTable:
    """Uniform-grid tabulation of one delay-differential function.

    values[i] is the function at grid0 + i*h.  Window junctions (where
    higher derivatives jump) sit at indices kink_start, kink_start +
    kink_stride, ...; interpolation stencils never straddle them.
    """

    grid0: float
    h: float
    u_max: float
    values: np.ndarray = field(repr=False)
    kink_start: int
    kink_stride: int
    err_estimate: float

    def _is_kink(self, idx: int) -> bool:
        return idx >= self.kink_start and (idx - self.kink_start) % self.kink_stride == 0

    def interp(self, u: float) -> float:
        """Cubic interpolation on the table (u within [grid0, u_max])."""
        pos = (u - self.grid0) / self.h
        n = len(self.values)
        base = int(math.floor(pos))
        base = min(max(base, 0), n - 2)
        s0 = base - 1
        if self._is_kink(base):
            s0 = base
        elif self._is_kink(base + 1):
            s0 = base - 2
        s0 = min(max(s0, 0), n - 4)
        x = pos - s0
        w = [
            ((x - 1) * (x - 2) * (x - 3)) / -6.0,
            (x * (x - 2) * (x - 3)) / 2.0,
            (x * (x - 1) * (x - 3)) / -2.0,
            (x * (x - 1) * (x - 2)) / 6.0,
        ]
        v = self.values
        return w[0] * v[s0] + w[1] * v[s0 + 1] + w[2] * v[s0 + 2] + w[3] * v[s0 + 3]

    @cached_property
    def envelope_argmax(self) -> np.ndarray:
        """The sup search index of `g`, computed on first use.

        The search for sup e^gamma * values stops at hi, two points past the
        last index where |e^gamma * value - 1| >= G_ENVELOPE_EPS, and at
        u = G_SEARCH_CAP; entry i (0 <= i <= hi) is the first index of the
        largest value in values[i : hi + 1], so the array has hi + 1 entries.
        """
        vals = self.values
        n = len(vals)
        env = np.abs(E_GAMMA * vals - 1.0) >= G_ENVELOPE_EPS
        last = int(np.max(np.flatnonzero(env))) if np.any(env) else 0
        cap_idx = int(min((G_SEARCH_CAP - self.grid0) / self.h, n - 1))
        w = vals[: min(last + 2, n - 1, cap_idx) + 1]
        # The first argmax of w[i:] is the first j >= i with w[j] >= every later value.
        suffix_max = np.maximum.accumulate(w[::-1])[::-1]
        marks = np.where(w == suffix_max, np.arange(len(w)), len(w))
        return np.minimum.accumulate(marks[::-1])[::-1]


def _window_mids(src: np.ndarray, bases: np.ndarray, kink_start: int, kink_stride: int) -> np.ndarray:
    """Values at grid0 + (bases + 1/2)h by half-offset cubic interpolation.

    Stencils are centered except where a junction sits at a stencil edge,
    in which case the one-sided variant on the smooth side is used.
    """
    b = bases
    out = (
        _MID_CENTER[0] * src[b - 1]
        + _MID_CENTER[1] * src[b]
        + _MID_CENTER[2] * src[b + 1]
        + _MID_CENTER[3] * src[b + 2]
    )
    kinks_at = lambda i: (i >= kink_start) & ((i - kink_start) % kink_stride == 0)
    right = kinks_at(b)
    if np.any(right):
        br = b[right]
        out[right] = (
            _MID_RIGHT[0] * src[br]
            + _MID_RIGHT[1] * src[br + 1]
            + _MID_RIGHT[2] * src[br + 2]
            + _MID_RIGHT[3] * src[br + 3]
        )
    left = kinks_at(b + 1)
    if np.any(left):
        bl = b[left]
        out[left] = (
            _MID_LEFT[0] * src[bl - 2]
            + _MID_LEFT[1] * src[bl - 1]
            + _MID_LEFT[2] * src[bl]
            + _MID_LEFT[3] * src[bl + 1]
        )
    return out


def _build_buchstab(h: float) -> np.ndarray:
    """Tabulate omega on [1, OMEGA_UMAX]; returns the value array."""
    n1 = round(1.0 / h)
    total = n1 * (OMEGA_UMAX - 1) + 1
    om = np.empty(total)
    u_head = 1.0 + np.arange(n1 + 1) * h
    om[: n1 + 1] = 1.0 / u_head

    w_cur = 1.0  # u*omega(u) = 1 at u = 2
    for m in range(2, OMEGA_UMAX):
        j0 = (m - 1) * n1
        j1 = j0 + n1
        f0 = om[j0 - n1 : j1 - n1]
        f1 = om[j0 - n1 + 1 : j1 - n1 + 1]
        if m == 2:
            t_mid = (m - 1.0) + (np.arange(n1) + 0.5) * h
            fm = 1.0 / t_mid
        else:
            bases = np.arange(j0 - n1, j1 - n1)
            fm = _window_mids(om, bases, kink_start=n1, kink_stride=n1)
        inc = (h / 6.0) * (f0 + 4.0 * fm + f1)
        w_vals = w_cur + np.cumsum(inc)
        us = 1.0 + (np.arange(j0 + 1, j1 + 1)) * h
        om[j0 + 1 : j1 + 1] = w_vals / us
        w_cur = w_vals[-1]
    return om


def _march_simpson(
    dst: np.ndarray,
    src: np.ndarray,
    j0: int,
    j1: int,
    n1: int,
    h: float,
    prod_start: float,
    src_kink_start: int,
    src_kink_stride: int,
) -> None:
    """March sqrt(s)*dst over grid indices (j0, j1] given the companion src.

    The recurrence integrated is (sqrt(s) dst(s))' = (1/2) s^(-1/2) src(s-1);
    dst and src share the grid with grid0 = 0.
    """
    js = np.arange(j0, j1)
    s0 = js * h
    s1 = (js + 1) * h
    sm = s0 + 0.5 * h
    g0 = 0.5 / np.sqrt(s0) * src[js - n1]
    g1 = 0.5 / np.sqrt(s1) * src[js - n1 + 1]
    mids = _window_mids(src, js - n1, src_kink_start, src_kink_stride)
    gm = 0.5 / np.sqrt(sm) * mids
    inc = (h / 6.0) * (g0 + 4.0 * gm + g1)
    prod = prod_start + np.cumsum(inc)
    dst[j0 + 1 : j1 + 1] = prod / np.sqrt(s1)


def _march_F_first_window(Fv: np.ndarray, n1: int, h: float) -> None:
    """March F over (2, 4] by per-step Gauss-Legendre in t = 2 + v^2.

    On this window f(t-1) has a sqrt corner at t = 2; the substitution makes
    the integrand analytic:
      d(sqrt(s) F) = A * v * asinh(v) / (sqrt(2+v^2) sqrt(1+v^2)) dv.
    """
    j0, j1 = 2 * n1, 4 * n1
    js = np.arange(j0, j1)
    v0 = np.sqrt(js * h - 2.0)
    v1 = np.sqrt((js + 1) * h - 2.0)
    half = 0.5 * (v1 - v0)
    mid = 0.5 * (v1 + v0)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    integ = (
        _HALFDIM_A
        * nodes
        * np.arcsinh(nodes)
        / (np.sqrt(2.0 + nodes**2) * np.sqrt(1.0 + nodes**2))
    )
    inc = half * (integ @ _GL_WEIGHTS)
    prod = _HALFDIM_A + np.cumsum(inc)  # sqrt(2) F(2) = A
    s1 = (js + 1) * h
    Fv[j0 + 1 : j1 + 1] = prod / np.sqrt(s1)


def _build_halfdim(h: float) -> tuple[np.ndarray, np.ndarray]:
    """Tabulate F and f on [0, HALFDIM_SMAX]; returns (F values, f values)."""
    n1 = round(1.0 / h)
    total = n1 * HALFDIM_SMAX + 1
    Fv = np.empty(total)
    fv = np.empty(total)

    ss = np.arange(total) * h
    Fv[0] = np.inf
    Fv[1 : 2 * n1 + 1] = _HALFDIM_A / np.sqrt(ss[1 : 2 * n1 + 1])
    fv[: n1 + 1] = 0.0
    top = min(3 * n1, total - 1)
    fv[n1 + 1 : top + 1] = (
        _HALFDIM_A * np.arcsinh(np.sqrt(ss[n1 + 1 : top + 1] - 1.0)) / np.sqrt(ss[n1 + 1 : top + 1])
    )

    _march_F_first_window(Fv, n1, h)
    f_prod = math.sqrt(3.0) * fv[3 * n1]  # sqrt(s) f(s) at s = 3
    w = 4
    while w <= HALFDIM_SMAX:
        j0, j1 = (w - 1) * n1, min((w + 1) * n1, total - 1)
        _march_simpson(fv, Fv, j0, j1, n1, h, f_prod, src_kink_start=2 * n1, src_kink_stride=2 * n1)
        f_prod = math.sqrt(j1 * h) * fv[j1]
        if w < HALFDIM_SMAX:
            k0, k1 = w * n1, min((w + 2) * n1, total - 1)
            F_prod = math.sqrt(w) * Fv[w * n1]
            _march_simpson(Fv, fv, k0, k1, n1, h, F_prod, src_kink_start=n1, src_kink_stride=2 * n1)
        w += 2
    return Fv, fv


def _richardson(vals_h: np.ndarray, vals_h2: np.ndarray, start_idx: int) -> float:
    """Max |table(h) - table(h/2)| over the marched region."""
    coarse = vals_h[start_idx:]
    fine = vals_h2[2 * start_idx :: 2]
    return float(np.max(np.abs(coarse - fine))) if coarse.size else 0.0


@cache
def buchstab_table() -> DelayTable:
    om = _build_buchstab(TABLE_H)
    om2 = _build_buchstab(TABLE_H / 2.0)
    n1 = round(1.0 / TABLE_H)
    err = _richardson(om, om2, n1)
    if err > TABLE_TOL:
        raise ConvergenceError(f"buchstab table error estimate {err:.3e} exceeds {TABLE_TOL}")
    return DelayTable(
        grid0=1.0,
        h=TABLE_H,
        u_max=float(OMEGA_UMAX),
        values=om,
        kink_start=n1,
        kink_stride=n1,
        err_estimate=err,
    )


@cache
def halfdim_tables() -> tuple[DelayTable, DelayTable]:
    Fv, fv = _build_halfdim(TABLE_H)
    Fv2, fv2 = _build_halfdim(TABLE_H / 2.0)
    n1 = round(1.0 / TABLE_H)
    errF = _richardson(Fv, Fv2, 2 * n1)
    errf = _richardson(fv, fv2, 3 * n1)
    if max(errF, errf) > TABLE_TOL:
        raise ConvergenceError(
            f"half-dimensional table error estimates ({errF:.3e}, {errf:.3e}) exceed {TABLE_TOL}"
        )
    Ft = DelayTable(
        grid0=0.0,
        h=TABLE_H,
        u_max=float(HALFDIM_SMAX),
        values=Fv,
        kink_start=2 * n1,
        kink_stride=2 * n1,
        err_estimate=errF,
    )
    ft = DelayTable(
        grid0=0.0,
        h=TABLE_H,
        u_max=float(HALFDIM_SMAX),
        values=fv,
        kink_start=n1,
        kink_stride=2 * n1,
        err_estimate=errf,
    )
    return Ft, ft


def buchstab_omega(u: float) -> float:
    """Buchstab omega(u) for u > 0.

    Closed form 1/u on (0, 2]; tabulated beyond; for u past the table end
    the limit e^(-gamma) is returned (the oscillation there is far below
    double precision).
    """
    if not u > 0:
        raise DomainError(f"buchstab_omega: u must be > 0, got {u}")
    if u <= 2.0:
        return omega_closed(u)
    table = buchstab_table()
    if u > table.u_max:
        return E_NEG_GAMMA
    return table.interp(u)


def g(t: float) -> float:
    """sup over u >= t of e^gamma * omega(u), for t > 0.

    The search runs over the closed-form branch (where e^gamma/u is
    decreasing, so the sup sits at u = t) joined with the tabulated grid up
    to the point where |e^gamma omega - 1| stays below 1e-9, refined by a
    parabolic fit around the best grid point.  The result is never reported
    below 1 + 1e-12: the sup provably exceeds 1, and past the search window
    the oscillation is beneath table resolution.
    """
    if not t > 0:
        raise DomainError(f"g: t must be > 0, got {t}")
    table = buchstab_table()
    best = 1.0 + G_RESOLUTION_FLOOR
    if t < 2.0:
        best = max(best, E_GAMMA / t)
    vals = table.values
    first_argmax = table.envelope_argmax
    hi_idx = len(first_argmax) - 1
    lo_u = max(t, 2.0)
    if lo_u <= table.u_max:
        best = max(best, E_GAMMA * table.interp(lo_u))
        lo_idx = int(math.ceil((lo_u - table.grid0) / table.h))
        if lo_idx <= hi_idx:
            k = int(first_argmax[lo_idx])
            best = max(best, E_GAMMA * vals[k])
            if lo_idx < k < hi_idx:
                y0, y1, y2 = vals[k - 1], vals[k], vals[k + 1]
                denom = y0 - 2.0 * y1 + y2
                if denom < 0:  # concave: parabolic vertex refines the peak
                    vertex = y1 - (y2 - y0) ** 2 / (8.0 * denom)
                    best = max(best, E_GAMMA * vertex)
    return best


def halfdim_F(s: float) -> float:
    """Upper half-dimensional sieve function F(s), s in [HALFDIM_SMIN, HALFDIM_SMAX]."""
    Ft, _ = halfdim_tables()
    if not HALFDIM_SMIN <= s <= Ft.u_max:
        raise DomainError(f"halfdim_F: s must be in [{HALFDIM_SMIN}, {Ft.u_max}], got {s}")
    if s <= 2.0:
        return halfdim_F_closed(s)
    return Ft.interp(s)


def halfdim_f(s: float) -> float:
    """Lower half-dimensional sieve function f(s), s in [0, HALFDIM_SMAX]."""
    _, ft = halfdim_tables()
    if not 0.0 <= s <= ft.u_max:
        raise DomainError(f"halfdim_f: s must be in [0, {ft.u_max}], got {s}")
    if s <= 3.0:
        return halfdim_f_closed(s)
    return ft.interp(s)


# The special functions by the name reports and the CLI give them.
FUNCTIONS = {
    "buchstab": buchstab_omega,
    "halfdim_F": halfdim_F,
    "halfdim_f": halfdim_f,
    "g": g,
}


def tabulation_rows(kind: str, lo: float, hi: float, step: float) -> list[tuple[str, float, float]]:
    """(kind, s, value) rows for CSV export of any of the FUNCTIONS."""
    if kind not in FUNCTIONS:
        raise DomainError(f"tabulation_rows: unknown kind {kind!r}")
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise DomainError("tabulation_rows: need finite lo, hi and step, step > 0 and hi >= lo")
    # rows s = lo + k*step for k = 0, 1, ..., about (hi - lo) / step
    check_rows("tabulation_rows", math.floor(min((hi - lo) / step, 2.0**63)) + 1)
    fn = FUNCTIONS[kind]
    out = []
    k = 0
    while True:
        s = lo + k * step
        if s > hi + 1e-12:
            break
        out.append((kind, s, fn(s)))
        k += 1
    return out
