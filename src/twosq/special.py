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
unit delay is always grid-aligned.  All three equations have the form
(scale(t) y(t))' = kernel(t) z(t-1), and one marcher steps them by
Simpson's rule.  It takes the delay value at each step midpoint from the
same cubic that interpolates a finished table: a four-node stencil that
never straddles a window junction (the functions have derivative
discontinuities there).  Two windows are special.  On omega's first, (2, 3],
the midpoint values 1/(u-1) are closed-form.  On F's first, (2, 4],
f(s-1) ~ C sqrt(s-2) at the left edge, so each step is integrated by
Gauss-Legendre after the substitution t = 2 + v^2, which removes the corner
exactly.

Each table is rebuilt at half the step to estimate its error (Richardson);
a table whose estimate exceeds 1e-9 is refused.

Every evaluator takes a float or an array and returns its shape (a numpy
float for a float); a table is built only if some value lies past the
closed form, which the table builders call too.  f's closed form takes
`math.asinh` value by value: np.arcsinh differs at thousands of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .arith import E_GAMMA, E_NEG_GAMMA, EULER_GAMMA
from .errors import ConvergenceError, DomainError
from .reportio import Records, check_rows

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


def omega_closed(u):
    """omega on its initial interval (0, 2]; past the float range, inf."""
    with np.errstate(over="ignore"):
        return 1.0 / u


def halfdim_F_closed(s):
    """F on its initial interval (0, 2]."""
    return _HALFDIM_A / np.sqrt(s)


def halfdim_f_closed(s):
    """f on [0, 3]: zero up to 1, then the one-step asinh integral (math.asinh per value)."""
    s = np.asarray(s, dtype=float)
    v = np.sqrt(np.maximum(s - 1.0, 0.0)).ravel().tolist()
    return _HALFDIM_A * np.reshape([math.asinh(x) for x in v], s.shape) / np.sqrt(np.maximum(s, 1.0))


def _stencil_start(base, kink_start: int, kink_stride: int):
    """First of the four grid nodes that interpolate on [base, base + 1].

    base is an int or an int array.  The stencil is centred (it starts at
    base - 1) unless a window junction sits at base or at base + 1; then it
    starts or ends at the junction, so that it never straddles one.
    """
    phase = (base - kink_start) % kink_stride  # a junction at base + 1 has phase kink_stride - 1
    at_base = (base >= kink_start) & (phase == 0)
    at_next = (base + 1 >= kink_start) & (phase == kink_stride - 1)
    return base - 1 + at_base - at_next


def _lagrange(x):
    """Weights of the nodes 0, 1, 2, 3 in the cubic through them, at x."""
    x1, x2, x3 = x - 1, x - 2, x - 3
    return (x1 * x2 * x3) / -6.0, (x * x2 * x3) / 2.0, (x * x1 * x3) / -2.0, (x * x1 * x2) / 6.0


def _cubic(values: np.ndarray, pos, kinks: tuple[int, int]):
    """The cubic through values on the junction-aware stencil (kinks = (kink_start,
    kink_stride)) at grid position pos, a float or an array, clamped to the table."""
    n = len(values)
    base = np.clip(np.floor(pos), 0, n - 2).astype(np.int64)
    s0 = np.clip(_stencil_start(base, *kinks), 0, n - 4)
    w = _lagrange(pos - s0)
    return w[0] * values[s0] + w[1] * values[s0 + 1] + w[2] * values[s0 + 2] + w[3] * values[s0 + 3]


@dataclass(frozen=True, eq=False)
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

    def interp(self, u):
        """Cubic interpolation at u (a float or an array within [grid0, u_max])."""
        pos = (np.asarray(u, dtype=float) - self.grid0) / self.h
        return _cubic(self.values, pos, (self.kink_start, self.kink_stride))

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


def _march(dst, src, j0: int, j1: int, h: float, grid0: float, kernel, scale, start, src_kinks, mids=None):
    """Simpson march of (scale(t) dst(t))' = kernel(t) src(t - 1) over grid
    indices (j0, j1], where t = grid0 + index * h and scale * dst = start at j0.

    The delayed values at step midpoints are mids if given, else the cubic
    on src's junction-aware stencil (src_kinks = (kink_start, kink_stride)).
    Returns scale * dst at j1.
    """
    n1 = round(1.0 / h)
    if mids is None:  # the step midpoints, one unit back, sit half-way between src's nodes
        mids = _cubic(src, np.arange(j0 - n1, j1 - n1) + 0.5, src_kinks)
    t = grid0 + np.arange(j0, j1 + 1) * h
    g = kernel(t) * src[j0 - n1 : j1 - n1 + 1]
    gm = kernel(t[:-1] + 0.5 * h) * mids
    prod = start + np.cumsum((h / 6.0) * (g[:-1] + 4.0 * gm + g[1:]))
    dst[j0 + 1 : j1 + 1] = prod / scale(t[1:])
    return prod[-1]


def _build_buchstab(h: float) -> tuple[np.ndarray]:
    """Tabulate omega on [1, OMEGA_UMAX]; returns (omega values,)."""
    n1 = round(1.0 / h)
    om = np.empty(n1 * (OMEGA_UMAX - 1) + 1)
    om[: n1 + 1] = omega_closed(1.0 + np.arange(n1 + 1) * h)
    prod = 1.0  # u*omega(u) at u = 2
    for j0 in range(n1, (OMEGA_UMAX - 1) * n1, n1):
        # on (2, 3] the delayed omega(u - 1) = 1/(u - 1) is closed-form at
        # the step midpoints too
        mids = omega_closed(1.0 + (np.arange(n1) + 0.5) * h) if j0 == n1 else None
        prod = _march(om, om, j0, j0 + n1, h, 1.0, lambda u: 1.0, lambda u: u, prod, (n1, n1), mids)
    return (om,)


def _march_F_first_window(Fv: np.ndarray, n1: int, h: float) -> None:
    """March F over (2, 4] by per-step Gauss-Legendre in t = 2 + v^2.

    On this window f(t-1) has a sqrt corner at t = 2; the substitution makes
    the integrand analytic:
      d(sqrt(s) F) = A * v * asinh(v) / (sqrt(2+v^2) sqrt(1+v^2)) dv.
    """
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(12)
    j0, j1 = 2 * n1, 4 * n1
    js = np.arange(j0, j1)
    v0 = np.sqrt(js * h - 2.0)
    v1 = np.sqrt((js + 1) * h - 2.0)
    half = 0.5 * (v1 - v0)
    mid = 0.5 * (v1 + v0)
    nodes = mid[:, None] + half[:, None] * gl_nodes[None, :]
    integ = _HALFDIM_A * nodes * np.arcsinh(nodes) / (np.sqrt(2.0 + nodes**2) * np.sqrt(1.0 + nodes**2))
    inc = half * (integ @ gl_weights)
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
    Fv[1 : 2 * n1 + 1] = halfdim_F_closed(ss[1 : 2 * n1 + 1])
    fv[: n1 + 1] = 0.0
    top = min(3 * n1, total - 1)
    fv[n1 + 1 : top + 1] = (
        _HALFDIM_A * np.arcsinh(np.sqrt(ss[n1 + 1 : top + 1] - 1.0)) / np.sqrt(ss[n1 + 1 : top + 1])
    )

    _march_F_first_window(Fv, n1, h)

    def march(dst, src, j0, src_kinks):
        # two unit windows at most, from the tabulated sqrt(s) * dst(s) at j0
        start = math.sqrt(j0 * h) * dst[j0]
        j1 = min(j0 + 2 * n1, total - 1)
        _march(dst, src, j0, j1, h, 0.0, lambda s: 0.5 / np.sqrt(s), np.sqrt, start, src_kinks)

    for w in range(4, HALFDIM_SMAX + 1, 2):
        march(fv, Fv, (w - 1) * n1, (2 * n1, 2 * n1))  # f over (w - 1, w + 1]
        if w < HALFDIM_SMAX:
            march(Fv, fv, w * n1, (n1, 2 * n1))  # F over (w, w + 2]
    return Fv, fv


def _checked_tables(build, *layouts) -> tuple[DelayTable, ...]:
    """One DelayTable per array of build(TABLE_H), after a Richardson check.

    Each array's error estimate is its largest change over the marched
    region when rebuilt at half the step; an estimate above TABLE_TOL is
    refused.  A layout is (name, grid0, u_max, first marched index,
    kink_start, kink_stride), indices in steps of TABLE_H.
    """
    tables = []
    for vals, vals2, (name, grid0, u_max, marched, kink_start, kink_stride) in zip(
        build(TABLE_H), build(TABLE_H / 2.0), layouts
    ):
        err = float(np.max(np.abs(vals[marched:] - vals2[2 * marched :: 2])))
        if err > TABLE_TOL:
            raise ConvergenceError(f"{name} table error estimate {err:.3e} exceeds {TABLE_TOL}")
        tables.append(DelayTable(grid0=grid0, h=TABLE_H, u_max=float(u_max), values=vals,
                                 kink_start=kink_start, kink_stride=kink_stride, err_estimate=err))
    return tuple(tables)


@cache
def buchstab_table() -> DelayTable:
    n1 = round(1.0 / TABLE_H)
    return _checked_tables(_build_buchstab, ("buchstab", 1.0, OMEGA_UMAX, n1, n1, n1))[0]


@cache
def halfdim_tables() -> tuple[DelayTable, DelayTable]:
    n1 = round(1.0 / TABLE_H)
    return _checked_tables(
        _build_halfdim,
        ("half-dimensional F", 0.0, HALFDIM_SMAX, 2 * n1, 2 * n1, 2 * n1),
        ("half-dimensional f", 0.0, HALFDIM_SMAX, 3 * n1, n1, 2 * n1),
    )


def _argument(x, ok, what: str) -> np.ndarray:
    """x as a float array; a DomainError names its first value where ok fails."""
    x = np.asarray(x, dtype=float)
    if not np.all(ok(x)):
        raise DomainError(f"{what}, got {x[~ok(x)][0]}")
    return x


def _piecewise(x: np.ndarray, edge: float, closed, table) -> np.ndarray:
    """closed(x) where x <= edge, else table().interp(x); table() only if needed."""
    out = np.empty(x.shape)
    low = x <= edge
    out[low] = closed(x[low])
    if not low.all():
        out[~low] = table().interp(x[~low])
    return out


def buchstab_omega(u):
    """Buchstab omega(u) for u > 0.

    Closed form 1/u on (0, 2]; tabulated beyond; for u past the table end
    the limit e^(-gamma) is returned (the oscillation there is far below
    double precision).
    """
    u = _argument(u, lambda u: u > 0, "buchstab_omega: u must be > 0")
    inner = _piecewise(np.minimum(u, OMEGA_UMAX), 2.0, omega_closed, buchstab_table)
    return np.where(u > OMEGA_UMAX, E_NEG_GAMMA, inner)[()]


def g(t):
    """sup over u >= t of e^gamma * omega(u), for t > 0.

    The search runs over the closed-form branch (where e^gamma/u is
    decreasing, so the sup sits at u = t) joined with the tabulated grid up
    to the point where |e^gamma omega - 1| stays below 1e-9, refined by a
    parabolic fit around the best grid point.  The result is never reported
    below 1 + 1e-12: the sup provably exceeds 1, and past the search window
    the oscillation is beneath table resolution.
    """
    t = _argument(t, lambda t: t > 0, "g: t must be > 0")
    table = buchstab_table()
    vals, first_argmax = table.values, table.envelope_argmax
    hi_idx = len(first_argmax) - 1
    with np.errstate(over="ignore"):
        best = np.maximum(np.where(t < 2.0, E_GAMMA / t, 0.0), 1.0 + G_RESOLUTION_FLOOR)
    # each later candidate counts where its flag holds: a False flag times a finite value is 0
    on_table = t <= table.u_max
    lo_u = np.clip(t, 2.0, table.u_max)  # max(t, 2) wherever it is on the table
    best = np.maximum(best, on_table * E_GAMMA * table.interp(lo_u))
    lo_pos = np.ceil((lo_u - table.grid0) / table.h)
    searched = on_table & (lo_pos <= hi_idx)
    lo_idx = np.minimum(lo_pos, hi_idx).astype(np.int64)
    k = first_argmax[lo_idx]
    y0, y1, y2 = vals[k - 1], vals[k], vals[np.minimum(k + 1, len(vals) - 1)]
    best = np.maximum(best, searched * E_GAMMA * y1)
    denom = y0 - 2.0 * y1 + y2
    # concave around an interior grid peak: the parabolic vertex refines it
    peak = searched & (lo_idx < k) & (k < hi_idx) & (denom < 0)
    vertex = y1 - (y2 - y0) ** 2 / (8.0 * np.where(peak, denom, -1.0))
    return np.maximum(best, peak * E_GAMMA * vertex)[()]


def halfdim_F(s):
    """Upper half-dimensional sieve function F(s), s in [HALFDIM_SMIN, HALFDIM_SMAX]."""
    s = _argument(s, lambda s: (HALFDIM_SMIN <= s) & (s <= HALFDIM_SMAX),
                  f"halfdim_F: s must be in [{HALFDIM_SMIN}, {HALFDIM_SMAX}]")
    return _piecewise(s, 2.0, halfdim_F_closed, lambda: halfdim_tables()[0])[()]


def halfdim_f(s):
    """Lower half-dimensional sieve function f(s), s in [0, HALFDIM_SMAX]."""
    s = _argument(s, lambda s: (0.0 <= s) & (s <= HALFDIM_SMAX),
                  f"halfdim_f: s must be in [0, {HALFDIM_SMAX}]")
    return _piecewise(s, 3.0, halfdim_f_closed, lambda: halfdim_tables()[1])[()]


# The special functions by the name reports and the CLI give them.
FUNCTIONS = {
    "buchstab": buchstab_omega,
    "halfdim_F": halfdim_F,
    "halfdim_f": halfdim_f,
    "g": g,
}


def tabulation_rows(kind: str, lo: float, hi: float, step: float) -> Records:
    """Columns (kind, s, value) of one of the FUNCTIONS at s = lo + k*step,
    k = 0, 1, ... while s <= hi + 1e-12, evaluated in one call.  A division bounds
    the rows for the budget, the float test picks them; a step lost to rounding,
    which repeats an s or never passes hi, is refused."""
    if kind not in FUNCTIONS:
        raise DomainError(f"tabulation_rows: unknown kind {kind!r}")
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise DomainError("tabulation_rows: need finite lo, hi and step, step > 0 and hi >= lo")
    top = hi + 1e-12
    bound = math.floor(min((top - lo) / step, 2.0**63)) + 1
    check_rows("tabulation_rows", bound)
    s = lo + np.arange(bound + 2) * step  # rounding may keep one point past the bound
    s, last = s[: np.count_nonzero(~(s > top))], s[-1]  # s is non-decreasing: the rows are a prefix
    if not (last > top and (s[1:] > s[:-1]).all()):
        raise DomainError(f"tabulation_rows: step {step} is lost to rounding between {lo} and {hi}")
    return Records(("kind", "s", "value"), (np.broadcast_to(kind, s.shape), s, FUNCTIONS[kind](s)))
