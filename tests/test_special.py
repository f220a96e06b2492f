import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from twosq.errors import DomainError, ResourceError
from twosq.reportio import MAX_SCAN_ROWS
from twosq.special import (
    HALFDIM_SMAX,
    OMEGA_UMAX,
    TABLE_H,
    E_GAMMA,
    G_ENVELOPE_EPS,
    G_RESOLUTION_FLOOR,
    G_SEARCH_CAP,
    E_NEG_GAMMA,
    EULER_GAMMA,
    buchstab_omega,
    buchstab_table,
    g,
    halfdim_F,
    halfdim_F_closed,
    halfdim_f,
    halfdim_f_closed,
    halfdim_tables,
    tabulation_rows,
    _build_buchstab,
    _lagrange,
    _stencil_start,
    _build_halfdim,
    _march_F_first_window,
)

A_CONST = 2.0 * math.exp(EULER_GAMMA / 2.0) / math.sqrt(math.pi)


class TestBuchstab:
    def test_closed_form_interval(self):
        assert abs(buchstab_omega(1.5) - 2.0 / 3.0) < 1e-12
        for u in (0.1, 0.7, 1.0, 1.999, 2.0):
            assert abs(buchstab_omega(u) - 1.0 / u) < 1e-12

    def test_first_window_closed_form(self):
        # one integration of the recurrence gives u*omega(u) = 1 + ln(u-1) on [2,3]
        for u in (2.1, 2.5, 2.9, 3.0):
            assert abs(buchstab_omega(u) - (1.0 + math.log(u - 1.0)) / u) < 1e-9

    def test_limit(self):
        assert abs(buchstab_omega(10.0) - E_NEG_GAMMA) < 1e-6

    def test_envelope_decreasing_checkpoints(self):
        d4 = abs(E_GAMMA * buchstab_omega(4.0) - 1.0)
        d6 = abs(E_GAMMA * buchstab_omega(6.0) - 1.0)
        d8 = abs(E_GAMMA * buchstab_omega(8.0) - 1.0)
        assert d4 > d6 > d8

    def test_domain(self):
        with pytest.raises(DomainError):
            buchstab_omega(0.0)
        with pytest.raises(DomainError):
            buchstab_omega(-1.0)
        with pytest.raises(DomainError):
            buchstab_omega(math.nan)

    def test_table_error_estimate(self):
        assert buchstab_table().err_estimate < 1e-9

    def test_de_residual(self):
        # (u omega(u))' = omega(u-1), central differences off the junctions
        hd = 1e-5
        for u in np.arange(2.1, 20.0, 0.137):
            if abs(u - round(u)) < 0.05:
                continue
            lhs = ((u + hd) * buchstab_omega(u + hd) - (u - hd) * buchstab_omega(u - hd)) / (2 * hd)
            assert abs(lhs - buchstab_omega(u - 1.0)) < 1e-6, u

    def test_continuity_at_junctions(self):
        eps = 1e-9
        for u in (2.0, 3.0, 4.0, 7.0):
            assert abs(buchstab_omega(u + eps) - buchstab_omega(u - eps)) < 1e-9

    def test_beyond_table_returns_limit(self):
        assert buchstab_omega(99.0) == E_NEG_GAMMA

    def test_against_independent_integrator(self):
        # method of steps with scipy's adaptive RK for the integrated form
        # (u omega(u))' = omega(u-1): an entirely different scheme
        from scipy.integrate import solve_ivp
        from scipy.interpolate import interp1d

        prev_u = np.linspace(1.0, 2.0, 2001)
        prev_w = np.ones_like(prev_u)  # u * omega(u) = 1 on [1, 2]
        w_start = 1.0
        samples = {}
        for m in range(2, 8):
            omega_prev = interp1d(prev_u, prev_w / prev_u, kind="cubic")
            sol = solve_ivp(
                lambda u, _w: [omega_prev(u - 1.0)],
                (m, m + 1),
                [w_start],
                rtol=1e-11,
                atol=1e-12,
                dense_output=True,
                max_step=0.05,
            )
            us = np.linspace(m, m + 1, 2001)
            ws = sol.sol(us)[0]
            for u in (m + 0.25, m + 0.5, m + 0.75, m + 1.0):
                samples[u] = float(sol.sol(u)[0]) / u
            prev_u, prev_w = us, ws
            w_start = float(ws[-1])
        for u, val in samples.items():
            assert abs(buchstab_omega(u) - val) < 1e-7, u


class TestArrays:
    @pytest.mark.parametrize("fn, lo, hi", [
        (buchstab_omega, 0.01, 60.0), (g, 0.01, 60.0), (halfdim_F, 1e-3, 40.0), (halfdim_f, 0.0, 40.0),
    ])
    def test_same_shape_and_bits_as_per_value(self, fn, lo, hi):
        xs = lo + (hi - lo) * np.random.default_rng(3).random((40, 25))
        out = fn(xs)
        assert out.shape == xs.shape
        assert type(fn(float(xs[0, 0]))) is np.float64
        assert out.ravel().tolist() == [fn(x) for x in xs.ravel().tolist()]
        assert fn(xs[:0]).shape == (0, 25)

    def test_closed_branch_builds_no_table(self):
        buchstab_table.cache_clear()
        halfdim_tables.cache_clear()
        assert buchstab_omega(np.array([0.5, 1.5, 2.0])).tolist() == [2.0, 1.0 / 1.5, 0.5]
        assert halfdim_f(3.0) == halfdim_f_closed(3.0)
        assert halfdim_F(2.0) == halfdim_F_closed(2.0)
        assert buchstab_table.cache_info().currsize == halfdim_tables.cache_info().currsize == 0
        buchstab_omega(2.5)
        assert buchstab_table.cache_info().currsize == 1

    def test_overflow_is_quiet(self):
        # 1/u overflows for subnormal u; as a Python float, it gives inf with no warning
        assert buchstab_omega(1e-320) == math.inf
        assert g(np.array([1e-320, 1.0]))[0] == math.inf

    def test_domain_error_names_the_first_bad_value(self):
        with pytest.raises(DomainError, match="got -2.0"):
            buchstab_omega(np.array([1.0, -2.0, -3.0]))
        with pytest.raises(DomainError, match="got nan"):
            halfdim_f(np.array([[1.0], [math.nan]]))


class TestEnvelopeSup:
    def test_g1_is_e_gamma(self):
        assert abs(g(1.0) - E_GAMMA) < 1e-9

    def test_closed_form_branch(self):
        assert abs(g(0.5) - 2.0 * E_GAMMA) < 1e-12

    def test_interior_sup_against_independent_maximizer(self):
        # for t = 2 the sup sits inside [2, 3] where u*omega = 1 + ln(u-1)
        res = minimize_scalar(
            lambda u: -(E_GAMMA * (1.0 + math.log(u - 1.0)) / u),
            bounds=(2.0, 3.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert abs(g(2.0) - (-res.fun)) < 1e-9

    def test_strictly_above_one(self):
        for t in (1.0, 2.0, 4.0, 8.0, 20.0):
            assert g(t) > 1.0

    def test_tail_value(self):
        assert 1.0 < g(20.0) <= 1.0 + 1e-6

    def test_non_increasing(self):
        ts = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0, 40.0]
        vals = [g(t) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            g(0.0)
        with pytest.raises(DomainError):
            g(math.nan)


def g_rescan(t):
    """The envelope sup as `g` computed it with a full table rescan per call."""
    table = buchstab_table()
    best = 1.0 + G_RESOLUTION_FLOOR
    if t < 2.0:
        best = max(best, E_GAMMA / t)
    vals = table.values
    n = len(vals)
    env = np.abs(E_GAMMA * vals - 1.0) >= G_ENVELOPE_EPS
    last = int(np.max(np.flatnonzero(env))) if np.any(env) else 0
    hi_idx = min(max(last + 2, 0), n - 1)
    cap_idx = int(min((G_SEARCH_CAP - table.grid0) / table.h, n - 1))
    hi_idx = min(hi_idx, cap_idx)
    lo_u = max(t, 2.0)
    if lo_u <= table.u_max:
        best = max(best, E_GAMMA * table.interp(lo_u))
        lo_idx = int(math.ceil((lo_u - table.grid0) / table.h))
        if lo_idx <= hi_idx:
            window = vals[lo_idx : hi_idx + 1]
            k = int(np.argmax(window)) + lo_idx
            best = max(best, E_GAMMA * vals[k])
            if lo_idx < k < hi_idx:
                y0, y1, y2 = vals[k - 1], vals[k], vals[k + 1]
                denom = y0 - 2.0 * y1 + y2
                if denom < 0:
                    vertex = y1 - (y2 - y0) ** 2 / (8.0 * denom)
                    best = max(best, E_GAMMA * vertex)
    return best


class TestEnvelopeSearchIndex:
    """`g` reads the table's search index; it must equal the full rescan exactly."""

    def test_bench_grid(self):
        _, ts, values = tabulation_rows("g", 1.95, 20.95, 0.01).columns
        assert len(ts) == 1901
        expected = [g_rescan(t) for t in ts.tolist()]
        assert [g(t) for t in ts.tolist()] == expected
        assert g(ts).tolist() == values.tolist() == expected

    def test_edges(self):
        table = buchstab_table()
        hi_u = table.grid0 + (len(table.envelope_argmax) - 1) * table.h
        assert 7.5 < hi_u < 7.7
        edges = [2.0, 50.0, 50.1, 60.0, hi_u, hi_u - table.h, hi_u + table.h, np.nextafter(hi_u, 0.0)]
        for t in edges + [hi_u - table.h / 2, hi_u + table.h / 2]:
            assert g(t) == g_rescan(t), t

    def test_random_points(self):
        rng = np.random.default_rng(7)
        ts = 60.0 - 60.0 * rng.random(500)  # in (0, 60]
        expected = [g_rescan(t) for t in ts]
        assert [g(t) for t in ts] == expected
        assert g(ts).tolist() == expected


class TestHalfDim:
    def test_F_closed_form(self):
        for s in (0.01, 0.5, 1.0, 1.7, 2.0):
            assert abs(halfdim_F(s) - A_CONST / math.sqrt(s)) < 1e-12

    def test_f_zero_interval(self):
        for s in (0.0, 0.5, 1.0):
            assert halfdim_f(s) == 0.0

    def test_f2_against_independent_quadrature(self):
        # one step of the recurrence from f = 0:
        # sqrt(2) f(2) = int_1^2 (1/2) t^(-1/2) F(t-1) dt  with F in closed form;
        # substitute t = 1 + v^2 to remove the endpoint singularity.
        integral, err = quad(
            lambda v: 0.5 * (1.0 + v * v) ** -0.5 * (A_CONST / v) * 2.0 * v, 0.0, 1.0
        )
        assert err < 1e-11
        f2_oracle = integral / math.sqrt(2.0)
        assert abs(halfdim_f(2.0) - f2_oracle) < 1e-9
        # and the analytic evaluation of the same integral
        closed = (2.0 * math.exp(EULER_GAMMA / 2.0) / math.sqrt(2.0 * math.pi)) * math.log(1.0 + math.sqrt(2.0))
        assert abs(halfdim_f(2.0) - closed) < 1e-9

    def test_limits(self):
        assert abs(halfdim_F(10.0) - 1.0) < 1e-3
        assert abs(halfdim_f(10.0) - 1.0) < 1e-3

    def test_ordering(self):
        # true ordering is strict; 1e-12 covers table resolution where both
        # functions have converged to 1
        for s in np.arange(0.25, 39.9, 0.23):
            assert halfdim_f(s) <= 1.0 + 1e-12
            assert halfdim_F(s) >= 1.0 - 1e-12

    def test_monotonicity(self):
        # strict while F - 1 and 1 - f stay above table resolution (~1e-12,
        # reached near s = 8.5); beyond that only up to noise
        ss = np.arange(0.05, 8.4, 0.11)
        Fs = [halfdim_F(s) for s in ss]
        assert all(a > b for a, b in zip(Fs, Fs[1:]))
        fs_low = [halfdim_f(s) for s in np.arange(1.05, 8.4, 0.11)]
        assert all(a < b for a, b in zip(fs_low, fs_low[1:]))
        Fs_hi = [halfdim_F(s) for s in np.arange(8.4, 39.9, 0.11)]
        assert all(b <= a + 1e-12 for a, b in zip(Fs_hi, Fs_hi[1:]))
        fs_hi = [halfdim_f(s) for s in np.arange(8.4, 39.9, 0.11)]
        assert all(a <= b + 1e-12 for a, b in zip(fs_hi, fs_hi[1:]))

    def test_de_residuals(self):
        hd = 1e-5
        for s in np.arange(2.1, 20.0, 0.137):
            if abs(s - round(s)) < 0.05:
                continue
            lhs = (math.sqrt(s + hd) * halfdim_F(s + hd) - math.sqrt(s - hd) * halfdim_F(s - hd)) / (2 * hd)
            rhs = 0.5 * halfdim_f(s - 1.0) / math.sqrt(s)
            assert abs(lhs - rhs) < 1e-6, s
        for s in np.arange(1.1, 20.0, 0.137):
            if abs(s - round(s)) < 0.05:
                continue
            lhs = (math.sqrt(s + hd) * halfdim_f(s + hd) - math.sqrt(s - hd) * halfdim_f(s - hd)) / (2 * hd)
            rhs = 0.5 * halfdim_F(s - 1.0) / math.sqrt(s)
            assert abs(lhs - rhs) < 1e-6, s

    def test_continuity_at_junctions(self):
        eps = 1e-9
        # seams where evaluation switches branch or window
        for s in (2.0, 4.0, 6.0, 8.0):
            assert abs(halfdim_F(s + eps) - halfdim_F(s - eps)) < 1e-9
        for s in (3.0, 5.0, 7.0):
            assert abs(halfdim_f(s + eps) - halfdim_f(s - eps)) < 1e-9
        # f at 1 is continuous with a sqrt corner: the one-sided growth is
        # A sqrt(eps), not a jump
        eps = 1e-6
        assert halfdim_f(1.0 - eps) == 0.0
        assert 0.0 < halfdim_f(1.0 + eps) < 1.1 * A_CONST * math.sqrt(eps)

    def test_table_error_estimates(self):
        Ft, ft = halfdim_tables()
        assert Ft.err_estimate < 1e-9
        assert ft.err_estimate < 1e-9

    def test_against_independent_quadrature(self):
        # F on (2, 4] from adaptive quadrature of the recurrence against the
        # closed form for f (t = 2 + v^2 removes the corner), then f on
        # (3, 5] from quadrature over that F
        def F_quad(s):
            integral, err = quad(
                lambda v: (2.0 + v * v) ** -0.5 * halfdim_f(1.0 + v * v) * v,
                0.0,
                math.sqrt(s - 2.0),
                epsabs=1e-12,
                limit=200,
            )
            assert err < 1e-10
            return (math.sqrt(2.0) * halfdim_F(2.0) + integral) / math.sqrt(s)

        for s in (2.5, 3.0, 3.5, 4.0):
            assert abs(halfdim_F(s) - F_quad(s)) < 1e-8, s

        def f_quad(s):
            # the nested integrand carries F_quad's own ~1e-10 noise, so the
            # reported error bound saturates around 1e-8
            integral, err = quad(
                lambda t: 0.5 * t**-0.5 * F_quad(t - 1.0), 3.0, s, limit=100
            )
            assert err < 1e-7
            return (math.sqrt(3.0) * halfdim_f(3.0) + integral) / math.sqrt(s)

        for s in (3.5, 4.0, 4.5):
            assert abs(halfdim_f(s) - f_quad(s)) < 2e-7, s

    def test_domain(self):
        with pytest.raises(DomainError):
            halfdim_F(0.0)
        with pytest.raises(DomainError):
            halfdim_F(1e-6)  # below HALFDIM_SMIN
        with pytest.raises(DomainError):
            halfdim_f(-0.5)
        with pytest.raises(DomainError):
            halfdim_F(41.0)
        with pytest.raises(DomainError):
            halfdim_f(41.0)


# Reference route for the tables: a midpoint routine with fixed half-offset
# weight rows, an inline omega march and a separate F/f march.  The library
# builds the same tables with one stencil rule, one Lagrange sum and one
# marcher, keeping every float operation and its order.
_MID_CENTER = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
_MID_RIGHT = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0  # eval at node0 + 0.5h
_MID_LEFT = np.array([1.0, -5.0, 15.0, 5.0]) / 16.0  # eval at node0 + 2.5h


def ref_window_mids(src, bases, kink_start, kink_stride):
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


def ref_build_buchstab(h):
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
            fm = ref_window_mids(om, bases, kink_start=n1, kink_stride=n1)
        inc = (h / 6.0) * (f0 + 4.0 * fm + f1)
        w_vals = w_cur + np.cumsum(inc)
        us = 1.0 + (np.arange(j0 + 1, j1 + 1)) * h
        om[j0 + 1 : j1 + 1] = w_vals / us
        w_cur = w_vals[-1]
    return om


def ref_march_simpson(dst, src, j0, j1, n1, h, prod_start, src_kink_start, src_kink_stride):
    js = np.arange(j0, j1)
    s0 = js * h
    s1 = (js + 1) * h
    sm = s0 + 0.5 * h
    g0 = 0.5 / np.sqrt(s0) * src[js - n1]
    g1 = 0.5 / np.sqrt(s1) * src[js - n1 + 1]
    mids = ref_window_mids(src, js - n1, src_kink_start, src_kink_stride)
    gm = 0.5 / np.sqrt(sm) * mids
    inc = (h / 6.0) * (g0 + 4.0 * gm + g1)
    prod = prod_start + np.cumsum(inc)
    dst[j0 + 1 : j1 + 1] = prod / np.sqrt(s1)


def ref_build_halfdim(h):
    n1 = round(1.0 / h)
    total = n1 * HALFDIM_SMAX + 1
    Fv = np.empty(total)
    fv = np.empty(total)

    ss = np.arange(total) * h
    Fv[0] = np.inf
    Fv[1 : 2 * n1 + 1] = A_CONST / np.sqrt(ss[1 : 2 * n1 + 1])
    fv[: n1 + 1] = 0.0
    top = min(3 * n1, total - 1)
    fv[n1 + 1 : top + 1] = A_CONST * np.arcsinh(np.sqrt(ss[n1 + 1 : top + 1] - 1.0)) / np.sqrt(ss[n1 + 1 : top + 1])

    _march_F_first_window(Fv, n1, h)
    f_prod = math.sqrt(3.0) * fv[3 * n1]  # sqrt(s) f(s) at s = 3
    w = 4
    while w <= HALFDIM_SMAX:
        j0, j1 = (w - 1) * n1, min((w + 1) * n1, total - 1)
        ref_march_simpson(fv, Fv, j0, j1, n1, h, f_prod, src_kink_start=2 * n1, src_kink_stride=2 * n1)
        f_prod = math.sqrt(j1 * h) * fv[j1]
        if w < HALFDIM_SMAX:
            k0, k1 = w * n1, min((w + 2) * n1, total - 1)
            F_prod = math.sqrt(w) * Fv[w * n1]
            ref_march_simpson(Fv, fv, k0, k1, n1, h, F_prod, src_kink_start=n1, src_kink_stride=2 * n1)
        w += 2
    return Fv, fv


def ref_interp(table, u):
    """The cubic interpolation of `DelayTable.interp` as it was written for one
    float: the stencil is chosen and clamped with Python ints."""
    pos = (u - table.grid0) / table.h
    n = len(table.values)
    base = min(max(int(math.floor(pos)), 0), n - 2)
    s0 = min(max(_stencil_start(base, table.kink_start, table.kink_stride), 0), n - 4)
    w, v = _lagrange(pos - s0), table.values
    return w[0] * v[s0] + w[1] * v[s0 + 1] + w[2] * v[s0 + 2] + w[3] * v[s0 + 3]


def ref_richardson(vals_h, vals_h2, start_idx):
    coarse = vals_h[start_idx:]
    fine = vals_h2[2 * start_idx :: 2]
    return float(np.max(np.abs(coarse - fine))) if coarse.size else 0.0


class TestReferenceRoute:
    # Same float operations in the same order, so every array and estimate
    # is equal bit for bit.  Two routes on one host are compared, never a
    # digest: numpy's SIMD log and asinh differ across CPUs.
    def test_tables_match_reference_builders(self):
        n1 = round(1.0 / TABLE_H)
        omega = buchstab_table()
        F, f = halfdim_tables()
        ref_om, ref_om2 = ref_build_buchstab(TABLE_H), ref_build_buchstab(TABLE_H / 2.0)
        (ref_F, ref_f), (ref_F2, ref_f2) = ref_build_halfdim(TABLE_H), ref_build_halfdim(TABLE_H / 2.0)
        (om2,) = _build_buchstab(TABLE_H / 2.0)
        F2, f2 = _build_halfdim(TABLE_H / 2.0)
        for table, ref in ((omega.values, ref_om), (om2, ref_om2), (F.values, ref_F), (F2, ref_F2),
                           (f.values, ref_f), (f2, ref_f2)):
            assert np.array_equal(table, ref)
        assert omega.err_estimate == ref_richardson(ref_om, ref_om2, n1)
        assert F.err_estimate == ref_richardson(ref_F, ref_F2, 2 * n1)
        assert f.err_estimate == ref_richardson(ref_f, ref_f2, 3 * n1)


class TestInterpReference:
    # The array interpolation must give the one-float route's bits everywhere:
    # at random points, on every grid node, and half a step either side of
    # every window junction, where the stencil switches sides.
    @pytest.mark.parametrize("which", ["buchstab", "F", "f"])
    def test_interp_matches_scalar_reference(self, which):
        table = {"buchstab": buchstab_table, "F": lambda: halfdim_tables()[0],
                 "f": lambda: halfdim_tables()[1]}[which]()
        h, n = table.h, len(table.values)
        # F(0) = inf: F is read from its table only past 2, clear of the stencils that hold it
        lo, hi = table.grid0 + (0 if np.isfinite(table.values[0]) else 4 * h), table.u_max
        points = lo + (hi - lo) * np.random.default_rng(11).random(10**5)
        nodes = table.grid0 + np.arange(n) * h
        junctions = table.grid0 + np.arange(table.kink_start, n, table.kink_stride) * h
        near = np.clip(np.concatenate([junctions - h / 2, junctions + h / 2]), lo, hi)
        for us in (points, nodes[nodes >= lo], near):
            got = table.interp(us)
            assert got.tolist() == [ref_interp(table, u) for u in us.tolist()]


class TestTabulation:
    def test_rows(self):
        table = tabulation_rows("buchstab", 1.0, 3.0, 0.5)
        assert table.fields == ("kind", "s", "value")
        kinds, ss, values = table.columns
        assert ss.tolist() == [1.0, 1.5, 2.0, 2.5, 3.0]
        assert kinds.tolist() == ["buchstab"] * 5
        assert abs(values[1] - 2.0 / 3.0) < 1e-12

    @pytest.mark.parametrize("lo, hi, step, rows", [
        (0.0, 0.3, 0.1, 4),  # 0.1 * 3 rounds above 0.3, within the 1e-12 slack
        (1.0, 1.0, 0.5, 1),
        (1.0, 1.0, 4e-13, 3),  # the 1e-12 slack alone holds three rows
        (0.5, 40.0, 0.005, 7901),
    ])
    def test_row_count_is_the_float_test(self, lo, hi, step, rows):
        expected = []
        while lo + len(expected) * step <= hi + 1e-12:
            expected.append(lo + len(expected) * step)
        assert len(expected) == rows
        table = tabulation_rows("halfdim_f", lo, hi, step)
        assert len(table) == rows
        assert table.columns[1].tolist() == expected

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            tabulation_rows("dickman", 1.0, 2.0, 0.5)

    @pytest.mark.parametrize("lo, hi, step", [
        (math.nan, 2.0, 0.5), (1.0, math.nan, 0.5), (1.0, 2.0, math.nan),
        (-math.inf, 2.0, 0.5), (1.0, math.inf, 0.5), (1.0, 2.0, math.inf),
    ])
    def test_non_finite_bounds(self, lo, hi, step):
        # a NaN step once looped without end: lo + k * nan > hi is never true
        with pytest.raises(DomainError):
            tabulation_rows("g", lo, hi, step)

    @pytest.mark.parametrize("lo, hi, step", [
        (0.0, MAX_SCAN_ROWS * 0.5, 0.5), (-1e308, 1e308, 1.0), (1.0, 2.0, 5e-324),
    ])
    def test_row_budget(self, lo, hi, step):
        # refused from the row count alone, before the first row is computed
        with pytest.raises(ResourceError, match="rows exceed budget"):
            tabulation_rows("buchstab", lo, hi, step)

    @pytest.mark.parametrize("lo, hi, step", [
        (1e300, 1e300, 1.0), (1e17, 1e17 + 64, 1.0), (1e16, 1e16 + 64, 1.0), (1e16, 1e16, 1.0),
    ])
    def test_step_lost_to_rounding(self, lo, hi, step):
        # s = lo + k*step rounds back onto lo (a row loop never ended at 1e300),
        # repeats values well past the division's bound (at 1e17, ulp 16), or
        # repeats rows within it (at 1e16, ulp 2: once 66 rows, 33 of them repeats)
        with pytest.raises(DomainError, match="lost to rounding"):
            tabulation_rows("buchstab", lo, hi, step)

    def test_row_budget_boundary(self, monkeypatch):
        monkeypatch.setattr("twosq.reportio.MAX_SCAN_ROWS", 5)
        assert len(tabulation_rows("buchstab", 1.0, 3.0, 0.5)) == 5
        with pytest.raises(ResourceError):
            tabulation_rows("buchstab", 1.0, 3.5, 0.5)
