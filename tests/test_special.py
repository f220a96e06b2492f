import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from twosq.errors import DomainError, ResourceError
from twosq.reportio import MAX_SCAN_ROWS
from twosq.special import (
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
    halfdim_f,
    halfdim_tables,
    tabulation_rows,
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
        ts = [row[1] for row in tabulation_rows("g", 1.95, 20.95, 0.01)]
        assert len(ts) == 1901
        assert [g(t) for t in ts] == [g_rescan(t) for t in ts]

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
        assert [g(t) for t in ts] == [g_rescan(t) for t in ts]


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


class TestTabulation:
    def test_rows(self):
        rows = tabulation_rows("buchstab", 1.0, 3.0, 0.5)
        assert [r[1] for r in rows] == [1.0, 1.5, 2.0, 2.5, 3.0]
        assert all(r[0] == "buchstab" for r in rows)
        assert abs(rows[1][2] - 2.0 / 3.0) < 1e-12

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

    def test_row_budget_boundary(self, monkeypatch):
        monkeypatch.setattr("twosq.reportio.MAX_SCAN_ROWS", 5)
        assert len(tabulation_rows("buchstab", 1.0, 3.0, 0.5)) == 5
        with pytest.raises(ResourceError):
            tabulation_rows("buchstab", 1.0, 3.5, 0.5)
