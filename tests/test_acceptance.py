"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.

Oracles here are independent of the paths they check: membership comes from
direct lattice enumeration, f(2) from quadrature of the defining recurrence,
and the quadratic-form identities compare the O(n^2) double sums against the
diagonal route.
"""

import math
import time

import numpy as np
import pytest

from twosq.admissible import AdmissibleSystem, build_default_set
from twosq.arith import landau_constant
from twosq.cli import dispatch
from twosq.scans import MaierConfig, maier_demo
from twosq.sieve import count_upto, sieve_segment
from twosq.special import (
    E_GAMMA,
    EULER_GAMMA,
    buchstab_omega,
    g,
    halfdim_F,
    halfdim_f,
)
from twosq.weights import (
    build_weights,
    check_weight_mass,
    quadratic_forms,
    verify_sieve_summation,
    weighted_experiment,
    ystar_from_lambda,
)

from .conftest import two_square_marks


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_membership_oracle():
    t0 = time.perf_counter()
    seg = sieve_segment(1, 10**6)
    oracle = two_square_marks(10**6)
    elapsed = time.perf_counter() - t0
    same = np.array_equal(seg.bits, oracle[1:])
    report(
        1,
        same and elapsed < 30.0,
        f"segment [1, 1e6] matches lattice enumeration exactly ({elapsed:.1f}s < 30s)",
    )


def test_02_density():
    t0 = time.perf_counter()
    count = count_upto(10**7)
    S, _ = landau_constant(10**7)
    elapsed = time.perf_counter() - t0
    ratio = count * math.sqrt(math.log(10**7)) / 10**7
    ok = 1.00 * S <= ratio <= 1.15 * S and elapsed < 120.0
    report(
        2,
        ok,
        f"count(1e7)={count}, normalized density {ratio:.6f} in [1.00, 1.15] * {S:.6f} "
        f"({elapsed:.1f}s < 120s)",
    )


def test_03_constants():
    v7, t7 = landau_constant(10**7)
    v8, t8 = landau_constant(10**8)
    ok = abs(v7 - 0.764224) <= 1e-5 and abs(v8 - v7) <= t7 + t8
    report(
        3,
        ok,
        f"landau(1e7)={v7:.7f} within 1e-5 of 0.764224; |landau(1e8)-landau(1e7)|="
        f"{abs(v8 - v7):.2e} within tail bounds {t7:.2e}+{t8:.2e}",
    )


def test_04_buchstab():
    checks = [
        abs(buchstab_omega(1.5) - 2.0 / 3.0) <= 1e-12,
        abs(buchstab_omega(2.5) - (1.0 + math.log(1.5)) / 2.5) <= 1e-9,
        all(abs(E_GAMMA * buchstab_omega(u) - 1.0) < 1e-4 for u in (8.0, 9.0, 10.0)),
        abs(g(1.0) - E_GAMMA) <= 1e-9,
        all(g(t) > 1.0 for t in (1.0, 2.0, 4.0, 8.0)),
    ]
    report(
        4,
        all(checks),
        "omega(1.5)=2/3 @1e-12; omega(2.5) matches one-step closed form @1e-9; "
        "|e^gamma*omega - 1| < 1e-4 at u=8,9,10; g(1)=e^gamma @1e-9; g > 1 at t=1,2,4,8",
    )


def test_05_halfdim():
    A = 2.0 * math.exp(EULER_GAMMA / 2.0) / math.sqrt(math.pi)
    closed_F = all(
        abs(halfdim_F(s) - A / math.sqrt(s)) <= 1e-12 for s in np.arange(0.01, 2.001, 0.05)
    )
    closed_f = all(halfdim_f(s) == 0.0 for s in np.arange(0.0, 1.001, 0.05))
    f2_closed = (2.0 * math.exp(EULER_GAMMA / 2.0) / math.sqrt(2.0 * math.pi)) * math.log(
        1.0 + math.sqrt(2.0)
    )
    f2_ok = abs(halfdim_f(2.0) - f2_closed) <= 1e-9
    limits = abs(halfdim_F(10.0) - 1.0) < 1e-3 and abs(halfdim_f(10.0) - 1.0) < 1e-3

    hd = 1e-5
    worst = 0.0
    for s in np.arange(2.05, 20.0, 0.10):
        if abs(s - round(s)) < 0.05:
            continue  # central differences see the one-sided kink there
        lhs = (math.sqrt(s + hd) * halfdim_F(s + hd) - math.sqrt(s - hd) * halfdim_F(s - hd)) / (2 * hd)
        worst = max(worst, abs(lhs - 0.5 * halfdim_f(s - 1.0) / math.sqrt(s)))
        lhs = (math.sqrt(s + hd) * halfdim_f(s + hd) - math.sqrt(s - hd) * halfdim_f(s - hd)) / (2 * hd)
        worst = max(worst, abs(lhs - 0.5 * halfdim_F(s - 1.0) / math.sqrt(s)))
    residuals = worst < 1e-6
    report(
        5,
        closed_F and closed_f and f2_ok and limits and residuals,
        f"F, f closed forms @1e-12; f(2) @1e-9; |F(10)-1|, |f(10)-1| < 1e-3; "
        f"DE residuals on [2,20] worst {worst:.2e} < 1e-6",
    )


def test_06_exact_sieve_algebra():
    t0 = time.perf_counter()
    all_ok = True
    for k in (1, 2, 3):
        for W in (1, 21):
            system = AdmissibleSystem.build(build_default_set(k), W=W)
            for R in (10, 100, 500):
                ws = build_weights(system, R)
                rep = quadratic_forms(ws)
                if rep.Q_nu != rep.diag_nu or rep.Q_nu_minus1 != rep.diag_nu_minus1:
                    all_ok = False
                for r in ws.support:
                    if r > 1 and all(ws.nu_table[p] > 1 for p in ws.support_factors[r]):
                        if ystar_from_lambda(ws, r) != ws.ystar[r]:
                            all_ok = False
    elapsed = time.perf_counter() - t0
    report(
        6,
        all_ok and elapsed < 60.0,
        f"Q_nu and Q_nu-1 diagonalize exactly and ystar round-trips exactly for "
        f"k in {{1,2,3}}, R in {{10,100,500}}, W in {{1,21}} ({elapsed:.1f}s < 60s)",
    )


def test_07_weight_mass_main_term():
    X = 10**5
    system = AdmissibleSystem.build(build_default_set(3), W=3)
    ws = build_weights(system, 50)
    rep = check_weight_mass(ws, weighted_experiment(ws, X, 2 * X))
    diff = abs(rep.measured - rep.main_term)
    report(
        7,
        rep.within_bound,
        f"|sum w_n - (X/W) Q_nu| = {float(diff):.3f} <= explicit per-pair bound "
        f"{float(rep.bound):.3f} at X=1e5, k=3, R=50",
    )


def test_08_gpy_demo():
    X = 10**6
    system = AdmissibleSystem.build(build_default_set(4), W=3)
    ws = build_weights(system, 1000)
    rep = weighted_experiment(ws, X, 2 * X)
    margin = float(rep.weighted_avg / rep.class_unweighted_avg)
    report(
        8,
        rep.weighted_avg >= rep.class_unweighted_avg,
        f"weighted hit average {float(rep.weighted_avg):.4f} >= class unweighted "
        f"{float(rep.class_unweighted_avg):.4f}; recorded margin {margin:.3f}x "
        f"(k=4, X=1e6, R=1e3)",
    )


def test_09_maier_ratio():
    t0 = time.perf_counter()
    ratios = {}
    for xq in (50, 100, 200):
        rep = maier_demo(MaierConfig(z=7, a=1, x=100 * xq, Q=100))
        ratios[xq] = rep.ratio
    elapsed = time.perf_counter() - t0
    ok = all(0.75 <= r <= 1.25 for r in ratios.values()) and elapsed < 10.0
    report(
        9,
        ok,
        "double sum / prediction at z=7, a=1: "
        + ", ".join(f"x/Q={k}: {v:.4f}" for k, v in ratios.items())
        + f" all in [0.75, 1.25] ({elapsed:.1f}s < 10s)",
    )


def test_10_summation_lemma():
    rep = verify_sieve_summation(10**6)
    report(
        10,
        rep.rel_error < 0.05,
        f"kappa=1/2, gamma=1 on p=3 (mod 4), f=1, R=1e6: lhs={rep.lhs:.5f} "
        f"rhs={rep.rhs:.5f} rel error {rep.rel_error:.4f} < 0.05",
    )


def test_11_determinism(tmp_path):
    out1 = tmp_path / "verify_t1.json"
    out8 = tmp_path / "verify_t8.json"
    code1 = dispatch(["verify", "--threads", "1", "--out", str(out1)])
    code8 = dispatch(["verify", "--threads", "8", "--out", str(out8)])
    same = out1.read_bytes() == out8.read_bytes()
    report(
        11,
        code1 == 0 and code8 == 0 and same,
        f"verify --threads 1 and --threads 8 produce byte-identical JSON "
        f"({len(out1.read_bytes())} bytes)",
    )
