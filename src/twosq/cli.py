"""Batch command-line front end.

One subcommand per toolkit object; every run writes a machine-readable
report (JSON by default, CSV where rows are natural) with a "version": "v1"
field.  Identical configurations produce byte-identical output regardless
of --threads; floats are fixed at 10 significant digits and rationals print
as "num/den".

Exit codes: 0 success, 1 domain/resource error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import dataclass

from .admissible import AdmissibleSystem, LinearForm, build_default_set, size_conditions
from .arith import landau_constant
from .errors import AdmissibilityError, ConvergenceError, DomainError, ResourceError
from .reportio import Records, to_csv, to_json
from .scans import MaierConfig, maier_demo, scan_intervals, scan_progressions, scan_residues
from .sieve import ProgressionQuery, count_interval, count_progression, count_upto, sieve_segment
from .special import E_GAMMA, E_NEG_GAMMA, EULER_GAMMA, FUNCTIONS, tabulation_rows
from .weights import (
    WeightSystem,
    build_weights,
    gamma_p3_indicator,
    check_weight_mass,
    quadratic_forms,
    verify_sieve_summation,
    weighted_experiment,
    ystar_from_lambda,
)

SCHEMA_VERSION = "v1"

VERIFY_GRID_K = (1, 2, 3)
VERIFY_GRID_R = (10, 100, 500)
VERIFY_GRID_W = (1, 21)


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters shared by every subcommand."""

    fmt: str
    out: str | None
    threads: int
    paper_strict: bool


def _resolve_threads(value: int | None) -> int:
    # Capped at the CPU count: only the sieve runs threads, each with up to two
    # segment tables in flight, so more threads cost memory and gain nothing.
    cpus = max(1, os.cpu_count() or 1)
    return cpus if value is None else min(cpus, max(1, value))


def _write(cfg: RunConfig, chunks: list[str]) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the report as strings to write in order.
# ---------------------------------------------------------------------------


def _cmd_sieve(args, cfg: RunConfig) -> list[str]:
    seg = sieve_segment(args.lo, args.hi)
    members = seg.members().tolist()
    if cfg.fmt == "csv":
        return to_csv(zip(members), header=["member"])
    return to_json(
        {
            "version": SCHEMA_VERSION,
            "lo": args.lo,
            "hi": args.hi,
            "count": len(members),
            "members": members,
        }
    )


def _cmd_count(args, cfg: RunConfig) -> list[str]:
    if args.q is not None:
        a = args.a if args.a is not None else 0
        value = count_progression(ProgressionQuery(args.x, args.q, a), threads=cfg.threads)
        doc = {"version": SCHEMA_VERSION, "kind": "progression", "x": args.x, "q": args.q, "a": a, "count": value}
    elif args.y is not None:
        value = count_interval(args.x, args.y, threads=cfg.threads)
        doc = {"version": SCHEMA_VERSION, "kind": "interval", "x": args.x, "y": args.y, "count": value}
    else:
        value = count_upto(args.x, threads=cfg.threads)
        doc = {"version": SCHEMA_VERSION, "kind": "upto", "x": args.x, "count": value}
    if cfg.fmt == "csv":
        return to_csv([(doc["kind"], args.x, value)], header=["kind", "x", "count"])
    return to_json(doc)


def _scan_report(report, cfg: RunConfig) -> list[str]:
    if cfg.fmt == "csv":
        return to_csv(Records(report.csv_header, report.columns))
    return to_json({"version": SCHEMA_VERSION, **report.to_json_dict()})


def _cmd_scan_intervals(args, cfg: RunConfig) -> list[str]:
    return _scan_report(scan_intervals(args.X, args.y, args.stride, threads=cfg.threads), cfg)


def _cmd_scan_progressions(args, cfg: RunConfig) -> list[str]:
    return _scan_report(scan_progressions(args.x, args.Q, args.a, threads=cfg.threads), cfg)


def _cmd_scan_residues(args, cfg: RunConfig) -> list[str]:
    return _scan_report(scan_residues(args.x, args.q, threads=cfg.threads), cfg)


def _cmd_constants(args, cfg: RunConfig) -> list[str]:
    value, tail = landau_constant(args.truncation)
    doc = {
        "version": SCHEMA_VERSION,
        "landau": value,
        "tail_bound": tail,
        "truncation": args.truncation,
        "euler_gamma": EULER_GAMMA,
        "e_gamma": E_GAMMA,
        "e_neg_gamma": E_NEG_GAMMA,
    }
    if cfg.fmt == "csv":
        return to_csv(sorted(doc.items()), header=["constant", "value"])
    return to_json(doc)


def _cmd_special(args, cfg: RunConfig) -> list[str]:
    if args.at is not None:
        value = FUNCTIONS[args.fn](args.at)
        if cfg.fmt == "json":
            return to_json({"version": SCHEMA_VERSION, "fn": args.fn, "s": args.at, "value": value})
        return [f"{value:.10g}\n"]
    if args.lo is None or args.hi is None:
        raise DomainError("special: provide --at, or --from/--to for tabulation")
    rows = tabulation_rows(args.fn, args.lo, args.hi, args.step)
    table = Records(("kind", "s", "value"), tuple(zip(*rows)))
    if cfg.fmt == "json":
        return to_json({"version": SCHEMA_VERSION, "fn": args.fn, "rows": table})
    return to_csv(table)


def _parse_forms(text: str) -> list[LinearForm]:
    try:
        pairs = [(int(a), int(b)) for a, b in json.loads(text)]
    except (ValueError, TypeError) as exc:
        raise DomainError(f"--forms must be JSON like [[1,1],[1,5]], got {text!r}: {exc}")
    return [LinearForm(a, b) for a, b in pairs]


def _build_system(args, cfg: RunConfig) -> AdmissibleSystem:
    forms = _parse_forms(args.forms) if args.forms else build_default_set(args.k, args.p0)
    W = args.W
    X = args.X
    if W is None and X is None:
        W = 1
    if cfg.paper_strict and X is not None:
        violations = size_conditions(forms, X)
        if violations:
            raise DomainError("paper-strict size conditions violated: " + "; ".join(violations))
    with warnings.catch_warnings():
        if cfg.paper_strict:
            warnings.simplefilter("error")
        else:
            warnings.simplefilter("ignore")
        return AdmissibleSystem.build(forms, p0=args.p0, W=W, X=X)


def _cmd_admissible(args, cfg: RunConfig) -> list[str]:
    system = _build_system(args, cfg)
    doc = {"version": SCHEMA_VERSION, **system.to_json_dict()}
    doc["k"] = system.k
    doc["nu_table"] = {str(p): v for p, v in sorted(system.nu_table.items())}
    if cfg.fmt == "csv":
        return to_csv([(f.a, f.b) for f in system.forms], header=["a", "b"])
    return to_json(doc)


def _paper_strict_R(args, cfg: RunConfig) -> int:
    if cfg.paper_strict:
        if args.X is None:
            raise DomainError("--paper-strict requires --X (it couples R to X^(1/10))")
        return max(1, int(args.X ** 0.1))
    return args.R


def _cmd_weights(args, cfg: RunConfig) -> list[str]:
    system = _build_system(args, cfg)
    R = _paper_strict_R(args, cfg)
    ws = build_weights(system, R)
    doc = {"version": SCHEMA_VERSION, "system": system.to_json_dict(), **ws.to_json_dict()}
    if cfg.fmt == "csv":
        return to_csv(
            [(d, str(ws.lam[d]), str(ws.ystar[d])) for d in ws.support],
            header=["d", "lambda", "ystar"],
        )
    return to_json(doc)


def _cmd_gpy_demo(args, cfg: RunConfig) -> list[str]:
    system = _build_system(args, cfg)
    R = _paper_strict_R(args, cfg)
    ws = build_weights(system, R)
    x_lo = args.X if args.X is not None else 10**6
    report = weighted_experiment(ws, x_lo, 2 * x_lo)
    doc = {"version": SCHEMA_VERSION, **report.to_json_dict()}
    if report.weighted_avg is not None and report.class_unweighted_avg:
        doc["margin"] = float(report.weighted_avg / report.class_unweighted_avg)
    else:
        doc["margin"] = None
    if args.mass_check:
        lc = check_weight_mass(ws, report)
        doc["mass_check"] = {
            "measured": lc.measured,
            "main_term": lc.main_term,
            "bound": lc.bound,
            "within_bound": lc.within_bound,
        }
    if cfg.fmt == "csv":
        rows = []
        for k, v in doc.items():
            if k == "version":
                continue
            if isinstance(v, dict):
                rows.extend((f"{k}.{k2}", v2) for k2, v2 in v.items())
            else:
                rows.append((k, v))
        return to_csv(rows, header=["field", "value"])
    return to_json(doc)


def _cmd_maier_demo(args, cfg: RunConfig) -> list[str]:
    config = MaierConfig(z=args.z, a=args.a, x=args.x, Q=args.Q, delta=args.delta)
    report = maier_demo(config)
    if cfg.fmt == "csv":
        return to_csv(report.d_terms, header=["d", "count"])
    return to_json({"version": SCHEMA_VERSION, **report.to_json_dict()})


def _verify_cell(k: int, R: int, W: int, ws: WeightSystem) -> dict:
    rep = quadratic_forms(ws)
    roundtrip = True
    for r in ws.support:
        if r > 1 and all(ws.nu_table[p] > 1 for p in ws.support_factors[r]):
            if ystar_from_lambda(ws, r) != ws.ystar[r]:
                roundtrip = False
    sign_ok = True
    for d in ws.support:
        if ws.lam[d]:
            mu_d = -1 if len(ws.support_factors[d]) % 2 else 1
            if (ws.lam[d] > 0) != (mu_d > 0):
                sign_ok = False
    return {
        "k": k,
        "R": R,
        "W": W,
        "identities": rep.identities_hold,
        "ystar_roundtrip": roundtrip,
        "sign_matches_mu": sign_ok,
        "Q_nu": rep.Q_nu,
        "Q_nu_minus1": rep.Q_nu_minus1,
        "lambda_max": rep.lambda_max,
        "support_size": len(ws.support),
    }


def _cmd_verify(args, cfg: RunConfig) -> list[str]:
    systems = {(k, W): AdmissibleSystem.build(build_default_set(k), W=W) for k in VERIFY_GRID_K for W in VERIFY_GRID_W}
    weights = {
        (k, R, W): build_weights(systems[k, W], R) for k in VERIFY_GRID_K for R in VERIFY_GRID_R for W in VERIFY_GRID_W
    }
    checks = [_verify_cell(*cell, ws) for cell, ws in weights.items()]
    # lambda_1 never shrinks when R grows (every added term is nonnegative)
    lam1_monotone = all(
        weights[k, R1, W].lam[1] <= weights[k, R2, W].lam[1]
        for k in VERIFY_GRID_K
        for W in VERIFY_GRID_W
        for R1, R2 in zip(VERIFY_GRID_R, VERIFY_GRID_R[1:])
    )
    doc = {
        "version": SCHEMA_VERSION,
        "checks": checks,
        "lambda1_monotone_in_R": lam1_monotone,
        "all_ok": all(c["identities"] and c["ystar_roundtrip"] and c["sign_matches_mu"] for c in checks)
        and lam1_monotone,
    }
    if args.summation:
        rep = verify_sieve_summation(0.5, gamma_p3_indicator, args.summation_R)
        doc["summation"] = {
            "kappa": 0.5,
            "R": rep.R,
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "rel_error": rep.rel_error,
        }
    if cfg.fmt == "csv":
        rows = [
            (c["k"], c["R"], c["W"], int(c["identities"]), int(c["ystar_roundtrip"]), int(c["sign_matches_mu"]))
            for c in checks
        ]
        return to_csv(rows, header=["k", "R", "W", "identities", "ystar_roundtrip", "sign_matches_mu"])
    return to_json(doc)


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twosq",
        description="Sums-of-two-squares toolkit: sieves, special functions, weights, scans.",
    )

    def add_common(sp):
        sp.add_argument("--format", choices=["json", "csv"], default=None, help="output format")
        sp.add_argument("--out", default=None, help="write report to this path instead of stdout")
        sp.add_argument("--threads", type=int, default=None, help="parallelizes the sieve; capped at the CPU count")
        sp.add_argument("--paper-strict", action="store_true", help="couple R to X^(1/10), size conditions become errors")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sieve", help="list members of a range")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    add_common(p)

    p = sub.add_parser("count", help="count members up to x, in (x, x+y], or in a progression")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--a", type=int, default=None)
    add_common(p)

    p = sub.add_parser("scan-intervals", help="window counts over (x, x+y] for x in [X, 2X]")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    add_common(p)

    p = sub.add_parser("scan-progressions", help="counts n <= x, n = a (mod q) for q in [Q, 2Q]")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--a", type=int, default=1)
    add_common(p)

    p = sub.add_parser("scan-residues", help="counts n <= x, n = a (mod q) for all residues a")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    add_common(p)

    p = sub.add_parser("constants", help="density constant with rigorous tail bound")
    p.add_argument("--truncation", type=int, default=10**6)
    add_common(p)

    p = sub.add_parser("special", help="evaluate or tabulate the sieve special functions")
    p.add_argument("--fn", choices=list(FUNCTIONS), required=True)
    p.add_argument("--at", type=float, default=None)
    p.add_argument("--from", dest="lo", type=float, default=None)
    p.add_argument("--to", dest="hi", type=float, default=None)
    p.add_argument("--step", type=float, default=0.25)
    add_common(p)

    def add_system_args(sp):
        sp.add_argument("--k", type=int, default=1)
        sp.add_argument("--p0", type=int, default=1)
        sp.add_argument("--W", type=int, default=None)
        sp.add_argument("--X", type=int, default=None)
        sp.add_argument("--forms", default=None, help='JSON pairs like "[[1,1],[1,5]]"')

    p = sub.add_parser("admissible", help="build/validate a system of linear forms")
    add_system_args(p)
    add_common(p)

    p = sub.add_parser("weights", help="exact sieve weights for a system")
    add_system_args(p)
    p.add_argument("--R", type=int, default=10)
    add_common(p)

    p = sub.add_parser("gpy-demo", help="weighted membership-hit experiment over (X, 2X]")
    add_system_args(p)
    p.add_argument("--R", type=int, default=1000)
    p.add_argument("--mass-check", action="store_true", help="also check the weight-mass main term")
    add_common(p)

    p = sub.add_parser("maier-demo", help="sieved double sum vs its sieve-function prediction")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    add_common(p)

    p = sub.add_parser("verify", help="exact-identity suite over a (k, R, W) grid")
    p.add_argument("--summation", action="store_true", help="append the dimension-1/2 summation check")
    p.add_argument("--summation-R", type=int, default=10**6)
    add_common(p)

    return parser


_HANDLERS = {
    "sieve": _cmd_sieve,
    "count": _cmd_count,
    "scan-intervals": _cmd_scan_intervals,
    "scan-progressions": _cmd_scan_progressions,
    "scan-residues": _cmd_scan_residues,
    "constants": _cmd_constants,
    "special": _cmd_special,
    "admissible": _cmd_admissible,
    "weights": _cmd_weights,
    "gpy-demo": _cmd_gpy_demo,
    "maier-demo": _cmd_maier_demo,
    "verify": _cmd_verify,
}

def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = args.format or ("text" if args.subcommand == "special" else "json")
    try:
        cfg = RunConfig(
            fmt=fmt,
            out=args.out,
            threads=_resolve_threads(args.threads),
            paper_strict=args.paper_strict,
        )
        _write(cfg, _HANDLERS[args.subcommand](args, cfg))
        return 0
    except (DomainError, AdmissibilityError, ResourceError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
