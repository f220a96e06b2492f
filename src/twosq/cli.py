"""Batch command-line front end.

One subcommand per toolkit object.  Each handler takes the parsed arguments
and returns its report twice over: the JSON document (without its version)
and its CSV rows, a `Records` table or a (header, rows) pair; `special --at`
gives its bare value as one row with no header.  `dispatch` alone stamps
"version": "v1" on the document, picks the format (JSON by default;
`special` writes CSV, its table or its bare value) and writes the report.
Handlers pass floats and Fractions as they are: the writer alone formats
them.  Identical configurations produce byte-identical output; floats are
fixed at 10 significant digits and rationals print as "num/den".  Every run
uses one thread; --threads is accepted and ignored.  numpy's OpenBLAS gets
one thread too, unless OPENBLAS_NUM_THREADS is already set: otherwise it
starts a worker per extra CPU when numpy loads, and the worker spins on a
core waiting for matrix work that the toolkit's two small BLAS calls never
give it: on a 2-vCPU host, 55 ms of CPU in a bare numpy import and 140 ms
in a 0.2 s `count --x 12500000`.

Only the error types and the report writer are imported with this module.
Every other library name the handlers use is loaded from its home module
on first use, the home read from the package's own table (`twosq._EXPORTS`),
so a run loads only the modules its subcommand needs (the parser itself
imports nothing).  Handlers read those names through `_cli`,
a view of this module's globals, which keeps each of them reachable as
`twosq.cli.<name>`; a name rebound there (by a tracer, say) is the one that runs.

Exit codes: 0 success, 1 domain/resource error, an --out path that cannot
be written or a stdout pipe that its reader closed early (nothing is printed
on stderr then), 2 usage error (including flags that conflict or that the
chosen mode would ignore).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import TYPE_CHECKING

# OpenBLAS reads this once, when numpy first loads it (through reportio
# below), and starts its worker pool then; a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import _EXPORTS, _lazy_getattr
from .errors import AdmissibilityError, ConvergenceError, DomainError, ResourceError
from .reportio import Records, check_rows, to_csv, to_json

if TYPE_CHECKING:
    from .admissible import AdmissibleSystem, LinearForm
    from .weights import WeightSystem

# The library names the handlers call; see the module docstring.
__getattr__ = _lazy_getattr(globals(), _EXPORTS)


class _Globals:
    """This module's globals as attributes, loading library names on first use.
    Unlike sys.modules[__name__], the globals are the running namespace under
    runpy.run_module too."""

    def __getattr__(self, name):
        namespace = globals()
        return namespace[name] if name in namespace else namespace["__getattr__"](name)


_cli = _Globals()

SCHEMA_VERSION = "v1"

# special --fn choices, the keys of special.FUNCTIONS, spelled out so that
# building the parser imports nothing.
SPECIAL_FUNCTIONS = ("buchstab", "halfdim_F", "halfdim_f", "g")
SPECIAL_STEP = 0.25

VERIFY_GRID_K = (1, 2, 3)
VERIFY_GRID_R = (10, 100, 500)
VERIFY_GRID_W = (1, 21)


class UsageError(Exception):
    """Flags that conflict, or that the chosen mode would silently ignore."""


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (document, CSV rows); see the module
# docstring.
# ---------------------------------------------------------------------------


def _cmd_sieve(args):
    table = _cli.sieve_segment(args.lo, args.hi)
    check_rows("sieve", table.count_range(args.lo, args.hi))  # a row per member
    members = table.members()
    doc = {"lo": args.lo, "hi": args.hi, "count": len(members), "members": members}
    return doc, Records.held(("member",), (members,))


def _cmd_count(args):
    if args.q is not None and args.y is not None:
        raise UsageError("count: --y (an interval) and --q (a progression) exclude each other")
    if args.a is not None and args.q is None:
        raise UsageError("count: --a needs --q")
    if args.q is not None:
        a = args.a if args.a is not None else 0
        value = _cli.count_progression(args.x, args.q, a)
        doc = {"kind": "progression", "x": args.x, "q": args.q, "a": a, "count": value}
    elif args.y is not None:
        value = _cli.count_interval(args.x, args.y)
        doc = {"kind": "interval", "x": args.x, "y": args.y, "count": value}
    else:
        value = _cli.count_upto(args.x)
        doc = {"kind": "upto", "x": args.x, "count": value}
    return doc, (["kind", "x", "count"], [(doc["kind"], args.x, value)])


def _scan_report(report):
    return report.to_json_dict(), Records(report.csv_header, report.n_windows, report.rows)


def _cmd_scan_intervals(args):
    return _scan_report(_cli.scan_intervals(args.X, args.y, args.stride))


def _cmd_scan_progressions(args):
    return _scan_report(_cli.scan_progressions(args.x, args.Q, args.a))


def _cmd_scan_residues(args):
    return _scan_report(_cli.scan_residues(args.x, args.q))


def _cmd_constants(args):
    value, tail = _cli.landau_constant(args.truncation)
    doc = {
        "landau": value,
        "tail_bound": tail,
        "truncation": args.truncation,
        "euler_gamma": _cli.EULER_GAMMA,
        "e_gamma": _cli.E_GAMMA,
        "e_neg_gamma": _cli.E_NEG_GAMMA,
    }
    return doc, (["constant", "value"], sorted([*doc.items(), ("version", SCHEMA_VERSION)]))


def _cmd_special(args):
    if args.at is not None:
        if (args.lo, args.hi, args.step) != (None, None, None):
            raise UsageError("special: --at (one value) excludes --from/--to/--step (a table)")
        value = _cli.FUNCTIONS[args.fn](args.at)
        return {"fn": args.fn, "s": args.at, "value": value}, (None, [(value,)])
    if args.lo is None or args.hi is None:
        raise UsageError("special: provide --at, or --from/--to for tabulation")
    step = SPECIAL_STEP if args.step is None else args.step
    table = _cli.tabulation_rows(args.fn, args.lo, args.hi, step)
    return {"fn": args.fn, "rows": table}, table


def _parse_forms(name: str, text: str) -> list[LinearForm]:
    import json  # only --forms is read as JSON: no other run loads it

    try:
        pairs = [(a, b) for a, b in json.loads(text)]
        if not all(type(v) is int for pair in pairs for v in pair):  # not bool, float or str
            raise TypeError("coefficients must be JSON integers")
    except (ValueError, TypeError) as exc:
        raise DomainError(f"{name}: --forms must be JSON like [[1,1],[1,5]], got {text!r}: {exc}")
    return [_cli.LinearForm(a, b) for a, b in pairs]


def _build_system(args) -> AdmissibleSystem:
    forms = _parse_forms(args.subcommand, args.forms) if args.forms else _cli.build_default_set(args.k, args.p0)
    W = 1 if args.W is None and args.X is None else args.W
    if args.paper_strict:
        if args.X is None:
            raise DomainError(f"{args.subcommand}: --paper-strict requires --X (it couples R to X^(1/10))")
        violations = _cli.size_conditions(forms, args.X)
        if violations:
            raise DomainError(f"{args.subcommand}: paper-strict size conditions violated: " + "; ".join(violations))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # build only warns of size conditions, refused above under --paper-strict
        return _cli.AdmissibleSystem.build(forms, p0=args.p0, W=W, X=args.X)


def _cmd_admissible(args):
    system = _build_system(args)
    doc = {
        **system.to_json_dict(),
        "k": system.k,
        "nu_table": {str(p): v for p, v in sorted(system.nu_table.items())},
    }
    return doc, (["a", "b"], [(f.a, f.b) for f in system.forms])


def _paper_strict_R(args) -> int:
    """R = X^(1/10) under --paper-strict (_build_system has refused it without --X), else --R."""
    return max(1, int(args.X ** 0.1)) if args.paper_strict else args.R


def _cmd_weights(args):
    system = _build_system(args)
    ws = _cli.build_weights(system, _paper_strict_R(args))
    doc = {"system": system.to_json_dict(), **ws.to_json_dict()}
    return doc, (["d", "lambda", "ystar"], [(d, ws.lam[d], ws.ystar[d]) for d in ws.support])


def _cmd_gpy_demo(args):
    system = _build_system(args)
    x_lo = args.X if args.X is not None else 10**6
    _cli.check_form_windows(system.forms, x_lo, 2 * x_lo)  # refused before the weights are built
    ws = _cli.build_weights(system, _paper_strict_R(args))
    if args.mass_check:  # refused before the experiment, not after it
        ws.check_pair_budget("check_weight_mass")
    report = _cli.weighted_experiment(ws, x_lo, 2 * x_lo)
    doc = report.to_json_dict()
    if report.weighted_avg is not None and report.class_unweighted_avg:
        doc["margin"] = float(report.weighted_avg / report.class_unweighted_avg)
    else:
        doc["margin"] = None
    if args.mass_check:
        lc = _cli.check_weight_mass(ws, report)
        doc["mass_check"] = {
            "measured": lc.measured,
            "main_term": lc.main_term,
            "bound": lc.bound,
            "within_bound": lc.within_bound,
        }
    rows = []
    for k, v in doc.items():
        if isinstance(v, dict):
            rows.extend((f"{k}.{k2}", v2) for k2, v2 in v.items())
        else:
            rows.append((k, v))
    return doc, (["field", "value"], rows)


def _cmd_maier_demo(args):
    report = _cli.maier_demo(_cli.MaierConfig(z=args.z, a=args.a, x=args.x, Q=args.Q))
    return report.to_json_dict(), (["d", "count"], report.d_terms)


def _verify_cell(k: int, R: int, W: int, ws: WeightSystem) -> dict:
    rep = _cli.quadratic_forms(ws)
    roundtrip = all(
        _cli.ystar_from_lambda(ws, r) == ws.ystar[r]
        for r in ws.support
        if r > 1 and all(ws.nu_table[p] > 1 for p in ws.support_factors[r])
    )
    # the sign of each nonzero lambda_d is that of mu(d)
    sign_ok = all((ws.lam[d] > 0) == (len(ws.support_factors[d]) % 2 == 0) for d in ws.support if ws.lam[d])
    return {
        "k": k,
        "R": R,
        "W": W,
        "identities": rep.identities_hold,
        "ystar_roundtrip": roundtrip,
        "sign_matches_mu": sign_ok,
        "Q_nu": rep.Q_nu,
        "Q_nu_minus1": rep.Q_nu_minus1,
        "lambda_max": ws.lambda_max,
        "support_size": len(ws.support),
    }


def _cmd_verify(args):
    if args.summation_R is not None and not args.summation:
        raise UsageError("verify: --summation-R needs --summation")
    summation = {}
    if args.summation:  # first, so that its sieve bound is refused before the grid is built
        R = 10**6 if args.summation_R is None else args.summation_R
        rep = _cli.verify_sieve_summation(R)
        summation = {"summation": {"kappa": 0.5, "R": rep.R, "lhs": rep.lhs, "rhs": rep.rhs,
                                   "rel_error": rep.rel_error}}
    systems = {
        (k, W): _cli.AdmissibleSystem.build(_cli.build_default_set(k), W=W) for k in VERIFY_GRID_K for W in VERIFY_GRID_W
    }
    weights = {
        (k, R, W): _cli.build_weights(systems[k, W], R) for k in VERIFY_GRID_K for R in VERIFY_GRID_R for W in VERIFY_GRID_W
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
        "checks": checks,
        "lambda1_monotone_in_R": lam1_monotone,
        "all_ok": all(c["identities"] and c["ystar_roundtrip"] and c["sign_matches_mu"] for c in checks)
        and lam1_monotone,
        **summation,
    }
    header = ["k", "R", "W", "identities", "ystar_roundtrip", "sign_matches_mu"]
    return doc, (header, [tuple(int(c[f]) for f in header) for c in checks])


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twosq",
        description="Sums-of-two-squares toolkit: sieves, special functions, weights, scans.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        return sp

    def add_common(sp, fmt="json"):
        sp.add_argument("--format", choices=["json", "csv"], default=fmt, help="output format")
        sp.add_argument("--out", default=None, help="write report to this path instead of stdout")
        sp.add_argument("--threads", type=int, default=None, help="ignored: every run uses one thread")

    p = add("sieve", _cmd_sieve, "list members of a range")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    add_common(p)

    p = add("count", _cmd_count, "count members up to x, in (x, x+y], or in a progression")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--a", type=int, default=None)
    add_common(p)

    p = add("scan-intervals", _cmd_scan_intervals, "window counts over (x, x+y] for x in [X, 2X]")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    add_common(p)

    p = add("scan-progressions", _cmd_scan_progressions, "counts n <= x, n = a (mod q) for q in [Q, 2Q]")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--a", type=int, default=1)
    add_common(p)

    p = add("scan-residues", _cmd_scan_residues, "counts n <= x, n = a (mod q) for all residues a")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    add_common(p)

    p = add("constants", _cmd_constants, "density constant with rigorous tail bound")
    p.add_argument("--truncation", type=int, default=10**6)
    add_common(p)

    p = add("special", _cmd_special, "evaluate or tabulate the sieve special functions")
    p.add_argument("--fn", choices=SPECIAL_FUNCTIONS, required=True)
    p.add_argument("--at", type=float, default=None)
    p.add_argument("--from", dest="lo", type=float, default=None)
    p.add_argument("--to", dest="hi", type=float, default=None)
    p.add_argument("--step", type=float, default=None, help=f"table spacing (default {SPECIAL_STEP})")
    add_common(p, fmt="csv")  # text: the bare --at value, or the table as CSV

    def add_system_args(sp):
        sp.add_argument("--k", type=int, default=1)
        sp.add_argument("--p0", type=int, default=1)
        sp.add_argument("--W", type=int, default=None)
        sp.add_argument("--X", type=int, default=None)
        sp.add_argument("--forms", default=None, help='JSON pairs like "[[1,1],[1,5]]"')
        sp.add_argument("--paper-strict", action="store_true", help="couple R to X^(1/10), size conditions become errors")

    p = add("admissible", _cmd_admissible, "build/validate a system of linear forms")
    add_system_args(p)
    add_common(p)

    p = add("weights", _cmd_weights, "exact sieve weights for a system")
    add_system_args(p)
    p.add_argument("--R", type=int, default=10)
    add_common(p)

    p = add("gpy-demo", _cmd_gpy_demo, "weighted membership-hit experiment over (X, 2X]")
    add_system_args(p)
    p.add_argument("--R", type=int, default=1000)
    p.add_argument("--mass-check", action="store_true", help="also check the weight-mass main term")
    add_common(p)

    p = add("maier-demo", _cmd_maier_demo, "sieved double sum vs its sieve-function prediction")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--Q", type=int, required=True)
    add_common(p)

    p = add("verify", _cmd_verify, "exact-identity suite over a (k, R, W) grid")
    p.add_argument("--summation", action="store_true", help="append the dimension-1/2 summation check")
    p.add_argument("--summation-R", type=int, default=None, help="the summation's R (default 10^6); needs --summation")
    add_common(p)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, table = args.handler(args)
        if args.format == "json":
            chunks = to_json({"version": SCHEMA_VERSION, **doc})
        elif isinstance(table, Records):
            chunks = to_csv(table)
        else:
            header, rows = table
            chunks = to_csv(rows, header=header)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.writelines(chunks)
            except OSError as exc:
                print(f"error: {args.subcommand}: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
                return 1
        else:
            try:
                sys.stdout.writelines(chunks)
                sys.stdout.flush()
            except BrokenPipeError:
                # the reader is gone; devnull keeps the exit-time flush quiet
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return 1
        return 0
    except UsageError as exc:
        parser.error(str(exc))
    except (DomainError, AdmissibilityError, ResourceError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
