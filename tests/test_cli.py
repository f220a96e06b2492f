import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from importlib import import_module
from pathlib import Path

import pytest

import twosq
from twosq.cli import SPECIAL_FUNCTIONS, _resolve_threads, build_parser, dispatch
from twosq.special import FUNCTIONS


def run_cli(args, capsys):
    code = dispatch(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliExamples:
    def test_sieve_window(self, capsys):
        code, out, _ = run_cli(["sieve", "--from", "100", "--to", "120"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["version"] == "v1"
        assert doc["count"] == 8
        assert doc["members"] == [100, 101, 104, 106, 109, 113, 116, 117]

    def test_special_point_value(self, capsys):
        code, out, _ = run_cli(["special", "--fn", "buchstab", "--at", "1.5"], capsys)
        assert code == 0
        assert out.strip() == "0.6666666667"

    def test_weights_lambda(self, capsys):
        code, out, _ = run_cli(["weights", "--k", "1", "--R", "10", "--W", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"]["1"] == "5/3"
        assert doc["Q_nu"] == "5/3"

    def test_count_modes(self, capsys):
        code, out, _ = run_cli(["count", "--x", "10"], capsys)
        assert code == 0 and json.loads(out)["count"] == 7
        code, out, _ = run_cli(["count", "--x", "100", "--y", "20"], capsys)
        assert code == 0 and json.loads(out)["count"] == 7
        code, out, _ = run_cli(["count", "--x", "40", "--q", "4", "--a", "1"], capsys)
        assert code == 0 and json.loads(out)["count"] == 8

    def test_constants(self, capsys):
        code, out, _ = run_cli(["constants", "--truncation", "100000"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["landau"] - 0.7642235) < 1e-5
        assert doc["tail_bound"] > 0

    def test_admissible(self, capsys):
        code, out, _ = run_cli(["admissible", "--k", "3", "--W", "21"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["forms"] == [[1, 1], [1, 5], [1, 13]]
        assert doc["nu_table"] == {"3": 2, "7": 3}

    def test_admissible_nu_exact_for_huge_slope(self, capsys):
        # 9000000000000000001 * n wraps in int64; by brute force nu(2971) = 2
        code, out, _ = run_cli(
            ["admissible", "--forms", "[[9000000000000000001,5],[1,2]]", "--W", "2971"], capsys
        )
        assert code == 0
        assert json.loads(out)["nu_table"] == {"2971": 2}

    def test_admissible_large_prime_gcd(self, capsys):
        # gcd(a, b) = 10^18 + 3, a prime = 3 (mod 4) that covers every residue
        code, _, err = run_cli(
            ["admissible", "--forms", "[[1000000000000000003,2000000000000000006]]", "--W", "1"], capsys
        )
        assert code == 1
        assert "not admissible" in err

    def test_admissible_mersenne_p0(self, capsys):
        code, out, _ = run_cli(["admissible", "--k", "2", "--p0", str(2**61 - 1), "--W", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["p0"] == 2**61 - 1
        assert doc["forms"] == [[1, 1], [1, 5]]

    def test_maier_demo(self, capsys):
        code, out, _ = run_cli(
            ["maier-demo", "--z", "3", "--a", "1", "--x", "10000", "--Q", "100"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["P"] == 3**7
        assert doc["lhs"] == 76

    def test_scan_residues_csv(self, capsys):
        code, out, _ = run_cli(
            ["scan-residues", "--x", "40", "--q", "4", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,count,predicted,ratio,applicable"
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts == [7, 8, 5, 0]

    def test_special_tabulation_csv(self, capsys):
        code, out, _ = run_cli(
            ["special", "--fn", "halfdim_f", "--from", "0", "--to", "1", "--step", "0.5"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,s,value"
        assert all(line.endswith(",0") for line in lines[1:])

    def test_gpy_demo_small(self, capsys):
        code, out, _ = run_cli(
            ["gpy-demo", "--k", "2", "--X", "20000", "--R", "50", "--mass-check"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 2
        assert doc["mass_check"]["within_bound"] is True


class TestCliBehavior:
    def test_verify_thread_determinism(self, capsys):
        code1, out1, _ = run_cli(["verify", "--threads", "1"], capsys)
        code2, out2, _ = run_cli(["verify", "--threads", "8"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["all_ok"] is True
        assert len(doc["checks"]) == 18

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(["count", "--x", "10", "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["count"] == 7

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(["count", "--x", "-5"], capsys)
        assert code == 1
        assert "error" in err

    def test_window_past_int64_is_domain_error(self, capsys):
        # x + y > 2^63 - 1: out of domain, not a memory budget problem
        code, _, err = run_cli(["count", "--x", "9223372036854775800", "--y", "100"], capsys)
        assert code == 1
        assert "2^63" in err and "budget" not in err

    def test_form_coefficient_past_int64_rejected(self, capsys):
        code, _, err = run_cli(["admissible", "--forms", "[[99999999999999999999999,1]]", "--W", "1"], capsys)
        assert code == 1
        assert "2^63 - 1" in err
        assert "must be JSON" not in err

    def test_form_coefficient_not_positive_rejected(self, capsys):
        code, _, err = run_cli(["admissible", "--forms", "[[-1,1]]", "--W", "1"], capsys)
        assert code == 1
        assert "positive" in err
        assert "must be JSON" not in err

    def test_forms_wrong_shape_rejected(self, capsys):
        code, _, err = run_cli(["admissible", "--forms", "[[1,2,3]]", "--W", "1"], capsys)
        assert code == 1
        assert "--forms must be JSON like" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-intervals", "--X", "2500000", "--y", "20", "--stride", "997"],
            ["scan-progressions", "--x", "5000000", "--Q", "20", "--a", "1"],
        ],
    )
    def test_scan_thread_determinism(self, argv, capsys):
        # both ranges span more than one sieve segment
        code1, out1, _ = run_cli(argv + ["--threads", "1"], capsys)
        code2, out2, _ = run_cli(argv + ["--threads", "2"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-intervals", "--X", "1000000000000000", "--y", "10"],
            ["scan-progressions", "--x", "100", "--Q", "1000000000000"],
            ["scan-residues", "--x", "10", "--q", "1000000000000"],
        ],
    )
    def test_scan_row_budget(self, argv, capsys):
        # refused from the row count alone, before any column is allocated
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "rows exceed budget" in err
        assert "Traceback" not in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["count", "--nonsense", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["count", "--x", "40", "--y", "20", "--q", "4"], "--y (an interval) and --q"),
        (["count", "--x", "40", "--a", "3"], "--a needs --q"),
        (["special", "--fn", "g", "--at", "2", "--from", "1", "--to", "3"], "--at (one value) excludes"),
        (["special", "--fn", "g", "--at", "2", "--to", "3"], "--at (one value) excludes"),
        (["sieve", "--from", "1", "--to", "9", "--paper-strict"], "unrecognized arguments"),
        (["special", "--fn", "g", "--at", "2", "--step", "5"], "--at (one value) excludes"),
        (["special", "--fn", "g"], "provide --at, or --from/--to"),
        (["special", "--fn", "g", "--from", "2"], "provide --at, or --from/--to"),
    ])
    def test_ignored_flags_are_usage_errors(self, argv, message, capsys):
        # each once exited 0 with a report that dropped a flag
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_special_row_budget(self, capsys):
        # unchecked, this tabulation grows past 1 GB and runs for days
        t0 = time.perf_counter()
        code, out, err = run_cli(["special", "--fn", "buchstab", "--from", "1", "--to", "1e12", "--step", "1"], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "rows exceed budget" in err

    def test_constants_truncation_budget(self, capsys):
        # unchecked, 2.4e5 segments of 2^22 integers: hours
        t0 = time.perf_counter()
        code, out, err = run_cli(["constants", "--truncation", str(10**12)], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "budget" in err

    def test_help_exits_zero(self, capsys):
        parser = build_parser()
        for action in parser._subparsers._group_actions:
            for name in action.choices:
                with pytest.raises(SystemExit) as exc:
                    dispatch([name, "--help"])
                assert exc.value.code == 0
                capsys.readouterr()

    def test_paper_strict_couples_R(self, capsys):
        # X = 2^40: R becomes floor(X^(1/10)) = 16
        code, out, _ = run_cli(
            ["weights", "--k", "1", "--X", str(2**40), "--paper-strict", "--R", "999"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["R"] == 16

    def test_paper_strict_rejects_violations(self, capsys):
        # k = 4 exceeds (ln X)^(1/5) at X = 10^6
        code, _, err = run_cli(
            ["gpy-demo", "--k", "4", "--X", "1000000", "--paper-strict"], capsys
        )
        assert code == 1
        assert "size condition" in err

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        # resolved only; no thread is started
        monkeypatch.setattr("twosq.cli.os.cpu_count", lambda: 2)
        assert _resolve_threads(64) == 2
        assert _resolve_threads(1) == 1
        assert _resolve_threads(0) == 1
        assert _resolve_threads(None) == 2

    def test_maier_budget_checked_before_enumeration(self, capsys):
        # 1,783,627,776 d with d^2 | P: listing them before the budget check
        # once ran the machine out of memory
        argv = ["maier-demo", "--z", "200", "--x", "10000000", "--Q", "1000", "--a", "5"]
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            code, _, err = run_cli(argv, capsys)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and err.startswith("error:") and "budget" in err
        assert elapsed < 1.0
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv", [
        ["weights", "--R", str(2**40)],
        ["gpy-demo", "--R", str(2**40)],
        ["verify", "--summation", "--summation-R", str(2**40)],
        ["maier-demo", "--z", str(2**40), "--x", "1000", "--Q", "10"],
    ])
    def test_prime_sieve_budget(self, argv, capsys):
        # each path sieves primes up to its argument; unchecked, that is a
        # 1 TB flag array
        code, _, err = run_cli(argv, capsys)
        assert code == 1 and err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize("argv", [
        ["special", "--fn", "buchstab", "--at", "nan"],
        ["special", "--fn", "g", "--at", "nan"],
        ["special", "--fn", "g", "--from", "2", "--to", "3", "--step", "nan"],
        ["special", "--fn", "g", "--from", "2", "--to", "inf"],
    ])
    def test_special_non_finite_rejected(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == "" and err.startswith("error:")

    def test_float_formatting_ten_digits(self, capsys):
        code, out, _ = run_cli(["special", "--fn", "buchstab", "--at", "2.5", "--format", "json"], capsys)
        doc = json.loads(out)
        assert abs(doc["value"] - (1 + __import__("math").log(1.5)) / 2.5) < 1e-9
        assert "0.5621860432" in out


class TestLazyImports:
    @pytest.mark.parametrize("argv, stdout, absent", [
        (["count", "--x", "100"], '"count": 43', ("twosq.weights", "twosq.scans", "twosq.admissible")),
        (["constants", "--truncation", "100"], '"landau": 0.76', ("twosq.weights", "twosq.scans", "twosq.admissible")),
        (["special", "--fn", "buchstab", "--at", "1.5"], "0.6666666667",
         ("twosq.weights", "twosq.scans", "twosq.admissible", "twosq.sieve")),
    ], ids=["count", "constants", "special"])
    def test_subcommand_loads_only_its_modules(self, argv, stdout, absent):
        # python -v logs every module as it is loaded, by import statement or importlib
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-v", "-m", "twosq.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert stdout in done.stdout
        loaded = set(re.findall(r"^import '(twosq[\w.]*)'", done.stderr, re.MULTILINE))
        assert {"twosq.errors", "twosq.reportio"} <= loaded
        assert loaded.isdisjoint(absent), loaded & set(absent)

    def test_special_choices_are_the_functions(self):
        assert SPECIAL_FUNCTIONS == tuple(FUNCTIONS)
        (special,) = [a.choices["special"] for a in build_parser()._subparsers._group_actions]
        (fn,) = [a for a in special._actions if a.dest == "fn"]
        assert tuple(fn.choices) == SPECIAL_FUNCTIONS

    def test_star_import_resolves_every_export(self):
        namespace = {}
        exec("from twosq import *", namespace)
        assert len(set(twosq.__all__)) == len(twosq.__all__) == 45
        for module, names in twosq._EXPORTS.items():
            home = import_module(f"twosq.{module}")
            for name in names:
                assert namespace[name] is vars(home)[name], name
                assert getattr(namespace[name], "__module__", home.__name__) == home.__name__, name
        with pytest.raises(AttributeError):
            twosq.no_such_name
