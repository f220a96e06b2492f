import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from importlib import import_module
from pathlib import Path

import pytest

import twosq
from twosq.cli import SPECIAL_FUNCTIONS, build_parser, dispatch
from twosq.special import FUNCTIONS


def run_cli(args, capsys):
    code = dispatch(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env(**overrides):
    """This environment with src/ first on PYTHONPATH, OPENBLAS_NUM_THREADS
    removed, and `overrides` set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**env, **overrides}


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

    def test_gpy_demo_empty_class(self, capsys):
        # (5, 10] holds no n = 0 (mod 21): the run succeeds, and the averages
        # over the class and the margin are null (None in CSV)
        argv = ["gpy-demo", "--k", "1", "--W", "21", "--X", "5"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == (
            '{"version": "v1", "X_lo": 5, "X_hi": 10, "R": 1000, "k": 1, "W": 21, "v0": 0, '
            '"class_size": 0, "sum_w": "0", "sum_hits_w": "0", "weighted_avg": null, '
            '"class_unweighted_avg": null, "overall_unweighted_avg": "3/5", '
            '"weighted_avg_float": null, "class_unweighted_avg_float": null, '
            '"overall_unweighted_avg_float": 0.6, "empty_class": true, "margin": null}\n'
        )
        code, out, _ = run_cli([*argv, "--format", "csv"], capsys)
        assert code == 0
        assert out == "\n".join([
            "field,value",
            "X_lo,5",
            "X_hi,10",
            "R,1000",
            "k,1",
            "W,21",
            "v0,0",
            "class_size,0",
            "sum_w,0",
            "sum_hits_w,0",
            "weighted_avg,None",
            "class_unweighted_avg,None",
            "overall_unweighted_avg,3/5",
            "weighted_avg_float,None",
            "class_unweighted_avg_float,None",
            "overall_unweighted_avg_float,0.6",
            "empty_class,True",
            "margin,None",
            "",
        ])


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

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # the reader takes 20 bytes of a 3.5 MB report and closes the pipe:
        # exit 1 and nothing on stderr, not a BrokenPipeError traceback
        argv = [sys.executable, "-m", "twosq.cli", "sieve", "--from", "1", "--to", "2000000"]
        with open(tmp_path / "stderr", "w+b") as err:
            child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=subprocess_env())
            assert len(child.stdout.read(20)) == 20
            child.stdout.close()
            assert child.wait(timeout=60) == 1
            err.seek(0)
            assert err.read() == b""

    def test_out_path_not_writable(self, capsys, tmp_path):
        # a missing directory: an error line and exit 1, not a traceback
        path = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(["count", "--x", "10", "--out", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: count: ") and "No such file or directory" in err
        assert not path.parent.exists()

    @pytest.mark.parametrize("argv", [["weights", "--R", "35000"], ["weights", "--R", "100000", "--format", "csv"]],
                             ids=["json", "csv"])
    def test_number_past_digit_limit_is_error_line(self, argv, capsys, tmp_path):
        # at R = 35000 the denominator of Q_nu-1 has 4,331 digits, and at
        # R = 100000 lambda's too: str refuses them, and the writer says so
        # before --out is opened (R = 35000 in CSV, with no Q_nu-1, is golden)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            path = tmp_path / "report"
            code, out, err = run_cli([*argv, "--out", str(path)], capsys)
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sys.get_int_max_str_digits() = 4300" in err
        assert not path.exists()

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(["count", "--x", "-5"], capsys)
        assert code == 1
        assert "error" in err

    def test_window_past_int64_is_domain_error(self, capsys):
        # x + y > 2^63 - 1: out of domain, not a memory budget problem
        code, _, err = run_cli(["count", "--x", "9223372036854775800", "--y", "100"], capsys)
        assert code == 1
        assert "2^63" in err and "budget" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--x", "10000000000000000000"], "count_upto: need 0 <= x <= 2^63 - 1, got x=10000000000000000000"),
            (["--x", "9223372036854775808"], "count_upto: need 0 <= x <= 2^63 - 1, got x=9223372036854775808"),
            (["--x", "9223372036854775807", "--y", "1"],
             "count_interval: need x + y <= 2^63 - 1, got x=9223372036854775807, y=1"),
            (["--x", "10000000000000000000", "--q", "3", "--a", "1"],
             "count_progression: need 0 <= x <= 2^63 - 1, got x=10000000000000000000"),
        ],
        ids=["upto", "upto-2^63", "interval", "progression"],
    )
    def test_count_past_int64_names_the_function(self, argv, message, capsys):
        code, out, err = run_cli(["count", *argv], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sieve", "--from", "2000000000000000000", "--to", "2000000000000000100"],
             "sieve_segment: sieve to 1414213562 exceeds the prime-sieve budget (limit 2^30)"),
            (["count", "--x", "2000000000000000000", "--y", "100"],
             "count_interval: sieve to 1414213562 exceeds the prime-sieve budget (limit 2^30)"),
            (["count", "--x", "9223372036854775807", "--q", "10000000000000000", "--a", "5"],
             "count_progression: sieve to 3037000499 exceeds the prime-sieve budget (limit 2^30)"),
            (["constants", "--truncation", "100000000000"],
             "landau_constant: sieve to 100000000000 exceeds the prime-sieve budget (limit 2^30)"),
        ],
        ids=["sieve", "count-interval", "count-progression", "constants"],
    )
    def test_prime_sieve_budget_names_the_function(self, monkeypatch, argv, message, capsys):
        # refused by the public function the command calls, before any prime
        # block is sieved or any list is built
        def reached(*args, **kwargs):
            raise AssertionError("a prime sieve started before the budget was checked")

        for name in ("twosq.sieve.iter_prime_blocks", "twosq.sieve.p3_primes", "twosq.arith.iter_prime_blocks"):
            monkeypatch.setattr(name, reached)
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["scan-progressions", "--x", "10000000000000000000", "--Q", "1", "--a", "1"],
             "scan_progressions: need 3 <= x <= 2^63 - 1, got x=10000000000000000000"),
            # refused before its 10^7 + 1 rows meet the row budget
            (["scan-progressions", "--x", "10000000000000000000", "--Q", "10000000"],
             "scan_progressions: need 3 <= x <= 2^63 - 1, got x=10000000000000000000"),
            (["scan-residues", "--x", "10000000000000000000", "--q", "3"],
             "scan_residues: need 3 <= x <= 2^63 - 1, got x=10000000000000000000"),
            (["scan-intervals", "--X", "9223372036854775000", "--y", "10", "--stride", "1000000000000000000"],
             "scan_intervals: need 2X + y <= 2^63 - 1, got X=9223372036854775000, y=10"),
        ],
        ids=["progressions", "progressions-before-budget", "residues", "intervals"],
    )
    def test_scan_past_int64_names_the_scan(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_mass_check_pair_budget_names_the_function(self, monkeypatch, capsys):
        # the weight-mass bound is a direct pair sum, refused past the budget
        # as quadratic_forms refuses its own (support 1, 3, 7: 9 pairs)
        monkeypatch.setattr("twosq.weights.MAX_SUPPORT_PAIRS", 4)
        argv = ["gpy-demo", "--k", "1", "--W", "1", "--X", "1000", "--R", "10", "--mass-check"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == "error: check_weight_mass: |support|^2 = 9 exceeds 4; reduce R\n"

    def test_mass_check_pair_budget_before_the_experiment(self, monkeypatch, capsys):
        # 2,669 support elements at R = 20000: the budget is refused before the
        # weighted experiment over 10^6 integers starts (it once ran 17.5 s first)
        def reached(*args, **kwargs):
            raise AssertionError("weighted_experiment ran before the pair budget was checked")

        monkeypatch.setattr("twosq.cli.weighted_experiment", reached)
        argv = ["gpy-demo", "--k", "1", "--W", "1", "--X", "1000000", "--R", "20000", "--mass-check"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == "error: check_weight_mass: |support|^2 = 7123561 exceeds 4000000; reduce R\n"

    def test_form_window_refused_before_the_weights(self, monkeypatch, capsys):
        # n + 1 spans 10^8 values over (10^8, 2 * 10^8], past the segment
        # budget: refused before the weights at R = 2 * 10^6 are built (it
        # once took 90 s to build them first)
        def reached(*args, **kwargs):
            raise AssertionError("build_weights ran before the form windows were checked")

        monkeypatch.setattr("twosq.cli.build_weights", reached)
        argv = ["gpy-demo", "--k", "1", "--W", "1", "--X", "100000000", "--R", "2000000"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == "error: weighted_experiment: n+1 spans 100000000 values, past budget 67108864\n"

    def test_summation_refused_before_the_grid(self, monkeypatch, capsys):
        # the summation sieves primes below R: past the budget it is refused
        # before the 18 weight systems of the (k, R, W) grid are built
        def reached(*args, **kwargs):
            raise AssertionError("build_weights ran before the summation bound was checked")

        monkeypatch.setattr("twosq.cli.build_weights", reached)
        code, out, err = run_cli(["verify", "--summation", "--summation-R", "1073741826"], capsys)
        assert code == 1 and out == ""
        assert err == ("error: verify_sieve_summation: sieve to 1073741825 exceeds the prime-sieve budget"
                       " (limit 2^30)\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["admissible", "--W", "0"],
            ["admissible", "--W", "-21"],
            ["weights", "--W", "0", "--R", "10"],
            ["gpy-demo", "--W", "0"],
        ],
        ids=["admissible-0", "admissible-neg", "weights", "gpy-demo"],
    )
    def test_nonpositive_W_rejected(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == f"error: AdmissibleSystem: W must be >= 1, got {argv[2]}\n"

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

    @pytest.mark.parametrize("forms", ["[[1.5,2]]", "[[true,5]]", '[[1,"5"]]'], ids=["float", "bool", "string"])
    def test_forms_not_integers_rejected(self, forms, capsys):
        # none is a JSON integer, though int() takes each (1.5 and true as 1)
        code, out, err = run_cli(["admissible", "--forms", forms, "--W", "1"], capsys)
        assert code == 1 and out == ""
        assert "--forms must be JSON like" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-intervals", "--X", "2500000", "--y", "20", "--stride", "997"],
            ["scan-progressions", "--x", "5000000", "--Q", "20", "--a", "1"],
            ["count", "--x", "5000000"],
            ["scan-residues", "--x", "5000000", "--q", "12"],
        ],
    )
    def test_scan_thread_determinism(self, argv, capsys):
        # every range spans more than one sieve segment
        code1, out1, _ = run_cli(argv + ["--threads", "1"], capsys)
        code2, out2, _ = run_cli(argv + ["--threads", "2"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--x", "5000000"],
            ["scan-intervals", "--X", "2500000", "--y", "20", "--stride", "997"],
            ["scan-progressions", "--x", "5000000", "--Q", "20", "--a", "1"],
        ],
    )
    def test_no_thread_started(self, argv, capsys, monkeypatch):
        # --threads is accepted and ignored: the sieve streams on one thread
        def refuse(thread):
            raise AssertionError(f"thread started: {thread}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        code, out, _ = run_cli(argv + ["--threads", "2"], capsys)
        assert code == 0 and out.startswith('{"version": "v1"')

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

    def test_sieve_member_budget(self, capsys):
        # each member is a report row, and these 5,744,784 members exceed the
        # row budget (unchecked, the JSON run peaks at about 126 MB for 55 MB
        # of text)
        code, out, err = run_cli(["sieve", "--from", "1", "--to", "30000000"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "sieve: 5744784 rows exceed budget" in err

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

    def test_paper_strict_rejects_coefficients(self, capsys):
        # a = 2 exceeds (ln X)^(1/3) = 1.904 at X = 1000, and is even
        code, out, err = run_cli(["weights", "--paper-strict", "--X", "1000", "--forms", "[[2,1]]"], capsys)
        assert code == 1 and out == ""
        assert err == ("error: weights: paper-strict size conditions violated:"
                       " a=2 exceeds (ln X)^(1/3)=1.904; a=2 is even\n")

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

    def test_special_point_value_overflow(self, capsys):
        # buchstab(s) = 1/s overflows just above 0; the bare value is spelled
        # as in the JSON report and in every CSV table
        argv = ["special", "--fn", "buchstab", "--at", "1e-320"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out == "Infinity\n"
        code, out, _ = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0 and '"value": Infinity' in out

    def test_float_formatting_ten_digits(self, capsys):
        code, out, _ = run_cli(["special", "--fn", "buchstab", "--at", "2.5", "--format", "json"], capsys)
        doc = json.loads(out)
        assert abs(doc["value"] - (1 + __import__("math").log(1.5)) / 2.5) < 1e-9
        assert "0.5621860432" in out


class TestLazyImports:
    @pytest.mark.parametrize("argv, stdout, absent", [
        (["count", "--x", "100"], '"count": 43', ("twosq.weights", "twosq.scans", "twosq.admissible")),
        (["constants", "--truncation", "100"], '"landau": 0.76',
         ("twosq.weights", "twosq.scans", "twosq.admissible", "twosq.special")),
        (["special", "--fn", "buchstab", "--at", "1.5"], "0.6666666667",
         ("twosq.weights", "twosq.scans", "twosq.admissible", "twosq.sieve")),
        (["scan-intervals", "--X", "16", "--y", "2"], '"n_windows": 17',
         ("twosq.weights", "twosq.special", "twosq.admissible")),
    ], ids=["count", "constants", "special", "scan-intervals"])
    def test_subcommand_loads_only_its_modules(self, argv, stdout, absent):
        # python -v logs every module as it is loaded, by import statement or importlib
        env = subprocess_env()
        done = subprocess.run(
            [sys.executable, "-v", "-m", "twosq.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert stdout in done.stdout
        loaded = set(re.findall(r"^import '(twosq[\w.]*|json)'", done.stderr, re.MULTILINE))
        assert {"twosq.errors", "twosq.reportio"} <= loaded
        # json is loaded only to read --forms
        assert loaded.isdisjoint(("json", *absent)), loaded & {"json", *absent}

    def test_runpy_runs_like_python_m(self):
        # under runpy.run_module the module runs in a namespace that is not
        # sys.modules["twosq.cli"]; the handlers must still find their names
        env = subprocess_env()
        argv = ["count", "--x", "100"]
        via_m = subprocess.run(
            [sys.executable, "-m", "twosq.cli", *argv], capture_output=True, env=env, timeout=60, check=True
        )
        code = f"import runpy, sys; sys.argv = ['twosq', *{argv!r}]; runpy.run_module('twosq.cli', run_name='__main__')"
        via_runpy = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, timeout=60, check=True
        )
        assert via_runpy.stdout == via_m.stdout
        assert b'"count": 43' in via_m.stdout

    def test_special_choices_are_the_functions(self):
        assert SPECIAL_FUNCTIONS == tuple(FUNCTIONS)
        (special,) = [a.choices["special"] for a in build_parser()._subparsers._group_actions]
        (fn,) = [a for a in special._actions if a.dest == "fn"]
        assert tuple(fn.choices) == SPECIAL_FUNCTIONS

    def test_cli_names_resolve_to_their_homes(self):
        # the handlers' library names are read from the package's _EXPORTS; a
        # name missing there would fail only when its subcommand runs
        import twosq.cli as cli

        names = set(re.findall(r"\b_cli\.(\w+)", Path(cli.__file__).read_text()))
        home = {name: module for module, names in twosq._EXPORTS.items() for name in names}
        assert len(names) > 20
        for name in sorted(names):
            assert name in home, name
            assert getattr(cli._cli, name) is vars(import_module(f"twosq.{home[name]}"))[name], name

    def test_star_import_resolves_every_export(self):
        namespace = {}
        exec("from twosq import *", namespace)
        assert len(set(twosq.__all__)) == len(twosq.__all__) == 48
        for module, names in twosq._EXPORTS.items():
            home = import_module(f"twosq.{module}")
            for name in names:
                assert namespace[name] is vars(home)[name], name
                assert getattr(namespace[name], "__module__", home.__name__) == home.__name__, name
        with pytest.raises(AttributeError):
            twosq.no_such_name


class TestBlasThreads:
    @staticmethod
    def threads_and_setting(**preset):
        code = 'import os, twosq.cli; print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))'
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=subprocess_env(**preset), timeout=60, check=True)
        return done.stdout.split()

    needs_task_list = pytest.mark.skipif(
        not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
        reason="needs /proc/self/task and two or more CPUs",
    )

    @needs_task_list
    def test_cli_process_holds_one_thread(self):
        # without the setting numpy's OpenBLAS starts one worker per extra CPU
        assert self.threads_and_setting() == ["1", "1"]

    @needs_task_list
    def test_explicit_setting_wins(self):
        assert self.threads_and_setting(OPENBLAS_NUM_THREADS="2")[1] == "2"

    def test_bytes_do_not_depend_on_blas_threads(self, capsys):
        # past s = 3, f comes from the marched F/f tables, whose build makes
        # the toolkit's two BLAS calls (leggauss and a matrix-vector product)
        argv = ["special", "--fn", "halfdim_f", "--from", "2", "--to", "6", "--step", "0.5"]
        outs = [
            subprocess.run([sys.executable, "-m", "twosq.cli", *argv], capture_output=True,
                           env=subprocess_env(**preset), timeout=60, check=True).stdout
            for preset in ({}, {"OPENBLAS_NUM_THREADS": "2"})
        ]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert outs[0] == outs[1] == out.encode()
