"""Tests for the benchmark's own code: generator, oracle, names, tracing."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_generator_is_deterministic_and_in_range():
    p1 = set(workloads.p1_numbers_upto(workloads.GPY_H_MAX))
    for seed in range(40):
        for name in workloads.NAMES:
            wl = workloads.generate(name, seed)
            assert wl == workloads.generate(name, seed)
            assert len({c.label for c in wl.commands}) == len(wl.commands)
            for cmd in wl.commands:
                if "--threads" in cmd.argv:
                    assert int(cmd.argv[cmd.argv.index("--threads") + 1]) <= 2
        low = workloads.generate("count-low", seed).params
        assert workloads.COUNT_LOW_N[0] <= low["N"] <= workloads.COUNT_LOW_N[1]
        (l1, y1), (l2, y2) = workloads.generate("window-high", seed).params["windows"]
        assert workloads.WINDOW_L1[0] <= l1 < workloads.WINDOW_L1[1] and y1 == workloads.WINDOW_Y1
        assert workloads.WINDOW_L2[0] <= l2 < workloads.WINDOW_L2[1] and y2 == workloads.WINDOW_Y2
        scan = workloads.generate("scan-report", seed).params
        assert workloads.SCAN_X[0] <= scan["X"] <= workloads.SCAN_X[1]
        assert workloads.SCAN_Y[0] <= scan["y"] <= workloads.SCAN_Y[1]
        assert workloads.SCAN_Q[0] <= scan["Q"] <= workloads.SCAN_Q[1] and scan["a"] in workloads.SCAN_A
        exact = workloads.generate("exact", seed).params
        assert workloads.GPY_X[0] <= exact["X"] <= workloads.GPY_X[1]
        assert workloads.G_T0[0] <= exact["t0"] <= workloads.G_T0[1]
        assert len(set(exact["hs"])) == workloads.GPY_K and set(exact["hs"]) <= p1
    assert workloads.generate("exact", 1) != workloads.generate("exact", 2)
    for name, simple in workloads.COMPOSITES.items():
        assert sorted(simple) == sorted(set(simple)) and set(simple) <= set(workloads.NAMES)
        labels = [c.label for wl in workloads.parts(name, 0) for c in wl.commands]
        assert len(set(labels)) == len(labels)
    assert workloads.parts("exact", 3) == (workloads.generate("exact", 3),)
    assert workloads.round_count("exact", 1) == workloads.MIN_ROUNDS


def test_p1_numbers():
    assert workloads.p1_numbers_upto(75) == [1, 5, 13, 17, 25, 29, 37, 41, 53, 61, 65, 73]


def test_lattice_oracle_matches_brute_force():
    want = np.zeros(10**4, dtype=bool)
    for a in range(101):
        for b in range(101):
            if 1 <= a * a + b * b <= 10**4:
                want[a * a + b * b - 1] = True
    assert np.array_equal(checks.two_square_marks(0, 10**4), want)
    assert np.array_equal(checks.two_square_marks(3_333, 10**4), want[3_333:])
    assert checks.two_square_count(100, 120) == 7


def test_checks_reject_wrong_outputs():
    params = {"windows": [[100, 20], [10**12, 1000]]}
    good = checks.two_square_count(10**12, 10**12 + 1000)
    doc = {"version": "v1", "kind": "interval", "x": 10**12, "y": 1000, "count": good}
    assert checks.check_window_high(params, "count_w2", json.dumps(doc).encode()) is None
    doc["count"] += 1
    assert "lattice" in checks.check_window_high(params, "count_w2", json.dumps(doc).encode())
    rising = b"kind,s,value\ng,1,1.5\ng,1.01,1.6\n"
    assert checks.check_exact({}, "special_g", rising) is not None


def test_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in workloads.COMPOSITES:  # every command gets four rounds in a run of run_seconds
        assert workloads.round_count(name, spec["run_seconds"]) == 4
    assert [w["name"] for w in spec["workloads"]] == list(workloads.COMPOSITES)
    whys = [w["why"] for w in spec["workloads"]]
    assert whys == list(workloads.COMPOSITE_WHY.values())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    names = [*workloads.COMPOSITES, *workloads.NAMES,
             *(n for n, _ in run.END_TO_END), *(n for n, _ in layers.PER_LAYER)]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit in (*run.END_TO_END, *layers.PER_LAYER):
        assert UNIT.fullmatch(unit), unit
    subs = {c.subcommand for n in workloads.NAMES for c in workloads.generate(n, 0).commands}
    assert subs == set(layers.CLI_SUBCOMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--x", "300000", "--threads", "2"],
        ["scan-progressions", "--x", "20000", "--Q", "20", "--a", "5", "--threads", "2", "--format", "csv"],
        ["gpy-demo", "--forms", "[[1,1],[1,5]]", "--X", "2000", "--R", "30", "--mass-check", "--threads", "2"],
    ],
)
def test_traced_bytes_equal_untraced(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain, traced, spans = tmp_path / "plain.out", tmp_path / "traced.out", tmp_path / "spans.jsonl"
    subprocess.run([sys.executable, "-m", "twosq.cli", *argv, "--out", str(plain)], env=env, check=True)
    subprocess.run([sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans), "--run-id", "t", "--",
                    *argv, "--out", str(traced)], env=env, check=True)
    assert traced.read_bytes() == plain.read_bytes()
    recorded = layers.read_spans(spans)
    names = {s["name"] for s in recorded}
    assert "cli.dispatch" in names and len(names) > 2
    assert names <= {"cli.dispatch", *layers.SPAN_NAMES}
    root = next(s for s in recorded if s["name"] == "cli.dispatch")
    for s in recorded:
        if s is not root:
            assert root["start"] <= s["start"] <= s["end"] <= root["end"]
