"""Benchmark runner for the twosq CLI.

Runs seeded workloads (see workloads.py), each a list of twosq CLI
subprocesses launched one at a time, with at most --threads 2.  Every
invocation pays interpreter start-up and imports, as a user's does, so no
warm-up is excluded.  Outputs are checked after the timed region.

    python3 bench/run.py --seed 0                       # all workloads, untraced
    python3 bench/run.py --workload exact --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --workload exact --seed 3 --seconds 15 --trace 1

--trace 0 repeats rounds of one workload, as many as fit --seconds on the
tuning host (workloads.round_count), and reports its
end-to-end metrics (see end_to_end).  The composite workloads `sieve` and
`report`, which BENCHMARK.json lists, each run the commands of two of the
four simple workloads in one round.  --trace 1 makes one untraced and one
traced pass of every workload plus a set of probes, and reports the per-layer
metrics (layers.py).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Run from the root of a source checkout: the
program under test is imported from ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"

if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
CHILD_TIMEOUT_S = 60.0
# A run stops adding rounds (past MIN_ROUNDS) once it has taken this many times
# --seconds, which happens only on a host about 1.6 times slower than nominal.
OVERRUN = 1.25
CALIB_LOOP = 3_000_000


@dataclass
class Proc:
    """One finished child process, accounted with os.wait4."""

    op: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    out: Path

    def digest(self) -> tuple[str, int]:
        """sha256 and length of the output, read in chunks to keep this process small."""
        h, size = hashlib.sha256(), 0
        if self.out.exists():
            with open(self.out, "rb") as fh:
                while chunk := fh.read(1 << 20):
                    h.update(chunk)
                    size += len(chunk)
        return h.hexdigest(), size


class Runner:
    """Spawns children one at a time and tallies operations and failures."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("TWOSQ_THREADS", None)
        self.attempted = 0
        self.failed: dict[int, str] = {}

    def _start(self, tag: str) -> tuple[int, Path]:
        op = self.attempted
        self.attempted += 1
        return op, self.tmp / f"{op}-{tag}.out"

    def _spawn(self, op: int, args: list[str], out: Path) -> Proc:
        """Run `python3 <args>` to completion; time it from spawn to exit."""
        err_path = out.with_suffix(".err")
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                     stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        child.returncode = code = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace")
        err_path.unlink()
        if code != 0:
            self.fail(op, f"exit {code}: {stderr.strip()[-300:]}")
        return Proc(op, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code, out)

    def cli(self, argv, tag: str) -> Proc:
        """Untraced: python3 -m twosq.cli <argv> --out <tmp file>."""
        op, out = self._start(tag)
        return self._spawn(op, ["-m", "twosq.cli", *argv, "--out", str(out)], out)

    def traced(self, argv, tag: str, spans: Path) -> Proc:
        """The same command through tracer.py, which records spans to `spans`."""
        op, out = self._start(tag)
        return self._spawn(op, [str(BENCH / "tracer.py"), "--spans", str(spans), "--run-id", tag, "--",
                                *argv, "--out", str(out)], out)

    def probes(self, params: dict, spans: Path) -> Proc:
        op, out = self._start("probes")
        return self._spawn(op, [str(BENCH / "probes.py"), "--spans", str(spans), "--params", json.dumps(params)],
                           out)

    def fail(self, op: int, reason: str) -> None:
        self.failed.setdefault(op, reason)


def calibrate() -> float:
    """Wall time of a fixed pure-Python spin loop; reported, never used to normalize."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOP):
        acc += i & 7
    return time.perf_counter() - start


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "unknown"


def run_header(seed: int) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")),
                 platform.processor() or "unknown")
    l3 = (_read("/sys/devices/system/cpu/cpu0/cache/index3/size") or "unknown").strip()
    return {
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "nproc": os.cpu_count(),
        "cpu": model,
        "l3": l3,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "host.calib_s": calibrate(),
    }


def reference_digests() -> dict:
    return json.loads(DIGESTS.read_text())["outputs"] if DIGESTS.exists() else {}


class CommandRuns:
    """Every invocation of one command in a run, and its first output."""

    def __init__(self, cmd: workloads.Command):
        self.cmd = cmd
        self.procs: list[Proc] = []
        self.digests: list[tuple[str, int]] = []

    def add(self, proc: Proc, keep: bool) -> None:
        self.procs.append(proc)
        self.digests.append(proc.digest())
        if not keep:
            proc.out.unlink(missing_ok=True)


def run_checks(wl: workloads.Workload, runs: dict[str, CommandRuns]) -> dict[str, str | None]:
    """Oracle checks of each command's first output, in a child process (see checks.main)."""
    outputs = [f"{label}={cr.procs[0].out}" for label, cr in runs.items() if cr.procs[0].code == 0]
    if not outputs:
        return {}
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "checks.py"), "--workload", wl.name, "--params", json.dumps(wl.params),
             *outputs],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(BENCH)), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {label: f"checker timed out after {CHILD_TIMEOUT_S} s" for label in runs}
    if done.returncode != 0:
        return {label: f"checker failed: {done.stderr.strip()[-300:]}" for label in runs}
    return json.loads(done.stdout.splitlines()[-1])


def check_workload(runner: Runner, wl: workloads.Workload, runs: dict[str, CommandRuns],
                   reference: dict | None) -> None:
    """Fail every invocation of a command whose output is wrong.

    A command's output is wrong when its first output fails the oracle
    check, when count_t2's bytes differ from count_t1's, or when the bytes
    differ from the default-seed reference (if `reference` is given).  A
    later invocation also fails when its bytes differ from the first's.
    """
    reasons = run_checks(wl, runs)
    for label, cr in runs.items():
        reason = reasons.get(label)
        if reason is None and label == "count_t2" and cr.digests[0] != runs["count_t1"].digests[0]:
            reason = "bytes differ from count_t1"
        if reason is None and reference is not None:
            ref = reference.get(label, {})
            want = (ref.get("sha256"), ref.get("bytes"))
            if cr.digests[0] != want:
                reason = f"digest {cr.digests[0]} != reference {want}"
        for proc, dig in zip(cr.procs, cr.digests):
            if proc.code != 0:
                continue  # already failed
            if reason:
                runner.fail(proc.op, f"{wl.name}/{label}: {reason}")
            elif dig != cr.digests[0]:
                runner.fail(proc.op, f"{wl.name}/{label}: output differs between invocations")


def measure_rounds(runner: Runner, commands: list[workloads.Command], rounds: int, seconds: float
                   ) -> tuple[dict[str, CommandRuns], list[float]]:
    """Run `rounds` rounds of the commands, each led by one set-up invocation.

    On a host so slow that MIN_ROUNDS rounds overran `seconds` by OVERRUN,
    the rest are skipped, to keep the run inside its time limit.  Returns the
    runs of each command and the set-up wall times, one per round.
    """
    runs = {c.label: CommandRuns(c) for c in commands}
    setup: list[float] = []
    start = time.perf_counter()
    for r in range(rounds):
        if r >= workloads.MIN_ROUNDS and time.perf_counter() - start > OVERRUN * seconds:
            print(f"# host too slow: stopped after {r} of {rounds} rounds", flush=True)
            break
        setup.append(runner.cli(workloads.SETUP_ARGV, "setup").wall_s)
        for cmd in commands:
            runs[cmd.label].add(runner.cli(cmd.argv, cmd.label), keep=r == 0)
    return runs, setup


def end_to_end(runner: Runner, name: str, seed: int, seconds: float, refs: dict | None) -> dict:
    """The end-to-end metrics of one workload.

    wall_s and cpu_s take each command's fastest round and sum over the
    commands; peak_rss_mb is the median over rounds of the largest process;
    setup_s is the median of the set-up invocations, one per round.
    """
    parts = workloads.parts(name, seed)
    first_op = runner.attempted
    runs, setup = measure_rounds(runner, [c for wl in parts for c in wl.commands],
                                 workloads.round_count(name, seconds), seconds)
    for wl in parts:
        check_workload(runner, wl, {c.label: runs[c.label] for c in wl.commands},
                       None if refs is None else refs.get(wl.name, {}))
    attempted = runner.attempted - first_op
    failed = sum(1 for op in runner.failed if op >= first_op)
    rounds = len(setup)
    samples = {
        "wall_s": [sum(cr.procs[i].wall_s for cr in runs.values()) for i in range(rounds)],
        "cpu_s": [sum(cr.procs[i].cpu_s for cr in runs.values()) for i in range(rounds)],
        "peak_rss_mb": [max(cr.procs[i].rss_mb for cr in runs.values()) for i in range(rounds)],
        "setup_s": setup,
    }
    values = {
        "wall_s": sum(min(p.wall_s for p in cr.procs) for cr in runs.values()),
        "cpu_s": sum(min(p.cpu_s for p in cr.procs) for cr in runs.values()),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "setup_s": statistics.median(setup),
    }
    how = {"wall_s": "sum of per-command minima", "cpu_s": "sum of per-command minima",
           "peak_rss_mb": "median", "setup_s": "median"}
    metrics = {}
    for key, unit in END_TO_END:
        vals = samples[key]
        metrics[key] = {"value": values[key], "unit": unit}
        print(f"{name:12s} {key:12s} {values[key]:10.4f} {unit:3s} {how[key]} over n={len(vals)} "
              f"(sample median {statistics.median(vals):.4f}, min {min(vals):.4f}, max {max(vals):.4f})")
    print(f"{name:12s} {'error_rate':12s} {failed / attempted:10.4f}     ({failed} failed / {attempted} attempted)")
    if len(parts) > 1:
        for wl in parts:
            part_wall = sum(min(p.wall_s for p in runs[c.label].procs) for c in wl.commands)
            print(f"{name:12s} part {wl.name:12s} wall_s {part_wall:.4f} s (sum of per-command minima)")
    for label, cr in runs.items():
        walls = [p.wall_s for p in cr.procs]
        print(f"{name:12s} {'cli.' + cr.cmd.subcommand:22s} {label:18s} wall min {min(walls):8.4f} s "
              f"median {statistics.median(walls):8.4f} s  rss {max(p.rss_mb for p in cr.procs):8.1f} MB  "
              f"{cr.digests[0][1]} bytes  {' '.join(cr.cmd.argv)}")
    return {"metrics": metrics, "digests": {wl.name: {c.label: runs[c.label].digests[0] for c in wl.commands}
                                            for wl in parts}}


def trace_all(runner: Runner, seed: int, refs: dict | None) -> dict:
    """One untraced and one traced invocation of every command of every workload, then the probes."""
    wls = {name: workloads.generate(name, seed) for name in workloads.NAMES}
    passes: dict[str, list[layers.CommandPass]] = {}
    for name, wl in wls.items():
        passes[name] = []
        runs = {}
        for cmd in wl.commands:
            runs[cmd.label] = plain = CommandRuns(cmd)
            plain.add(runner.cli(cmd.argv, cmd.label), keep=True)
            spans_path = runner.tmp / f"{name}-{cmd.label}.spans.jsonl"
            traced = runner.traced(cmd.argv, f"{name}.{cmd.label}", spans_path)
            if traced.digest() != plain.digests[0]:
                runner.fail(traced.op, f"{name}/{cmd.label}: traced bytes differ from untraced")
            traced.out.unlink(missing_ok=True)
            passes[name].append(layers.CommandPass(cmd, plain.procs[0], traced, plain.digests[0],
                                                   layers.read_spans(spans_path)))
        check_workload(runner, wl, runs, None if refs is None else refs.get(name, {}))
    spans_path = runner.tmp / "probes.spans.jsonl"
    probe = runner.probes(layers.probe_params(wls), spans_path)
    probe_spans = layers.read_spans(spans_path)
    err = next((s.get("value") for s in probe_spans if s["name"] == "probe.buchstab_table"), None)
    if err is None or not err < layers.BUCHSTAB_ERR_MAX:
        runner.fail(probe.op, f"buchstab err_estimate {err} not < {layers.BUCHSTAB_ERR_MAX}")
    for name, cps in passes.items():
        for cp in cps:
            print(f"{name:12s} {cp.cmd.label:18s} untraced {cp.untraced.wall_s:8.4f} s  traced "
                  f"{cp.traced.wall_s:8.4f} s  trace.overhead_s {cp.traced.wall_s - cp.untraced.wall_s:+.4f}")
    return {"passes": passes, "wls": wls, "probe_spans": probe_spans}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="twosq benchmark: seeded CLI workloads with output checks")
    ap.add_argument("--workload", choices=[*workloads.COMPOSITES, *workloads.NAMES, "all"], default="all",
                    help="a workload, or all four simple ones")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measuring time per workload (untraced runs); sets the round count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help=f"after an error-free default-seed run, store its output digests in {DIGESTS.name}")
    args = ap.parse_args(argv)

    if not (SRC / "twosq" / "cli.py").is_file():
        print(f"error: {SRC / 'twosq'} not found; run from a twosq source checkout", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != workloads.DEFAULT_SEED:
        print(f"error: --record-digests needs --seed {workloads.DEFAULT_SEED}", file=sys.stderr)
        return 2

    header = run_header(args.seed)
    print("# header " + json.dumps(header), flush=True)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_tmp"))
    try:
        runner = Runner(tmp)
        # outputs of the default seed must match the stored digests
        refs = reference_digests() if args.seed == workloads.DEFAULT_SEED and not args.record_digests else None
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        metrics: dict = {}
        recorded: dict = {}
        if args.trace:
            traced = trace_all(runner, args.seed, refs)
            metrics = layers.per_layer(traced["passes"], traced["wls"], traced["probe_spans"],
                                       header["host.calib_s"])
            for key, m in metrics.items():
                print(f"{key:46s} {m['value']:14.6g} {m['unit']}")
            recorded = {name: {cp.cmd.label: cp.digest for cp in cps} for name, cps in traced["passes"].items()}
        else:
            for name in names:
                result = end_to_end(runner, name, args.seed, args.seconds, refs)
                prefix = "" if len(names) == 1 else name + "."
                metrics.update({prefix + k: v for k, v in result["metrics"].items()})
                recorded.update(result["digests"])
        for op, reason in sorted(runner.failed.items()):
            print(f"FAILED op {op}: {reason}")
        print(f"error_rate {len(runner.failed) / runner.attempted:.6f} "
              f"({len(runner.failed)} failed / {runner.attempted} attempted)")
        if args.record_digests and not runner.failed:
            write_digests(recorded)
        print(json.dumps({
            "correct": not runner.failed,
            "attempted": runner.attempted,
            "failed": len(runner.failed),
            "metrics": metrics,
        }), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    return 0


def write_digests(recorded: dict[str, dict[str, tuple[str, int]]]) -> None:
    """Merge the recorded default-seed output digests into digests.json."""
    doc = {"seed": workloads.DEFAULT_SEED, "outputs": reference_digests()}
    for name, digests in recorded.items():
        doc["outputs"][name] = {label: {"sha256": sha, "bytes": size} for label, (sha, size) in digests.items()}
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    sys.exit(main())
