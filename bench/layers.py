"""Per-layer metrics from the traced pass and the probes.

The layers are the modules of src/twosq.  Span times are summed durations
(busy time): spans from the two worker threads of `verify` overlap, so their
sum can exceed wall time.  Which end-to-end metric each layer metric should
move, and on which workload, is tabulated in README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import workloads

BUCHSTAB_ERR_MAX = 1e-9

# Spans recorded by tracer.install_cli_spans, by layer-qualified name.
SPAN_NAMES = (
    "sieve.count_upto",
    "sieve.count_interval",
    "arith.landau_constant",
    "scans.scan_intervals",
    "scans.scan_progressions",
    "scans.ScanReport.to_json_dict",
    "reportio.to_json",
    "reportio.to_csv",
    "admissible.AdmissibleSystem.build",
    "weights.build_weights",
    "weights.weighted_experiment",
    "weights.check_weight_mass",
    "weights.quadratic_forms",
    "weights.ystar_from_lambda",
    "special.tabulation_rows",
)

CLI_SUBCOMMANDS = ("count", "constants", "scan-intervals", "scan-progressions", "gpy-demo", "verify", "special")

PER_LAYER = (
    ("sieve.count_upto_t1_s", "s"),
    ("sieve.count_upto_t2_s", "s"),
    ("sieve.thread_speedup", "x"),
    ("sieve.low_mints_per_s", "Mint/s"),
    ("sieve.count_interval_s", "s"),
    ("sieve.high_mints_per_s", "Mint/s"),
    ("sieve.segment_lo1_s", "s"),
    ("sieve.segment_lo1e9_s", "s"),
    ("sieve.segment_lo1e12_s", "s"),
    ("sieve.segment_rss_mb", "MB"),
    ("sieve.scan_share_s", "s"),
    ("sieve.exact_share_s", "s"),
    ("primes.base_sieve_s", "s"),
    ("primes.base_primes", "count"),
    ("primes.iter_prime_blocks_s", "s"),
    ("primes.primes_streamed", "count"),
    ("arith.landau_s", "s"),
    ("scans.scan_intervals_s", "s"),
    ("scans.scan_progressions_s", "s"),
    ("scans.windows", "count"),
    ("scans.windows_per_s", "1/s"),
    ("scans.to_json_dict_s", "s"),
    ("reportio.to_json_s", "s"),
    ("reportio.to_csv_s", "s"),
    ("reportio.out_mb", "MB"),
    ("reportio.mb_per_s", "MB/s"),
    ("admissible.build_s", "s"),
    ("admissible.build_calls", "count"),
    ("weights.build_weights_s", "s"),
    ("weights.support_max", "count"),
    ("weights.weighted_experiment_s", "s"),
    ("weights.class_n_per_s", "n/s"),
    ("weights.check_weight_mass_s", "s"),
    ("weights.quadratic_forms_s", "s"),
    ("weights.ystar_from_lambda_s", "s"),
    ("weights.quadratic_forms_calls", "count"),
    ("special.tabulation_rows_s", "s"),
    ("special.us_per_row", "us"),
    ("special.buchstab_table_s", "s"),
    ("special.buchstab_err", "abs"),
    *((f"cli.{sub}.{key}", unit) for sub in CLI_SUBCOMMANDS for key, unit in (("wall_s", "s"), ("peak_rss_mb", "MB"))),
    ("cli.self_s", "s"),
    *((f"{span}.rss_hwm_mb", "MB") for span in SPAN_NAMES),
    ("trace.overhead_s", "s"),
    ("host.calib_s", "s"),
)


@dataclass
class CommandPass:
    """One command run once untraced and once traced."""

    cmd: workloads.Command
    untraced: object  # run.Proc
    traced: object  # run.Proc
    digest: tuple[str, int]  # sha256 and length of the untraced output
    spans: list[dict]


def read_spans(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def probe_params(wls: dict[str, workloads.Workload]) -> dict:
    """Probe inputs: the sieve ranges of the seeded workloads."""
    scan, gpy = wls["scan-report"].params, wls["exact"].params
    X, hs = gpy["X"], gpy["hs"]
    return {
        "windows": wls["window-high"].params["windows"],
        "truncation": wls["count-low"].params["truncation"],
        "threads": int(workloads.THREADS),
        # scan-intervals sieves (X, 2X+y]; scan-progressions sieves [1, x]
        "scan_share": [[scan["X"] + 1, 2 * scan["X"] + scan["y"]], [1, scan["x"]]],
        # gpy-demo sieves each form's image of (X, 2X], once for the
        # experiment and once more inside the mass check
        "exact_share": [[X + 1 + h, 2 * X + h] for h in hs] * 2,
    }


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _spans(passes: list[CommandPass], name: str) -> list[dict]:
    return [s for cp in passes for s in cp.spans if s["name"] == name]


def _total(passes: list[CommandPass], name: str) -> float:
    return sum(_dur(s) for s in _spans(passes, name))


def _items(passes: list[CommandPass], name: str) -> list[int]:
    return [s.get("items", 0) for s in _spans(passes, name)]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _self_time(cp: CommandPass) -> float:
    """cli.dispatch duration minus the part of it its child spans cover."""
    root = next((s for s in cp.spans if s["name"] == "cli.dispatch"), None)
    if root is None:
        return 0.0
    covered, reach = 0.0, root["start"]
    for a, b in sorted((s["start"], s["end"]) for s in cp.spans if s["parent"] == root["id"]):
        a, b = max(a, reach), min(b, root["end"])
        if b > a:
            covered += b - a
            reach = b
    return _dur(root) - covered


def per_layer(passes: dict[str, list[CommandPass]], wls: dict[str, workloads.Workload],
              probe_spans: list[dict], calib_s: float) -> dict:
    low = {cp.cmd.label: [cp] for cp in passes["count-low"]}
    high, scan, exact = passes["window-high"], passes["scan-report"], passes["exact"]
    every = [cp for cps in passes.values() for cp in cps]
    probe = {s["name"]: s for s in probe_spans}

    def probe_dur(name):
        return _dur(probe[name]) if name in probe else 0.0

    def probe_field(name, key):
        return probe.get(name, {}).get(key, 0)

    t1 = _total(low["count_t1"], "sieve.count_upto")
    t2 = _total(low["count_t2"], "sieve.count_upto")
    interval_s = _total(high, "sieve.count_interval")
    high_ints = sum(y for _, y in wls["window-high"].params["windows"])
    scan_s = _total(scan, "scans.scan_intervals")
    windows = sum(_items(scan, "scans.scan_intervals"))
    json_s, csv_s = _total(scan, "reportio.to_json"), _total(scan, "reportio.to_csv")
    out_mb = sum(cp.digest[1] for cp in scan) / 1e6
    experiment_s = _total(exact, "weights.weighted_experiment")
    rows_s = _total(exact, "special.tabulation_rows")

    v = {
        "sieve.count_upto_t1_s": t1,
        "sieve.count_upto_t2_s": t2,
        "sieve.thread_speedup": _ratio(t1, t2),
        "sieve.low_mints_per_s": _ratio(wls["count-low"].params["N"] / 1e6, t1),
        "sieve.count_interval_s": interval_s,
        "sieve.high_mints_per_s": _ratio(high_ints / 1e6, interval_s),
        "sieve.segment_lo1_s": probe_dur("probe.segment_lo1"),
        "sieve.segment_lo1e9_s": probe_dur("probe.segment_lo1e9"),
        "sieve.segment_lo1e12_s": probe_dur("probe.segment_lo1e12"),
        "sieve.segment_rss_mb": probe_field("probe.segment_rss", "value"),
        "sieve.scan_share_s": probe_dur("probe.scan_share"),
        "sieve.exact_share_s": probe_dur("probe.exact_share"),
        "primes.base_sieve_s": probe_dur("probe.base_sieve"),
        "primes.base_primes": probe_field("probe.base_sieve", "items"),
        "primes.iter_prime_blocks_s": probe_dur("probe.iter_prime_blocks"),
        "primes.primes_streamed": probe_field("probe.iter_prime_blocks", "items"),
        "arith.landau_s": _total(low["constants"], "arith.landau_constant"),
        "scans.scan_intervals_s": scan_s,
        "scans.scan_progressions_s": _total(scan, "scans.scan_progressions"),
        "scans.windows": windows,
        "scans.windows_per_s": _ratio(windows, scan_s),
        "scans.to_json_dict_s": _total(scan, "scans.ScanReport.to_json_dict"),
        "reportio.to_json_s": json_s,
        "reportio.to_csv_s": csv_s,
        "reportio.out_mb": out_mb,
        "reportio.mb_per_s": _ratio(out_mb, json_s + csv_s),
        "admissible.build_s": _total(exact, "admissible.AdmissibleSystem.build"),
        "admissible.build_calls": len(_spans(exact, "admissible.AdmissibleSystem.build")),
        "weights.build_weights_s": _total(exact, "weights.build_weights"),
        "weights.support_max": max(_items(exact, "weights.build_weights"), default=0),
        "weights.weighted_experiment_s": experiment_s,
        "weights.class_n_per_s": _ratio(sum(_items(exact, "weights.weighted_experiment")), experiment_s),
        "weights.check_weight_mass_s": _total(exact, "weights.check_weight_mass"),
        "weights.quadratic_forms_s": _total(exact, "weights.quadratic_forms"),
        "weights.ystar_from_lambda_s": _total(exact, "weights.ystar_from_lambda"),
        "weights.quadratic_forms_calls": len(_spans(exact, "weights.quadratic_forms")),
        "special.tabulation_rows_s": rows_s,
        "special.us_per_row": _ratio(rows_s * 1e6, sum(_items(exact, "special.tabulation_rows"))),
        "special.buchstab_table_s": probe_dur("probe.buchstab_table"),
        "special.buchstab_err": probe_field("probe.buchstab_table", "value"),
        "cli.self_s": sum(_self_time(cp) for cp in scan),
        "trace.overhead_s": sum(cp.traced.wall_s - cp.untraced.wall_s for cp in every),
        "host.calib_s": calib_s,
    }
    for sub in CLI_SUBCOMMANDS:
        procs = [cp.untraced for cp in every if cp.cmd.subcommand == sub]
        v[f"cli.{sub}.wall_s"] = sum(p.wall_s for p in procs)
        v[f"cli.{sub}.peak_rss_mb"] = max((p.rss_mb for p in procs), default=0.0)
    for span in SPAN_NAMES:
        v[f"{span}.rss_hwm_mb"] = max((s["rss_mb"] for cp in every for s in cp.spans if s["name"] == span),
                                      default=0.0)
    return {name: {"value": v[name], "unit": unit} for name, unit in PER_LAYER}
