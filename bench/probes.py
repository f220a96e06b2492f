"""Probe child: times single library layers on inputs derived from the workloads.

Each probe is its own span (name "probe.<what>"), outside any command span.
The first probe reads the ru_maxrss rise of one sieve segment while this
process is still fresh.

Run as a script:  python3 bench/probes.py --spans PATH --params JSON
"""

from __future__ import annotations

import argparse
import json
import sys
from math import isqrt

from tracer import Recorder, rss_mb

SEGMENT = 1 << 21
SEGMENT_LOS = {"lo1": 1, "lo1e9": 10**9, "lo1e12": 10**12}


def run_probes(rec: Recorder, params: dict) -> None:
    from twosq.primes import iter_prime_blocks, sieve_primes
    from twosq.sieve import iter_segments, sieve_segment
    from twosq.special import buchstab_table

    lo = SEGMENT_LOS["lo1e12"]
    before = rss_mb()
    with rec.span("probe.segment_rss") as f:
        sieve_segment(lo, lo + SEGMENT - 1)
        f["value"] = rss_mb() - before

    for tag, lo in SEGMENT_LOS.items():
        with rec.span(f"probe.segment_{tag}"):
            sieve_segment(lo, lo + SEGMENT - 1)

    with rec.span("probe.base_sieve") as f:
        f["items"] = sum(int(sieve_primes(isqrt(x + y)).size) for x, y in params["windows"])

    with rec.span("probe.iter_prime_blocks") as f:
        f["items"] = sum(int(b.size) for b in iter_prime_blocks(params["truncation"]))

    threads = params["threads"]
    for name in ("scan_share", "exact_share"):
        with rec.span(f"probe.{name}"):
            for a, b in params[name]:
                for _ in iter_segments(a, b, threads=threads):
                    pass

    buchstab_table.cache_clear()
    with rec.span("probe.buchstab_table") as f:
        f["value"] = buchstab_table().err_estimate


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True)
    ap.add_argument("--params", required=True, help="JSON object of probe inputs")
    args = ap.parse_args(argv)
    rec = Recorder("probes")
    try:
        run_probes(rec, json.loads(args.params))
    finally:
        rec.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
