"""Span recorder, and the child process that runs one traced CLI command.

Spans are recorded around the public library functions that twosq.cli binds,
from outside the program: the functions are replaced by wrappers in this
process only.  Each span holds its name, start, end, parent span and run id,
the ru_maxrss high-water mark at its end, and an optional item count.
Spans stay in memory and are written as JSON lines when the run ends.

Run as a script:  python3 bench/tracer.py --spans PATH --run-id ID -- <twosq argv>
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import resource
import sys
import threading
import time
from contextlib import contextmanager


def rss_mb() -> float:
    """High-water resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Collects spans in memory; safe to use from worker threads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; the block may add fields to the yielded dict."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a pool thread: attach to what the main thread has open
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        fields: dict = {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield fields
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                 "start": start, "end": end, "rss_mb": rss_mb(), **fields}
            )

    def wrap(self, name: str, fn, items=None):
        """fn wrapped in a span; items(result) is stored as the span's item count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as fields:
                result = fn(*args, **kwargs)
                if items is not None:
                    fields["items"] = items(result)
                return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# Names bound in twosq.cli that get a span, with the item count each records.
CLI_SPANS = {
    "count_upto": None,
    "count_interval": None,
    "landau_constant": None,
    "scan_intervals": lambda r: r.n_windows,
    "scan_progressions": lambda r: r.n_windows,
    "to_json": len,
    "to_csv": len,
    "tabulation_rows": len,
    "build_weights": lambda ws: len(ws.support),
    "weighted_experiment": lambda r: r.class_size,
    "check_weight_mass": None,
    "quadratic_forms": None,
    "ystar_from_lambda": None,
}


def install_cli_spans(rec: Recorder, cli) -> None:
    """Replace the library entry points twosq.cli uses with span-recording wrappers."""
    for attr, items in CLI_SPANS.items():
        fn = getattr(cli, attr)
        layer = fn.__module__.rsplit(".", 1)[-1]
        setattr(cli, attr, rec.wrap(f"{layer}.{attr}", fn, items))
    from twosq.scans import ScanReport

    ScanReport.to_json_dict = rec.wrap("scans.ScanReport.to_json_dict", ScanReport.to_json_dict)
    system_cls = cli.AdmissibleSystem
    build = system_cls.__dict__["build"].__func__
    system_cls.build = classmethod(rec.wrap("admissible.AdmissibleSystem.build", build))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="JSON-lines file the spans are written to")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("cli_argv", nargs=argparse.REMAINDER, help="-- followed by the twosq arguments")
    args = ap.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    import twosq.cli as cli

    rec = Recorder(args.run_id)
    install_cli_spans(rec, cli)
    try:
        with rec.span("cli.dispatch"):
            return cli.dispatch(cli_argv)
    finally:
        rec.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
