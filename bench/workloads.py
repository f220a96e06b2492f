"""Seeded workload generator.

A workload is a fixed list of twosq CLI invocations.  The seed picks the
arguments inside narrow ranges, so every seed gives different inputs but
about the same amount of work; the program sees only the arguments.  Sizes
are chosen so one round of each workload takes about 4-8 s on a 2-core
x86 host.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0
THREADS = "2"

# count-low: one streamed count from 1 (6 segments of 2^21) at 1 and 2
# threads, plus the Euler-product constant.
COUNT_LOW_N = (12_000_000, 12_500_000)
CONSTANTS_TRUNCATION = 30_000_000

# window-high: short windows far out, where the base-prime sieve and the
# per-prime loop dominate.  The ranges are narrow because the number of base
# primes grows with sqrt(x).
WINDOW_L1 = (10**12, 105 * 10**10)
WINDOW_Y1 = 4_194_304
WINDOW_L2 = (10**14, 105 * 10**12)
WINDOW_Y2 = 1_048_576

# scan-report: report assembly and serialization of a few 10^5 rows.
SCAN_X = (150_000, 155_000)
SCAN_Y = (20, 40)
SCAN_PROG_X = 1_000_000
SCAN_Q = (1_000, 1_024)
SCAN_A = (1, 5, 9, 13)

# exact: exact rational weights, the verify grid and the g envelope.
GPY_X = (200_000, 210_000)
GPY_R = "1000"
GPY_K = 4
GPY_H_MAX = 200
G_T0 = (1.0, 2.0)
G_SPAN = 19
G_STEP = "0.01"


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `argv` excludes --out, which run.py adds."""

    label: str
    argv: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    params: dict = field(default_factory=dict)


def _cmd(label: str, *argv) -> Command:
    return Command(label, tuple(str(a) for a in argv))


def p1_numbers_upto(limit: int) -> list[int]:
    """n <= limit whose prime factors are all = 1 (mod 4), 1 included."""
    out = []
    for n in range(1, limit + 1):
        m, f, ok = n, 2, True
        while f * f <= m:
            while m % f == 0:
                ok = ok and f % 4 == 1
                m //= f
            f += 1
        if ok and (m == 1 or m % 4 == 1):
            out.append(n)
    return out


def _count_low(rng: random.Random) -> Workload:
    n = rng.randint(*COUNT_LOW_N)
    return Workload(
        "count-low",
        "streamed count from 1 at 1 and 2 threads plus the Euler product: sieve segments, thread pool, streamed primes",
        (
            _cmd("count_t1", "count", "--x", n, "--threads", "1"),
            _cmd("count_t2", "count", "--x", n, "--threads", THREADS),
            _cmd("constants", "constants", "--truncation", CONSTANTS_TRUNCATION),
        ),
        {"N": n, "truncation": CONSTANTS_TRUNCATION},
    )


def _window_high(rng: random.Random) -> Workload:
    l1 = rng.randrange(*WINDOW_L1)
    l2 = rng.randrange(*WINDOW_L2)
    return Workload(
        "window-high",
        "short windows near 1e12 and 1e14: 1e5-1e6 base primes, so the base sieve and per-prime loop dominate",
        (
            _cmd("count_w1", "count", "--x", l1, "--y", WINDOW_Y1, "--threads", THREADS),
            _cmd("count_w2", "count", "--x", l2, "--y", WINDOW_Y2, "--threads", THREADS),
        ),
        {"windows": [[l1, WINDOW_Y1], [l2, WINDOW_Y2]]},
    )


def _scan_report(rng: random.Random) -> Workload:
    X = rng.randint(*SCAN_X)
    y = rng.randint(*SCAN_Y)
    Q = rng.randint(*SCAN_Q)
    a = rng.choice(SCAN_A)
    return Workload(
        "scan-report",
        "1.5e5-window interval scan to JSON and a modulus grid to CSV: report assembly and serialization dominate",
        (
            _cmd("scan_intervals", "scan-intervals", "--X", X, "--y", y, "--threads", THREADS),
            _cmd("scan_progressions", "scan-progressions", "--x", SCAN_PROG_X, "--Q", Q, "--a", a,
                 "--threads", THREADS, "--format", "csv"),
        ),
        {"X": X, "y": y, "x": SCAN_PROG_X, "Q": Q, "a": a},
    )


def _exact(rng: random.Random) -> Workload:
    hs = sorted(rng.sample(p1_numbers_upto(GPY_H_MAX), GPY_K))
    X = rng.randint(*GPY_X)
    t0 = round(rng.uniform(*G_T0), 2)
    forms = json.dumps([[1, h] for h in hs], separators=(",", ":"))
    return Workload(
        "exact",
        "exact rational weights with the mass check, the verify grid and the g envelope; the sieve is under 5%",
        (
            _cmd("gpy_demo", "gpy-demo", "--forms", forms, "--X", X, "--R", GPY_R, "--mass-check",
                 "--threads", THREADS),
            _cmd("verify", "verify", "--threads", THREADS),
            _cmd("special_g", "special", "--fn", "g", "--from", f"{t0:.2f}", "--to", f"{t0 + G_SPAN:.2f}",
                 "--step", G_STEP),
        ),
        {"hs": hs, "X": X, "t0": t0},
    )


_GENERATORS = {
    "count-low": _count_low,
    "window-high": _window_high,
    "scan-report": _scan_report,
    "exact": _exact,
}

NAMES = tuple(_GENERATORS)

# The workloads BENCHMARK.json lists.  Each joins two of the four above into one
# round, so a run sees every command in several rounds spread over its whole
# length; on a shared 2-vCPU host, whose speed drifts by 20-35% over minutes,
# that is what keeps the per-command minima steady from run to run.
COMPOSITES = {
    "sieve": ("count-low", "window-high"),
    "report": ("scan-report", "exact"),
}
COMPOSITE_WHY = {
    "sieve": "count-low and window-high: the sieve streamed from 1 at 1 and 2 threads, and windows near 1e12 and 1e14",
    "report": "scan-report and exact: report assembly and serialization, exact weights, the g envelope; little sieve",
}

# Seconds per round of each simple workload on the 2-vCPU host the sizes were
# tuned on (fast state).  A run makes round(seconds / round length) rounds,
# fixed by its arguments: a count that followed the host's speed would give
# slow runs fewer samples and so higher minima, and a faster program more
# samples and so a spurious gain.
NOMINAL_ROUND_S = {"count-low": 5.0, "window-high": 5.5, "scan-report": 4.5, "exact": 5.0}
MIN_ROUNDS = 3

# The no-work invocation timed as setup_s: closed form, builds no table.
SETUP_ARGV = ("special", "--fn", "buchstab", "--at", "1.5")


def generate(name: str, seed: int) -> Workload:
    """The workload `name` for `seed`; the same pair always gives the same commands."""
    return _GENERATORS[name](random.Random(f"{name}:{seed}"))


def parts(name: str, seed: int) -> tuple[Workload, ...]:
    """The workloads a run of `name` measures: its parts if composite, else itself."""
    return tuple(generate(part, seed) for part in COMPOSITES.get(name, (name,)))


def round_count(name: str, seconds: float) -> int:
    """Rounds a run of `name` makes to measure for about `seconds` (at least MIN_ROUNDS)."""
    nominal = sum(NOMINAL_ROUND_S[part] for part in COMPOSITES.get(name, (name,)))
    return max(MIN_ROUNDS, round(seconds / nominal))
