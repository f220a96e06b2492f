import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from twosq.errors import DomainError
from twosq.reportio import CHUNK_ROWS
from twosq.scans import (
    MaierConfig,
    ScanReport,
    _landau,
    _progression_applicable,
    maier_demo,
    predicted_average,
    scan_intervals,
    scan_progressions,
    scan_residues,
)
from twosq.sieve import DEFAULT_SEGMENT, count_interval, count_progression, count_upto, is_two_square, sieve_segment
from twosq.special import DelayTable


class TestScanIntervals:
    def test_two_window_example(self):
        rep = scan_intervals(100, 20, stride=100)
        assert list(zip(rep.keys.tolist(), rep.counts.tolist())) == [(100, 7), (200, 5)]
        # second window pinned by brute force: members of (200, 220]
        assert count_interval(200, 20) == 5

    def test_unit_windows(self):
        X, y = 400, 1
        rep = scan_intervals(X, y, stride=1)
        assert set(rep.counts.tolist()) <= {0, 1}
        dens = sum(rep.counts.tolist()) / len(rep.counts)
        # mean equals the density of members in (X, 2X+1]
        assert abs(rep.mean - dens) < 1e-15
        assert rep.total_count == count_interval(X, X + 1)

    def test_sliding_consistency(self):
        X, y = 250, 12
        rep = scan_intervals(X, y, stride=1)
        counts = dict(zip(rep.keys.tolist(), rep.counts.tolist()))
        for x in range(X, 2 * X):
            delta = int(is_two_square(x + y + 1)) - int(is_two_square(x + 1))
            assert counts[x + 1] == counts[x] + delta, x

    def test_mean_times_windows_is_total(self):
        rep = scan_intervals(64, 10, stride=7)
        assert Fraction(rep.total_count, rep.n_windows) == Fraction(rep.mean).limit_denominator(10**9)
        assert rep.total_count == sum(rep.counts.tolist())

    def test_max_and_argmax(self):
        rep = scan_intervals(100, 20, stride=100)
        assert rep.max_count == 7
        assert rep.argmax_key == 100

    def test_ratio_fields_recomputable(self):
        rep = scan_intervals(128, 16, stride=32)
        for ratio, count, predicted in zip(rep.ratio, rep.counts, rep.predicted):
            assert abs(ratio - count / predicted) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            scan_intervals(8, 4)
        with pytest.raises(DomainError):
            scan_intervals(100, 0)
        with pytest.raises(DomainError):
            scan_intervals(100, 200)

    def test_prefix_counts_held_per_segment(self):
        # each segment's prefix counts are int32 and read only at the window
        # boundaries inside it; whole-segment int64 sums and boolean masks over
        # the columns peaked at 50 MiB here
        _landau()  # cached, so the peak is the scan's own
        tracemalloc.start()
        try:
            rep = scan_intervals(3 * DEFAULT_SEGMENT, 30, stride=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22 << 20  # 26 MiB while a segment was held as the next was sieved
        assert rep.counts.tolist() == [count_interval(x, 30) for x in rep.keys.tolist()]

    def test_bench_scan_memory(self):
        # the 150,664 windows of a bench scan: each boundary column is a strided
        # slice of the prefix counts, and counts and predictions are made in
        # place (8.05 MiB traced with window-start and window-end columns, their
        # searchsorted gathers and out-of-place arithmetic)
        _landau()  # cached, so the peak is the scan's own
        tracemalloc.start()
        try:
            rep = scan_intervals(150_663, 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.n_windows == 150_664
        assert peak <= 5 << 20

    def test_records_at_scale(self):
        # count variance guarantees record windows at this size
        rep = scan_intervals(10**6, 30, stride=1)
        assert rep.max_count >= 2 * rep.mean
        assert rep.argmax_key in rep.keys[rep.counts == rep.max_count].tolist()


@pytest.mark.parametrize("segment", [1000, 4097])
class TestSegmentEdges:
    # Short segments put hundreds of segment edges inside [1, 10^5]; every
    # count and scan that streams the sieve must still match the oracle.
    @pytest.fixture(autouse=True)
    def short_segments(self, monkeypatch, segment):
        monkeypatch.setattr("twosq.sieve.DEFAULT_SEGMENT", segment)

    def test_counts(self, oracle_marks_100k, segment):
        cum = np.cumsum(oracle_marks_100k)
        for x in (0, 1, segment - 1, segment, segment + 1, 3 * segment, 99_999, 100_000):
            assert count_upto(x) == cum[x], x
        for x, y in ((0, segment), (segment - 5, 10), (segment, segment), (2 * segment - 1, 2), (12_345, 80_000)):
            assert count_interval(x, y) == cum[x + y] - cum[x], (x, y)
        for q in (1, 2, 7, 12, segment - 1, segment, segment + 1):
            for a in {0, 1 % q, q // 2, q - 1}:
                expect = np.count_nonzero(oracle_marks_100k[a::q])
                assert count_progression(100_000, q, a) == expect, (q, a)

    @pytest.mark.parametrize("stride", [1, 13])
    def test_scan_intervals(self, oracle_marks_100k, stride):
        X, y = 40_000, 40
        cum = np.cumsum(oracle_marks_100k)
        rep = scan_intervals(X, y, stride)
        xs = np.arange(X, 2 * X + 1, stride)
        assert rep.keys.tolist() == xs.tolist()
        assert rep.counts.tolist() == (cum[xs + y] - cum[xs]).tolist()

    def test_scan_progressions(self, oracle_marks_100k):
        rep = scan_progressions(100_000, 50, 1)
        assert rep.counts.tolist() == [np.count_nonzero(oracle_marks_100k[1 % q :: q]) for q in range(50, 101)]

    @pytest.mark.parametrize("q", [12, 4097])
    def test_scan_residues(self, oracle_marks_100k, q):
        rep = scan_residues(100_000, q)
        assert rep.counts.tolist() == [np.count_nonzero(oracle_marks_100k[a::q]) for a in range(q)]


class TestScanProgressions:
    def test_q1_row(self):
        rep = scan_progressions(1000, 1, 0)
        assert rep.counts[0] == count_upto(1000)

    def test_counts_match_direct(self):
        rep = scan_progressions(2000, 7, 1)
        from twosq.sieve import count_progression

        for q, count in zip(rep.keys.tolist(), rep.counts.tolist()):
            assert count == count_progression(2000, q, 1 % q)

    def test_predictions_use_exact_phi(self):
        # the phi_S column covers q in [2500, 5000]; each prediction matches the single-q route bit for bit
        rep = scan_progressions(100, 2500, 1)
        expect = [predicted_average("progression", x=100, q=q, a=1).value for q in range(2500, 5001)]
        assert rep.predicted.tolist() == expect

    def test_ratio_mean_at_scale(self):
        rep = scan_progressions(10**6, 10**3, 1)
        assert rep.mean_ratio_valid is not None
        assert abs(rep.mean_ratio_valid - 1.0) <= 0.25

    def test_applicability_flags(self):
        a = 2
        rep = scan_progressions(1000, 4, a)
        for q, applicable in zip(rep.keys.tolist(), rep.applicable.tolist()):
            expect = math.gcd(a, q) == 1 and a % math.gcd(4, q) == 1 % math.gcd(4, q)
            assert applicable == expect
        flags = dict(zip(rep.keys.tolist(), rep.applicable.tolist()))
        assert flags[4] is False  # a = 2 shares a factor with q = 4
        assert flags[5] is True  # gcd(2,5) = 1 and gcd(4,5) = 1 makes the congruence vacuous
        assert flags[6] is False  # 2 is even, so 2 != 1 (mod gcd(4,6) = 2)

    def test_applicable_column_matches_scalar_rule(self):
        # one helper serves whole key columns and single (a, q) pairs
        qs = np.arange(1, 301, dtype=np.int64)
        for a in range(0, 40):
            expect = [math.gcd(a, q) == 1 and a % math.gcd(4, q) == 1 % math.gcd(4, q) for q in range(1, 301)]
            assert _progression_applicable(a, qs).tolist() == expect
            assert [bool(_progression_applicable(a, q)) for q in range(1, 301)] == expect
            assert scan_progressions(100, 150, a).applicable.tolist() == expect[149:]
        for q in (1, 2, 4, 12, 35, 100):
            expect = [math.gcd(a, q) == 1 and a % math.gcd(4, q) == 1 % math.gcd(4, q) for a in range(q)]
            assert scan_residues(100, q).applicable.tolist() == expect

    def test_residue_past_int64_is_domain_error(self):
        assert scan_progressions(100, 3, 2**63 - 1).n_windows == 4
        with pytest.raises(DomainError):
            scan_progressions(100, 3, 2**63)


class TestScanResidues:
    def test_mod_4_counts(self):
        rep = scan_residues(40, 4)
        assert list(zip(rep.keys.tolist(), rep.counts.tolist())) == [(0, 7), (1, 8), (2, 5), (3, 0)]
        assert rep.total_count == count_upto(40)

    def test_partition_property(self):
        for q in (1, 2, 3, 6, 10):
            rep = scan_residues(500, q)
            assert rep.total_count == count_upto(500)

    def test_residue_3_never_applicable(self):
        rep = scan_residues(100, 4)
        assert rep.applicable.tolist()[3] is False
        assert rep.counts[3] == 0


@pytest.mark.parametrize("make", [
    lambda: scan_residues(100, 4),
    lambda: sieve_segment(1, 100),
    lambda: DelayTable(0.0, 0.5, 1.0, np.arange(3.0), 0, 2, 0.0),
], ids=["ScanReport", "SegmentTable", "DelayTable"])
def test_reports_compare_by_identity(make):
    # the array fields have no truth value, so == is identity and never raises
    report, equal = make(), make()
    assert report == report
    assert (report == equal) is False
    assert len({report, report, equal}) == 2


def summary_oracle(rep, record_threshold=2.0):
    """The summary fields recomputed in plain Python from the report's rows."""
    rows = list(zip(*(c.tolist() for c in rep.columns)))
    keys = [r[0] for r in rows]
    counts = [r[1] for r in rows]
    n = len(rows)
    total = sum_sq = 0
    histogram = {}
    for c in counts:
        total += c
        sum_sq += c * c
        histogram[c] = histogram.get(c, 0) + 1
    mean = total / n
    imax = 0
    for i, c in enumerate(counts):
        if c > counts[imax]:
            imax = i
    ratios = []
    for _, c, p, ratio, ok in rows:
        assert ratio == (c / p if p > 0 else math.inf)
        if ok and p > 0:
            ratios.append(c / p)
    acc = 0.0
    for r in ratios:  # left to right, in row order
        acc += r
    return {
        "total_count": total,
        "mean": mean,
        "variance": max(0.0, sum_sq / n - mean * mean),
        "max_count": counts[imax],
        "argmax_key": keys[imax],
        "records": tuple(k for k, c, p, _, ok in rows if ok and c >= record_threshold * p),
        "histogram": dict(sorted(histogram.items())),
        "mean_ratio_valid": acc / len(ratios) if ratios else None,
    }


class TestSummaryOracle:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: scan_intervals(3000, 12, stride=1),
            lambda: scan_intervals(5000, 40, stride=7),
            lambda: scan_progressions(20000, 30, 2),
            lambda: scan_residues(10000, 12),
            lambda: scan_intervals(10000, 12, stride=1),
        ],
        ids=["intervals-stride1", "intervals-stride7", "progressions-a2", "residues", "intervals-chunks"],
    )
    def test_fields_match_plain_python(self, make):
        rep = make()
        expect = summary_oracle(rep)
        got = {name: getattr(rep, name) for name in expect}
        assert got == expect
        assert list(got["histogram"]) == list(expect["histogram"])  # ascending keys
        assert rep.n_windows == len(rep.keys) == len(rep.counts) == len(rep.predicted) == len(rep.applicable)

    def test_cases_are_not_degenerate(self):
        assert scan_intervals(3000, 12, stride=1).records
        assert not scan_progressions(20000, 30, 2).applicable.all()
        assert not scan_residues(10000, 12).applicable.all()

    def test_variance_exact_past_int64_squares(self):
        counts = np.array([3_037_000_500, 3_100_000_000, 2_999_999_999, 3_100_000_000], dtype=np.int64)
        assert int((counts * counts).sum()) != sum(c * c for c in counts.tolist())  # int64 wraps
        rep = ScanReport(
            "intervals",
            {},
            keys=np.arange(4, dtype=np.int64),
            counts=counts,
            predicted=np.full(4, 3.0e9),
            applicable=np.ones(4, dtype=bool),
        )
        cs = counts.tolist()
        mean = sum(cs) / len(cs)
        assert rep.total_count == sum(cs)
        assert rep.variance == max(0.0, sum(c * c for c in cs) / len(cs) - mean * mean)
        assert (rep.max_count, rep.argmax_key) == (3_100_000_000, 1)  # first of the tied maxima

    def test_statistics_derived_from_columns(self):
        # a report is its columns: tied maxima, inapplicable rows and zero
        # predictions (ratio inf, left out of the mean ratio) in random order
        rng = np.random.default_rng(18)
        n = 500
        counts = rng.integers(0, 12, n)
        predicted = rng.uniform(0.5, 6.0, n)
        predicted[rng.choice(n, 40, replace=False)] = 0.0
        applicable = rng.random(n) < 0.7
        columns = dict(keys=np.arange(7, 7 + 3 * n, 3), counts=counts, predicted=predicted, applicable=applicable)
        assert np.count_nonzero(counts == counts.max()) > 1
        assert np.count_nonzero(applicable & (predicted == 0)) and not applicable.all()
        rep = ScanReport("progressions", {}, **columns)
        expect = summary_oracle(rep)
        assert {name: getattr(rep, name) for name in expect} == expect
        assert rep.records and rep.n_windows == n
        with pytest.raises(TypeError):
            ScanReport("progressions", {}, **columns, total_count=0)

    def test_statistics_read_a_chunk_at_a_time(self):
        # records and the mean ratio walk the columns CHUNK_ROWS rows at a time;
        # the second chunk has no valid ratio, the last is short, and the sum
        # runs on from chunk to chunk in row order
        rng = np.random.default_rng(29)
        n = 3 * CHUNK_ROWS + 777
        predicted = rng.uniform(0.5, 6.0, n)
        predicted[rng.choice(n, 300, replace=False)] = 0.0
        applicable = rng.random(n) < 0.7
        applicable[CHUNK_ROWS : 2 * CHUNK_ROWS] = False
        rep = ScanReport("progressions", {}, keys=np.arange(n), counts=rng.integers(0, 12, n),
                         predicted=predicted, applicable=applicable)
        expect = summary_oracle(rep)
        assert (rep.records, rep.mean_ratio_valid) == (expect["records"], expect["mean_ratio_valid"])
        whole = rep.ratio[applicable & (predicted > 0)]
        assert rep.mean_ratio_valid == float(np.cumsum(whole)[-1]) / whole.size
        assert min(rep.records) < CHUNK_ROWS and max(rep.records) >= 3 * CHUNK_ROWS


def maier_lhs_oracle(cfg: MaierConfig) -> int:
    """Independent route: inclusion-exclusion over squarefree divisors of
    rad(P) instead of per-u gcd scanning."""
    exps = cfg.P_exponents()
    rad = 1
    for p in exps:
        rad *= p
    sq_divs = [1]
    for p in exps:
        sq_divs += [d * p for d in sq_divs]
    ds = [1]
    for p, e in exps.items():
        ds = [d * p**c for d in ds for c in range(e // 2 + 1)]
    total = 0
    for d in ds:
        bound = cfg.u_limit / (d * d)  # u < bound, u = 1 (mod 4)
        for s in sq_divs:
            mu = (-1) ** (len([p for p in exps if s % p == 0]))
            # count u < bound with s | u and u = 1 (mod 4): u = s*v,
            # v = s^(-1) (mod 4); s odd so inverse is s itself mod 4
            v_bound = bound / s
            target = pow(s, -1, 4)
            n_max = math.ceil(v_bound) - 1
            if n_max < 1:
                cnt = 0
            else:
                cnt = (n_max - target) // 4 + 1 if n_max >= target else 0
            total += mu * cnt
    return total


class TestMaier:
    def test_empty_product_edge(self):
        cfg = MaierConfig(z=2, a=1, x=10_000, Q=100)
        rep = maier_demo(cfg)
        assert rep.P == 1
        assert rep.d_terms == ((1, rep.lhs),)
        # all u = 1 (mod 4) below the threshold count
        assert rep.lhs == 100

    def test_z3_structure(self):
        cfg = MaierConfig(z=3, a=1, x=10_000, Q=100)
        # threshold 401: least odd power of 3 at or above it is 3^7
        assert cfg.P_exponents() == {3: 7}
        rep = maier_demo(cfg)
        assert rep.P == 3**7
        assert [d for d, _ in rep.d_terms] == [1, 3, 9, 27]
        assert rep.lhs == maier_lhs_oracle(cfg)

    @pytest.mark.parametrize("xq", [50, 100, 200])
    def test_lhs_against_inclusion_exclusion(self, xq):
        cfg = MaierConfig(z=7, a=1, x=100 * xq, Q=100)
        assert maier_demo(cfg).lhs == maier_lhs_oracle(cfg)

    @pytest.mark.parametrize("z,a,x,Q", [(7, 5, 250_000_000, 100), (19, 1, 123_457, 1)])
    def test_lhs_against_oracle_beyond_old_budget(self, z, a, x, Q):
        # u_limit * #d is 5.4e8 and 1.7e8 here, above MAX_MAIER_ENUM, but the
        # sieve holds only ceil(x / Q) flags
        cfg = MaierConfig(z=z, a=a, x=x, Q=Q)
        assert maier_demo(cfg).lhs == maier_lhs_oracle(cfg)

    @pytest.mark.parametrize("Q,xs", [(1, range(2, 200)), (3, range(6, 200)), (100, range(200, 4000, 100))])
    def test_prefix_ends_match_u_limit(self, Q, xs):
        # each d counts u = 1 + 4i coprime to P for i < ceil((u_limit / d^2 - 1) / 4),
        # computed here on the u_limit Fraction; the grid meets d > 1 where that
        # quotient is an exact integer (x = 2 mod 9 at Q = 1 and d = 3, for one)
        exact = 0
        for z, a, x in itertools.product((3, 7, 11), (1, 5), xs):
            cfg = MaierConfig(z=z, a=a, x=x, Q=Q)
            rad = math.prod(cfg.P_exponents())
            for d, count in maier_demo(cfg).d_terms:
                quotient = (cfg.u_limit / (d * d) - 1) / 4
                exact += d > 1 and quotient.denominator == 1
                end = max(0, math.ceil(quotient))
                assert count == sum(math.gcd(1 + 4 * i, rad) == 1 for i in range(end)), (cfg, d)
        assert exact > 0

    def test_odd_minimal_exponents(self):
        cfg = MaierConfig(z=11, a=5, x=20_000, Q=100)
        for p, e in cfg.P_exponents().items():
            assert p % 4 == 3 and p <= 11
            assert e % 2 == 1
            assert p**e >= cfg.power_floor
            assert e == 1 or p ** (e - 2) < cfg.power_floor

    def test_nontrivial_residue(self):
        # a scales the prime-power floor but not the u-range
        cfg = MaierConfig(z=5, a=5, x=5000, Q=100)
        rep = maier_demo(cfg)
        assert rep.P == 3**7  # 3^alpha >= 5 * 201 forces alpha = 7
        assert rep.lhs == maier_lhs_oracle(cfg)
        assert 0.75 <= rep.ratio <= 1.25

    def test_d1_monotone_in_z(self):
        counts = [
            maier_demo(MaierConfig(z=z, a=1, x=10_000, Q=100)).d1_count
            for z in (2, 3, 5, 7, 11)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            MaierConfig(z=7, a=2, x=10_000, Q=100)  # even a
        with pytest.raises(DomainError):
            MaierConfig(z=7, a=3, x=10_000, Q=100)  # 3 is not a sum of two squares
        with pytest.raises(DomainError):
            MaierConfig(z=1, a=1, x=10_000, Q=100)
        with pytest.raises(DomainError):
            MaierConfig(z=7, a=1, x=100, Q=100)

    def test_ratio_definition(self):
        rep = maier_demo(MaierConfig(z=5, a=1, x=5000, Q=100))
        assert abs(rep.ratio - rep.lhs / rep.rhs) < 1e-12

    def test_enumeration_budget(self):
        from twosq.errors import ResourceError

        with pytest.raises(ResourceError):
            maier_demo(MaierConfig(z=3, a=1, x=10**10, Q=1))


class TestPredictedAverage:
    def test_interval_form(self):
        x = round(math.exp(16))
        pa = predicted_average("interval", x=x, y=100)
        assert pa.applicable
        assert abs(pa.value - 100.0 * 0.7642236536 / 4.0) < 0.01

    def test_progression_q1_reduces_to_interval(self):
        x = 10**6
        pa_prog = predicted_average("progression", x=x, q=1, a=0)
        pa_int = predicted_average("interval", x=x, y=x)
        assert pa_prog.applicable
        assert abs(pa_prog.value - pa_int.value) < 1e-9

    def test_inapplicable_flagged(self):
        pa = predicted_average("progression", x=10**4, q=4, a=3)
        assert not pa.applicable
        assert pa.note

    def test_domain(self):
        with pytest.raises(DomainError):
            predicted_average("interval", x=2, y=10)
        with pytest.raises(DomainError):
            predicted_average("nonsense", x=100)
