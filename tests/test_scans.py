import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from twosq.arith import phi_S, phi_S_floats
from twosq.errors import DomainError
from twosq.reportio import CHUNK_ROWS, Records, to_csv, to_json
from twosq.scans import (
    ROW_FIELDS,
    MaierConfig,
    ScanReport,
    _landau,
    _progression_applicable,
    maier_demo,
    scan_intervals,
    scan_progressions,
    scan_residues,
)
from twosq.sieve import DEFAULT_SEGMENT, count_interval, count_progression, count_upto, is_two_square, sieve_segment
from twosq.special import DelayTable

from .conftest import two_square_marks


def assert_window_counts(counts, marks, X, y, stride):
    """counts equal the windows (x, x+y], x = X, X + stride, ..., 2X, read
    from int64 prefix sums of marks taken 2^20 integers at a time."""
    assert counts.size == X // stride + 1
    step = 1 << 20
    for lo in range(X, 2 * X + 1, step):
        i, j = -(-(lo - X) // stride), min(counts.size, -(-(lo + step - X) // stride))
        offsets = np.arange(X + i * stride, X + j * stride, stride) - lo
        cum = np.cumsum(marks[lo : lo + step + y], dtype=np.int64)  # cum[k]: members in [lo, lo + k]
        assert np.array_equal(counts[i:j], cum[offsets + y] - cum[offsets]), (lo, i, j)


def progression_prediction(x, q):
    """S x / (phi_S(q) sqrt(ln x)) for one q, from the exact Fraction phi_S."""
    return _landau() * x / (float(phi_S(q)) * math.sqrt(math.log(x)))


def columns(rep):
    """Every row's columns by ROW_FIELDS name, read through rep.rows."""
    return dict(zip(ROW_FIELDS, rep.rows(0, rep.n_windows)))


@pytest.fixture(scope="module")
def multi_segment_marks():
    return two_square_marks(12 * DEFAULT_SEGMENT + 300)


class TestScanIntervals:
    def test_two_window_example(self):
        rep = scan_intervals(100, 20, stride=100)
        assert list(zip(columns(rep)["key"].tolist(), rep.counts.tolist())) == [(100, 7), (200, 5)]
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
        counts = dict(zip(columns(rep)["key"].tolist(), rep.counts.tolist()))
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
        cols = columns(rep)
        for ratio, count, predicted in zip(cols["ratio"], cols["count"], cols["predicted"]):
            assert abs(ratio - count / predicted) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            scan_intervals(8, 4)
        with pytest.raises(DomainError):
            scan_intervals(100, 0)
        with pytest.raises(DomainError):
            scan_intervals(100, 200)

    def test_prefix_counts_held_per_segment(self):
        # each segment's prefix counts are one byte each at y = 30 and read
        # only at the window boundaries inside it (3.0 MiB traced with 2^20-
        # integer segments, 6.0 MiB with 2^21); int32 prefixes peaked at 18
        # MiB, and whole-segment int64 sums and boolean masks over the columns
        # at 50 MiB
        _landau()  # cached, so the peak is the scan's own
        tracemalloc.start()
        try:
            rep = scan_intervals(6 * DEFAULT_SEGMENT, 30, stride=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert rep.counts.tolist() == [count_interval(x, 30) for x in columns(rep)["key"].tolist()]

    def test_bench_scan_memory(self):
        # the 150,664 windows of a bench scan, scanned and written: the scan
        # holds one uint8 count column, each segment adding its window-end
        # prefixes and subtracting its window-start ones in place, and the other
        # columns are derived a chunk at a time as the report is written (2.02
        # MiB traced; 3.03 MiB with int64 counts and int32 prefixes, 6.58 MiB
        # with every column held, 8.05 MiB for the scan alone with searchsorted
        # gathers and out-of-place arithmetic)
        _landau()  # cached, so the peak is the scan's own
        tracemalloc.start()
        try:
            rep = scan_intervals(150_663, 22)
            for _ in to_json(rep.to_json_dict()):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.n_windows == 150_664
        assert peak <= 2.5 * 2**20

    @pytest.mark.parametrize("y, dtype", [(255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32)])
    def test_counts_at_dtype_edges(self, y, dtype):
        # a window of y integers holds up to y members: at y = 2^8 - 1 and
        # 2^16 - 1 the prefixes wrap in the narrower dtype, one step past in the wider
        X = 65_536
        rep = scan_intervals(X, y)
        assert rep.counts.dtype == dtype
        assert_window_counts(rep.counts, two_square_marks(2 * X + y), X, y, 1)

    @pytest.mark.parametrize("y", [30, 300])
    @pytest.mark.parametrize("X, stride", [(4 * DEFAULT_SEGMENT - 1, 1), (6 * DEFAULT_SEGMENT, 7),
                                           (6 * DEFAULT_SEGMENT, 10**5)])
    def test_counts_across_segments(self, multi_segment_marks, X, y, stride):
        # six to eight segments of some 2e5 members each: the running base
        # wraps modulo 2^8 (y = 30) and 2^16 (y = 300) at every segment; at
        # stride 1, 2^22 windows are all the row budget allows
        rep = scan_intervals(X, y, stride)
        assert rep.counts.dtype == {30: np.uint8, 300: np.uint16}[y]
        assert_window_counts(rep.counts, multi_segment_marks, X, y, stride)

    def test_records_at_scale(self):
        # count variance guarantees record windows at this size
        rep = scan_intervals(10**6, 30, stride=1)
        assert rep.max_count >= 2 * rep.mean
        assert rep.argmax_key in columns(rep)["key"][rep.counts == rep.max_count].tolist()


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
        assert columns(rep)["key"].tolist() == xs.tolist()
        assert rep.counts.tolist() == (cum[xs + y] - cum[xs]).tolist()

    def test_scan_progressions(self, oracle_marks_100k):
        rep = scan_progressions(100_000, 50, 1)
        assert rep.counts.tolist() == [np.count_nonzero(oracle_marks_100k[1 % q :: q]) for q in range(50, 101)]

    @pytest.mark.parametrize("share", [0.4, 0.7, 1.0, 3.0])
    @pytest.mark.parametrize("a", [0, 1, 2**63 - 1])
    def test_scan_progressions_long_moduli(self, oracle_marks_100k, segment, share, a):
        # q in [Q, 2Q] below, across and above the segment length, where a
        # segment holds at most one member of each progression; the last
        # segment of [1, 99,500] is shorter than the others
        Q, x = int(share * segment), 99_500
        rep = scan_progressions(x, Q, a)
        marks = oracle_marks_100k[1 : x + 1]  # marks[i] <-> n = i + 1
        assert rep.counts.tolist() == [np.count_nonzero(marks[(a - 1) % q :: q]) for q in range(Q, 2 * Q + 1)]

    @pytest.mark.parametrize("q", [12, 4097])
    def test_scan_residues(self, oracle_marks_100k, q):
        rep = scan_residues(100_000, q)
        assert rep.counts.tolist() == [np.count_nonzero(oracle_marks_100k[a::q]) for a in range(q)]

    def test_derived_columns_match_by_chunk(self):
        # the writer and the statistics derive the columns a chunk at a time;
        # every chunk must give the whole range's bits, and those the formulas
        # the scans once held as whole columns
        n = 3 * CHUNK_ROWS + 777
        S = _landau()
        X, y, stride = 3 * (n - 1), 30, 3
        keys = np.arange(X, 2 * X + 1, stride, dtype=np.int64)
        x, Q = 5000, n - 1
        qs = np.arange(Q, 2 * Q + 1, dtype=np.int64)
        residues = np.arange(n, dtype=np.int64)
        expect = {
            "intervals": (scan_intervals(X, y, stride), keys, S * y / np.sqrt(np.log(keys)), np.ones(n, dtype=bool)),
            "progressions": (scan_progressions(x, Q, 1), qs,
                             np.array([progression_prediction(x, q) for q in qs.tolist()]),
                             _progression_applicable(1, qs)),
            "residues": (scan_residues(x, n), residues, np.full(n, progression_prediction(x, n)),
                         _progression_applicable(residues, n)),
        }
        bounds = sorted({*range(0, n, CHUNK_ROWS), 1, 777, n - 1, n})
        for kind, (rep, *columns) in expect.items():
            assert rep.n_windows == n
            whole = rep.rows(0, n)
            chunked = [np.concatenate(parts) for parts in zip(*(rep.rows(i, j) for i, j in zip(bounds, bounds[1:])))]
            columns.insert(1, rep.counts)
            columns.insert(3, np.divide(rep.counts, columns[2]))
            for name, got, full, want in zip(ROW_FIELDS, chunked, whole, columns):
                bits = np.int64 if got.dtype.kind == "f" else got.dtype
                assert got.dtype == full.dtype == want.dtype, (kind, name)
                assert np.array_equal(got.view(bits), full.view(bits)), (kind, name)
                assert np.array_equal(full.view(bits), want.view(bits)), (kind, name)


class TestScanProgressions:
    def test_q1_row(self):
        rep = scan_progressions(1000, 1, 0)
        assert rep.counts[0] == count_upto(1000)

    def test_counts_match_direct(self):
        rep = scan_progressions(2000, 7, 1)
        from twosq.sieve import count_progression

        for q, count in zip(columns(rep)["key"].tolist(), rep.counts.tolist()):
            assert count == count_progression(2000, q, 1 % q)

    def test_predictions_use_exact_phi(self):
        # the phi_S column covers q in [2500, 5000]; each prediction matches the single-q route bit for bit
        rep = scan_progressions(100, 2500, 1)
        expect = [progression_prediction(100, q) for q in range(2500, 5001)]
        assert columns(rep)["predicted"].tolist() == expect

    def test_phi_S_sieved_once_per_report(self, monkeypatch):
        # a written report derives its rows twice, a CHUNK_ROWS chunk at a time
        # (the statistics walk and the writer), in JSON and in CSV; the phi_S
        # column over [Q, 2Q] is sieved once, by the scan
        calls = []

        def counted(lo, hi):
            calls.append((lo, hi))
            return phi_S_floats(lo, hi)

        monkeypatch.setattr("twosq.scans.phi_S_floats", counted)
        Q = 2 * CHUNK_ROWS + 5
        rep = scan_progressions(100, Q, 1)
        assert "".join(to_json(rep.to_json_dict()))
        assert "".join(to_csv(Records(rep.csv_header, rep.n_windows, rep.rows)))
        assert calls == [(Q, 2 * Q)]

    def test_ratio_mean_at_scale(self):
        rep = scan_progressions(10**6, 10**3, 1)
        assert rep.mean_ratio_valid is not None
        assert abs(rep.mean_ratio_valid - 1.0) <= 0.25

    def test_applicability_flags(self):
        a = 2
        rep = scan_progressions(1000, 4, a)
        cols = columns(rep)
        for q, applicable in zip(cols["key"].tolist(), cols["applicable"].tolist()):
            expect = math.gcd(a, q) == 1 and a % math.gcd(4, q) == 1 % math.gcd(4, q)
            assert applicable == expect
        flags = dict(zip(cols["key"].tolist(), cols["applicable"].tolist()))
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
            assert columns(scan_progressions(100, 150, a))["applicable"].tolist() == expect[149:]
        for q in (1, 2, 4, 12, 35, 100):
            expect = [math.gcd(a, q) == 1 and a % math.gcd(4, q) == 1 % math.gcd(4, q) for a in range(q)]
            assert columns(scan_residues(100, q))["applicable"].tolist() == expect

    def test_residue_past_int64_is_domain_error(self):
        assert scan_progressions(100, 3, 2**63 - 1).n_windows == 4
        with pytest.raises(DomainError):
            scan_progressions(100, 3, 2**63)


class TestScanResidues:
    def test_mod_4_counts(self):
        rep = scan_residues(40, 4)
        assert list(zip(columns(rep)["key"].tolist(), rep.counts.tolist())) == [(0, 7), (1, 8), (2, 5), (3, 0)]
        assert rep.total_count == count_upto(40)

    def test_partition_property(self):
        for q in (1, 2, 3, 6, 10):
            rep = scan_residues(500, q)
            assert rep.total_count == count_upto(500)

    def test_residue_3_never_applicable(self):
        rep = scan_residues(100, 4)
        assert columns(rep)["applicable"].tolist()[3] is False
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


def held_report(kind, params, keys, counts, predicted, applicable, **fields):
    """A ScanReport over the given columns: its row function slices them."""
    return ScanReport(kind, params, counts=counts,
                      derive=lambda i, j: (keys[i:j], predicted[i:j], applicable[i:j]), **fields)


def summary_oracle(rep, record_threshold=2.0):
    """The summary fields recomputed in plain Python from the report's rows."""
    rows = list(zip(*(c.tolist() for c in rep.rows(0, rep.n_windows))))
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
        assert all(len(column) == rep.n_windows for column in columns(rep).values())

    def test_cases_are_not_degenerate(self):
        assert scan_intervals(3000, 12, stride=1).records
        assert not columns(scan_progressions(20000, 30, 2))["applicable"].all()
        assert not columns(scan_residues(10000, 12))["applicable"].all()

    def test_variance_exact_past_int64_squares(self):
        counts = np.array([3_037_000_500, 3_100_000_000, 2_999_999_999, 3_100_000_000], dtype=np.int64)
        assert int((counts * counts).sum()) != sum(c * c for c in counts.tolist())  # int64 wraps
        rep = held_report(
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
        rep = held_report("progressions", {}, **columns)
        expect = summary_oracle(rep)
        assert {name: getattr(rep, name) for name in expect} == expect
        assert rep.records and rep.n_windows == n
        with pytest.raises(TypeError):
            held_report("progressions", {}, **columns, total_count=0)

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
        rep = held_report("progressions", {}, keys=np.arange(n), counts=rng.integers(0, 12, n),
                          predicted=predicted, applicable=applicable)
        expect = summary_oracle(rep)
        assert (rep.records, rep.mean_ratio_valid) == (expect["records"], expect["mean_ratio_valid"])
        whole = columns(rep)["ratio"][applicable & (predicted > 0)]
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


class TestPredictions:
    def test_interval_form(self):
        # S y / sqrt(ln x) at ln x = 16, the window at X; stride X keeps two rows
        X = round(math.exp(16))
        rep = scan_intervals(X, 100, stride=X)
        assert columns(rep)["applicable"].tolist() == [True, True]
        assert abs(columns(rep)["predicted"][0] - 100.0 * 0.7642236536 / 4.0) < 0.01

    def test_progression_q1_reduces_to_interval(self):
        # q = 1 is the whole range: S x / sqrt(ln x)
        x = 10**6
        rep = scan_progressions(x, 1, 0)
        assert columns(rep)["applicable"][0]
        want = _landau() * x / math.sqrt(math.log(x))
        assert abs(columns(rep)["predicted"][0] - want) <= 1e-9 * want

    def test_inapplicable_flagged(self):
        # the prediction needs gcd(a, 4) = 1 and a = 1 (mod 4): a = 0, 2 and 3 are flagged
        rep = scan_residues(10**4, 4)
        assert columns(rep)["applicable"].tolist() == [False, True, False, False]

    def test_domain(self):
        # ln x > 1, as the predictions need, from x >= 3 on
        with pytest.raises(DomainError):
            scan_progressions(2, 1, 0)
        with pytest.raises(DomainError):
            scan_residues(2, 1)
