import random
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosq.errors import DomainError, ResourceError
from twosq.primes import is_prime, p3_primes
from twosq.sieve import (
    DEFAULT_SEGMENT,
    LARGE_PRIME_CHUNK,
    LARGE_PRIME_DIVISOR,
    MAX_SEGMENT,
    count_interval,
    count_progression,
    count_upto,
    is_two_square,
    iter_segments,
    sieve_segment,
)


class TestIsTwoSquare:
    def test_examples(self):
        assert is_two_square(1)  # 1 = 1^2 + 0^2
        assert not is_two_square(3)  # 3 mod 4, squarefree
        assert is_two_square(9997)  # 13 * 769
        assert not is_two_square(9991)  # 97 * 103, 103 = 3 (mod 4) once

    def test_large_prime(self):
        # 2^61 - 1 is a prime = 3 (mod 4); trial division would take ~10^9 steps
        assert not is_two_square(2**61 - 1)
        assert is_two_square((2**31 - 1) ** 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            is_two_square(0)
        with pytest.raises(DomainError):
            is_two_square(-4)

    def test_against_oracle(self, oracle_marks_10k):
        for n in range(1, 10_001):
            assert is_two_square(n) == bool(oracle_marks_10k[n]), n

    @given(
        m=st.integers(min_value=1, max_value=1000),
        n=st.integers(min_value=1, max_value=1000),
    )
    def test_multiplicative_closure_coprime(self, m, n):
        import math

        if math.gcd(m, n) == 1 and is_two_square(m) and is_two_square(n):
            assert is_two_square(m * n)

    @given(
        n=st.integers(min_value=1, max_value=2000),
        s=st.integers(min_value=1, max_value=40),
    )
    def test_square_scaling(self, n, s):
        if is_two_square(n):
            assert is_two_square(n * s * s)


class TestSieveSegment:
    def test_window_100_120(self):
        seg = sieve_segment(100, 120)
        assert list(seg.members()) == [100, 101, 104, 106, 109, 113, 116, 117]

    def test_window_1_10(self):
        seg = sieve_segment(1, 10)
        assert list(seg.members()) == [1, 2, 4, 5, 8, 9, 10]

    def test_single_point_square(self):
        seg = sieve_segment(49, 49)
        assert seg.bits.tolist() == [True]  # 7^2: even valuation of 7

    def test_matches_oracle(self, oracle_marks_10k):
        seg = sieve_segment(1, 10_000)
        assert np.array_equal(seg.bits, oracle_marks_10k[1:])

    def test_domain(self):
        with pytest.raises(DomainError):
            sieve_segment(0, 10)
        with pytest.raises(DomainError):
            sieve_segment(10, 5)
        with pytest.raises(DomainError):
            sieve_segment(2**63 - 100, 2**63 + 100)

    def test_budget(self):
        with pytest.raises(ResourceError):
            sieve_segment(1, (1 << 26) + 10)

    @given(
        lo=st.integers(min_value=1, max_value=5000),
        span=st.integers(min_value=0, max_value=400),
        sub_off=st.integers(min_value=0, max_value=400),
        sub_span=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=40)
    def test_segment_consistency(self, lo, span, sub_off, sub_span):
        hi = lo + span
        lo2 = min(lo + sub_off, hi)
        hi2 = min(lo2 + sub_span, hi)
        big = sieve_segment(lo, hi)
        small = sieve_segment(lo2, hi2)
        assert np.array_equal(big.bits[lo2 - lo : hi2 - lo + 1], small.bits)

    @given(
        lo=st.integers(min_value=1, max_value=3000),
        span=st.integers(min_value=0, max_value=9000),
        a=st.integers(min_value=0, max_value=9000),
        b=st.integers(min_value=0, max_value=9000),
    )
    @settings(max_examples=40)
    def test_popcount_blocks(self, lo, span, a, b):
        hi = lo + span
        seg = sieve_segment(lo, hi)
        qa, qb = sorted((min(lo + a, hi), min(lo + b, hi)))
        direct = int(np.count_nonzero(seg.bits[qa - lo : qb - lo + 1]))
        assert seg.count_range(qa, qb) == direct

    def test_popcount_spans_blocks(self):
        hi = 3 * 4096 + 17
        seg = sieve_segment(1, hi)
        assert seg.count_range(1, hi) == int(np.count_nonzero(seg.bits))

    def test_accessor_domains(self):
        seg = sieve_segment(10, 20)
        assert seg.bits.size == 11
        assert seg.bits[0] and not seg.bits[1]  # 10 = 3^2 + 1^2; 11 = 3 (mod 4)
        with pytest.raises(DomainError):
            seg.count_range(5, 15)
        assert seg.count_range(15, 12) == 0


class TestHighWindows:
    """sieve_segment against is_two_square, which factorizes each n and
    shares no code with the sieve."""

    # 3^26 and 11^12 are members only if every power up to the 26th / 12th toggles
    @pytest.mark.parametrize("lo", [10**9, 10**12 - 1000, 10**13 + 7, 3**26 - 1500, 11**12 - 1500])
    def test_window_matches_factorization(self, lo):
        seg = sieve_segment(lo, lo + 2999)
        expect = [is_two_square(n) for n in range(lo, lo + 3000)]
        assert seg.bits.tolist() == expect

    @given(
        lo=st.integers(min_value=1, max_value=10**13),
        span=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_window(self, lo, span):
        seg = sieve_segment(lo, lo + span)
        assert seg.bits.tolist() == [is_two_square(n) for n in range(lo, lo + span + 1)]


@pytest.fixture(scope="module")
def base_3x2e50() -> np.ndarray:
    """The primes = 3 (mod 4) up to sqrt(3 * 2^50 + 2^8), sieved once."""
    return p3_primes(isqrt((3 << 50) + (1 << 8)))


class TestTwoAdicMarks:
    """A window of n integers takes one strided store per k with 2^(k+2) <= n
    and marks the multiples of the next 2^k, at most 4, by hand.  These
    windows hold 2^k (a member) and 3 * 2^k (not one) for k up to 50, and
    2^k * r for r the least prime = 3 (mod 4) above 2^(k+1): r exceeds
    sqrt(2^k * r), so no base prime rules that one out and only its 2-adic
    mark does.  Each sits at the start, middle or end of windows of n on both
    sides of 4 << j integers."""

    @pytest.mark.parametrize("k", [3, 11, 17, 24, 37, 50])
    def test_high_valuation(self, base_3x2e50, k):
        xs = [1 << k, 3 << k]
        if k <= 24:  # 2^k * r stays below 3 * 2^50
            xs.append(next(r for r in range((2 << k) + 3, 4 << k, 4) if is_prime(r)) << k)
        for x in xs:
            expect = {m: is_two_square(m) for m in range(max(1, x - 130), x + 131)}
            for j in (0, 1, 3, 5):
                for n in ((4 << j) - 1, 4 << j, (4 << j) + 1):
                    for lo in sorted({max(1, x - n + 1), max(1, x - n // 2), x}):
                        seg = sieve_segment(lo, lo + n - 1, base_3x2e50)
                        assert seg.bits.tolist() == [expect[m] for m in range(lo, lo + n)], (x, lo, n)


class TestLargePrimePass:
    """Base primes above n // LARGE_PRIME_DIVISOR skip the per-prime loop;
    these windows put p, p^2, p^3 and products of two such primes in the
    listed pass, below and above n, and check every bit against
    is_two_square."""

    @pytest.mark.parametrize("p", [103, 10007])
    @pytest.mark.parametrize("e", [2, 3])
    @pytest.mark.parametrize("m", [5, 7, 13])
    def test_prime_powers(self, p, e, m):
        x = p**e * m
        lo, hi = x - 1500, x + 1499
        assert p > (hi - lo + 1) // LARGE_PRIME_DIVISOR and p <= isqrt(hi)
        seg = sieve_segment(lo, hi)
        assert seg.bits[x - lo] == (e % 2 == 0 and m % 4 == 1)
        assert seg.bits.tolist() == [is_two_square(n) for n in range(lo, hi + 1)]

    @pytest.mark.parametrize("k", [5, 13, 3 * 10039])
    def test_two_primes_above_segment(self, k):
        # 10007 * 10039 = 1 (mod 4): only the odd valuations rule these out
        p1, p2 = 10007, 10039
        x = p1 * p2 * k
        lo, hi = x - 50, x + 49
        assert p2 <= isqrt(hi) and p1 > hi - lo + 1
        seg = sieve_segment(lo, hi)
        assert not seg.bits[x - lo]
        assert seg.bits.tolist() == [is_two_square(n) for n in range(lo, hi + 1)]

    @pytest.mark.parametrize("start", [3**26 - 40, 11**12 - 40, 7**14 - 40, 10**12 + 1])
    def test_short_segments(self, start):
        # n <= 64 puts every base prime in the listed pass, 3 and 11 included
        end = start + 2 * 64
        base = p3_primes(isqrt(end))
        expect = [is_two_square(n) for n in range(start, end + 1)]
        for n in range(1, 65):
            for lo in (start, start + 40 - n // 2, start + 64):
                seg = sieve_segment(lo, lo + n - 1, base)
                assert seg.bits.tolist() == expect[lo - start : lo - start + n], (lo, n)

    def test_window_at_1e17(self):
        # the 8.5e6 base primes up to sqrt(hi) ~ 3.2e8 (65 MiB as one list)
        # reach the window a slice of a block at a time: 0.76 MiB traced (1.72
        # MiB with whole blocks)
        lo, hi = 10**17, 10**17 + 199
        tracemalloc.start()
        try:
            seg = sieve_segment(lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert seg.bits.tolist() == [is_two_square(n) for n in range(lo, hi + 1)]

    def test_base_primes_streamed(self):
        # the base primes up to sqrt(hi) ~ 3.2e7 are streamed a slice of
        # PRIME_SLICE integers at a time and never held whole (7.4 MiB as one
        # list): one block's flags, a slice's primes and a chunk's scratch,
        # 0.70 MiB (1.67 MiB with whole blocks)
        lo, hi = 10**15, 10**15 + 1999
        tracemalloc.start()
        try:
            seg = sieve_segment(lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        sample = range(lo, hi + 1, 97)
        assert [bool(seg.bits[n - lo]) for n in sample] == [is_two_square(n) for n in sample]

    def test_long_window_holds_no_base_list(self):
        # one segment of 2^20 integers at 1e14 streams its 332,398 base primes
        # rather than holding them (2.5 MiB): the 1 MiB of marks, one block's
        # flags, a slice's primes and a chunk's scratch, 2.05 MiB traced (2.81
        # MiB with whole blocks and chunks of 2^14 primes walking the segment)
        lo, hi = 10**14 + 1, 10**14 + (1 << 20)
        tracemalloc.start()
        try:
            count = count_interval(lo - 1, hi - lo + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (1 << 20)
        assert count == int(np.count_nonzero(sieve_segment(lo, hi, p3_primes(isqrt(hi))).bits))

    @given(
        lo=st.integers(min_value=1, max_value=10**14),
        span=st.integers(min_value=0, max_value=3 * 10**4),
    )
    @settings(max_examples=15, deadline=None)
    def test_streamed_equals_held(self, lo, span):
        # the streamed blocks of base primes mark what the one held list marks
        hi = lo + span
        held = sieve_segment(lo, hi, p3_primes(isqrt(hi)))
        assert np.array_equal(sieve_segment(lo, hi).bits, held.bits)

    def test_short_window_allocates_chunks(self):
        # the 332,398 given base primes reach the listed pass LARGE_PRIME_CHUNK
        # at a time, each round dropping the primes that miss the window before
        # it lists hits, so a 200-integer window allocates one chunk's residues
        # and little more: 0.08 MiB traced (2.9 MiB when they spanned every
        # prime, 0.32 MiB when each round dropped its misses after listing)
        lo, hi = 10**14, 10**14 + 199
        base = p3_primes(10**7)
        tracemalloc.start()
        try:
            seg = sieve_segment(lo, hi, base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 17
        assert seg.bits.tolist() == [is_two_square(n) for n in range(lo, hi + 1)]

    @given(
        lo=st.integers(min_value=1, max_value=10**14),
        span=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_far_window(self, lo, span):
        seg = sieve_segment(lo, lo + span)
        assert seg.bits.tolist() == [is_two_square(n) for n in range(lo, lo + span + 1)]

    def test_every_prime_vectorized(self, monkeypatch, oracle_marks_100k):
        # divisor 2^30 sends every base prime through the listed pass; 3 alone
        # then has more multiples than a chunk's LARGE_PRIME_CHUNK hits
        lo, hi = 10**12 - (1 << 15), 10**12 + (1 << 15)
        base = p3_primes(isqrt(hi))
        split = sieve_segment(lo, hi, base).bits
        monkeypatch.setattr("twosq.sieve.LARGE_PRIME_DIVISOR", 1 << 30)
        assert np.array_equal(sieve_segment(lo, hi, base).bits, split)
        assert np.array_equal(sieve_segment(1, 100_000).bits, oracle_marks_100k[1:])

    @pytest.mark.parametrize("divisor", [1, 1 << 30])
    @pytest.mark.parametrize("power", [3**13, 7**8, 11**6])
    def test_prime_powers_in_each_pass(self, monkeypatch, oracle_marks_6m, power, divisor):
        # a window longer than sqrt(hi) under divisor 1 sends every base prime
        # through the per-prime parity loop, under divisor 2^30 through the
        # listed pass; 3^13, 7^8 and 11^6 test the counts along p^2, p^3, ...
        # The 100-integer window sends the primes above 100 through the listed
        # pass, most of them missing it.  The listed pass takes chunks of 1 hit
        # (one prime a chunk), of 7 (primes dropping out of a chunk at
        # different powers) and of the default size.  Windows of 1019 - 1,
        # 1019 and 1019 + 1 integers, 1019 a base prime, have chunks under
        # divisor 2^30 holding primes on both sides of n.
        lo, hi = power - 3000, power + 3000
        assert isqrt(hi) <= hi - lo + 1 and hi < oracle_marks_6m.size
        monkeypatch.setattr("twosq.sieve.LARGE_PRIME_DIVISOR", divisor)
        windows = [(lo, hi), (lo + 1, hi - 2), (power, hi), (power - 50, power + 49)]
        windows += [(power - 509, power - 509 + n - 1) for n in (1018, 1019, 1020)]
        assert 1019 in p3_primes(isqrt(hi))
        for chunk in (1, 7, LARGE_PRIME_CHUNK):
            monkeypatch.setattr("twosq.sieve.LARGE_PRIME_CHUNK", chunk)
            for a, b in windows:
                assert np.array_equal(sieve_segment(a, b).bits, oracle_marks_6m[a : b + 1]), (chunk, a, b)


class TestStreamRule:
    """iter_segments sieves a range as one segment streaming its base primes
    where their list would outweigh the range's marks, and otherwise holds the
    list for segments of DEFAULT_SEGMENT integers."""

    # (x, n): windows (x, x + n] up to n stream, from n + 1 hold.  At 1e12 the
    # list (39,175 primes, 0.31 MB) never outweighs more than one segment; at
    # 1e14 and 1e17 the lists of 332,398 and 8.5e6 primes weigh 2.66 and 68 MB
    CROSSOVERS = [(10**12, 1 << 20), (10**14, 2_481_682), (10**17, 64_628_693)]

    @pytest.mark.parametrize("x, n", CROSSOVERS)
    def test_route_at_crossover(self, monkeypatch, x, n):
        # the routes alone: no segment is sieved and no list is built
        calls = []
        monkeypatch.setattr("twosq.sieve.sieve_segment", lambda lo, hi, base=None: calls.append((lo, hi, base)))
        monkeypatch.setattr("twosq.sieve.p3_primes", lambda limit: "held")
        assert n <= MAX_SEGMENT
        list(iter_segments(x + 1, x + n))
        assert calls == [(x + 1, x + n, None)]
        calls.clear()
        list(iter_segments(x + 1, x + n + 1))
        assert [c[2] for c in calls] == ["held"] * -(-(n + 1) // DEFAULT_SEGMENT)
        assert calls[0][0] == x + 1 and calls[-1][1] == x + n + 1

    @pytest.mark.parametrize("x, n", CROSSOVERS[:2])
    @pytest.mark.parametrize("side", [0, 1])
    def test_counts_at_crossover(self, x, n, side):
        # just below the crossover one streamed segment, just above held-list
        # segments: both count what one segment over the held list marks, and
        # a seeded sample of its bits matches factorization
        lo, hi = x + 1, x + n + side
        held = sieve_segment(lo, hi, p3_primes(isqrt(hi))).bits
        assert count_interval(x, n + side) == int(np.count_nonzero(held))
        sample = random.Random(n + side).sample(range(lo, hi + 1), 200)
        assert [bool(held[m - lo]) for m in sample] == [is_two_square(m) for m in sample]

    def test_long_window_far_out_streams(self):
        # 2^22 integers at 1e17 are one segment streaming their 8.5e6 base
        # primes: the 4 MiB of marks, one block's flags, a slice's primes and a
        # chunk's scratch, 5.16 MiB traced (69 MiB with the list held)
        lo, hi = 10**17 + 1, 10**17 + (1 << 22)
        tracemalloc.start()
        try:
            count = count_interval(lo - 1, hi - lo + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20
        assert count == int(np.count_nonzero(sieve_segment(lo, hi, p3_primes(isqrt(hi))).bits))


class TestParityCounter:
    """A byte of marks counts one unit per prime = 3 (mod 4) with an odd
    valuation, so it must not wrap where the most such primes meet."""

    # 3 * 7 * ... * 71 (11 primes = 3 (mod 4)) and 3 * 7 * ... * 79 (12, the
    # most any n < 2^63 has: times 83 it passes 2^63)
    @pytest.mark.parametrize("x", [1_775_033_636_579_511, 140_227_657_289_781_369])
    def test_headroom(self, monkeypatch, x):
        # in 2^13 integers every prime up to 79 < 2^13 / LARGE_PRIME_DIVISOR is
        # counted by the per-prime loop; divisor 2^30 sends every prime through
        # the listed pass, which counts the same units in unbuffered adds, all
        # of a chunk's first powers before any square
        lo, hi = x - 4000, x + 4191
        assert 79 <= (hi - lo + 1) // LARGE_PRIME_DIVISOR
        counted = sieve_segment(lo, hi).bits
        monkeypatch.setattr("twosq.sieve.LARGE_PRIME_DIVISOR", 1 << 30)
        assert np.array_equal(sieve_segment(lo, hi).bits, counted)
        assert counted[x - lo] == is_two_square(x)
        sample = range(lo, hi + 1, 61)
        assert [bool(counted[n - lo]) for n in sample] == [is_two_square(n) for n in sample]


class TestCounts:
    def test_count_upto_examples(self):
        assert count_upto(0) == 0
        assert count_upto(10) == 7

    def test_count_interval_examples(self):
        assert count_interval(100, 20) == 7  # 101,104,106,109,113,116,117
        assert count_interval(0, 10) == 7
        assert count_interval(9992, 4) == 0

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (-1, 10, "count_interval: x must be >= 0, got -1"),
            (10, 0, "count_interval: y must be >= 1, got 0"),
            (2**63 - 1, 1, f"count_interval: need x + y <= 2^63 - 1, got x={2**63 - 1}, y=1"),
        ],
        ids=["x-negative", "y-below-1", "past-int64"],
    )
    def test_count_interval_refusal_names_its_function(self, x, y, message):
        with pytest.raises(DomainError) as exc:
            count_interval(x, y)
        assert str(exc.value) == message

    def test_count_progression_examples(self):
        assert count_progression(40, 4, 1) == 8
        assert count_progression(40, 4, 3) == 0
        assert count_progression(10, 1, 0) == 7

    def test_progression_query_validation(self):
        with pytest.raises(DomainError):
            count_progression(10, 0, 0)
        with pytest.raises(DomainError):
            count_progression(10, 4, 4)
        with pytest.raises(DomainError):
            count_progression(-1, 4, 1)

    def test_count_holds_one_segment(self):
        # a segment is freed before the next is sieved, its membership bits
        # are its marks inverted in place, and no prime allocates scratch: one
        # segment's bytes and little else (1.01 segments traced)
        tracemalloc.start()
        try:
            count = count_upto(6 * DEFAULT_SEGMENT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * DEFAULT_SEGMENT
        assert count == 1269406

    @pytest.mark.parametrize("y", [DEFAULT_SEGMENT + edge for edge in (-1, 0, 1)]
                             + [2 * DEFAULT_SEGMENT + edge for edge in (-1, 0, 1)])
    def test_segment_boundary(self, oracle_marks_6m, y):
        # up to one segment streams its base primes, past it they are held;
        # two segments' edges are those of the earlier 2^21-integer segment
        x = 1_234_567
        assert count_interval(x, y) == int(np.count_nonzero(oracle_marks_6m[x + 1 : x + y + 1]))

    @given(
        x=st.integers(min_value=0, max_value=3000),
        y=st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=30)
    def test_count_additivity(self, x, y):
        assert count_upto(x + y) == count_upto(x) + count_interval(x, y)

    @given(
        x=st.integers(min_value=0, max_value=2000),
        q=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=25)
    def test_progression_partition(self, x, q):
        total = sum(count_progression(x, q, a) for a in range(q))
        assert total == count_upto(x)

    def test_count_against_oracle(self, oracle_marks_100k):
        expect = int(np.count_nonzero(oracle_marks_100k))
        assert count_upto(100_000) == expect

    def test_density_at_1e6(self):
        import math

        ratio = count_upto(10**6) * math.sqrt(math.log(10**6)) / 10**6
        assert abs(ratio - 0.76422) <= 0.15 * 0.76422

    @pytest.mark.parametrize(
        "x,expected",
        [(10**3, 330), (10**4, 2749), (10**5, 24028), (10**6, 216341)],
    )
    def test_decade_anchors(self, x, expected):
        # frozen from the lattice-enumeration oracle; also the published values
        assert count_upto(x) == expected
