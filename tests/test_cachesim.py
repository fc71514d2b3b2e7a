import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snmcache.cachesim import (
    _stack_distances,
    hit_curve,
    lru_results,
    reuse_distances,
    simulate_lru,
    size_for_hit_prob,
)
from snmcache.generators import IrmConfig, generate_irm, generate_snm
from snmcache.shuffle import slice_shuffle
from snmcache.trace import RequestEvent, Trace

from helpers import (
    fenwick_reuse_distances,
    lru_oracle,
    make_trace,
    naive_reuse_distances,
    random_trace,
    reference_classes,
)


class TestSimulateLru:
    def test_hand_traced(self):
        r = simulate_lru(make_trace([1, 2, 1, 3, 1]), capacity=2)
        assert (r.hits, r.requests) == (2, 5)
        assert r.hit_prob == 0.4

    def test_compulsory_misses_only(self):
        trace = make_trace([1, 2, 3, 1, 2, 3, 1])
        r = simulate_lru(trace, capacity=3)
        assert r.hits == len(trace) - 3
        assert r.evictions == 0
        assert math.isnan(r.mean_eviction_time)

    def test_single_content(self):
        r = simulate_lru(make_trace(["x"] * 10), capacity=1)
        assert r.hit_prob == 0.9

    @pytest.mark.parametrize("capacity", [0, -1, 1.5, 2.0, True, "2"])
    def test_capacity_error(self, capacity):
        # 1.5 used to run and report capacity=1.5
        with pytest.raises(ValueError, match="capacity must be"):
            simulate_lru(make_trace([1]), capacity=capacity)

    def test_eviction_time(self):
        # cap 2: c's arrival at t=7 evicts b (last access t=1)
        trace = make_trace(["a", "b", "a", "c"], times=[0.0, 1.0, 3.0, 7.0])
        r = simulate_lru(trace, capacity=2)
        assert r.evictions == 1
        assert r.mean_eviction_time == 6.0

    def test_timestamp_scaling_irrelevance(self):
        rng = np.random.default_rng(11)
        trace = random_trace(rng, 400, 30)
        scaled = Trace.from_events([RequestEvent(e.timestamp * 3.0, e.content_id) for e in trace.events],
                                   trace.horizon * 3.0)
        for cap in (1, 5, 17):
            a = simulate_lru(trace, cap)
            b = simulate_lru(scaled, cap)
            assert a.hits == b.hits
            if a.evictions:
                assert b.mean_eviction_time == pytest.approx(3.0 * a.mean_eviction_time)


class TestReuseDistances:
    def test_repeats(self):
        d = reuse_distances(make_trace([1, 1, 1]))
        assert list(d) == [math.inf, 1.0, 1.0]

    def test_interleaved(self):
        d = reuse_distances(make_trace([1, 2, 1]))
        assert list(d) == [math.inf, math.inf, 2.0]

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            trace = random_trace(rng, 300, 25)
            assert list(reuse_distances(trace)) == naive_reuse_distances(trace.content_ids())

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=120))
    def test_naive_oracle_property(self, ids):
        trace = make_trace(ids)
        assert list(reuse_distances(trace)) == naive_reuse_distances(trace.content_ids())

    def test_matches_lru_at_every_capacity(self):
        rng = np.random.default_rng(17)
        trace = random_trace(rng, 1000, 50)
        d = reuse_distances(trace)
        for cap in range(1, 51):
            assert int(np.count_nonzero(d <= cap)) == lru_oracle(trace, cap).hits

    def test_matches_lru_on_ten_thousand_requests(self):
        rng = np.random.default_rng(18)
        trace = random_trace(rng, 10_000, 60)
        d = reuse_distances(trace)
        for cap in range(1, 61):
            assert int(np.count_nonzero(d <= cap)) == lru_oracle(trace, cap).hits


    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 1023, 1024, 1025])
    def test_naive_oracle_across_power_of_two_lengths(self, n):
        # the kernel splits prefixes into aligned power-of-two blocks, so
        # lengths on either side of a power of two exercise its edges
        rng = np.random.default_rng(n)
        for n_ids in (1, 7, n):
            ids = [f"id{x}" for x in rng.integers(0, n_ids, n)]
            assert list(reuse_distances(make_trace(ids))) == naive_reuse_distances(ids)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3000), st.sampled_from([3, 2000]), st.integers(0, 2**32 - 1))
    def test_naive_oracle_on_long_traces(self, n, n_ids, seed):
        # levels up to 2^11: few ids give short gaps, many ids long gaps and many first references
        ids = np.random.default_rng(seed).integers(0, n_ids, n).tolist()
        assert list(reuse_distances(make_trace(ids))) == naive_reuse_distances(ids)

    @pytest.mark.parametrize("n", sorted({2**k + d for k in range(13) for d in (-1, 0, 1)}))
    def test_one_content_and_all_distinct_at_power_of_two_edges(self, n):
        assert list(reuse_distances(make_trace(["a"] * n))) == [math.inf] * min(n, 1) + [1.0] * (n - 1)
        assert list(reuse_distances(make_trace(range(n)))) == [math.inf] * n

    def test_empty_trace(self):
        d = reuse_distances(Trace.from_columns([], [], 0.0))
        assert d.dtype == np.float64 and d.shape == (0,)

    def test_request_bound_checked_before_allocating(self):
        prev = np.broadcast_to(np.int64(-1), (2**31,))  # a zero-stride view: no memory behind it
        with pytest.raises(ValueError, match=r"2\*\*31"):
            _stack_distances(prev)

    def test_matches_lru_on_reference_snm_trace(self):
        trace = generate_snm(reference_classes(), 30.0, seed=1)
        assert len(trace) > 150_000
        d = reuse_distances(trace)
        for cap in (1, 50, 500, 2000, 8000):
            assert int(np.count_nonzero(d <= cap)) == lru_oracle(trace, cap).hits


class TestRowBoundaries:
    # each level splits the aligned 2^c blocks in halves and moves the last,
    # partial block on its own; these lengths end on a power of two, fall one
    # short of it or one past it, and the odd ones leave a partial block at
    # every level
    @pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1, 2**17 + 1, 3 * 2**16 + 5])
    @pytest.mark.parametrize("n_ids", [3, 2000, None], ids=["3", "2000", "half"])
    def test_fenwick_oracle_across_rows(self, n, n_ids):
        codes = np.random.default_rng(n).integers(0, n_ids or n // 2, n)
        trace = Trace(np.arange(n, dtype=float), codes, [f"id{k}" for k in range(codes.max() + 1)], float(n))
        assert reuse_distances(trace).tolist() == fenwick_reuse_distances(trace.codes.tolist())

    def test_fenwick_oracle_on_reference_snm_trace_and_its_shuffle(self):
        trace = generate_snm(reference_classes(), 30.0, seed=1)
        for t in (trace, slice_shuffle(trace, 1, seed=1)):
            assert reuse_distances(t).tolist() == fenwick_reuse_distances(t.codes.tolist())

    def test_fenwick_oracle_matches_naive_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            ids = rng.integers(0, int(rng.integers(1, 40)), int(rng.integers(0, 300))).tolist()
            assert fenwick_reuse_distances(ids) == naive_reuse_distances(ids)

    def test_memory_peak_per_request(self):
        # the kernel's scratch, _previous's and the result, on top of the trace: at most 36 bytes a request
        trace = generate_irm(IrmConfig(1000, 0.8, 10**6, 30.0), seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reuse_distances(trace)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 36 * len(trace)


def lru_fields(results):
    # every field, mean_eviction_time by repr so NaN and the last bit count
    return [(r.capacity, r.requests, r.hits, r.evictions, repr(r.mean_eviction_time)) for r in results]


class TestLruResults:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.25, 7.0])),
                    min_size=1, max_size=80))
    @example([])  # the empty trace
    def test_equals_lru_oracle(self, requests):
        # few distinct timestamps give equal-time requests (and both zeros);
        # capacities run from 1 to past the distinct-content count
        requests.sort(key=lambda r: r[1])
        trace = make_trace([cid for cid, _ in requests], [t for _, t in requests])
        caps = list(range(1, len(trace.ids) + 3))
        expected = lru_fields(lru_oracle(trace, c) for c in caps)
        assert lru_fields(lru_results(trace, reuse_distances(trace), caps)) == expected
        assert lru_fields(simulate_lru(trace, c) for c in caps) == expected

    def test_single_content(self):
        trace = make_trace(["x"] * 7, times=[0.0, 0.0, 1.0, 1.0, 1.0, 3.0, 3.0])
        caps = [1, 2, 5]
        results = lru_results(trace, reuse_distances(trace), caps)
        assert lru_fields(results) == lru_fields(lru_oracle(trace, c) for c in caps)
        assert [(r.hits, r.evictions) for r in results] == [(6, 0)] * 3

    def test_eviction_time(self):
        trace = make_trace(["a", "b", "a", "c"], times=[0.0, 1.0, 3.0, 7.0])
        [r] = lru_results(trace, reuse_distances(trace), [2])
        assert (r.evictions, r.mean_eviction_time) == (1, 6.0)

    @pytest.mark.parametrize("daynight", [False, True])
    def test_equals_lru_oracle_on_snm_trace(self, daynight):
        trace = generate_snm(reference_classes(n_videos=800.0), 30.0, seed=3, daynight=daynight)
        caps = [1, 2, 5, 10, 20, 50, 100, 200, 500, len(trace.ids)]
        expected = lru_fields(lru_oracle(trace, c) for c in caps)
        assert lru_fields(lru_results(trace, reuse_distances(trace), caps)) == expected
        assert lru_fields(simulate_lru(trace, c) for c in caps) == expected

    def test_distances_must_be_one_per_request(self):
        # a shorter array used to raise IndexError
        trace = make_trace([1, 2, 1])
        for d in (reuse_distances(trace)[:2], np.ones(4)):
            with pytest.raises(ValueError, match=re.escape(f"distances must be one per request: {d.size} for 3")):
                lru_results(trace, d, [1])

    @pytest.mark.parametrize("capacity", [0, -1, 1.5, 2.0, True, "2"])
    def test_capacity_error(self, capacity):
        # 1.5 used to raise a bare TypeError
        trace = make_trace([1, 2])
        with pytest.raises(ValueError, match="capacity must be"):
            lru_results(trace, reuse_distances(trace), [1, capacity])


class TestHitCurve:
    def test_basic(self):
        curve = hit_curve([math.inf, 1.0, 1.0], [1])
        assert curve == [(1, 2 / 3)]

    def test_all_cold(self):
        curve = hit_curve([math.inf] * 5, [1, 2, 10])
        assert [p for _, p in curve] == [0.0, 0.0, 0.0]

    def test_monotone_on_random_traces(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            trace = random_trace(rng, 500, 40)
            curve = hit_curve(reuse_distances(trace), list(range(1, 41)))
            probs = [p for _, p in curve]
            assert all(a <= b for a, b in zip(probs, probs[1:]))

    @pytest.mark.parametrize("capacity", [0, -1, 1.5, 2.0, True, "2"])
    def test_bad_capacities(self, capacity):
        # 1.5 used to be read as capacity 1
        with pytest.raises(ValueError, match="capacity must be"):
            hit_curve([1.0], [capacity])
        with pytest.raises(ValueError):
            hit_curve([1.0], [5, 2])

    def test_numpy_integer_capacities_give_python_ints(self):
        curve = hit_curve([math.inf, 1.0, 1.0], np.array([1, 2]))
        assert curve == [(1, 2 / 3), (2, 2 / 3)]
        assert all(type(c) is int for c, _ in curve)


# distances no trace can have: below 1, NaN, strings, bools, 2-D, ragged; each used to give a result
# or numpy's own error
BAD_DISTANCES = [[-3.0, math.inf], [math.nan, 2.0], [0, 1], ["1"], [True, False], [[1.0, 2.0]], [[1.0], [2.0, 3.0]]]


@pytest.mark.parametrize("distances", BAD_DISTANCES)
def test_distances_rule(distances):
    message = "distances must be a 1-D column of integers or floats >= 1 (inf for a first reference)"
    trace = make_trace(list(range(len(distances))))  # one request per row, so only the rule can fail
    for call in (lambda: hit_curve(distances, [1]), lambda: size_for_hit_prob(distances, 0.5),
                 lambda: lru_results(trace, distances, [1])):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_integer_and_float_distances_agree():
    for distances in ([1, 3, 2, 1], np.array([1, 3, 2, 1], np.int32)):
        assert hit_curve(distances, [1, 2]) == hit_curve([1.0, 3.0, 2.0, 1.0], [1, 2]) == [(1, 0.5), (2, 0.75)]
        assert size_for_hit_prob(distances, 0.75) == size_for_hit_prob([1.0, 3.0, 2.0, 1.0], 0.75) == 2


class TestSizeForHitProb:
    def test_alternating(self):
        d = reuse_distances(make_trace([1, 2] * 5))
        assert size_for_hit_prob(d, 0.4) == 2

    def test_compulsory_ceiling(self):
        # 10 requests, 4 distinct -> max hit prob 0.6
        d = reuse_distances(make_trace([1, 2, 3, 4, 1, 2, 3, 4, 1, 2]))
        assert size_for_hit_prob(d, 0.6) == 4
        assert size_for_hit_prob(d, 0.61) is None

    def test_all_unique_unattainable(self):
        d = reuse_distances(make_trace(list(range(50))))
        assert size_for_hit_prob(d, 0.999) is None

    def test_no_requests(self):
        with pytest.raises(ValueError, match="^no requests$"):
            size_for_hit_prob([], 0.1)

    def test_target_range(self):
        d = reuse_distances(make_trace([1, 1]))
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                size_for_hit_prob(d, bad)

    def test_least_k_at_and_beside_each_fraction(self):
        # the k-th smallest of the distances 1..total is k, so the size is the least k with k/total >= target;
        # ceil(target * total) is off by one at some of these targets (totals 3 and 25, for instance)
        for total in range(1, 41):
            distances = np.arange(1.0, total + 1)
            for k in range(1, total + 1):
                for target in (math.nextafter(k / total, 0), k / total, math.nextafter(k / total, 1)):
                    if 0 < target < 1:
                        least = next(j for j in range(1, total + 1) if j / total >= target)
                        assert size_for_hit_prob(distances, target) == least

    @pytest.mark.parametrize("target", ["0.5", 0.5 + 0j, None])
    def test_target_must_be_a_number(self, target):
        # "0.5" and 0.5+0j used to raise a TypeError
        d = reuse_distances(make_trace([1, 1]))
        with pytest.raises(ValueError, match=re.escape(f"target must be a number, got {target!r}")):
            size_for_hit_prob(d, target)


def required_sizes(trace, targets):
    d = reuse_distances(trace)
    return [size_for_hit_prob(d, t) for t in targets]


class TestCompareRequiredSizes:
    def test_identical_traces_identical_columns(self):
        rng = np.random.default_rng(2)
        trace = random_trace(rng, 400, 20)
        assert required_sizes(trace, [0.1, 0.3]) == required_sizes(trace, [0.1, 0.3])

    def test_identity_shuffle_equal_sizes(self):
        rng = np.random.default_rng(4)
        trace = random_trace(rng, 300, 15)
        same = slice_shuffle(trace, len(trace.events), seed=9)
        assert required_sizes(same, [0.2, 0.5]) == required_sizes(trace, [0.2, 0.5])

    def test_snm_shuffle_needs_strictly_larger_size(self):
        trace = generate_snm(reference_classes(n_videos=800.0), 30.0, seed=1)
        shuffled = slice_shuffle(trace, 1, seed=1)
        assert required_sizes(shuffled, [0.10])[0] > required_sizes(trace, [0.10])[0]

    def test_empty_trace_error(self):
        with pytest.raises(ValueError):
            required_sizes(Trace.from_events([], 1.0), [0.1])
