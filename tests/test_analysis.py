import functools
import math
import operator
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snmcache.analysis import (
    DEFAULT_LIFESPAN_BOUNDS,
    ContentStats,
    class_summary,
    classify_contents,
    content_stats,
    density_map,
    effective_lifespan,
    fit_snm,
    fit_zipf,
    slice_bounds,
    sliced_popularity,
)
from snmcache.generators import generate_snm, parse_snm_config, snm_config_files
from snmcache.trace import RequestEvent, Trace, write_atomic

from helpers import make_trace, random_trace, reference_classes


def row(stats: ContentStats, cid: str) -> tuple:
    """(volume, lifespan, first_request, last_request) of one content, as Python scalars."""
    k = stats.ids.index(cid)
    return tuple(column[k].item() for column in stats[1:])


def own_times(trace: Trace) -> list[list[float]]:
    """Each content's request times, in trace order, row k for content k."""
    times: list[list[float]] = [[] for _ in trace.ids]
    for t, k in zip(trace.times.tolist(), trace.codes.tolist()):
        times[k].append(t)
    return times


class TestContentStats:
    def test_single_request(self):
        stats = content_stats(make_trace(["a"], times=[3.0]))
        assert stats.ids == ("a",)
        assert row(stats, "a") == (1, 0.0, 3.0, 3.0)

    def test_ten_requests_one_per_day(self):
        volume, lifespan, _, _ = row(content_stats(make_trace(["a"] * 10, times=[float(i) for i in range(10)])), "a")
        assert volume == 10
        assert lifespan == 8.0  # requests 1 through 9 of 10

    def test_identical_timestamps(self):
        assert row(content_stats(make_trace(["a"] * 7, times=[2.0] * 7)), "a")[1] == 0.0

    def test_quantile_indices_are_exact_integers(self):
        # V=30 must use requests 3 and 27; float ceil of 0.1*30 would give 4
        times = [float(i) for i in range(30)]
        assert effective_lifespan(times) == times[26] - times[2]

    def test_lifespan_bounded_by_span(self):
        rng = np.random.default_rng(0)
        trace = random_trace(rng, 500, 12)
        stats = content_stats(trace)
        assert np.all(0.0 <= stats.lifespan)
        assert np.all(stats.lifespan <= stats.last_request - stats.first_request)

    def test_equal_timestamp_permutation_invariance(self):
        a = make_trace(["x", "x", "x", "x"], times=[0.0, 1.0, 1.0, 2.0])
        b = make_trace(["x", "x", "x", "x"], times=[0.0, 1.0, 1.0, 2.0])
        assert row(content_stats(a), "x")[1] == row(content_stats(b), "x")[1]

    def test_rows_follow_trace_ids(self):
        trace = make_trace(["b", "a", "b", "c"])
        stats = content_stats(trace)
        assert stats.ids == trace.ids == ("b", "a", "c")
        assert stats.volume.tolist() == [2, 1, 1]
        assert stats.first_request.tolist() == [0.0, 1.0, 3.0]
        assert stats.last_request.tolist() == [2.0, 1.0, 3.0]

    @settings(max_examples=150, deadline=None)
    @given(
        requests=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 6)), min_size=1, max_size=80),
        volume_threshold=st.integers(1, 6),
        bounds=st.lists(st.integers(0, 200), unique=True, max_size=4).map(sorted),
    )
    def test_table_matches_scalar_definitions(self, requests, volume_threshold, bounds):
        # quarter-day ticks make life-spans land exactly on the bounds
        requests.sort()
        times = [tick / 4 for tick, _ in requests]
        trace = Trace.from_columns(times, [f"id{x}" for _, x in requests], times[-1])
        bounds = [b / 4 for b in bounds]
        stats = content_stats(trace)
        classes = classify_contents(stats, volume_threshold, bounds)
        assert stats.ids == trace.ids
        assert classes.shape == (len(trace.ids),)
        for k, own in enumerate(own_times(trace)):
            volume, lifespan, first, last = row(stats, trace.ids[k])
            assert (volume, first, last) == (len(own), own[0], own[-1])
            assert lifespan == effective_lifespan(own)
            expected = 0 if volume < volume_threshold else bisect_left(bounds, lifespan) + 1
            assert classes[k] == expected


class TestSlicedPopularity:
    def toy(self):
        return make_trace(["a"] * 6 + ["b"] * 3 + ["c"])

    def test_single_slice_is_global_frequencies(self):
        rows = sliced_popularity(self.toy(), K=1, top_ranks=3)
        assert [(r.rank, r.mean) for r in rows] == [(1, 0.6), (2, 0.3), (3, 0.1)]
        assert all(r.p5 == r.mean == r.p95 for r in rows)

    def test_degenerate_one_request_slices(self):
        trace = self.toy()
        rows = sliced_popularity(trace, K=len(trace.events), top_ranks=2)
        assert rows[0].mean == 1.0
        assert rows[1].mean == 0.0

    def test_k_validation(self):
        trace = self.toy()
        for bad in (0, -1, len(trace.events) + 1):
            with pytest.raises(ValueError):
                sliced_popularity(trace, K=bad, top_ranks=2)

    def test_mean_non_increasing_in_rank(self):
        rng = np.random.default_rng(8)
        trace = random_trace(rng, 600, 30)
        rows = sliced_popularity(trace, K=7, top_ranks=25)
        means = [r.mean for r in rows]
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_slice_bounds_near_equal(self):
        bounds = slice_bounds(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 10)]
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_steepness_grows_with_slice_count(self):
        # finer slicing exposes the instantaneous popularity of bursty
        # contents, steepening the fitted tail; K is kept small enough
        # that slices stay well above the one-request-per-rank floor
        trace = generate_snm(reference_classes(), 30.0, seed=0)
        alphas = []
        for K in (1, 4, 10, 30):
            rows = sliced_popularity(trace, K, top_ranks=105)
            alphas.append(fit_zipf([(r.rank, r.mean) for r in rows], (10, 100)))
        assert all(b > a for a, b in zip(alphas, alphas[1:]))
        assert alphas[-1] > alphas[0] + 0.3


class TestFitZipf:
    @pytest.mark.parametrize("alpha", [0.0, 0.4, 0.8, 1.0, 1.6, 2.0])
    def test_exact_on_noiseless_power_law(self, alpha):
        freqs = np.arange(1, 201, dtype=float) ** -alpha
        freqs /= freqs.sum()
        fitted = fit_zipf(list(enumerate(freqs, start=1)), (1, 200))
        assert abs(fitted - alpha) < 1e-9

    def test_flat_distribution(self):
        rows = [(r, 0.01) for r in range(1, 101)]
        assert fit_zipf(rows, (1, 100)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_frequency_rejected(self):
        rows = [(1, 0.5), (2, 0.0), (3, 0.25), (4, 0.25)]
        with pytest.raises(ValueError):
            fit_zipf(rows, (1, 4))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_zipf([(1, 0.6), (2, 0.4)], (1, 2))


class TestClassifyContents:
    def stats_for(self, volume, lifespan):
        stats = content_stats(make_trace(["z"]))
        return stats._replace(volume=np.array([volume]), lifespan=np.array([lifespan]))

    def test_low_volume_is_class_zero(self):
        assert classify_contents(self.stats_for(5, 20.0))[0] == 0

    def test_short_lifespan_class_one(self):
        assert classify_contents(self.stats_for(50, 1.5))[0] == 1

    def test_upper_inclusive_boundary(self):
        assert classify_contents(self.stats_for(10, 13.0))[0] == 4
        assert classify_contents(self.stats_for(10, 13.0001))[0] == 5

    def test_partition_and_time_shift_invariance(self):
        rng = np.random.default_rng(12)
        trace = random_trace(rng, 800, 25)
        shifted = Trace.from_events(
            [RequestEvent(e.timestamp + 5.0, e.content_id) for e in trace.events],
            trace.horizon + 5.0,
        )
        a = classify_contents(content_stats(trace), volume_threshold=3)
        b = classify_contents(content_stats(shifted), volume_threshold=3)
        assert shifted.ids == trace.ids
        assert a.tolist() == b.tolist()
        assert set(a.tolist()) <= set(range(6))

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            classify_contents(self.stats_for(50, 1.0), lifespan_bounds=[2, 2, 8, 13])

    @pytest.mark.parametrize("bounds", [[math.nan], [2, math.nan, 8], [2, 5, math.inf], [-math.inf, 2]])
    def test_bounds_must_be_finite(self, bounds):
        with pytest.raises(ValueError, match="must be finite"):
            classify_contents(self.stats_for(50, 1.0), lifespan_bounds=bounds)


class TestClassSummary:
    def test_all_class_zero(self):
        trace = make_trace(["a", "b", "c"])
        stats = content_stats(trace)
        summaries = class_summary(stats, classify_contents(stats), DEFAULT_LIFESPAN_BOUNDS, trace.horizon)
        assert summaries[0].pct_requests == 100.0
        assert all(s.pct_requests == 0.0 for s in summaries[1:])

    def test_arrival_rate(self):
        trace = make_trace(["a", "b"], times=[1.0, 2.0], horizon=10.0)
        summaries = class_summary(content_stats(trace), np.array([0, 0]), DEFAULT_LIFESPAN_BOUNDS, trace.horizon)
        assert summaries[0].arrival_rate == pytest.approx(0.2)

    def test_missing_content_rejected(self):
        trace = make_trace(["a", "b"])
        with pytest.raises(ValueError, match="one class per content"):
            class_summary(content_stats(trace), np.array([0]), DEFAULT_LIFESPAN_BOUNDS, trace.horizon)

    def test_class_out_of_range_rejected(self):
        trace = make_trace(["a", "b"])
        with pytest.raises(ValueError, match="class id 6 out of range for 4 bounds"):
            class_summary(content_stats(trace), np.array([0, 6]), DEFAULT_LIFESPAN_BOUNDS, trace.horizon)

    def test_zero_horizon_rejected(self):
        # all requests at one instant give no arrival rate
        trace = make_trace(["a", "b", "a"], times=[0.0] * 3)
        with pytest.raises(ValueError, match="trace horizon must be positive.*got 0.0"):
            stats = content_stats(trace)
            class_summary(stats, classify_contents(stats), DEFAULT_LIFESPAN_BOUNDS, trace.horizon)

    def test_pct_requests_sums_to_100(self):
        rng = np.random.default_rng(3)
        trace = random_trace(rng, 700, 40)
        stats = content_stats(trace)
        classes = classify_contents(stats, volume_threshold=5)
        summaries = class_summary(stats, classes, DEFAULT_LIFESPAN_BOUNDS, trace.horizon)
        assert sum(s.pct_requests for s in summaries) == pytest.approx(100.0, abs=0.01)
        assert sum(s.pct_videos for s in summaries) == pytest.approx(100.0, abs=0.01)

    def test_reference_class1_row_recovery(self):
        # 90-day horizon keeps right-censoring of long-lived shots small
        horizon = 90.0
        trace = generate_snm(reference_classes(horizon=horizon, shape="uniform"), horizon, seed=42)
        stats = content_stats(trace)
        s1 = class_summary(stats, classify_contents(stats), DEFAULT_LIFESPAN_BOUNDS, trace.horizon)[1]
        assert s1.pct_requests == pytest.approx(9.15, rel=0.12)
        assert s1.pct_videos == pytest.approx(3.17, rel=0.12)
        assert s1.mean_lifespan == pytest.approx(1.14, rel=0.12)
        assert s1.mean_volume == pytest.approx(86.4, rel=0.12)

    def test_mean_lifespan_is_a_left_fold(self):
        # Python's float sum is compensated from 3.12 on; the class means
        # (and the class_summary.csv bytes) must not depend on that
        horizon = 90.0
        trace = generate_snm(reference_classes(horizon=horizon, shape="uniform"), horizon, seed=42)
        stats = content_stats(trace)
        classes = classify_contents(stats).tolist()
        lifespans = [effective_lifespan(own) for own in own_times(trace)]
        compensated_differs = False
        for s in class_summary(stats, classes, DEFAULT_LIFESPAN_BOUNDS, trace.horizon):
            xs = [x for x, k in zip(lifespans, classes) if k == s.class_id]
            assert s.mean_lifespan == functools.reduce(operator.add, xs, 0.0) / len(xs)
            compensated_differs |= s.mean_lifespan != math.fsum(xs) / len(xs)
        assert compensated_differs  # so this trace tells the two sums apart

    def test_volume_samples_match_members(self):
        ids = ["a"] * 12 + ["b"] * 15 + ["c"]
        trace = make_trace(ids, times=[0.5] * len(ids))
        stats = content_stats(trace)
        summaries = class_summary(stats, classify_contents(stats), DEFAULT_LIFESPAN_BOUNDS, trace.horizon)
        assert summaries[1].volume_samples == [12, 15]  # zero lifespan -> class 1
        assert summaries[0].volume_samples == [1]



class TestFitSnm:
    # "a" has 12 requests at one instant (class 1, life-span 0), "b" one request (class 0)
    BURST = (["a"] * 12 + ["b"], [0.5] * 13)

    def fit(self, trace, shape="uniform", seed=None):
        return fit_snm(content_stats(trace), trace.horizon, 10, DEFAULT_LIFESPAN_BOUNDS, shape, seed)

    def test_first_and_last_class_are_stationary(self):
        trace = generate_snm(reference_classes(n_videos=400.0), 30.0, seed=3)
        _, config = self.fit(trace)
        kinds = {c.class_id: c.shape_kind for c in config.classes}
        assert kinds == {0: "stationary", 1: "uniform", 2: "uniform", 3: "uniform", 4: "uniform", 5: "stationary"}

    def test_empty_classes_are_dropped(self):
        summaries, config = self.fit(make_trace(*self.BURST, horizon=2.0))
        assert len(summaries) == len(DEFAULT_LIFESPAN_BOUNDS) + 2
        assert [c.class_id for c in config.classes] == [0, 1]
        assert [c.volumes for c in config.classes] == [(1.0,), (12.0,)]

    def test_zero_lifespan_shot_class_gets_the_floor(self):
        summaries, config = self.fit(make_trace(*self.BURST, horizon=2.0))
        assert summaries[1].mean_lifespan == 0.0
        assert config.classes[1].lifespan == 1e-9
        assert config.classes[0].lifespan == 0.0  # a stationary class keeps its measured life-span

    @pytest.mark.parametrize("seed", [None, 0, 17])
    def test_seed_goes_into_the_config(self, seed):
        _, config = self.fit(make_trace(*self.BURST, horizon=2.0), seed=seed)
        assert config.seed == seed

    @pytest.mark.parametrize("shape", ["exponential", "uniform"])
    def test_config_round_trips_through_its_files(self, tmp_path, shape):
        trace = generate_snm(reference_classes(n_videos=400.0), 30.0, seed=3)
        _, config = self.fit(trace, shape, seed=5)
        write_atomic(snm_config_files(config, tmp_path / "snm.conf"))
        assert parse_snm_config(tmp_path / "snm.conf") == config

class TestDensityMap:
    def stats_of(self, trace):
        return content_stats(trace)

    def test_empty_when_nothing_qualifies(self):
        counts = density_map(self.stats_of(make_trace(["a", "b"])), 10, [0, 5, 10], [10, 50, 100])
        assert counts.sum() == 0

    def test_single_cell(self):
        trace = make_trace(["a"] * 20, times=list(np.linspace(0.0, 3.75, 20)))
        st = self.stats_of(trace)
        assert row(st, "a")[1] == pytest.approx(3.0, abs=0.2)
        counts = density_map(st, 10, [0, 5, 10], [10, 50, 100])
        assert counts.sum() == 1
        assert counts[0, 0] == 1

    def test_total_equals_qualifying_contents(self):
        rng = np.random.default_rng(9)
        trace = random_trace(rng, 2000, 60)
        stats = self.stats_of(trace)
        expected = sum(1 for v in stats.volume.tolist() if v >= 10)
        counts = density_map(stats, 10, [0, 2, 4, 8], [10, 20, 40])  # clamps out-of-range
        assert counts.sum() == expected

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            density_map(content_stats(make_trace([])), 10, [0, 5, 5], [10, 20])
