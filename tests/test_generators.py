import dataclasses
import hashlib
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from snmcache.analysis import (
    DEFAULT_LIFESPAN_BOUNDS,
    DEFAULT_VOLUME_THRESHOLD,
    class_summary,
    content_stats,
)
from snmcache.cachesim import simulate_lru
from snmcache import generators, shuffle
from snmcache.generators import (
    IrmConfig,
    PopularityShape,
    SnmClassConfig,
    SnmConfig,
    SnmEventStream,
    daynight_factor,
    generate_irm,
    generate_snm,
    lifespan_to_L,
    parse_snm_config,
    shot_requests,
    snm_config_files,
    zipf_probabilities,
)
from snmcache.trace import RequestEvent, validate, write_atomic, write_trace

import helpers
from helpers import class_requests, effective_lifespan, heap_stream, reference_classes


class TestLifespanToL:
    def test_uniform(self):
        assert lifespan_to_L("uniform", 8.0) == pytest.approx(5.0)

    def test_exponential(self):
        assert lifespan_to_L("exponential", 8.0) == pytest.approx(8.0 / math.log(9.0))

    def test_zero_lifespan(self):
        with pytest.raises(ValueError):
            lifespan_to_L("uniform", 0.0)

    def test_stationary_has_no_scale(self):
        with pytest.raises(ValueError):
            lifespan_to_L("stationary", 3.0)


class TestPopularityShape:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PopularityShape("triangular", 1.0)
        with pytest.raises(ValueError):
            PopularityShape("uniform", 0.0)

    @pytest.mark.parametrize("kind,L", [("exponential", 0.5), ("exponential", 7.0),
                                        ("uniform", 0.5), ("uniform", 7.0)])
    def test_causality_and_quantile_consistency(self, kind, L):
        shape = PopularityShape(kind, L)
        t_neg = np.array([-10.0, -1e-9, -0.5])
        assert np.all(shape.density(t_neg) == 0.0)
        assert np.all(shape.cdf(t_neg) == 0.0)
        q = np.linspace(0.01, 0.99, 25)
        assert np.allclose(shape.cdf(shape.quantile(q)), q, atol=1e-12)


class TestShotSampling:
    def test_uniform_times_are_uniform(self):
        shape = PopularityShape("uniform", 5.0)
        rng = np.random.default_rng(0)
        times = shot_requests(shape, 0.0, 1e5, 12.0, rng, False)
        stat = scipy_stats.kstest(times, "uniform", args=(0.0, 10.0)).statistic
        assert stat < 1.628 / math.sqrt(len(times))  # 1% critical value

    def test_vanishing_rate_gives_empty(self):
        shape = PopularityShape("exponential", 1.0)
        times = shot_requests(shape, 0.0, 1e-12, 100.0, np.random.default_rng(1), False)
        assert len(times) == 0

    def test_exponential_lifespan_recovery(self):
        target = 4.0
        shape = PopularityShape("exponential", lifespan_to_L("exponential", target))
        rng = np.random.default_rng(2)
        pooled = [
            shot_requests(shape, 0.0, 50.0, 100 * shape.L, rng, False)
            for _ in range(2000)
        ]
        times = np.sort(np.concatenate(pooled))
        assert len(times) > 90_000
        assert effective_lifespan(times) == pytest.approx(target, rel=0.02)

    def test_volume_recovery(self):
        shape = PopularityShape("uniform", 2.0)
        rng = np.random.default_rng(3)
        counts = [
            len(shot_requests(shape, 0.0, 40.0, 50.0, rng, False))
            for _ in range(10_000)
        ]
        tol = 3.0 * math.sqrt(40.0) / math.sqrt(10_000)
        assert np.mean(counts) == pytest.approx(40.0, abs=tol)

    def test_no_request_precedes_birth(self):
        shape = PopularityShape("exponential", 1.5)
        rng = np.random.default_rng(4)
        for birth in (0.0, 3.7, 9.99):
            times = shot_requests(shape, birth, 200.0, 10.0, rng, False)
            assert np.all(times >= birth)
            assert np.all(times <= 10.0)

    def test_horizon_before_birth_rejected(self):
        shape = PopularityShape("uniform", 1.0)
        with pytest.raises(ValueError):
            shot_requests(shape, 5.0, 10.0, 4.0, np.random.default_rng(0), False)

    @pytest.mark.parametrize("volume", ["3", -1.0, math.nan])
    def test_volume_rule(self, volume):
        # a string volume raised TypeError, a negative or NaN one numpy's Poisson message
        with pytest.raises(ValueError, match="volume must be"):
            shot_requests(PopularityShape("uniform", 1.0), 0.0, volume, 10.0, np.random.default_rng(0), False)

    @pytest.mark.parametrize("argument,value,message", [
        ("birth", -5.0, "birth must be >= 0 and finite, got -5.0"),
        ("birth", math.nan, "birth must be >= 0 and finite, got nan"),
        ("horizon", math.nan, "horizon must be positive and finite, got nan"),
        ("horizon", math.inf, "horizon must be positive and finite, got inf"),
        ("horizon", -1.0, "horizon must be positive and finite, got -1.0"),
        ("volume", 1e308, "2 * volume must be <= "),
        ("daynight", "no", "daynight must be a bool, got 'no'"),
        ("daynight", 1, "daynight must be a bool, got 1"),
        ("daynight", None, "daynight must be a bool, got None"),
    ])
    def test_value_rules(self, argument, value, message):
        # a negative birth gave times before 0, a stationary content's bad horizon NaN, inf or negative
        # times, a NaN birth or a huge volume numpy's "lam value too large", and daynight="no" the
        # day/night thinning
        for shape in (PopularityShape("uniform", 1.0), None):
            args = {"birth": 0.0, "volume": 5.0, "horizon": 10.0, "daynight": False, argument: value}
            with pytest.raises(ValueError, match=re.escape(message)):
                shot_requests(shape, rng=np.random.default_rng(0), **args)

    def test_pinned_bytes(self):
        # the exact times over fixed seeds: both shapes and a stationary content, plain and day/night,
        # births up to the horizon (no request for a shot) and an int volume
        digest = hashlib.sha256()
        for shape in (PopularityShape("exponential", 1.5), PopularityShape("uniform", 2.0), None):
            for daynight in (False, True):
                rng = np.random.default_rng([27, daynight])
                for birth, volume in ((0.0, 40.0), (2.5, 40.0), (7.9, 40.0), (1.0, 25), (10.0, 40.0)):
                    times = shot_requests(shape, birth, volume, 10.0, rng, daynight)
                    assert times.dtype == np.float64 and (times.size > 0) == (shape is None or birth < 10.0)
                    digest.update(np.int64(times.size).tobytes() + times.tobytes())
        assert digest.hexdigest() == "8bdb2e8ea02a979cd18c3c0e98deee87acad6cb14ac19fe99e30d4ad58e0bd09"

    class EdgeRng:
        # counts and volume indices from a real generator; every candidate uniform 1 - 2**-53, the
        # largest numpy draws, and every thinning uniform 0, so that day/night keeps every candidate
        def __init__(self, rng):
            self.poisson, self.integers, self.draws = rng.poisson, rng.integers, 0

        def random(self, size):
            self.draws += 1
            return np.full(size, 1.0 - 2.0**-53 if self.draws == 1 else 0.0)

    @pytest.mark.parametrize("daynight", [False, True])
    @pytest.mark.parametrize("kind", ["uniform", "exponential"])
    @pytest.mark.parametrize("horizon", [7.3, 10.1, 30.0])
    def test_times_at_the_window_end(self, horizon, kind, daynight):
        # every candidate at the window end: a birth plus a shot time can round past a horizon with no
        # short binary form (7.3, 10.1), which a round horizon such as 30.0 alone never shows
        shape = PopularityShape(kind, 5.0)
        births = np.random.default_rng(1).uniform(0.0, horizon, 100_000)
        t, owner = generators._draw_contents(self.EdgeRng(np.random.default_rng(1)), shape, births, 3.0,
                                             horizon, daynight)
        assert t.size > 100_000
        assert np.all(t >= births[owner]) and np.all(t <= horizon)
        rng = np.random.default_rng(2)
        for birth in births[:2000].tolist():
            times = shot_requests(shape, birth, 3.0, horizon, self.EdgeRng(rng), daynight)
            assert np.all(times >= birth) and np.all(times <= horizon)


class TestDayNight:
    def test_factor_values(self):
        assert daynight_factor(0.25) == pytest.approx(2.0)
        assert daynight_factor(0.75) == pytest.approx(0.0, abs=1e-12)
        assert daynight_factor(0.0) == pytest.approx(1.0)

    def test_modulated_volume_over_whole_days(self):
        # uniform profile spanning exactly 2 days: mean of f over the
        # support is 1, so the kept volume should recover mean_volume
        shape = PopularityShape("uniform", 1.0)
        times = shot_requests(shape, 0.0, 1e5, 10.0, np.random.default_rng(5), True)
        assert len(times) == pytest.approx(1e5, rel=0.01)

    def test_modulated_times_follow_f(self):
        shape = PopularityShape("uniform", 2.0)  # spans 4 whole days
        times = shot_requests(shape, 0.0, 5e4, 10.0, np.random.default_rng(6), True)
        frac = np.asarray(times) % 1.0
        cdf = lambda x: x + (1.0 - np.cos(2 * np.pi * x)) / (2 * np.pi)
        stat = scipy_stats.kstest(frac, cdf).statistic
        assert stat < 1.628 / math.sqrt(len(frac))


class TestGenerateIrm:
    def test_flat_zipf_shares(self):
        cfg = IrmConfig(catalogue_size=2, alpha=0.0, total_requests=1_000_000, horizon=10.0)
        trace = generate_irm(cfg, seed=0)
        share = trace.content_ids().count("r1") / len(trace.events)
        assert share == pytest.approx(0.5, abs=0.002)

    def test_single_content_catalogue(self):
        cfg = IrmConfig(catalogue_size=1, alpha=1.0, total_requests=500, horizon=5.0)
        trace = generate_irm(cfg, seed=1)
        assert set(trace.content_ids()) == {"r1"}
        assert simulate_lru(trace, 1).hit_prob == pytest.approx(499 / 500)
        assert simulate_lru(trace, 7).hit_prob == pytest.approx(499 / 500)

    def test_requests_capped_at_reuse_distance_limit(self):
        # only the configs are built: no request is drawn
        assert IrmConfig(catalogue_size=10, alpha=0.8, total_requests=2**31 - 1, horizon=5.0)
        with pytest.raises(ValueError, match=r"total_requests must be in \[1, 2147483647\], got 2147483648"):
            IrmConfig(catalogue_size=10, alpha=0.8, total_requests=2**31, horizon=5.0)

    def test_ids_are_the_drawn_ranks(self):
        # the used ranks and their codes come from a bincount presence mask
        cfg = IrmConfig(catalogue_size=1000, alpha=0.3, total_requests=800, horizon=2.0)
        rng = np.random.default_rng([9, generators._TAG_IRM])
        cum = np.cumsum(zipf_probabilities(1000, 0.3))
        cum[-1] = 1.0
        ranks = np.searchsorted(cum, rng.random(800), side="right") + 1
        trace = generate_irm(cfg, seed=9)
        assert trace.content_ids() == [f"r{r}" for r in ranks.tolist()]
        assert len(trace.ids) == np.unique(ranks).size < 800

    @pytest.mark.parametrize("size", [10.5, True, "10", None])
    def test_catalogue_size_must_be_an_integer(self, size):
        # 10.5 used to give a catalogue of 11
        with pytest.raises(ValueError, match=re.escape(f"catalogue_size must be an integer, got {size!r}")):
            IrmConfig(size, 1.0, 1000, 1.0)
        cfg = IrmConfig(np.int64(10), 1.0, 1000, 1.0)
        assert generate_irm(cfg, 2) == generate_irm(IrmConfig(10, 1.0, 1000, 1.0), 2)

    @pytest.mark.parametrize("seed", [1.5, True, "3", None])
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 used to raise a TypeError from the seed's 64-bit mask
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            generate_irm(IrmConfig(10, 1.0, 100, 1.0), seed)

    def test_numpy_integer_seed_is_the_python_int(self):
        # a numpy seed used to overflow in the seed's 64-bit mask
        cfg = IrmConfig(10, 1.0, 100, 1.0)
        assert generate_irm(cfg, np.int64(3)) == generate_irm(cfg, np.uint8(3)) == generate_irm(cfg, 3)

    @pytest.mark.parametrize("total", [100.5, True, "100", np.float64(100.0)])
    def test_total_requests_must_be_an_integer(self, total):
        # 100.5 used to construct, and generate_irm then raised numpy's TypeError
        with pytest.raises(ValueError, match=re.escape(f"total_requests must be an integer, got {total!r}")):
            IrmConfig(10, 1.0, total, 1.0)

    @pytest.mark.parametrize("alpha", ["a", "0.8", b"1", None])
    def test_alpha_must_be_a_number(self, alpha):
        # "a" used to raise a TypeError from the >= comparison
        with pytest.raises(ValueError, match="^alpha must be"):
            IrmConfig(10, alpha, 100, 1.0)

    def test_probabilities_normalized(self):
        p = zipf_probabilities(1000, 0.8)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(p) <= 0)

    def test_deterministic_and_valid(self):
        cfg = IrmConfig(catalogue_size=50, alpha=0.7, total_requests=2000, horizon=3.0)
        a = generate_irm(cfg, seed=9)
        b = generate_irm(cfg, seed=9)
        assert a == b
        assert validate(a) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IrmConfig(0, 0.8, 10, 1.0)
        with pytest.raises(ValueError):
            IrmConfig(10, -0.1, 10, 1.0)
        with pytest.raises(ValueError):
            IrmConfig(10, 0.8, 10, 0.0)


class TestGenerateSnm:
    def test_content_count_is_poisson(self):
        classes = [SnmClassConfig(1, 10.0, 2.0, "uniform", 40.0)]
        trace = generate_snm(classes, 30.0, seed=0)
        n_contents = len(set(trace.content_ids()))
        assert abs(n_contents - 300) <= 3 * math.sqrt(300)

    def test_reference_class2_recovery(self):
        # single class at the reference class-2 operating point
        classes = [SnmClassConfig(2, 10.9, 3.36, "uniform", 40.0)]
        trace = generate_snm(classes, 30.0, seed=7)
        stats = content_stats(trace)
        summaries = class_summary(stats, trace.horizon, DEFAULT_VOLUME_THRESHOLD, DEFAULT_LIFESPAN_BOUNDS)
        row = summaries[2]
        assert row.mean_lifespan == pytest.approx(3.36, rel=0.10)
        assert row.mean_volume == pytest.approx(40.0, rel=0.10)

    def test_empty_class_list_rejected(self):
        with pytest.raises(ValueError):
            generate_snm([], 10.0, seed=0)

    def test_bad_horizon_rejected(self):
        classes = [SnmClassConfig(1, 1.0, 1.0, "uniform", 10.0)]
        with pytest.raises(ValueError):
            generate_snm(classes, 0.0, seed=0)

    def test_duplicate_class_ids_rejected(self):
        classes = [
            SnmClassConfig(1, 1.0, 1.0, "uniform", 10.0),
            SnmClassConfig(1, 2.0, 2.0, "exponential", 5.0),
        ]
        with pytest.raises(ValueError):
            generate_snm(classes, 10.0, seed=0)

    def test_class_config_validation(self):
        with pytest.raises(ValueError):
            SnmClassConfig(1, 0.0, 1.0, "uniform", 10.0)
        with pytest.raises(ValueError):
            SnmClassConfig(1, 1.0, 0.0, "uniform", 10.0)
        with pytest.raises(ValueError):
            SnmClassConfig(1, 1.0, 1.0, "weird", 10.0)
        with pytest.raises(ValueError):
            SnmClassConfig(1, 1.0, 1.0, "uniform", ())
        with pytest.raises(ValueError, match="class -3: class id must be >= 0"):
            SnmClassConfig(-3, 1.0, 1.0, "uniform", 10.0)
        SnmClassConfig(0, 1.0, 1.0, "uniform", 10.0)

    def test_deterministic_byte_identical(self):
        classes = reference_classes(n_videos=300.0)
        a, b = generate_snm(classes, 30.0, 5), generate_snm(classes, 30.0, 5)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_trace(a, buf_a)
        write_trace(b, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        assert generate_snm(classes, 30.0, 6) != a

    def test_generated_traces_are_valid(self):
        for seed in (0, 1):
            trace = generate_snm(reference_classes(n_videos=200.0), 30.0, seed, daynight=True)
            assert validate(trace) == []

    def test_stationary_class_spans_horizon(self):
        classes = [SnmClassConfig(5, 20.0, 25.0, "stationary", 30.0)]
        trace = generate_snm(classes, 20.0, seed=3)
        ts = trace.timestamps()
        assert min(ts) < 1.0 and max(ts) > 19.0


class TestKeyedSeeding:
    def test_stream_tags_are_distinct(self):
        tags = [generators._TAG_IRM, generators._TAG_BIRTHS, shuffle._SHUFFLE_TAG]
        assert len(set(tags)) == len(tags)

    @pytest.mark.parametrize("daynight", [False, True])
    def test_each_class_draws_from_its_keyed_default_rng(self, daynight):
        # the generator's draws are those of one np.random.default_rng per
        # (seed, tag, class) key, in the documented order (helpers.class_requests):
        # a volume-sample class of a two-word id, a constant class and a stationary one
        classes = [SnmClassConfig(2**32 + 3, 3.0, 1.5, "exponential", (4.0, 9.0, 30.0)),
                   SnmClassConfig(0, 5.0, 2.0, "uniform", 12.0),
                   SnmClassConfig(7, 4.0, 0.0, "stationary", 6.0)]
        seed, horizon = -3, 6.0
        times, ids = [], []
        for cfg in classes:
            t, serials, _ = class_requests(cfg, horizon, seed, daynight)
            times += t.tolist()
            ids += [f"c{cfg.class_id}_{serial}" for serial in serials.tolist()]
        trace = generate_snm(classes, horizon, seed, daynight)
        expected = sorted(zip(times, ids))
        assert len(trace) == len(expected) > 0
        assert trace.events == [RequestEvent(t, cid) for t, cid in expected]


class TestEventStream:
    def small_classes(self):
        return [
            SnmClassConfig(1, 6.0, 1.2, "exponential", 25.0),
            SnmClassConfig(2, 4.0, 2.5, "uniform", (8.0, 12.0, 30.0, 55.0)),
            SnmClassConfig(5, 10.0, 9.0, "stationary", 12.0),
        ]

    @pytest.mark.parametrize("daynight", [False, True])
    def test_stream_equals_batch(self, daynight):
        classes = self.small_classes()
        for seed in (0, 1, 2):
            batch = generate_snm(classes, 8.0, seed, daynight)
            stream = list(SnmEventStream(classes, 8.0, seed, daynight))
            assert stream == batch.events

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_non_positive_or_nan_horizon_rejected(self, horizon):
        # one precondition for both entry points
        for generate in (SnmEventStream, generate_snm):
            with pytest.raises(ValueError, match="horizon must be positive"):
                generate(self.small_classes(), horizon, 0)

    @staticmethod
    def at_horizon(draw):
        # the draw, with every request time set to the horizon, 5.0
        def draw_at_horizon(*args):
            t, *rest = draw(*args)
            return np.full_like(t, 5.0), *rest

        return draw_at_horizon

    def test_equal_timestamps_order_by_id_string(self, monkeypatch):
        # every request is placed at the horizon, in the batch and the
        # stream alike, so all requests tie on time and only the id
        # string orders them
        monkeypatch.setattr(generators, "_draw_contents", self.at_horizon(generators._draw_contents))
        classes = [SnmClassConfig(1, 4.0, 1.0, "uniform", 10.0),
                   SnmClassConfig(5, 2.0, 1.0, "stationary", 10.0)]
        batch = generate_snm(classes, 5.0, seed=3)
        ids = batch.content_ids()
        assert "c1_10" in ids and "c1_2" in ids
        assert ids == sorted(ids)
        assert ids.index("c1_10") < ids.index("c1_2")
        assert list(SnmEventStream(classes, 5.0, seed=3)) == batch.events

    @pytest.mark.parametrize("daynight", [False, True])
    def test_matches_heap_oracle(self, daynight):
        # after every next(), the event and peak_pending are those of a heap
        # fed each content's requests at its birth
        classes = self.small_classes() + [SnmClassConfig(3, 3.0, 0.6, "exponential", (2.0, 90.0))]
        for seed in (0, 7, 11):
            expected = list(heap_stream(classes, 8.0, seed, daynight))
            stream = SnmEventStream(classes, 8.0, seed, daynight)
            assert stream.peak_pending == 0
            assert [(event, stream.peak_pending) for event in stream] == expected
            assert stream.peak_pending == expected[-1][1]

    def test_tied_times_match_heap_oracle(self, monkeypatch):
        # every request at the horizon, in the generator and the oracle, so only the id orders the events
        monkeypatch.setattr(generators, "_draw_contents", self.at_horizon(generators._draw_contents))
        monkeypatch.setattr(helpers, "class_requests", self.at_horizon(helpers.class_requests))
        classes = [SnmClassConfig(1, 4.0, 1.0, "uniform", 10.0),
                   SnmClassConfig(5, 2.0, 1.0, "stationary", 10.0),
                   SnmClassConfig(12, 3.0, 1.0, "exponential", 6.0)]
        expected = list(heap_stream(classes, 5.0, 3))
        stream = SnmEventStream(classes, 5.0, 3)
        assert [(event, stream.peak_pending) for event in stream] == expected

    def test_pending_size_bound(self):
        # expected pending load is arrival_rate * E[volume * lifespan]
        classes = [SnmClassConfig(1, 10.0, 3.4, "uniform", 40.0)]
        stream = SnmEventStream(classes, 30.0, seed=0)
        n_events = sum(1 for _ in stream)
        assert n_events > 0
        assert stream.peak_pending <= 5 * 10.0 * 40.0 * 3.4

    @pytest.mark.parametrize("seed,daynight,n_events,peak,digest", [
        (4, False, 2923, 984, "b77b0ca57c45d41e2112424aad6adcce76b0666d61723deca69a14bdf635d9d5"),
        (5, True, 2864, 1145, "a63852184b48cfff0cc35ad08aa0ca548dc5ec933b480652f960a5e8473943bd"),
    ])
    def test_pinned_events_and_peak_pending(self, seed, daynight, n_events, peak, digest):
        # exact events and pending peak of the stream, stationary class included
        stream = SnmEventStream(self.small_classes(), 8.0, seed, daynight)
        assert iter(stream) is stream
        events = list(stream)
        assert len(events) == n_events
        assert stream.peak_pending == peak
        assert hashlib.sha256(repr(events).encode()).hexdigest() == digest

    def test_first_peak_counts_only_births_passed(self):
        # after the first event, peak_pending counts the requests of the
        # contents born by then, not those of the whole run
        classes = [SnmClassConfig(1, 10.0, 1.0, "uniform", 40.0)]
        stream = SnmEventStream(classes, 30.0, seed=0)
        next(stream)
        n_events = sum(1 for _ in SnmEventStream(classes, 30.0, seed=0))
        assert stream.peak_pending < n_events / 100

    def test_memory_peak_per_request(self):
        # a counting drain holds the run's requests once, as generate_snm
        # does: at most 80 bytes a request at its peak
        tracemalloc.start()
        try:
            n_events = sum(1 for _ in SnmEventStream(reference_classes(), 30.0, 1, daynight=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_events > 100_000
        assert peak / n_events <= 80


class TestConfigRules:
    # Every value rule lives in the config dataclasses: a bad class cannot
    # be built, so neither generator reaches numpy ("lam value too large",
    # "lam < 0 or lam is NaN") or returns an empty trace without a word.
    @staticmethod
    def one_class(**changes):
        fields = dict(class_id=1, arrival_rate=2.0, lifespan=1.5, shape_kind="uniform", volumes=5.0)
        return [SnmClassConfig(**{**fields, **changes})]

    @pytest.mark.parametrize("generate", [generate_snm, SnmEventStream])
    @pytest.mark.parametrize("changes,message", [
        ({"arrival_rate": math.inf}, "class 1: arrival_rate must be positive and finite, got inf"),
        ({"volumes": math.inf}, "class 1: volumes must be positive and finite, got inf"),
        ({"volumes": (4.0, -3.0)}, "class 1: volumes sample must be >= 0 and finite, got -3.0"),
        ({"volumes": (math.nan, 4.0)}, "class 1: volumes sample must be >= 0 and finite, got nan"),
        ({"lifespan": math.inf}, "class 1: lifespan_days must be positive and finite, got inf"),
        ({"lifespan": -1.0, "shape_kind": "stationary"},
         "class 1: lifespan_days must be >= 0 and finite, got -1.0"),
    ])
    def test_bad_class_values_name_class_and_field(self, generate, changes, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            generate(self.one_class(**changes), 10.0, 0)

    @pytest.mark.parametrize("generate", [generate_snm, SnmEventStream])
    @pytest.mark.parametrize("changes,message", [
        # each of these passed the value rules and reached numpy's bare "lam value too large"
        ({"arrival_rate": 1e308}, "class 1: arrival_rate * horizon must be <= 9.22"),
        ({"arrival_rate": 1e18}, "class 1: arrival_rate * horizon must be <= 9.22"),
        ({"volumes": 1e308}, "class 1: 2 * volumes must be <= 9.22"),
        ({"volumes": (3.0, 5e18)}, "class 1: 2 * volumes must be <= 9.22"),
    ])
    def test_poisson_means_beyond_numpy_name_class_and_field(self, generate, changes, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            generate(self.one_class(**changes), 10.0, 0)

    @pytest.mark.parametrize("volumes", [[[1.0, 2.0]], [[1.0], [2.0, 3.0]], [[]]])
    def test_volume_sample_must_be_one_dimensional(self, volumes):
        # these constructed and failed later in numpy: a TypeError from generate_snm and
        # snm_config_files, an "inhomogeneous shape" error and a zero-size reduction
        message = f"class 1: volumes sample must be a 1-D sequence of numbers, got {volumes!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.one_class(volumes=volumes)

    @pytest.mark.parametrize("class_id", [1.5, True, "1", np.float64(1.0)])
    def test_class_id_must_be_an_integer(self, class_id):
        # 1.5 and True used to construct, True generating the ids cTrue_0, ...
        with pytest.raises(ValueError, match=re.escape(f"class id must be an integer, got {class_id!r}")):
            self.one_class(class_id=class_id)

    def test_numpy_integer_class_id_is_accepted(self):
        assert generate_snm(self.one_class(class_id=np.int64(1)), 10.0, 3) == generate_snm(self.one_class(), 10.0, 3)

    @pytest.mark.parametrize("generate", [generate_snm, SnmEventStream])
    @pytest.mark.parametrize("seed", [1.5, True, "3", None])
    def test_seed_must_be_an_integer(self, generate, seed):
        # 1.5 used to raise a TypeError from the seed's 64-bit mask
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            generate(self.one_class(), 10.0, seed)

    @pytest.mark.parametrize("seed", ["x", 1.5, True, np.float64(3.0)])
    def test_config_seed_is_none_or_an_integer(self, seed):
        # snm_config_files used to write seed=x, seed=1.5 and seed=True, which
        # parse_snm_config rejected at line 2
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            SnmConfig(10.0, self.one_class(), seed=seed)
        assert SnmConfig(10.0, self.one_class(), seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("generate", [generate_snm, SnmEventStream, SnmConfig])
    @pytest.mark.parametrize("daynight", ["off", "on", 0, 1, None, np.array([True])])
    def test_daynight_must_be_a_bool(self, generate, daynight):
        # generate_snm(classes, 5.0, 0, "off") used to give the day/night trace,
        # and snm_config_files wrote daynight=on for "off"
        with pytest.raises(ValueError, match=re.escape(f"daynight must be a bool, got {daynight!r}")):
            if generate is SnmConfig:
                SnmConfig(5.0, self.one_class(), daynight=daynight)
            else:
                generate(self.one_class(), 5.0, 0, daynight)

    def test_numpy_bool_daynight_is_the_python_bool(self, tmp_path):
        assert generate_snm(self.one_class(), 5.0, 0, np.True_) == generate_snm(self.one_class(), 5.0, 0, True)
        config = SnmConfig(5.0, self.one_class(), daynight=np.False_)
        write_atomic(snm_config_files(config, tmp_path / "snm.conf"))
        assert parse_snm_config(tmp_path / "snm.conf") == config

    @pytest.mark.parametrize("build,message", [
        # "5" constructed with volume 5.0; True as a rate or horizon constructed;
        # 1+0j constructed with a ComplexWarning; a mapping or set raised a bare TypeError
        (lambda c: c(volumes="5"), "class 1: volumes must be a number, got '5'"),
        (lambda c: c(volumes={1: 2}), "class 1: volumes must be a number, got {1: 2}"),
        (lambda c: c(volumes={1.0, 2.0}), "class 1: volumes must be a number, got {1.0, 2.0}"),
        (lambda c: c(volumes=True), "class 1: volumes must be a number, got True"),
        (lambda c: c(arrival_rate=True), "class 1: arrival_rate must be a number, got True"),
        (lambda c: c(arrival_rate=1 + 0j), "class 1: arrival_rate must be a number, got (1+0j)"),
        (lambda c: c(arrival_rate=[2.0]), "class 1: arrival_rate must be a number, got [2.0]"),
        (lambda c: c(lifespan=np.bool_(True)), f"class 1: lifespan_days must be a number, got {np.bool_(True)!r}"),
        (lambda c: c(volumes=(1.0, 2.0 + 0j)), "class 1: volumes sample must be a 1-D sequence of numbers"),
        (lambda c: c(volumes=(True, False)), "class 1: volumes sample must be a 1-D sequence of numbers"),
        (lambda c: SnmConfig(True, c()), "horizon must be a number, got True"),
        (lambda c: IrmConfig(10, 0.8, 100, True), "horizon must be a number, got True"),
        (lambda c: IrmConfig(10, 1 + 0j, 100, 5.0), "alpha must be a number, got (1+0j)"),
        (lambda c: IrmConfig(10, False, 100, 5.0), "alpha must be a number, got False"),
    ])
    def test_numbers_are_real_not_bools_strings_or_mappings(self, build, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(ValueError, match=re.escape(message)):
                build(lambda **changes: self.one_class(**changes)[0])

    def test_numpy_integer_seed_is_the_python_int(self):
        # a numpy seed used to overflow in the seed's 64-bit mask
        expected = generate_snm(self.one_class(), 10.0, 3)
        assert generate_snm(self.one_class(), 10.0, np.int64(3)) == expected
        assert list(SnmEventStream(self.one_class(), 10.0, np.uint64(3))) == expected.events

    @pytest.mark.parametrize("volume", [np.int64(4), np.float32(4.0), np.array(4.0)])
    def test_numpy_constant_volume_is_the_python_float(self, tmp_path, volume):
        classes = self.one_class(volumes=volume)
        assert type(classes[0].volumes) is float and classes == self.one_class(volumes=4.0)
        assert generate_snm(classes, 10.0, 3) == generate_snm(self.one_class(volumes=4.0), 10.0, 3)
        with pytest.raises(ValueError, match="class 1: volumes must be positive and finite, got 0.0"):
            self.one_class(volumes=volume * 0)
        write_atomic(snm_config_files(SnmConfig(10.0, classes), tmp_path / "snm.conf"))
        assert "volumes=const:4.0" in (tmp_path / "snm.conf").read_text()

    def test_run_config_is_frozen_and_replace_checks_again(self):
        # assigning a field skipped the checks: snm_config_files then wrote seed=x, which the parser rejected
        config = SnmConfig(10.0, self.one_class(), seed=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = "x"
        with pytest.raises(ValueError, match=re.escape("seed must be an integer, got 'x'")):
            dataclasses.replace(config, seed="x")
        assert type(config.classes) is tuple and hash(config) == hash(SnmConfig(10.0, tuple(self.one_class()), 3))

    @pytest.mark.parametrize("sample", [[4.0, 7.0], np.array([4, 7]), (np.float32(4.0), np.int64(7))])
    def test_volume_sample_is_a_tuple_of_floats(self, sample):
        # an ndarray sample made == raise ("truth value ... is ambiguous") and hash raise TypeError
        cfg = self.one_class(volumes=sample)[0]
        assert cfg.volumes == (4.0, 7.0) and all(type(v) is float for v in cfg.volumes)
        assert cfg == self.one_class(volumes=(4.0, 7.0))[0] and hash(cfg) == hash(self.one_class(volumes=(4.0, 7.0))[0])

    def test_volume_sample_cannot_change_after_its_check(self):
        # appending to the list passed used to reach numpy's "lam < 0 or lam is NaN" in generate_snm
        sample = [4.0, 7.0]
        classes = self.one_class(volumes=sample)
        sample.append(-5.0)
        assert classes[0].volumes == (4.0, 7.0)
        assert generate_snm(classes, 10.0, 3) == generate_snm(self.one_class(volumes=(4.0, 7.0)), 10.0, 3)

    def test_poisson_limit_is_numpys(self):
        limit = generators._POISSON_MAX
        assert np.random.default_rng(0).poisson(limit) > 0
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(np.nextafter(limit, math.inf))
        # the largest accepted values; building the configs draws nothing
        SnmClassConfig(1, 1.0, 1.0, "uniform", limit / 2)
        SnmConfig(10.0, self.one_class(arrival_rate=limit / 10))
        with pytest.raises(ValueError, match="2 \\* volumes"):
            SnmClassConfig(1, 1.0, 1.0, "uniform", np.nextafter(limit / 2, math.inf))
        with pytest.raises(ValueError, match="arrival_rate \\* horizon"):
            SnmConfig(10.0, self.one_class(arrival_rate=np.nextafter(limit / 10, math.inf)))

    @pytest.mark.parametrize("generate", [generate_snm, SnmEventStream])
    def test_infinite_horizon_rejected(self, generate):
        with pytest.raises(ValueError, match="horizon must be positive and finite, got inf"):
            generate(self.one_class(), math.inf, 0)

    def test_stationary_class_may_have_zero_lifespan(self):
        assert len(generate_snm(self.one_class(lifespan=0.0, shape_kind="stationary"), 10.0, 0)) > 0

    @pytest.mark.parametrize("build,message", [
        (lambda c: SnmConfig(math.inf, c()), "horizon must be positive and finite, got inf"),
        (lambda c: SnmConfig(5.0, []), "class list must be non-empty"),
        (lambda c: SnmConfig(5.0, c() + c(arrival_rate=3.0)), "duplicate class id 1"),
        (lambda c: SnmConfig(5.0, c(arrival_rate=math.inf)), "class 1: arrival_rate"),
        (lambda c: SnmConfig(5.0, c(volumes=(4.0, -3.0))), "class 1: volumes sample"),
    ])
    def test_configs_the_parser_rejects_cannot_be_written(self, tmp_path, build, message):
        # the config writer used to write each of these, which parse_snm_config then rejected
        with pytest.raises(ValueError, match=message):
            write_atomic(snm_config_files(build(self.one_class), tmp_path / "snm.conf"))
        assert list(tmp_path.iterdir()) == []

    REALS = st.floats() | st.sampled_from([0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])

    @settings(max_examples=200, deadline=None)
    @given(
        horizon=REALS,
        specs=st.lists(
            st.tuples(
                st.integers(0, 3),
                REALS,
                REALS,
                st.sampled_from(generators.SHAPE_KINDS),
                REALS | st.lists(st.integers(-3, 10**9).map(float) | st.sampled_from([math.nan, math.inf]),
                                 max_size=4).map(tuple),
            ),
            max_size=3,
        ),
    )
    def test_dataclass_rejects_or_file_round_trips(self, tmp_path_factory, horizon, specs):
        # the file and the library share one set of rules
        try:
            config = SnmConfig(horizon, [SnmClassConfig(*spec) for spec in specs])
        except ValueError:
            return
        path = tmp_path_factory.mktemp("conf") / "snm.conf"
        write_atomic(snm_config_files(config, path))
        assert parse_snm_config(path) == config


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        config = SnmConfig(
            horizon=21.5,
            seed=99,
            daynight=True,
            classes=[
                SnmClassConfig(1, 3.25, 1.14, "exponential", 86.0),
                SnmClassConfig(5, 40.0, 24.61, "stationary", (25.0, 11.0, 31.0)),
            ],
        )
        path = tmp_path / "snm.conf"
        write_atomic(snm_config_files(config, path))
        parsed = parse_snm_config(path)
        assert parsed.horizon == config.horizon
        assert parsed.seed == 99
        assert parsed.daynight is True
        assert parsed.classes == config.classes

    def test_numpy_scalar_fields_round_trip(self, tmp_path):
        # numpy 2 writes a numpy scalar's repr as "np.float64(...)", which the parser rejects
        config = SnmConfig(np.float64(30.0), [SnmClassConfig(1, np.float64(2.5), np.float64(1.5), "uniform", 4.0)])
        write_atomic(snm_config_files(config, tmp_path / "snm.conf"))
        assert parse_snm_config(tmp_path / "snm.conf") == config
        # a Python number is written as its repr, as before
        config = SnmConfig(30, [SnmClassConfig(1, 2.5, 1.5, "uniform", 4.0)])
        write_atomic(snm_config_files(config, tmp_path / "snm.conf"))
        assert (tmp_path / "snm.conf").read_text().startswith("horizon_days=30\n")

    def test_volumes_sidecar_format(self, tmp_path):
        config = SnmConfig(
            horizon=5.0,
            classes=[SnmClassConfig(2, 1.0, 2.0, "uniform", (7.0, 3.0))],
        )
        write_atomic(snm_config_files(config, tmp_path / "snm.conf"))
        assert (tmp_path / "2.volumes").read_text() == "7\n3\n"

    def test_non_integer_volume_samples_rejected(self, tmp_path):
        config = SnmConfig(
            horizon=5.0,
            classes=[SnmClassConfig(1, 1.0, 2.0, "uniform", (4.0, 9.0)),
                     SnmClassConfig(3, 1.0, 2.0, "uniform", (2.5, 3.7, 10.9))],
        )
        with pytest.raises(ValueError, match="class 3"):
            write_atomic(snm_config_files(config, tmp_path / "snm.conf"))
        assert list(tmp_path.iterdir()) == []

    def test_integer_volume_samples_round_trip(self, tmp_path):
        config = SnmConfig(horizon=5.0, classes=[SnmClassConfig(3, 1.0, 2.0, "uniform", (2.0, 37.0, 10.0))])
        write_atomic(snm_config_files(config, tmp_path / "snm.conf"))
        assert parse_snm_config(tmp_path / "snm.conf").classes == config.classes

    def test_missing_horizon(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("seed=1\nclass=1, arrival_rate=1, lifespan_days=1, shape=uniform, volumes=const:5\n")
        with pytest.raises(ValueError, match="horizon_days"):
            parse_snm_config(p)

    def test_missing_class_field(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("horizon_days=5\nclass=1, arrival_rate=1, shape=uniform, volumes=const:5\n")
        with pytest.raises(ValueError, match="lifespan_days"):
            parse_snm_config(p)

    def test_unknown_field(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("horizon_days=5\nwibble=1\n")
        with pytest.raises(ValueError, match="wibble"):
            parse_snm_config(p)

    def test_bad_daynight(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("horizon_days=5\ndaynight=maybe\n")
        with pytest.raises(ValueError, match="daynight"):
            parse_snm_config(p)

    def test_missing_volume_file(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("horizon_days=5\nclass=1, arrival_rate=1, lifespan_days=1, shape=uniform, volumes=nope.volumes\n")
        with pytest.raises(OSError):
            parse_snm_config(p)

    CLASS_LINE = "class=1, arrival_rate={rate}, lifespan_days={life}, shape=uniform, volumes={vols}\n"

    @pytest.mark.parametrize("horizon,rate,life,vols,message", [
        ("inf", "1", "1", "const:5", "config line 1: horizon_days must be positive and finite, got inf"),
        ("-3", "1", "1", "const:5", "config line 1: horizon_days"),
        ("5", "inf", "1", "const:5", "config line 2: class 1: arrival_rate must be positive and finite, got inf"),
        ("5", "nan", "1", "const:5", "config line 2: class 1: arrival_rate must be positive and finite, got nan"),
        ("5", "1", "-2", "const:5", "config line 2: class 1: lifespan_days must be positive and finite, got -2.0"),
        ("5", "1", "1", "const:inf", "config line 2: class 1: volumes must be positive and finite, got inf"),
        ("5", "1", "1", "const:-5", "config line 2: class 1: volumes must be positive and finite, got -5.0"),
        ("5", "1", "1", "v.volumes", r"v\.volumes line 2: expected an integer >= 0, got '-4'"),
        ("5", "1", "1", "const:1e308", r"config line 2: class 1: 2 \* volumes must be <= 9\.22"),
        ("10", "1e18", "1", "const:5", r"config: class 1: arrival_rate \* horizon must be <= 9\.22"),
    ])
    def test_bad_values_rejected_at_parse_with_line(self, tmp_path, horizon, rate, life, vols, message):
        # each of these reached numpy unchecked ("lam value too large",
        # "lam < 0 or lam is NaN") with no file or line in the message
        (tmp_path / "v.volumes").write_text("3\n-4\n")
        p = tmp_path / "c.conf"
        p.write_text(f"horizon_days={horizon}\n" + self.CLASS_LINE.format(rate=rate, life=life, vols=vols))
        # "config" in a message stands for the config file's path
        with pytest.raises(ValueError, match=message.replace("config", re.escape(str(p)))):
            parse_snm_config(p)

    @pytest.mark.parametrize("text,message", [
        ("horizon_days=5\nseed=abc\n", "config line 2: seed must be an integer, got 'abc'"),
        (CLASS_LINE.replace("class=1", "class=x").format(rate=1, life=1, vols="const:5"),
         "config line 1: class must be an integer, got 'x'"),
        (CLASS_LINE.replace("uniform", "square").format(rate=1, life=1, vols="const:5"),
         "config line 1: class 1: unknown shape 'square'"),
        (CLASS_LINE.format(rate=0, life=1, vols="const:5"), "config line 1: class 1: arrival_rate must be positive"),
        (CLASS_LINE.replace("class=1", "class=-3").format(rate=1, life=1, vols="const:5"),
         "config line 1: class -3: class id must be >= 0"),
        # these passed the parser: the last value won, or the generator
        # failed later with no file or line in the message
        ("horizon_days=0\n", "config line 1: horizon_days must be positive and finite, got 0.0"),
        ("horizon_days=5\nseed=1\nhorizon_days=6\n", "config line 3: repeated field 'horizon_days'"),
        (CLASS_LINE.format(rate=1, life=1, vols="const:5, volumes=const:6"),
         "config line 1: repeated field 'volumes'"),
        ("horizon_days=5\n" + 2 * CLASS_LINE.format(rate=1, life=1, vols="const:5"),
         "config line 3: duplicate class id 1"),
        ("horizon_days=5\nseed=1\n", "config: class list must be non-empty"),
        ("horizon_days=5\nseed\n", "config line 2: expected key=value, got 'seed'"),
        ("horizon_days=5\n" + CLASS_LINE.format(rate=1, life=1, vols="const:5, colour=red"),
         "config line 2: unknown field 'colour'"),
    ])
    def test_bad_fields_name_the_file_and_line(self, tmp_path, text, message):
        p = tmp_path / "c.conf"
        p.write_text(text)
        with pytest.raises(ValueError, match=message.replace("config", re.escape(str(p)))):
            parse_snm_config(p)

    @settings(max_examples=60, deadline=None)
    @given(
        horizon=st.floats(0.001, 1e6),
        seed=st.none() | st.integers(-(2**70), 2**70),
        daynight=st.booleans(),
        specs=st.lists(
            st.tuples(
                st.floats(1e-6, 1e6),
                st.floats(1e-6, 1e6),
                st.sampled_from(generators.SHAPE_KINDS),
                st.floats(1e-6, 1e6) | st.lists(st.integers(0, 10**9).map(float), min_size=1, max_size=5).map(tuple),
            ),
            min_size=1, max_size=4,
        ),
    )
    def test_round_trip_property(self, tmp_path_factory, horizon, seed, daynight, specs):
        config = SnmConfig(
            horizon=horizon, seed=seed, daynight=daynight,
            classes=[SnmClassConfig(k, *spec) for k, spec in enumerate(specs)],
        )
        path = tmp_path_factory.mktemp("conf") / "snm.conf"
        write_atomic(snm_config_files(config, path))
        assert parse_snm_config(path) == config

    def test_volume_file_values_follow_the_sample_rule(self, tmp_path):
        # a sample too large for a float used to escape as an OverflowError
        (tmp_path / "v.volumes").write_text("3\n" + "9" * 400 + "\n")
        p = tmp_path / "c.conf"
        p.write_text("horizon_days=5\n" + self.CLASS_LINE.format(rate=1, life=1, vols="v.volumes"))
        with pytest.raises(ValueError, match=re.escape(f"{p} line 2: class 1: volumes sample must be >= 0 "
                                                       "and finite, got inf")):
            parse_snm_config(p)
        (tmp_path / "v.volumes").write_text("\n")
        with pytest.raises(ValueError, match=re.escape(f"{p} line 2: class 1: empty volume sample list")):
            parse_snm_config(p)

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text(
            "# a comment\n\nhorizon_days=5\n"
            "class=1, arrival_rate=1, lifespan_days=1, shape=uniform, volumes=const:5\n"
        )
        cfg = parse_snm_config(p)
        assert cfg.horizon == 5.0 and len(cfg.classes) == 1
