import io
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from snmcache.analysis import class_summary, classify_contents, content_stats, effective_lifespan
from snmcache.cachesim import simulate_lru
from snmcache import generators
from snmcache.generators import (
    ContentShot,
    IrmConfig,
    PopularityShape,
    SnmClassConfig,
    SnmConfig,
    SnmEventStream,
    daynight_factor,
    generate_irm,
    generate_snm,
    lifespan_to_L,
    modulated_shot_requests,
    parse_snm_config,
    sample_shot_requests,
    write_snm_config,
    zipf_probabilities,
)
from snmcache.trace import validate, write_trace

from helpers import reference_classes


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
        shot = ContentShot("x", 0.0, 1e5, shape)
        rng = np.random.default_rng(0)
        times = sample_shot_requests(shot, 12.0, rng)
        stat = scipy_stats.kstest(times, "uniform", args=(0.0, 10.0)).statistic
        assert stat < 1.628 / math.sqrt(len(times))  # 1% critical value

    def test_vanishing_rate_gives_empty(self):
        shape = PopularityShape("exponential", 1.0)
        shot = ContentShot("x", 0.0, 1e-12, shape)
        times = sample_shot_requests(shot, 100.0, np.random.default_rng(1))
        assert len(times) == 0

    def test_exponential_lifespan_recovery(self):
        target = 4.0
        shape = PopularityShape("exponential", lifespan_to_L("exponential", target))
        rng = np.random.default_rng(2)
        pooled = [
            sample_shot_requests(ContentShot("x", 0.0, 50.0, shape), 100 * shape.L, rng)
            for _ in range(2000)
        ]
        times = np.sort(np.concatenate(pooled))
        assert len(times) > 90_000
        assert effective_lifespan(times) == pytest.approx(target, rel=0.02)

    def test_volume_recovery(self):
        shape = PopularityShape("uniform", 2.0)
        rng = np.random.default_rng(3)
        counts = [
            len(sample_shot_requests(ContentShot("x", 0.0, 40.0, shape), 50.0, rng))
            for _ in range(10_000)
        ]
        tol = 3.0 * math.sqrt(40.0) / math.sqrt(10_000)
        assert np.mean(counts) == pytest.approx(40.0, abs=tol)

    def test_no_request_precedes_birth(self):
        shape = PopularityShape("exponential", 1.5)
        rng = np.random.default_rng(4)
        for birth in (0.0, 3.7, 9.99):
            times = sample_shot_requests(ContentShot("x", birth, 200.0, shape), 10.0, rng)
            assert np.all(times >= birth)
            assert np.all(times <= 10.0)

    def test_horizon_before_birth_rejected(self):
        shape = PopularityShape("uniform", 1.0)
        with pytest.raises(ValueError):
            sample_shot_requests(ContentShot("x", 5.0, 10.0, shape), 4.0, np.random.default_rng(0))


class TestDayNight:
    def test_factor_values(self):
        assert daynight_factor(0.25) == pytest.approx(2.0)
        assert daynight_factor(0.75) == pytest.approx(0.0, abs=1e-12)
        assert daynight_factor(0.0) == pytest.approx(1.0)

    def test_modulated_volume_over_whole_days(self):
        # uniform profile spanning exactly 2 days: mean of f over the
        # support is 1, so the kept volume should recover mean_volume
        shape = PopularityShape("uniform", 1.0)
        shot = ContentShot("x", 0.0, 1e5, shape)
        times = modulated_shot_requests(shot, 10.0, np.random.default_rng(5))
        assert len(times) == pytest.approx(1e5, rel=0.01)

    def test_modulated_times_follow_f(self):
        shape = PopularityShape("uniform", 2.0)  # spans 4 whole days
        shot = ContentShot("x", 0.0, 5e4, shape)
        times = modulated_shot_requests(shot, 10.0, np.random.default_rng(6))
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
        summaries = class_summary(trace, classify_contents(content_stats(trace)))
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

    def test_next_event_interface(self):
        classes = [SnmClassConfig(1, 5.0, 1.0, "uniform", 10.0)]
        stream = SnmEventStream(classes, 5.0, seed=4)
        collected = []
        while (ev := stream.next_event()) is not None:
            collected.append(ev)
        assert collected == generate_snm(classes, 5.0, seed=4).events

    def test_equal_timestamps_order_by_id_string(self, monkeypatch):
        # every content requests twice at the horizon, so all requests
        # tie on time and only the id string orders them
        monkeypatch.setattr(generators, "_content_times", lambda *args: np.full(2, 5.0))
        classes = [SnmClassConfig(1, 4.0, 1.0, "uniform", 10.0),
                   SnmClassConfig(5, 2.0, 1.0, "stationary", 10.0)]
        batch = generate_snm(classes, 5.0, seed=3)
        ids = batch.content_ids()
        assert "c1_10" in ids and "c1_2" in ids
        assert ids == sorted(ids)
        assert ids.index("c1_10") < ids.index("c1_2")
        assert list(SnmEventStream(classes, 5.0, seed=3)) == batch.events

    def test_pending_size_bound(self):
        # expected pending load is arrival_rate * E[volume * lifespan]
        classes = [SnmClassConfig(1, 10.0, 3.4, "uniform", 40.0)]
        stream = SnmEventStream(classes, 30.0, seed=0)
        n_events = sum(1 for _ in stream)
        assert n_events > 0
        assert stream.peak_pending <= 5 * 10.0 * 40.0 * 3.4


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
        write_snm_config(config, path)
        parsed = parse_snm_config(path)
        assert parsed.horizon == config.horizon
        assert parsed.seed == 99
        assert parsed.daynight is True
        assert parsed.classes == config.classes

    def test_volumes_sidecar_format(self, tmp_path):
        config = SnmConfig(
            horizon=5.0,
            classes=[SnmClassConfig(2, 1.0, 2.0, "uniform", (7.0, 3.0))],
        )
        write_snm_config(config, tmp_path / "snm.conf")
        assert (tmp_path / "2.volumes").read_text() == "7\n3\n"

    def test_non_integer_volume_samples_rejected(self, tmp_path):
        config = SnmConfig(
            horizon=5.0,
            classes=[SnmClassConfig(1, 1.0, 2.0, "uniform", (4.0, 9.0)),
                     SnmClassConfig(3, 1.0, 2.0, "uniform", (2.5, 3.7, 10.9))],
        )
        with pytest.raises(ValueError, match="class 3"):
            write_snm_config(config, tmp_path / "snm.conf")
        assert list(tmp_path.iterdir()) == []

    def test_integer_volume_samples_round_trip(self, tmp_path):
        config = SnmConfig(horizon=5.0, classes=[SnmClassConfig(3, 1.0, 2.0, "uniform", (2.0, 37.0, 10.0))])
        write_snm_config(config, tmp_path / "snm.conf")
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

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text(
            "# a comment\n\nhorizon_days=5\n"
            "class=1, arrival_rate=1, lifespan_days=1, shape=uniform, volumes=const:5\n"
        )
        cfg = parse_snm_config(p)
        assert cfg.horizon == 5.0 and len(cfg.classes) == 1
