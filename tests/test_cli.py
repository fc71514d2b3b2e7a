import hashlib
import io
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from snmcache import cli
from snmcache.analysis import (
    class_summary,
    classify_contents,
    content_stats,
    density_map,
    sliced_popularity,
    write_density_csv,
    write_rank_csv,
)
from snmcache.generators import generate_snm, parse_snm_config
from snmcache.trace import read_trace, write_trace

from helpers import make_trace, random_trace, reference_classes


def write_trace_file(trace, path):
    with open(path, "w", encoding="utf-8") as f:
        write_trace(trace, f)


def read_trace_file(path):
    with open(path, encoding="utf-8") as f:
        return read_trace(f)


@pytest.fixture
def toy_trace_path(tmp_path):
    path = tmp_path / "toy.trace"
    write_trace_file(make_trace(["a"] * 6 + ["b"] * 3 + ["c"]), path)
    return path


class TestAnalyze:
    def test_rank_csv_of_toy_trace(self, toy_trace_path, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["analyze", str(toy_trace_path), "--out", str(out), "--slices", "1", "--top", "3"])
        assert rc == 0
        lines = (out / "ranks.csv").read_text().splitlines()
        assert lines[0] == "rank,mean,p5,p95"
        assert lines[1].startswith("1,0.6,")
        assert lines[2].startswith("2,0.3,")
        assert lines[3].startswith("3,0.1,")

    def test_missing_file_exits_2(self, tmp_path):
        rc = cli.main(["analyze", str(tmp_path / "absent.trace"), "--out", str(tmp_path)])
        assert rc == 2

    def test_malformed_trace_exits_2(self, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("not a trace\n")
        assert cli.main(["analyze", str(bad), "--out", str(tmp_path)]) == 2

    def test_matches_library_byte_for_byte(self, tmp_path):
        trace = generate_snm(reference_classes(n_videos=150.0), 30.0, seed=2)
        trace_path = tmp_path / "t.trace"
        write_trace_file(trace, trace_path)
        out = tmp_path / "out"
        rc = cli.main([
            "analyze", str(trace_path), "--out", str(out),
            "--slices", "4", "--top", "10",
            "--lifespan-bins", "0,5,10,20,30", "--volume-bins", "10,40,160",
            "--contents", "c1_0,c5_3",
        ])
        assert rc == 0

        buf = io.StringIO()
        write_rank_csv(sliced_popularity(trace, 4, 10), buf)
        assert (out / "ranks.csv").read_text() == buf.getvalue()

        stats = content_stats(trace)
        buf = io.StringIO()
        write_density_csv(density_map(stats, 10, [0, 5, 10, 20, 30], [10, 40, 160]), buf)
        assert (out / "density.csv").read_text() == buf.getvalue()

        buf = io.StringIO()
        buf.write("content_id,volume,lifespan,first_request,last_request\n")
        for cid in sorted(stats):
            s = stats[cid]
            buf.write(f"{cid},{s.volume},{s.lifespan!r},{s.first_request!r},{s.last_request!r}\n")
        assert (out / "content_stats.csv").read_text() == buf.getvalue()

        cumulative = (out / "cumulative.csv").read_text().splitlines()
        assert cumulative[0] == "content_id,timestamp,cum_requests"
        wanted = {"c1_0", "c5_3"}
        n_expected = sum(1 for e in trace.events if e.content_id in wanted)
        assert len(cumulative) - 1 == n_expected

    def test_bad_slices_write_nothing(self, tmp_path):
        path = tmp_path / "two.trace"
        write_trace_file(make_trace(["a", "b"]), path)
        out = tmp_path / "out"
        assert cli.main(["analyze", str(path), "--slices", "5", "--out", str(out)]) == 2
        assert not out.exists()


class TestFit:
    def test_all_low_volume_gives_single_stationary_class(self, tmp_path):
        path = tmp_path / "small.trace"
        write_trace_file(make_trace(["a", "b", "a"]), path)
        rc = cli.main(["fit", str(path), "--out", str(tmp_path / "fit")])
        assert rc == 0
        text = (tmp_path / "fit" / "snm.conf").read_text()
        class_lines = [l for l in text.splitlines() if l.startswith("class=")]
        assert len(class_lines) == 1
        assert class_lines[0].startswith("class=0")
        assert "shape=stationary" in class_lines[0]

    def test_bounds_override(self, tmp_path):
        trace = generate_snm(reference_classes(n_videos=400.0), 30.0, seed=3)
        path = tmp_path / "t.trace"
        write_trace_file(trace, path)
        rc = cli.main(["fit", str(path), "--out", str(tmp_path / "fit"),
                       "--bounds", "1,3,7,14"])
        assert rc == 0
        config = parse_snm_config(tmp_path / "fit" / "snm.conf")
        stats = content_stats(trace)
        expected = class_summary(trace, classify_contents(stats, 10, [1, 3, 7, 14]), [1, 3, 7, 14])
        by_id = {c.class_id: c for c in config.classes}
        for s in expected:
            if s.volume_samples:
                assert by_id[s.class_id].arrival_rate == pytest.approx(s.arrival_rate)

    def test_empty_trace_exits_2(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("# trace-v1 horizon=5\n")
        assert cli.main(["fit", str(path), "--out", str(tmp_path / "fit")]) == 2

    def test_fit_generate_fit_reproduces_arrival_rates(self, tmp_path):
        horizon = 90.0
        trace = generate_snm(reference_classes(horizon=horizon, shape="uniform"), horizon, seed=11)
        path = tmp_path / "a.trace"
        write_trace_file(trace, path)
        assert cli.main(["fit", str(path), "--out", str(tmp_path / "f1"), "--shape", "uniform"]) == 0
        assert cli.main(["generate", str(tmp_path / "f1" / "snm.conf"), "--seed", "12",
                         "--out", str(tmp_path / "b.trace")]) == 0
        assert cli.main(["fit", str(tmp_path / "b.trace"), "--out", str(tmp_path / "f2"),
                         "--shape", "uniform"]) == 0
        first = {c.class_id: c for c in parse_snm_config(tmp_path / "f1" / "snm.conf").classes}
        second = {c.class_id: c for c in parse_snm_config(tmp_path / "f2" / "snm.conf").classes}
        total = sum(len(c.volumes) for c in first.values())
        for cid, cfg in first.items():
            if len(cfg.volumes) / total < 0.01:
                continue  # sub-percent classes are all noise
            assert second[cid].arrival_rate == pytest.approx(cfg.arrival_rate, rel=0.15)


class TestGenerate:
    def snm_config_text(self, seed="seed=21\n", daynight="off"):
        return (
            "horizon_days=6.0\n" + seed + f"daynight={daynight}\n"
            "class=1, arrival_rate=8, lifespan_days=1.1, shape=exponential, volumes=const:30\n"
            "class=5, arrival_rate=20, lifespan_days=5, shape=stationary, volumes=const:12\n"
        )

    def test_same_config_and_seed_identical_files(self, tmp_path):
        cfg = tmp_path / "snm.conf"
        cfg.write_text(self.snm_config_text())
        for name in ("one.trace", "two.trace"):
            assert cli.main(["generate", str(cfg), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "one.trace").read_bytes() == (tmp_path / "two.trace").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "snm.conf"
        cfg.write_text(self.snm_config_text())
        assert cli.main(["generate", str(cfg), "--out", str(tmp_path / "a.trace")]) == 0
        assert cli.main(["generate", str(cfg), "--seed", "22", "--out", str(tmp_path / "b.trace")]) == 0
        assert (tmp_path / "a.trace").read_bytes() != (tmp_path / "b.trace").read_bytes()

    def test_no_seed_anywhere_exits_2(self, tmp_path):
        cfg = tmp_path / "snm.conf"
        cfg.write_text(self.snm_config_text(seed=""))
        assert cli.main(["generate", str(cfg), "--out", str(tmp_path / "x.trace")]) == 2

    def test_invalid_config_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "snm.conf"
        cfg.write_text("horizon_days=5\nclass=1, arrival_rate=1, shape=uniform, volumes=const:5\n")
        assert cli.main(["generate", str(cfg), "--seed", "1", "--out", str(tmp_path / "x.trace")]) == 2
        assert "lifespan_days" in capsys.readouterr().err

    def test_irm_generation(self, tmp_path):
        out = tmp_path / "irm.trace"
        rc = cli.main(["generate", "--irm", "2,0.0,20000,5", "--seed", "4", "--out", str(out)])
        assert rc == 0
        trace = read_trace_file(out)
        assert len(trace.events) == 20000
        share = trace.content_ids().count("r1") / 20000
        assert share == pytest.approx(0.5, abs=0.02)

    def test_irm_requires_seed(self, tmp_path):
        assert cli.main(["generate", "--irm", "2,0.0,100,5", "--out", str(tmp_path / "x.trace")]) == 2

    def test_config_and_irm_mutually_exclusive(self, tmp_path):
        cfg = tmp_path / "snm.conf"
        cfg.write_text(self.snm_config_text())
        rc = cli.main(["generate", str(cfg), "--irm", "2,0,10,5", "--seed", "1",
                       "--out", str(tmp_path / "x.trace")])
        assert rc == 2

    def test_daynight_fractional_day_profile(self, tmp_path):
        cfg = tmp_path / "snm.conf"
        cfg.write_text(
            "horizon_days=20\nseed=5\ndaynight=on\n"
            "class=0, arrival_rate=50, lifespan_days=0, shape=stationary, volumes=const:40\n"
        )
        out = tmp_path / "dn.trace"
        assert cli.main(["generate", str(cfg), "--out", str(out)]) == 0
        frac = np.asarray(read_trace_file(out).timestamps()) % 1.0
        cdf = lambda x: x + (1.0 - np.cos(2 * np.pi * x)) / (2 * np.pi)
        stat = scipy_stats.kstest(frac, cdf).statistic
        assert stat < 1.628 / math.sqrt(len(frac))


class TestShuffle:
    def test_identity_when_k_is_request_count(self, toy_trace_path, tmp_path):
        out = tmp_path / "s.trace"
        rc = cli.main(["shuffle", str(toy_trace_path), "10", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == toy_trace_path.read_bytes()

    def test_volumes_preserved_and_reproducible(self, tmp_path):
        rng = np.random.default_rng(0)
        trace = random_trace(rng, 300, 12)
        path = tmp_path / "t.trace"
        write_trace_file(trace, path)
        outs = []
        for name in ("a.trace", "b.trace"):
            out = tmp_path / name
            assert cli.main(["shuffle", str(path), "3", "--seed", "77", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        shuffled = read_trace_file(tmp_path / "a.trace")
        assert sorted(shuffled.content_ids()) == sorted(trace.content_ids())

    def test_bad_k_exits_2(self, toy_trace_path, tmp_path):
        rc = cli.main(["shuffle", str(toy_trace_path), "900", "--seed", "1",
                       "--out", str(tmp_path / "x.trace")])
        assert rc == 2


class TestEvaluate:
    def test_toy_curve_matches_hand_traced_lru(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace_file(make_trace([1, 2, 1, 3, 1]), path)
        out = tmp_path / "out"
        rc = cli.main(["evaluate", str(path), "--capacities", "1,2,3",
                       "--targets", "0.3", "--out", str(out)])
        assert rc == 0
        lines = (out / "curve_t.csv").read_text().splitlines()
        assert lines == ["capacity,hit_prob", "1,0.0", "2,0.4", "3,0.4"]
        sizes = (out / "required_sizes.csv").read_text().splitlines()
        assert sizes[1] == "t,0.3,2"

    def test_identical_traces_identical_columns(self, tmp_path):
        rng = np.random.default_rng(1)
        trace = random_trace(rng, 300, 15)
        p1, p2 = tmp_path / "x.trace", tmp_path / "sub"
        p2.mkdir()
        p2 = p2 / "x.trace"
        write_trace_file(trace, p1)
        write_trace_file(trace, p2)
        out = tmp_path / "out"
        rc = cli.main(["evaluate", str(p1), str(p2), "--targets", "0.1,0.2", "--out", str(out)])
        assert rc == 0
        rows = (out / "required_sizes.csv").read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in rows[:2]] == [r.split(",")[2] for r in rows[2:]]

    def test_unattainable_targets_still_exit_0(self, tmp_path):
        path = tmp_path / "u.trace"
        write_trace_file(make_trace(list(range(20))), path)
        out = tmp_path / "out"
        rc = cli.main(["evaluate", str(path), "--targets", "0.5", "--out", str(out)])
        assert rc == 0
        assert "unattainable" in (out / "required_sizes.csv").read_text()

    def test_eviction_stats_flag(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace_file(make_trace([1, 2, 1, 3, 1]), path)
        out = tmp_path / "out"
        rc = cli.main(["evaluate", str(path), "--capacities", "1,2",
                       "--eviction-stats", "--out", str(out)])
        assert rc == 0
        lines = (out / "evictions_t.csv").read_text().splitlines()
        assert lines[0] == "capacity,hit_prob,evictions,mean_eviction_time"
        assert len(lines) == 3

    @pytest.mark.parametrize("flag,value", [("--capacities", "5,1"), ("--capacities", "0,3"),
                                            ("--targets", "0.1,1.5")])
    def test_bad_arguments_write_nothing(self, tmp_path, flag, value):
        path = tmp_path / "t.trace"
        write_trace_file(make_trace([1, 2, 1, 3, 1]), path)
        out = tmp_path / "out"
        assert cli.main(["evaluate", str(path), flag, value, "--out", str(out)]) == 2
        assert not out.exists()

    def test_empty_trace_exits_2(self, tmp_path):
        path = tmp_path / "e.trace"
        path.write_text("# trace-v1 horizon=4\n")
        assert cli.main(["evaluate", str(path), "--out", str(tmp_path / "out")]) == 2


class TestWriteAtomic:
    def test_failed_writer_leaves_no_file(self, tmp_path):
        def failing(f):
            f.write("partial")
            raise ValueError("writer failed")

        with pytest.raises(ValueError, match="writer failed"):
            cli._write_atomic(tmp_path / "out.csv", failing)
        assert list(tmp_path.iterdir()) == []

    def test_failed_writer_keeps_previous_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(ZeroDivisionError):
            cli._write_atomic(target, lambda f: f.write(str(1 / 0)))
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "old\n"


class TestGoldenOutputs:
    # SHA-256 of each output of generate -> shuffle -> evaluate, recorded
    # with the Fenwick-tree reuse-distance kernel and the event-list
    # shuffle; any change to a single output byte shows here.
    IRM_TRACE = "00cc7bf191be9ab711d77e404165f83c12e2db43af0b51a70ac07a4a4e5e9e5c"
    SHUFFLED_TRACE = "5b63e81cc90ae3300d26ba272c05525f8c5f49ecf661355c11daf76216d616af"
    EVALUATE_FILES = sorted([
        "8a5359655ec1bba093853b370271810eb6701488269bc0244bfbccef7e23d04b",
        "bba4fa6dc822c1afeaf81d8dd1b557d8991f20085258afb06af3ea7eae814ade",
        "63f14c2e3e0d6e3f23b3fb85726542d3414362a7717522e5a03bf7fa330ff455",
    ])

    def test_generate_shuffle_evaluate_hashes(self, tmp_path):
        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        # evaluate labels its rows by the input stems, so those are fixed;
        # its output files are compared as a set of hashes, not by name
        irm, shuf, out = tmp_path / "irm.trace", tmp_path / "shuf.trace", tmp_path / "eval"
        assert cli.main(["generate", "--irm", "300,0.9,30000,8", "--seed", "6", "--out", str(irm)]) == 0
        assert cli.main(["shuffle", str(irm), "50", "--seed", "3", "--out", str(shuf)]) == 0
        assert cli.main(["evaluate", str(irm), str(shuf), "--targets", "0.05,0.1",
                         "--capacities", "10,100", "--out", str(out)]) == 0
        assert sha(irm) == self.IRM_TRACE
        assert sha(shuf) == self.SHUFFLED_TRACE
        assert sorted(sha(f) for f in out.iterdir()) == self.EVALUATE_FILES

    # SHA-256 of each output of an SNM pipeline, recorded with the
    # event-list trace: generate (plain and day/night) -> analyze -> fit
    # -> generate from the fitted config -> evaluate --eviction-stats.
    SNM_CONFIG = (
        "horizon_days=20.0\nseed=13\ndaynight={daynight}\n"
        "class=0, arrival_rate=30, lifespan_days=0, shape=stationary, volumes=const:3\n"
        "class=1, arrival_rate=4, lifespan_days=1.5, shape=exponential, volumes=vols.txt\n"
        "class=2, arrival_rate=3, lifespan_days=6, shape=uniform, volumes=const:40\n"
        "class=5, arrival_rate=5, lifespan_days=10, shape=stationary, volumes=const:25\n"
    )
    SNM_FILES = {
        "plain.trace": "27beadff57316a6885f19a3078410ef795e5d2d2bb63850233b89ee3835a5e5e",
        "daynight.trace": "6327bb4cae701a358db5c4f71e028967efc837749c1813b89b147a609cd4be7d",
        "analyze/content_stats.csv": "4ea05f5a4661d652ae780ca324569d0126b6ef136869fef5ae10cd79504e7cdf",
        "analyze/ranks.csv": "53c2bfce54f1e45f886236daf1913146ce51a95d76ffec5dfc0ae30f2028a5b6",
        "analyze/density.csv": "2aec4107cd80adc5185ff84a5ecd6d9f33f7a16841b53a5d6932457ea8f775ff",
        "fit/snm.conf": "020166f4073db92eaddea87981ae28d964a52f67ca987c753512b750da046979",
        "fit/0.volumes": "60dca2cd769fd8304491541bd1aa47da72691b9cda20f8c3e7255dff25274fc0",
        "fit/1.volumes": "30c4cf89ec95f6e57fef52c7e3533496f605cd4fbc7e0914c98d8d60d65208d7",
        "fit/2.volumes": "09b9762c4ec40189615e6b9387d3f643b19dec44f3ff97dc7cd028330bcfecc3",
        "fit/3.volumes": "24f21a5bba3937c536f932637576f6602b0c6375fbff5a1c59f1d96de6df6034",
        "fit/4.volumes": "51c9478ac43844a64b2683564180be6cb09a4a8a047597f8ccf98d335afa0d54",
        "fit/5.volumes": "7f8c12363a3f09e7bf552f2244393dbb73cf97479f25111c931e9c9996be787c",
        "fit/class_summary.csv": "8de2a76eb65e9d0217509f5aa4a53143df90ec240f097b776a91812f2fb3f89b",
        "refit.trace": "ed50a28a98d729ea950d285ad56bb4210dc402a11504a0eedecd60b95e9f8be7",
        "eval/curve_plain.csv": "78ef2abbd49f95665ce6f975ab91f3bf24d2eedc024c66ce2461e0232c21f5e5",
        "eval/curve_daynight.csv": "18bc1399817abd0e8b0ee191aae0e555b4d81a44cd04a42302046a45bdd0e35d",
        "eval/evictions_plain.csv": "cf0fe17183c913780298693327c3300ac60d7437f9d1f2bcc39972f55c4bd6ec",
        "eval/evictions_daynight.csv": "466a5a6dec5cbc59a4d95314dfd69825d82c5e064e6d9f0b1c480d98338a108f",
        "eval/required_sizes.csv": "de380d84d47fccc8a99f1a44fe3d6379d7d8ca9c25b2ea31f17d672c9a5948b4",
    }

    def test_snm_generate_analyze_fit_evaluate_hashes(self, tmp_path):
        (tmp_path / "vols.txt").write_text("10\n50\n200\n")
        for name, daynight in (("plain", "off"), ("daynight", "on")):
            (tmp_path / f"{name}.conf").write_text(self.SNM_CONFIG.format(daynight=daynight))
            assert cli.main(["generate", str(tmp_path / f"{name}.conf"),
                             "--out", str(tmp_path / f"{name}.trace")]) == 0
        plain, daynight = str(tmp_path / "plain.trace"), str(tmp_path / "daynight.trace")
        assert cli.main(["analyze", plain, "--slices", "10", "--out", str(tmp_path / "analyze")]) == 0
        assert cli.main(["fit", plain, "--seed", "4", "--out", str(tmp_path / "fit")]) == 0
        assert cli.main(["generate", str(tmp_path / "fit" / "snm.conf"),
                         "--out", str(tmp_path / "refit.trace")]) == 0
        assert cli.main(["evaluate", plain, daynight, "--eviction-stats",
                         "--out", str(tmp_path / "eval")]) == 0
        inputs = {"vols.txt", "plain.conf", "daynight.conf"}
        hashes = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in tmp_path.rglob("*") if p.is_file()}
        assert {name: h for name, h in hashes.items() if name not in inputs} == self.SNM_FILES
