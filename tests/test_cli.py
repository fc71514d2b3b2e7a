import contextlib
import csv
import functools
import hashlib
import io
import math
import operator
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from snmcache import cli
from snmcache.analysis import (
    content_stats,
    density_map,
    fit_snm,
    sliced_popularity,
)
from snmcache.generators import generate_snm, parse_snm_config
from snmcache.trace import read_trace, write_atomic, write_trace

from helpers import make_trace, random_trace, reference_classes


def write_trace_file(trace, path):
    with open(path, "w", encoding="utf-8") as f:
        write_trace(trace, f)


def read_trace_file(path):
    with open(path, encoding="utf-8") as f:
        return read_trace(f)


def run_cli_capped(argv):
    # the CLI in a child process under a 1 GiB address-space cap and a
    # timeout, so a command that loops or grows without end fails fast
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "snmcache.cli", *argv], capture_output=True,
                          text=True, timeout=10, preexec_fn=cap, env=env)


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
        buf.write("rank,mean,p5,p95\n")
        for r in sliced_popularity(trace, 4, 10):
            buf.write(f"{r.rank},{r.mean!r},{r.p5!r},{r.p95!r}\n")
        assert (out / "ranks.csv").read_text() == buf.getvalue()

        stats = content_stats(trace)
        l_edges, v_edges = [0.0, 5.0, 10.0, 20.0, 30.0], [10.0, 40.0, 160.0]
        counts = density_map(stats, 10, l_edges, v_edges)
        buf = io.StringIO()
        buf.write("l_bin_lo,l_bin_hi,v_bin_lo,v_bin_hi,count\n")
        for i in range(len(l_edges) - 1):
            for j in range(len(v_edges) - 1):
                row = (l_edges[i], l_edges[i + 1], v_edges[j], v_edges[j + 1], counts[i, j].item())
                buf.write(",".join(map(repr, row)) + "\n")
        assert (out / "density.csv").read_text() == buf.getvalue()

        buf = io.StringIO()
        buf.write("content_id,volume,lifespan,first_request,last_request\n")
        for k in sorted(range(len(stats.ids)), key=stats.ids.__getitem__):
            volume, lifespan, first, last = (column[k].item() for column in stats[1:])
            buf.write(f"{stats.ids[k]},{volume},{lifespan!r},{first!r},{last!r}\n")
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

    @staticmethod
    def naive_ranks_csv(trace, K, top):
        # ranks.csv from its definition: per slice, contents by count then
        # id; per rank, the slice frequencies (0 past a slice's distinct
        # count) summed left to right, and their nearest-rank percentiles
        ids, n = trace.content_ids(), len(trace)
        freqs = [[0.0] * K for _ in range(top)]
        for j in range(K):
            part = ids[j * n // K:(j + 1) * n // K]
            counts = sorted(((-part.count(c), c) for c in set(part)))
            for r, (neg, _) in enumerate(counts[:top]):
                freqs[r][j] = -neg / len(part)
        lines = ["rank,mean,p5,p95"]
        for r, f in enumerate(freqs, start=1):
            f.sort()
            mean = functools.reduce(operator.add, f, 0.0) / K
            p5, p95 = f[(5 * K + 99) // 100 - 1], f[(95 * K + 99) // 100 - 1]
            lines.append(f"{r},{mean!r},{p5!r},{p95!r}")
        return "\n".join(lines) + "\n"

    def test_top_past_distinct_count_writes_zero_rows(self, tmp_path):
        trace = random_trace(np.random.default_rng(5), 300, 40)
        path = tmp_path / "t.trace"
        write_trace_file(trace, path)
        out = tmp_path / "out"
        top = len(trace.ids) + 25
        assert cli.main(["analyze", str(path), "--slices", "7", "--top", str(top), "--out", str(out)]) == 0
        text = (out / "ranks.csv").read_text()
        assert text == self.naive_ranks_csv(trace, 7, top)
        assert text.endswith(f"\n{top},0.0,0.0,0.0\n")

    def test_large_top_needs_no_top_by_slices_matrix(self, tmp_path):
        # top x K float64 would be 20 GB; the child may use 1 GiB
        trace = random_trace(np.random.default_rng(6), 5000, 5000)
        path = tmp_path / "t.trace"
        write_trace_file(trace, path)
        out = tmp_path / "out"
        result = run_cli_capped(["analyze", str(path), "--slices", "5000", "--top", "500000",
                                 "--out", str(out)])
        assert result.returncode == 0, result.stderr[-2000:]
        lines = (out / "ranks.csv").read_text().splitlines()
        assert len(lines) == 500001
        assert lines[1:3] == ["1,1.0,1.0,1.0", "2,0.0,0.0,0.0"]  # each slice holds one request
        assert lines[len(trace.ids) + 1] == f"{len(trace.ids) + 1},0.0,0.0,0.0"
        assert lines[-1] == "500000,0.0,0.0,0.0"


class TestVolumeThreshold:
    # a volume is a request count >= 1; analyze's doubling volume bins
    # never ended from a threshold below 1, and fit accepted one silently
    @pytest.mark.parametrize("command,threshold", [
        ("analyze", "0"), ("analyze", "-1"), ("fit", "0"), ("fit", "-5"),
    ])
    def test_threshold_below_one_rejected(self, toy_trace_path, tmp_path, command, threshold):
        out = tmp_path / "out"
        result = run_cli_capped([command, str(toy_trace_path), "--volume-threshold", threshold,
                                 "--out", str(out)])
        assert result.returncode == 2, result.stderr[-2000:]
        assert result.stderr.startswith("error:")
        assert "--volume-threshold" in result.stderr
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
        _, expected = fit_snm(content_stats(trace), trace.horizon, 10, [1, 3, 7, 14], "exponential")
        assert config == expected

    def test_empty_trace_exits_2(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("# trace-v1 horizon=5\n")
        assert cli.main(["fit", str(path), "--out", str(tmp_path / "fit")]) == 2

    def test_zero_horizon_names_the_horizon_and_writes_nothing(self, tmp_path, capsys):
        # used to fail on "class 0: arrival_rate ... got nan"
        path = tmp_path / "instant.trace"
        write_trace_file(make_trace(["a", "b", "a"], times=[0.0] * 3), path)
        out = tmp_path / "fit"
        assert cli.main(["fit", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: trace horizon must be positive")
        assert not out.exists()

    @pytest.mark.parametrize("bounds", ["nan", "2,nan,8", "2,5,inf"])
    def test_non_finite_bounds_write_nothing(self, tmp_path, capsys, bounds):
        path = tmp_path / "t.trace"
        write_trace_file(generate_snm(reference_classes(n_videos=100.0), 30.0, seed=3), path)
        out = tmp_path / "fit"
        assert cli.main(["fit", str(path), "--bounds", bounds, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("bounds", ["", ","])
    def test_empty_bounds_give_one_life_span_class(self, tmp_path, bounds):
        # no bounds: class 1 spans all life-spans and, as the last class, is stationary
        path = tmp_path / "t.trace"
        write_trace_file(generate_snm(reference_classes(n_videos=100.0), 30.0, seed=3), path)
        out = tmp_path / "fit"
        assert cli.main(["fit", str(path), "--bounds", bounds, "--out", str(out)]) == 0
        config = parse_snm_config(out / "snm.conf")
        assert max(c.class_id for c in config.classes) == 1
        assert all(c.shape_kind == "stationary" for c in config.classes)
        rows = (out / "class_summary.csv").read_text().splitlines()
        assert rows[1].startswith("0,0.0,inf,") and rows[2].startswith("1,0.0,inf,")
        assert len(rows) == 3

    def test_failed_config_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace_file(generate_snm(reference_classes(n_videos=100.0), 30.0, seed=3), path)
        out = tmp_path / "fit"
        (out / "snm.conf").mkdir(parents=True)  # the config cannot be renamed into place
        assert cli.main(["fit", str(path), "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["snm.conf"]
        assert (out / "snm.conf").is_dir()

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

    def test_config_errors_name_the_line_and_write_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "snm.conf"
        cfg.write_text(self.snm_config_text().replace("class=5", "class=1"))
        out = tmp_path / "x.trace"
        assert cli.main(["generate", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg} line 5: duplicate class id 1")
        assert not out.exists()

    def test_negative_class_id_names_the_line_and_writes_nothing(self, tmp_path, capsys):
        # it failed inside numpy's seeding with "expected non-negative integer"
        cfg = tmp_path / "snm.conf"
        cfg.write_text(self.snm_config_text().replace("class=5", "class=-3"))
        out = tmp_path / "x.trace"
        assert cli.main(["generate", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {cfg} line 5: class -3: class id must be >= 0")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [cfg]

    def test_irm_generation(self, tmp_path):
        out = tmp_path / "irm.trace"
        rc = cli.main(["generate", "--irm", "2,0.0,20000,5", "--seed", "4", "--out", str(out)])
        assert rc == 0
        trace = read_trace_file(out)
        assert len(trace.events) == 20000
        share = trace.content_ids().count("r1") / 20000
        assert share == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("irm", ["10,nan,100,1", "10,0.8,100,inf", "10,0.8,100,nan"])
    def test_bad_irm_parameters_write_nothing(self, tmp_path, capsys, irm):
        out = tmp_path / "irm.trace"
        assert cli.main(["generate", "--irm", irm, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("irm,message", [
        ("x,1,10,5", "error: --irm x,1,10,5: invalid literal for int()"),
        ("10,1,10", "error: --irm 10,1,10: expected N,alpha,requests,horizon"),
        ("0,1,10,5", "error: --irm 0,1,10,5: catalogue_size must be >= 1"),
    ])
    def test_irm_errors_name_the_option(self, tmp_path, capsys, irm, message):
        out = tmp_path / "irm.trace"
        assert cli.main(["generate", "--irm", irm, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_irm_catalogue_too_large_for_memory_is_an_input_error(self, tmp_path):
        # 10**15 probabilities (8 PB) are refused at once, and under the cap anyway
        out = tmp_path / "irm.trace"
        result = run_cli_capped(["generate", "--irm", "1000000000000000,0.8,10,5", "--seed", "1",
                                 "--out", str(out)])
        assert result.returncode == 2, result.stderr[-2000:]
        assert result.stderr.startswith("error:") and "Traceback" not in result.stderr
        assert not out.exists()

    def test_irm_requests_beyond_reuse_limit_name_the_field(self, tmp_path, capsys):
        out = tmp_path / "irm.trace"
        assert cli.main(["generate", "--irm", "10,0.8,100000000000000000000,5", "--seed", "1",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --irm 10,0.8,100000000000000000000,5: total_requests")
        assert not out.exists()

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


class TestOutputDirectories:
    # generate and shuffle wrote into --out's directory without making it, so a missing one exited 2;
    # a command that fails after reading its trace makes none (TestAnalyze::test_bad_slices_write_nothing)
    def test_generate_makes_the_out_directory(self, tmp_path):
        out = tmp_path / "new" / "dir" / "x.trace"
        assert cli.main(["generate", "--irm", "3,0.8,20,5", "--seed", "1", "--out", str(out)]) == 0
        assert len(read_trace_file(out)) == 20

    def test_shuffle_makes_the_out_directory(self, toy_trace_path, tmp_path):
        out = tmp_path / "new" / "dir" / "x.trace"
        assert cli.main(["shuffle", str(toy_trace_path), "10", "--seed", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == toy_trace_path.read_bytes()


class TestInputErrors:
    def test_help_exits_0_and_prints_the_usage(self, capsys):
        assert cli.main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: snmcache ")

    @pytest.mark.parametrize("command", ["analyze", "fit", "shuffle", "evaluate"])
    def test_empty_trace_one_message_and_no_output(self, tmp_path, capsys, command):
        # shuffle used to fail later, with "K must be in [1, 0]"
        path = tmp_path / "e.trace"
        path.write_text("# trace-v1 horizon=4.0\n")
        k_and_seed = ["1", "--seed", "1"] if command == "shuffle" else []
        out = tmp_path / "out"
        assert cli.main([command, str(path), *k_and_seed, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: trace {path} has no requests\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_usage_error_is_an_error_line(self, toy_trace_path, tmp_path, capsys):
        out = tmp_path / "s.trace"
        assert cli.main(["shuffle", str(toy_trace_path), "x", "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: snmcache shuffle: argument K: invalid int value: 'x'\nusage:")
        assert not out.exists()


    @pytest.mark.parametrize("argv,message", [
        (["evaluate", "--capacities", "1.5"], "--capacities 1.5: invalid literal for int() with base 10: '1.5'"),
        (["evaluate", "--targets", "abc"], "--targets abc: could not convert string to float: 'abc'"),
        (["fit", "--bounds", "2,x"], "--bounds 2,x: could not convert string to float: 'x'"),
        (["analyze", "--lifespan-bins", "0,1d"], "--lifespan-bins 0,1d: could not convert string to float: '1d'"),
        (["analyze", "--volume-bins", "10,,y"], "--volume-bins 10,,y: could not convert string to float: 'y'"),
        (["analyze", "--volume-threshold", "0"], "--volume-threshold must be >= 1, got 0"),
        (["analyze", "--slices", "11"], "--slices must be in [1, 10], got 11"),  # was "K must be in [1, 10]"
    ])
    def test_option_errors_name_the_option(self, toy_trace_path, tmp_path, capsys, argv, message):
        # a bad list token used to print only the parser's words: "invalid literal for int() ..."
        out = tmp_path / "out"
        assert cli.main([argv[0], str(toy_trace_path), *argv[1:], "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["fit", "--bounds", "x"], "--bounds x: could not convert string to float: 'x'"),
        (["fit", "--bounds", "5,2"], "lifespan bounds must be strictly increasing, got [5.0, 2.0]"),
        (["analyze", "--lifespan-bins", "x"], "--lifespan-bins x: could not convert string to float: 'x'"),
        (["analyze", "--volume-bins", "20,10"], "volume bin edges must be strictly increasing, got [20. 10.]"),
        (["analyze", "--lifespan-bins", ","], "lifespan bin edges must be strictly increasing, got []"),
        (["analyze", "--slices", "0"], "--slices must be >= 1, got 0"),
        (["analyze", "--top", "0"], "--top must be >= 1, got 0"),
        (["shuffle", "0", "--seed", "1"], "K must be >= 1, got 0"),
    ])
    def test_options_are_checked_before_the_trace_is_read(self, tmp_path, capsys, argv, message):
        # the trace used to be read first, so the missing file was reported instead
        missing = tmp_path / "missing.trace"
        out = tmp_path / "out"
        assert cli.main([argv[0], str(missing), *argv[1:], "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


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

    def test_colliding_stems_get_distinct_labels(self, tmp_path):
        # x/a and y/a share a stem, and the second one's label "a_2" is z/a_2's stem
        traces = {}
        for n, (folder, name) in enumerate([("x", "a"), ("y", "a"), ("z", "a_2")]):
            (tmp_path / folder).mkdir()
            traces[tmp_path / folder / f"{name}.trace"] = random_trace(np.random.default_rng(n), 200, 10 + 5 * n)
        for path, trace in traces.items():
            write_trace_file(trace, path)
        out = tmp_path / "out"
        rc = cli.main(["evaluate", *map(str, traces), "--capacities", "1,5",
                       "--targets", "0.3", "--out", str(out)])
        assert rc == 0
        labels = ["a", "a_2", "a_2_2"]
        assert sorted(p.name for p in out.glob("curve_*.csv")) == [f"curve_{l}.csv" for l in labels]
        for label, path in zip(labels, traces):
            alone = tmp_path / f"alone_{label}"
            assert cli.main(["evaluate", str(path), "--capacities", "1,5", "--out", str(alone)]) == 0
            assert (out / f"curve_{label}.csv").read_text() == next(alone.glob("curve_*.csv")).read_text()
        rows = (out / "required_sizes.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == labels

    def test_unattainable_targets_still_exit_0(self, tmp_path):
        path = tmp_path / "u.trace"
        # 21 requests, one of them a hit at capacity 20: 0.5 is out of reach, 0.04 is not
        write_trace_file(make_trace(list(range(20)) + [0]), path)
        out = tmp_path / "out"
        rc = cli.main(["evaluate", str(path), "--targets", "0.5,0.04", "--out", str(out)])
        assert rc == 0
        lines = (out / "required_sizes.csv").read_text().splitlines()
        assert lines == ["trace_label,target,required_size", "u,0.5,unattainable", "u,0.04,20"]

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

    @pytest.mark.parametrize("flag,value,message", [
        ("--targets", "abc", "--targets abc: could not convert string to float: 'abc'"),
        ("--capacities", "1.5", "--capacities 1.5: invalid literal for int() with base 10: '1.5'"),
        # values that parse but break the library's rules used to wait for the first trace too
        ("--targets", "0.1,1.5", "target must be in (0, 1), got 1.5"),
        ("--capacities", "5,1", "capacities must be sorted"),
        ("--capacities", "0,3", "capacity must be >= 1, got 0"),
    ])
    def test_options_are_checked_before_any_trace_is_read(self, tmp_path, capsys, flag, value, message):
        # the traces used to be read first, so the missing file was reported instead
        missing = tmp_path / "missing.trace"
        assert cli.main(["evaluate", str(missing), flag, value, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCsvWriters:
    def test_headers(self, tmp_path):
        # the header line of every CSV file the CLI writes
        path = tmp_path / "t.trace"
        write_trace_file(make_trace(["a"] * 12 + ["b"]), path)
        assert cli.main(["analyze", str(path), "--slices", "1", "--top", "2", "--contents", "a",
                         "--lifespan-bins", "0,1", "--volume-bins", "10,20", "--out", str(tmp_path)]) == 0
        assert cli.main(["fit", str(path), "--out", str(tmp_path)]) == 0
        assert cli.main(["evaluate", str(path), "--eviction-stats", "--out", str(tmp_path)]) == 0
        headers = {
            "content_stats.csv": "content_id,volume,lifespan,first_request,last_request",
            "ranks.csv": "rank,mean,p5,p95",
            "density.csv": "l_bin_lo,l_bin_hi,v_bin_lo,v_bin_hi,count",
            "cumulative.csv": "content_id,timestamp,cum_requests",
            "class_summary.csv":
                "class,lmin_days,lmax_days,pct_reqs,pct_videos,mean_lifespan,mean_volume,arrival_rate",
            "curve_t.csv": "capacity,hit_prob",
            "evictions_t.csv": "capacity,hit_prob,evictions,mean_eviction_time",
            "required_sizes.csv": "trace_label,target,required_size",
        }
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(headers)
        for name, header in headers.items():
            assert (tmp_path / name).read_text().splitlines()[0] == header
        assert len((tmp_path / "density.csv").read_text().splitlines()) == 2

    def test_cells_with_a_comma_or_a_quote_read_back(self, tmp_path):
        # a trace label may hold a comma and a content id a quote: both are quoted as RFC 4180 says
        path = tmp_path / "x,y.trace"
        write_trace_file(make_trace(['"q', '"q', "b"]), path)
        assert cli.main(["analyze", str(path), "--out", str(tmp_path)]) == 0
        assert cli.main(["evaluate", str(path), "--targets", "0.3", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "content_stats.csv", newline="") as f:
            assert list(csv.reader(f))[1:] == [['"q', "2", "1.0", "0.0", "1.0"], ["b", "1", "0.0", "2.0", "2.0"]]
        with open(tmp_path / "required_sizes.csv", newline="") as f:
            assert list(csv.reader(f))[1:] == [["x,y", "0.3", "1"]]


class TestWriteAtomic:
    def test_failed_writer_leaves_no_file(self, tmp_path):
        def failing(f):
            f.write("partial")
            raise ValueError("writer failed")

        with pytest.raises(ValueError, match="writer failed"):
            write_atomic({tmp_path / "out.csv": failing})
        assert list(tmp_path.iterdir()) == []

    def test_failed_writer_keeps_previous_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")
        with pytest.raises(ZeroDivisionError):
            write_atomic({target: lambda f: f.write(str(1 / 0))})
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "old\n"

    def test_failed_rename_removes_the_files_already_placed(self, tmp_path):
        (tmp_path / "last").mkdir()  # a directory cannot be replaced by a file
        with pytest.raises(OSError):
            write_atomic({tmp_path / "first": lambda f: f.write("1"),
                          tmp_path / "last": lambda f: f.write("2")})
        assert [p.name for p in tmp_path.iterdir()] == ["last"]
        assert (tmp_path / "last").is_dir()


class TestGoldenOutputs:
    # SHA-256 of each output of generate -> shuffle -> evaluate, recorded
    # with the Fenwick-tree reuse-distance kernel and the event-list
    # shuffle; any change to a single output byte shows here.  The shuffle
    # and its curve and sizes were re-recorded when each shuffle call came
    # to draw every slice from one stream.
    IRM_TRACE = "00cc7bf191be9ab711d77e404165f83c12e2db43af0b51a70ac07a4a4e5e9e5c"
    SHUFFLED_TRACE = "cf37b16a40e58719815cb858d84538063ea523a5d3a2fc651bbf790a1bb4a01b"
    EVALUATE_FILES = sorted([
        "8a5359655ec1bba093853b370271810eb6701488269bc0244bfbccef7e23d04b",
        "ac4f3c864d977bcccfd89e6e83e223393b6bddcac388dc016f856d385ab5f49c",
        "d07e866c41d4b0ee5cc9d381169084e8a322901d1747ec21ef1c17713241ec0d",
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
    # density.csv was re-recorded when its bin edges became Python floats;
    # cumulative.csv was added later, by --contents, with no other hash changed.
    # All but required_sizes.csv were re-recorded when each class came to
    # draw from one stream.
    SNM_CONFIG = (
        "horizon_days=20.0\nseed=13\ndaynight={daynight}\n"
        "class=0, arrival_rate=30, lifespan_days=0, shape=stationary, volumes=const:3\n"
        "class=1, arrival_rate=4, lifespan_days=1.5, shape=exponential, volumes=vols.txt\n"
        "class=2, arrival_rate=3, lifespan_days=6, shape=uniform, volumes=const:40\n"
        "class=5, arrival_rate=5, lifespan_days=10, shape=stationary, volumes=const:25\n"
    )
    SNM_FILES = {
        "plain.trace": "8661597eaf170c72d5cf3239f6f363c339e0b3d9b33e410413ee097b341caa49",
        "daynight.trace": "1d3ccd5ff0846d680f3c5f71699cc32488f6af91bb4e6f6b8e00be00e24abb80",
        "analyze/content_stats.csv": "bb5173116b388c01179e8825272ace706a793cdd23afc1853c4d741ec27a8034",
        "analyze/ranks.csv": "dc8a49fd63bffbf6926e08152c6b52c0ed18cc8505cd277785858c741e89c95f",
        "analyze/density.csv": "44e9b7589ccb5d04e14ff319a84e0ee066e9f77967d6e8a53b0b3fe85996a827",
        "analyze/cumulative.csv": "776998627beb7ec649ab5da067d739968f84b0d3636e17f753ef6d92b6778e49",
        "fit/snm.conf": "51ca749e0a60e506c17f45fe8ead736761674113d277393191f12b8a534f5697",
        "fit/0.volumes": "0216fec0b2b41c0a2e28439edc4a482fd445be253591cf091695eaeb02f59d94",
        "fit/1.volumes": "9b106b1b692f444b5935184e258075da7161bcb47b9fa305b45e5f3fbea94633",
        "fit/2.volumes": "bfa3a9ffa6820b7c830429309a3298e9ef2c2d5d3526c6c85518b0d3b00329af",
        "fit/3.volumes": "b28326ee143d04dd885a0c85010dadfab59f83f3f3a15375bb203ab71c4cda10",
        "fit/4.volumes": "38d1dbe64d0092cceeb6774e65f63403b6fb314d3b67cd877a234167df1cde8a",
        "fit/5.volumes": "dccef83aa4ad7207ccdc5eab2d31643c34f7f4833810821e89f15df0170556bf",
        "fit/class_summary.csv": "4dcc1b68d675461fb7cc778b4342b47c7c1cbb9a0e8390fff0d6e5f4fdc14f44",
        "refit.trace": "5879a2965932116693892bf8c9dcd7386ba775e87ad5322b7d40cf76d7de1bef",
        "eval/curve_plain.csv": "072484431c71aab6afc2da4cc6a861f3a86f3466bd3c49d34973ee416af4a70c",
        "eval/curve_daynight.csv": "731e64355cb7dbca8dbf109c3a5674fd867dd57b6191e6103bcea7f2fb75e0c4",
        "eval/evictions_plain.csv": "d829882cb302f2f3185a0a9c3d87b42771ad9b869fa2a6077e05c2ba649d1c5e",
        "eval/evictions_daynight.csv": "99543f376481964252dbf6f46d0c142f1ff5f9084cac25ea7d6b6a428c2ceebf",
        "eval/required_sizes.csv": "de380d84d47fccc8a99f1a44fe3d6379d7d8ca9c25b2ea31f17d672c9a5948b4",
    }

    @pytest.fixture(scope="class")
    def snm_outputs(self, tmp_path_factory):
        # every output file of the SNM pipeline, by path, as bytes
        tmp_path = tmp_path_factory.mktemp("snm-pipeline")
        (tmp_path / "vols.txt").write_text("10\n50\n200\n")
        for name, daynight in (("plain", "off"), ("daynight", "on")):
            (tmp_path / f"{name}.conf").write_text(self.SNM_CONFIG.format(daynight=daynight))
            assert cli.main(["generate", str(tmp_path / f"{name}.conf"),
                             "--out", str(tmp_path / f"{name}.trace")]) == 0
        plain, daynight = str(tmp_path / "plain.trace"), str(tmp_path / "daynight.trace")
        assert cli.main(["analyze", plain, "--slices", "10", "--contents", "c2_0,c5_1",
                         "--out", str(tmp_path / "analyze")]) == 0
        assert cli.main(["fit", plain, "--seed", "4", "--out", str(tmp_path / "fit")]) == 0
        assert cli.main(["generate", str(tmp_path / "fit" / "snm.conf"),
                         "--out", str(tmp_path / "refit.trace")]) == 0
        assert cli.main(["evaluate", plain, daynight, "--eviction-stats",
                         "--out", str(tmp_path / "eval")]) == 0
        inputs = {"vols.txt", "plain.conf", "daynight.conf"}
        return {str(p.relative_to(tmp_path)): p.read_bytes()
                for p in tmp_path.rglob("*") if p.is_file() and p.name not in inputs}

    def test_snm_generate_analyze_fit_evaluate_hashes(self, snm_outputs):
        hashes = {name: hashlib.sha256(data).hexdigest() for name, data in snm_outputs.items()}
        assert hashes == self.SNM_FILES

    def test_snm_outputs_hold_no_numpy_reprs(self, snm_outputs):
        # numpy 2 writes a numpy scalar's repr as "np.float64(...)", numpy 1 as
        # a bare number, so such a value would make the bytes depend on numpy
        assert [name for name, data in snm_outputs.items() if b"np." in data] == []


class TestFuzzContract:
    """Every subcommand, on tiny inputs, with argv built from valid and
    invalid tokens: it exits 0 with outputs that read back, or exits 2
    with an ``error:`` line and no new file, and never with a traceback.
    Every size token (--top, --slices, K, --irm N and requests,
    capacities, thresholds) is at most 1000, so no example allocates much.
    Half the examples draw only from the valid tokens, so that they reach
    the commands' outputs rather than stopping at the first bad token."""

    SIZES = ["1", "2", "3", "10", "1000"]
    BAD_SIZES = ["0", "-1", "-1000", "nan", "inf", "-inf", "", "x", "2.5"]
    REALS = ["0.05", "0.5", "1", "2", "5", "1000", "1e3"]
    BAD_REALS = ["0", "-1", "-0.5", "nan", "inf", "-inf", "", "x"]
    # config values stay small, so that a valid config has about 20 requests at most
    CONFIG_VALUES = ["1", "2.5"]
    BAD_CONFIG_VALUES = ["0", "-1", "nan", "inf", "-inf", "", "x"]
    SHAPES = ["exponential", "uniform"]

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("fuzz-inputs")
        write_trace_file(random_trace(np.random.default_rng(5), 40, 6, horizon=4.0), folder / "tiny.trace")
        (folder / "tiny_2.trace").write_bytes((folder / "tiny.trace").read_bytes())  # the stem of tiny's 2nd label
        write_trace_file(make_trace(["a", "a", "b"], times=[0.0, 0.0, 0.0]), folder / "flat.trace")
        (folder / "empty.trace").write_text("# trace-v1 horizon=3.0\n")
        (folder / "unsorted.trace").write_text("# trace-v1\n1.0,a\n0.5,b\n")
        return folder

    @classmethod
    def argv(cls, clean, traces, config):
        def pool(good, bad):
            return st.sampled_from(good if clean else good + bad)

        size, real = pool(cls.SIZES, cls.BAD_SIZES), pool(cls.REALS, cls.BAD_REALS)
        reals = st.lists(real, max_size=4).map(",".join)  # unsorted lists included

        def flags(**values):
            # any subset of the optional flags, each as one --flag=value token
            return st.fixed_dictionaries({}, optional=values).map(lambda chosen: [
                f"--{flag.replace('_', '-')}" + ("" if value is None else f"={value}")
                for flag, value in chosen.items()])

        paths = st.sampled_from(traces[:3] if clean else traces)
        trace = paths.map(lambda path: [path])
        analyze = st.tuples(st.just(["analyze"]), trace, flags(
            slices=size, top=size, volume_threshold=size, lifespan_bins=reals, volume_bins=reals,
            contents=st.lists(st.sampled_from(["id1", "id2", "a", "zz"]), max_size=3).map(",".join)))
        fit = st.tuples(st.just(["fit"]), trace, flags(
            volume_threshold=size, bounds=reals, seed=size,
            shape=pool(cls.SHAPES, ["stationary", ""])))
        irm = st.tuples(size, real, size, real).map(lambda fields: ["--irm=" + ",".join(fields)])
        seed = size.map(lambda seed: ["--seed=" + seed])
        generate = st.tuples(st.just(["generate"]), st.just([config]) | irm, seed if clean else flags(seed=size))
        shuffle = st.tuples(st.just(["shuffle"]), trace, size.map(lambda k: [k]), seed)
        evaluate = st.tuples(st.just(["evaluate"]), st.lists(paths, min_size=1, max_size=3), flags(
            targets=reals, capacities=st.lists(size, max_size=4).map(",".join), eviction_stats=st.none()))
        return st.one_of(analyze, fit, generate, shuffle, evaluate).map(lambda parts: sum(parts, []))

    @staticmethod
    def read_back(argv, out):
        # every output parses: traces and configs by their readers, CSVs as rectangular tables
        command = argv[0]
        if command in ("generate", "shuffle"):
            read_trace_file(out)
            return
        if command == "fit":
            parse_snm_config(out / "snm.conf")
        if command == "evaluate":  # one curve per input trace, none lost to a label collision
            assert len(list(out.glob("curve_*.csv"))) == sum(not a.startswith("--") for a in argv[1:]), argv
        csvs = sorted(out.glob("*.csv"))
        assert csvs
        for path in csvs:
            rows = [line.split(",") for line in path.read_text().splitlines()]
            assert rows and all(len(row) == len(rows[0]) for row in rows), path

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_code_message_and_outputs(self, inputs, tmp_path_factory, data):
        clean = data.draw(st.booleans())
        value = st.sampled_from(self.CONFIG_VALUES if clean else self.CONFIG_VALUES + self.BAD_CONFIG_VALUES)
        shape = st.sampled_from(self.SHAPES + ["stationary"] + ([] if clean else ["", "square"]))
        spec = data.draw(st.tuples(value, value, value, value, shape))
        work = tmp_path_factory.mktemp("fuzz")
        config = work / "snm.conf"
        config.write_text("horizon_days={0}\nseed=7\nclass=1, arrival_rate={1}, lifespan_days={2}, "
                          "shape={4}, volumes=const:{3}\n".format(*spec))
        traces = [str(inputs / name) for name in
                  ("tiny.trace", "tiny_2.trace", "flat.trace", "empty.trace", "unsorted.trace", "absent.trace")]
        argv = data.draw(self.argv(clean, traces, str(config)))
        out = work / ("out.trace" if argv[0] in ("generate", "shuffle") else "out")
        before = sorted(work.rglob("*"))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = cli.main([*argv, "--out", str(out)])
        message = stderr.getvalue()
        assert "Traceback" not in message
        assert rc in (0, 2), (argv, message)
        if rc == 2:
            assert message.startswith("error:"), (argv, message)
            assert sorted(work.rglob("*")) == before, argv
        else:
            self.read_back(argv, out)
