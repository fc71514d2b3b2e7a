"""Acceptance suite: one test per exit criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``)
and enforces the criterion's tolerance and runtime budget.  Criteria 5
and 6 share one expensive table of required cache sizes, built on first
use and cached for the rest of the session; its construction cost is
charged to whichever criterion runs first.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as scipy_stats

from snmcache import cli
from snmcache.analysis import (
    DEFAULT_LIFESPAN_BOUNDS,
    DEFAULT_VOLUME_THRESHOLD,
    class_summary,
    content_stats,
    fit_zipf,
    sliced_popularity,
)
from snmcache.cachesim import hit_curve, reuse_distances, size_for_hit_prob
from snmcache.generators import (
    IrmConfig,
    PopularityShape,
    SnmClassConfig,
    SnmEventStream,
    generate_irm,
    generate_snm,
    lifespan_to_L,
    shot_requests,
)
from snmcache.shuffle import slice_shuffle
from snmcache.trace import read_trace, write_trace

from helpers import effective_lifespan, lru_oracle, make_trace, reference_classes

SEEDS = list(range(20))
T1_HORIZON = 30.0


def _check(num: int, name: str, ok: bool, elapsed: float, limit: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({elapsed:.1f}s / limit {limit:.0f}s) {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < limit, f"criterion {num} over budget: {elapsed:.1f}s >= {limit:.0f}s"


def test_criterion_01_shape_normalization_and_causality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    ok = True
    for _ in range(100):
        kind = rng.choice(["exponential", "uniform"])
        L = float(10.0 ** rng.uniform(-1.3, 1.7))
        shape = PopularityShape(kind, L)
        upper = np.inf if kind == "exponential" else 2 * L
        integral, _ = integrate.quad(lambda t: float(shape.density(t)), 0.0, upper)
        worst = max(worst, abs(integral - 1.0))
        ok &= abs(integral - 1.0) <= 1e-6
        ok &= bool(np.all(shape.density(-rng.uniform(0.0, 10 * L, 20)) == 0.0))
    _check(1, "shape normalization/causality", ok, time.perf_counter() - t0, 1.0,
           f"worst |integral-1| = {worst:.2e}")


def test_criterion_02_lifespan_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for kind in ("exponential", "uniform"):
        for target in (1.0, 3.36, 6.4, 10.5):
            shape = PopularityShape(kind, lifespan_to_L(kind, target))
            horizon = 60.0 * shape.L
            pooled = [
                shot_requests(shape, 0.0, 10.0, horizon, rng, False)
                for _ in range(10_000)
            ]
            estimate = effective_lifespan(np.sort(np.concatenate(pooled)))
            worst = max(worst, abs(estimate - target) / target)
    _check(2, "life-span recovery", worst <= 0.05, time.perf_counter() - t0, 10.0,
           f"worst relative error = {worst:.3%}")


def test_criterion_03_reuse_distance_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    ok = True
    for _ in range(50):
        ids = rng.integers(0, 50, 1000)
        trace = make_trace([f"id{x}" for x in ids])
        d = reuse_distances(trace)
        for cap in range(1, 51):
            if int(np.count_nonzero(d <= cap)) != lru_oracle(trace, cap).hits:
                ok = False
                break
        if not ok:
            break
    _check(3, "reuse-distance oracle equivalence", ok, time.perf_counter() - t0, 5.0)


def test_criterion_04_zipf_round_trip():
    t0 = time.perf_counter()
    cfg = IrmConfig(catalogue_size=1000, alpha=0.8, total_requests=1_000_000, horizon=30.0)
    trace = generate_irm(cfg, seed=4)
    rows = sliced_popularity(trace, 1, 300)
    alpha = fit_zipf([(r.rank, r.mean) for r in rows], (10, 300))
    _check(4, "Zipf round trip", abs(alpha - 0.8) <= 0.05, time.perf_counter() - t0, 10.0,
           f"fitted alpha = {alpha:.4f}")


# --- criteria 5 and 6 share the generated-trace size table ------------------

_SIZE_TABLE: dict | None = None


def _shuffle_size_table() -> dict:
    global _SIZE_TABLE
    if _SIZE_TABLE is None:
        classes = reference_classes()
        table = {}
        for seed in SEEDS:
            trace = generate_snm(classes, T1_HORIZON, seed)
            d = reuse_distances(trace)
            entry = {"orig": {t: size_for_hit_prob(d, t) for t in (0.05, 0.10)}}
            for K in (1, 10, 100, 1000):
                dk = reuse_distances(slice_shuffle(trace, K, seed))
                targets = (0.05, 0.10) if K == 1 else (0.10,)
                entry[K] = {t: size_for_hit_prob(dk, t) for t in targets}
            table[seed] = entry
        _SIZE_TABLE = table
    return _SIZE_TABLE


def test_criterion_05_irm_overestimation_direction():
    t0 = time.perf_counter()
    table = _shuffle_size_table()
    details = []
    ok = True
    t_crit = scipy_stats.t.ppf(0.95, len(SEEDS) - 1)
    for target in (0.05, 0.10):
        ratios = np.array([table[s][1][target] / table[s]["orig"][target] for s in SEEDS])
        t_stat = (ratios.mean() - 1.5) / (ratios.std(ddof=1) / math.sqrt(len(ratios)))
        ok &= t_stat > t_crit
        details.append(f"target {target}: mean ratio {ratios.mean():.2f}")
    _check(5, "IRM over-estimation direction", ok, time.perf_counter() - t0, 120.0,
           "; ".join(details))


def test_criterion_06_shuffle_convergence():
    t0 = time.perf_counter()
    table = _shuffle_size_table()
    gaps = []
    for K in (1, 10, 100, 1000):
        gaps.append(float(np.mean([table[s][K][0.10] - table[s]["orig"][0.10] for s in SEEDS])))
    inversions = sum(1 for a, b in zip(gaps, gaps[1:]) if b > a)
    _check(6, "shuffle convergence", inversions <= 1, time.perf_counter() - t0, 180.0,
           f"mean gaps by K: {[round(g, 1) for g in gaps]}")


def test_criterion_07_daynight_marginality():
    t0 = time.perf_counter()
    classes = reference_classes()
    capacities = [500, 2000, 8000]
    diffs = {c: [] for c in capacities}
    for seed in SEEDS:
        plain = dict(hit_curve(reuse_distances(generate_snm(classes, T1_HORIZON, seed)), capacities))
        mod = dict(hit_curve(
            reuse_distances(generate_snm(classes, T1_HORIZON, seed, daynight=True)), capacities))
        for c in capacities:
            diffs[c].append(mod[c] - plain[c])
    mean_diffs = {c: float(np.mean(v)) for c, v in diffs.items()}
    ok = all(abs(d) <= 0.02 for d in mean_diffs.values())
    _check(7, "day/night marginality", ok, time.perf_counter() - t0, 120.0,
           f"mean hit-prob deltas: { {c: round(d, 4) for c, d in mean_diffs.items()} }")


def test_criterion_08_fit_generate_closure(tmp_path):
    t0 = time.perf_counter()
    horizon = 90.0
    trace_a = generate_snm(reference_classes(horizon=horizon, shape="uniform"), horizon, seed=42)
    path_a = tmp_path / "a.trace"
    with open(path_a, "w", encoding="utf-8") as f:
        write_trace(trace_a, f)
    assert cli.main(["fit", str(path_a), "--out", str(tmp_path / "fit"), "--shape", "uniform"]) == 0
    assert cli.main(["generate", str(tmp_path / "fit" / "snm.conf"), "--seed", "7",
                     "--out", str(tmp_path / "b.trace")]) == 0
    with open(tmp_path / "b.trace", encoding="utf-8") as f:
        trace_b = read_trace(f)

    stats_a, stats_b = content_stats(trace_a), content_stats(trace_b)
    summary_a = class_summary(stats_a, trace_a.horizon, DEFAULT_VOLUME_THRESHOLD, DEFAULT_LIFESPAN_BOUNDS)
    summary_b = class_summary(stats_b, trace_b.horizon, DEFAULT_VOLUME_THRESHOLD, DEFAULT_LIFESPAN_BOUNDS)
    worst = 0.0
    for sa, sb in zip(summary_a, summary_b):
        if sa.pct_videos < 1.0:
            continue  # sub-percent classes carry no statistical weight
        worst = max(
            worst,
            abs(sb.pct_requests - sa.pct_requests) / sa.pct_requests,
            abs(sb.pct_videos - sa.pct_videos) / sa.pct_videos,
        )
    _check(8, "fit/generate closure", worst <= 0.15, time.perf_counter() - t0, 60.0,
           f"worst per-class relative error = {worst:.3%}")


def test_criterion_09_batch_stream_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    ok = True
    for trial in range(10):
        classes = []
        for class_id in range(rng.integers(1, 4)):
            kind = ["exponential", "uniform", "stationary"][rng.integers(0, 3)]
            volumes = (
                float(rng.uniform(5, 40))
                if rng.random() < 0.5
                else tuple(float(v) for v in rng.integers(3, 60, size=rng.integers(2, 8)))
            )
            classes.append(
                SnmClassConfig(
                    class_id=class_id,
                    arrival_rate=float(rng.uniform(1.0, 15.0)),
                    lifespan=float(rng.uniform(0.5, 6.0)),
                    shape_kind=kind,
                    volumes=volumes,
                )
            )
        horizon = float(rng.uniform(3.0, 12.0))
        seed = int(rng.integers(0, 10_000))
        daynight = bool(rng.random() < 0.5)
        batch = generate_snm(classes, horizon, seed, daynight)
        stream = list(SnmEventStream(classes, horizon, seed, daynight))
        ok &= stream == batch.events
    _check(9, "batch/stream equivalence", ok, time.perf_counter() - t0, 10.0)


def test_criterion_10_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "snm.conf"
    cfg.write_text(
        "horizon_days=10\nseed=31\ndaynight=on\n"
        "class=1, arrival_rate=10, lifespan_days=1.2, shape=exponential, volumes=const:40\n"
        "class=5, arrival_rate=30, lifespan_days=8, shape=stationary, volumes=const:15\n"
    )
    ok = True
    for name, argv in {
        "snm": ["generate", str(cfg), "--out", None],
        "irm": ["generate", "--irm", "300,0.9,30000,8", "--seed", "6", "--out", None],
    }.items():
        outputs = []
        for run in (0, 1):
            out = tmp_path / f"{name}_{run}.trace"
            argv_run = [a if a is not None else str(out) for a in argv]
            assert cli.main(argv_run) == 0
            outputs.append(out.read_bytes())
        ok &= outputs[0] == outputs[1]

    shuffles = []
    for run in (0, 1):
        out = tmp_path / f"shuf_{run}.trace"
        assert cli.main(["shuffle", str(tmp_path / "snm_0.trace"), "50", "--seed", "3",
                         "--out", str(out)]) == 0
        shuffles.append(out.read_bytes())
    ok &= shuffles[0] == shuffles[1]
    _check(10, "pipeline determinism", ok, time.perf_counter() - t0, 30.0)
