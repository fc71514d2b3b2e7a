"""Tests of the benchmark itself: each check rejects a wrong output, and
every workload runs at reduced size with tracing off and on.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from snmcache import cachesim, shuffle  # noqa: E402
from snmcache.trace import Trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def sample():
    times, ids = workloads.sample_snm(150.0, 5, workloads.HORIZON)
    return Trace.from_columns(times.tolist(), ids, workloads.HORIZON)


def test_distance_off_by_one_is_rejected(sample):
    ids = sample.content_ids()
    d = cachesim.reuse_distances(sample)
    checks.check_distances(ids, d)
    checks.check_distances(ids, d, exact_prefix=len(ids) // 2)
    i = int(np.flatnonzero(np.isfinite(d) & (d > 1))[-1])
    wrong = d.copy()
    wrong[i] += 1
    with pytest.raises(checks.CheckError):
        checks.check_distances(ids, wrong)
    # past the exact prefix, a property the distances must have catches it
    wrong = d.copy()
    wrong[i] = math.inf
    with pytest.raises(checks.CheckError):
        checks.check_distances(ids, wrong, exact_prefix=10)


def test_wrong_required_size_is_rejected(sample):
    d = cachesim.reuse_distances(sample)
    size = cachesim.size_for_hit_prob(d, 0.1)
    checks.check_required_size(d, 0.1, size)
    with pytest.raises(checks.CheckError):
        checks.check_required_size(d, 0.1, size + 1)


def test_shuffle_across_a_slice_boundary_is_rejected(sample):
    K = 10
    s = shuffle.slice_shuffle(sample, K, 3)
    times, ids = sample.timestamps(), sample.content_ids()
    checks.check_shuffle(times, ids, s.timestamps(), s.content_ids(), K)
    moved = s.content_ids()
    edge = len(moved) // K
    lo = next(j for j in range(edge - 1, -1, -1) if moved[j] != moved[edge])
    moved[lo], moved[edge] = moved[edge], moved[lo]
    with pytest.raises(checks.CheckError):
        checks.check_shuffle(times, ids, s.timestamps(), moved, K)


def test_trace_file_missing_a_line_is_rejected(sample, tmp_path):
    path = tmp_path / "t.trace"
    workloads.write_trace_file(path, np.array(sample.timestamps()), sample.content_ids(), sample.horizon)
    checks.check_trace_file(path, len(sample))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[6:]), encoding="utf-8")
    with pytest.raises(checks.CheckError):
        checks.check_trace_file(path, len(sample))


def test_changed_timestamp_is_rejected(sample):
    times, ids = sample.timestamps(), sample.content_ids()
    nudged = list(times)
    nudged[7] = math.nextafter(nudged[7], math.inf)
    with pytest.raises(checks.CheckError):
        checks.check_same_trace(times, ids, 30.0, nudged, ids, 30.0)


def test_evictions_disagreeing_with_the_curve_are_rejected(sample, tmp_path):
    d = checks.lru_stack_distances(sample.content_ids())
    distinct = int(np.count_nonzero(np.isinf(d)))
    caps = checks.default_capacities(distinct)
    curve = [(c, checks.hit_prob(d, c)) for c in caps]
    results = [cachesim.simulate_lru(sample, c) for c in caps]
    good = ["capacity,hit_prob,evictions,mean_eviction_time"]
    good += [f"{r.capacity},{r.hit_prob!r},{r.evictions},{r.mean_eviction_time!r}" for r in results]
    path = tmp_path / "evictions_t.csv"
    path.write_text("\n".join(good) + "\n", encoding="utf-8")
    checks.check_evictions_csv(path, curve, distinct, len(sample))
    fields = good[3].split(",")
    fields[1] = repr(float(fields[1]) + 1.0 / len(sample))
    path.write_text("\n".join(good[:3] + [",".join(fields)] + good[4:]) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckError):
        checks.check_evictions_csv(path, curve, distinct, len(sample))


def test_snm_count_far_from_expectation_is_rejected():
    mean, var = checks.snm_moments(workloads.CLASS_ROWS, 6682.0, 30.0)
    checks.check_snm_count(round(mean), workloads.CLASS_ROWS, 6682.0, 30.0)
    with pytest.raises(checks.CheckError):
        checks.check_snm_count(round(mean + 6 * math.sqrt(var)), workloads.CLASS_ROWS, 6682.0, 30.0)


def test_locality_gap_must_shrink():
    checks.check_locality_gap({1: 900, 10: 600, 100: 520, 1000: 530}, 500)
    with pytest.raises(checks.CheckError):
        checks.check_locality_gap({1: 500, 10: 500, 100: 500, 1000: 500}, 500)
    with pytest.raises(checks.CheckError):
        checks.check_locality_gap({1: 900, 10: 950, 100: 520, 1000: 530}, 500)


def test_default_capacities_match_the_cli():
    from snmcache import cli

    for distinct in (1, 2, 9, 10, 11, 999, 1000, 6764):
        assert checks.default_capacities(distinct) == cli._default_capacities(distinct)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_smoke(name, trace):
    result = run.measure(name, 3, 0.0, trace, small=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_figures_are_all_listed():
    import tracing

    assert sorted(tracing.Tracer().figures(1)) == sorted(m["name"] for m in SPEC["per_layer"])


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
