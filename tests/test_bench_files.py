"""Committed benchmark records (``BENCH_<n>.json`` at the repository root).

Each file holds the raw result object that ``perfbench/run.py`` printed
as its last line, for every run it records, together with the machine
and the source trees the runs were made from.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
SHA = re.compile(r"[0-9a-f]{40}")


def test_bench_files_exist():
    assert BENCH_FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_fields_and_runs(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(bench["command"], str) and "perfbench/run.py" in bench["command"]
    assert isinstance(bench["nproc"], int) and bench["nproc"] >= 1
    assert isinstance(bench["python"], str) and isinstance(bench["numpy"], str)
    for side in bench["sides"].values():
        assert SHA.fullmatch(side["git_sha"]) and SHA.fullmatch(side["src_tree"])
    assert bench["runs"]
    for run in bench["runs"]:
        assert run["side"] in bench["sides"] and run["workload"] in WORKLOADS and run["trace"] in (0, 1)
        assert isinstance(run["seed"], int)
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0, run
        assert result["attempted"] > 0 and result["metrics"]
    for side in bench["sides"]:
        for workload in WORKLOADS:
            mine = [r for r in bench["runs"] if (r["side"], r["workload"]) == (side, workload)]
            assert len({r["seed"] for r in mine if r["trace"] == 0}) >= 5, (side, workload)
            assert any(r["trace"] == 1 for r in mine), (side, workload)
