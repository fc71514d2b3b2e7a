"""Benchmark of snmcache: generate, shuffle and evaluate traces, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/snmcache``.  The run builds its
inputs from the seed, repeats whole rounds of the workload until the
rounds have taken ``--seconds``, checks every round's outputs, and prints
one JSON object as its last line: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Workloads, metrics and checks are described in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread: numpy's BLAS would otherwise start one per core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("locality-sweep", "cli-pipeline", "large-trace")
SETUP_REPEATS = 3

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import snmcache; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import snmcache in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout)


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload; returns the result object the command prints."""
    import checks
    import snmcache
    import tracing
    import workloads

    if not Path(snmcache.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"snmcache was imported from {snmcache.__file__}, not from {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup, run_round = workloads.WORKLOADS[name]
    workdir = ROOT / ".perfbench_out" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        builds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = setup(seed, small, workdir)
            builds.append(time.perf_counter() - start)

        tracer = tracing.Tracer() if trace else tracing.NoTracer()
        session = workloads.Session(tracer)
        walls, cpus, correct = [], [], True
        while sum(walls) < seconds or not walls:
            wall, cpu = session.wall, session.cpu
            try:
                with tracing.traced(tracer) if trace else contextlib.nullcontext():
                    run_round(inputs, session)
            except workloads.OpFailed as exc:
                print(f"operation failed: {exc}", file=sys.stderr)
            except checks.CheckError as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
            walls.append(session.wall - wall)
            cpus.append(session.cpu - cpu)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    print(f"# {name}: {len(walls)} round(s), run_s {statistics.median(walls):.4f} with tracing {'on' if trace else 'off'}")
    if trace:
        values = tracer.figures(len(walls))
        listed = spec["per_layer"]
    else:
        values = {
            "run_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(imports) + statistics.median(builds),
        }
        listed = spec["end_to_end"]
    return {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure whole rounds for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "snmcache" / "__init__.py").is_file():
        print(f"error: no snmcache sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
