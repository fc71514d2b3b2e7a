"""The suite's kill record: named text mutants of the package, each run against its tests.

Run with the test dependencies installed:

    python tests/mutants.py [NAME ...]

A mutant replaces one exact text, which must occur once in its file, in a fresh copy of ``src/``
and ``tests/`` in a temporary directory, and runs ``pytest -x`` on its targets there.  It is
``killed`` when a target fails and ``survived`` when they all pass.  An equivalent mutant is a
control that changes nothing the tests can see: it should survive.  The script prints one row per
mutant and exits with 1 when any outcome differs from the expected one.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the checkout
    old: str  # occurs exactly once in the file
    new: str
    targets: tuple[str, ...]  # pytest node ids or files, relative to the root
    equivalent: bool = False

    @property
    def expected(self) -> str:
        return "survived" if self.equivalent else "killed"


GENERATORS, ANALYSIS, CACHESIM = "src/snmcache/generators.py", "src/snmcache/analysis.py", "src/snmcache/cachesim.py"
CONFORMANCE = ("tests/test_conformance.py",)

MUTANTS = (
    Mutant("horizon clamp deleted", GENERATORS, "np.minimum(t, horizon, out=t)", "None",
           ("tests/test_generators.py::TestShotSampling::test_times_at_the_window_end",)),
    Mutant("births not added", GENERATORS, "t += births[owner]", "t += 0.0", CONFORMANCE),
    Mutant("masses = 1", GENERATORS, "masses = np.ones_like(births) if shape is None else shape.cdf(horizon - births)",
           "masses = np.ones_like(births)", CONFORMANCE),
    Mutant("shape scale L x 1.05", GENERATORS, "lifespan_to_L(cfg.shape_kind, cfg.lifespan))",
           "lifespan_to_L(cfg.shape_kind, cfg.lifespan) * 1.05)", CONFORMANCE),
    Mutant("thinning at f", GENERATORS, "< 0.5 * daynight_factor(t)", "< daynight_factor(t)", CONFORMANCE),
    Mutant("thinning at 0.45 f", GENERATORS, "< 0.5 * daynight_factor(t)", "< 0.45 * daynight_factor(t)",
           ("tests/test_generators.py",)),
    Mutant("uniform L = lifespan / 1.55", GENERATORS, "return lifespan / 1.6", "return lifespan / 1.55",
           ("tests/test_generators.py",)),
    Mutant("content_stats: ceil(0.1 V) index + 1", ANALYSIS, "lo = start + (volume + 9) // 10 - 1",
           "lo = start + (volume + 9) // 10", ("tests/test_analysis.py",)),
    Mutant("sliced_popularity: p95 index - 1", ANALYSIS, "(pct * K + 99) // 100 - 1]",
           "(pct * K + 99) // 100 - 1 - (pct == 95)]", ("tests/test_analysis.py", "tests/test_cli.py::TestAnalyze")),
    Mutant("class_summary: arrival rate x 1.03", ANALYSIS, "arrival_rate=n_videos / horizon,",
           "arrival_rate=1.03 * n_videos / horizon,", ("tests/test_analysis.py",)),
    Mutant("lru_results: mean gap over count - 1", CACHESIM, "/ gaps.size if gaps.size", "/ (gaps.size - 1) if gaps.size",
           ("tests/test_cachesim.py",)),
    # equivalent controls: every stable sort gives the same order, and clip is a maximum then a minimum
    Mutant("time sort: mergesort for stable", GENERATORS, 'np.argsort(t, kind="stable")', 'np.argsort(t, kind="mergesort")',
           ("tests/test_generators.py::TestEventStream::test_pinned_events_and_peak_pending",), equivalent=True),
    Mutant("uniform cdf: clip as maximum, minimum", GENERATORS, "np.clip(t / (2 * self.L), 0.0, 1.0)",
           "np.minimum(np.maximum(t / (2 * self.L), 0.0), 1.0)",
           ("tests/test_generators.py::TestShotSampling::test_pinned_bytes",), equivalent=True),
)


def run(mutant: Mutant) -> str:
    """'killed' or 'survived': the outcome of the mutant's targets on a mutated copy of the checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / mutant.path
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}  # the mutated package, not the one of the checkout
        proc = subprocess.run([sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.targets],
                              cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 0: every target passed, 1: one failed; anything else is no verdict
        raise RuntimeError(f"{mutant.name}: pytest exited with {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return "killed" if proc.returncode else "survived"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    wrong = 0
    print(f"{'mutant':42} {'expected':9} {'outcome':9} seconds")
    for mutant in chosen:
        start = time.perf_counter()
        outcome = run(mutant)
        wrong += outcome != mutant.expected
        print(f"{mutant.name:42} {mutant.expected:9} {outcome:9} {time.perf_counter() - start:7.1f}", flush=True)
    print(f"{len(chosen)} mutants, {wrong} not as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
