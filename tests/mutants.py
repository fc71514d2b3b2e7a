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
TRACE = "src/snmcache/trace.py"
CONFORMANCE = ("tests/test_conformance.py",)
DISTANCES = "tests/test_cachesim.py::TestReuseDistances"
REPEATS = f"{DISTANCES}::test_repeats"
LRU = "tests/test_cachesim.py::TestLruResults"
BLOCKS = "tests/test_trace.py::TestReadTrace::test_any_block_size_reads_the_same"
KEYED = "tests/test_generators.py::TestKeyedSeeding::test_each_class_draws_from_its_keyed_default_rng"

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
    Mutant("class_summary: arrival rate x 1.03", ANALYSIS, "arrival_rate=v / horizon,",
           "arrival_rate=1.03 * v / horizon,", ("tests/test_analysis.py",)),
    Mutant("lru_results: mean gap over count - 1", CACHESIM, "/ gaps.size if gaps.size", "/ (gaps.size - 1) if gaps.size",
           ("tests/test_cachesim.py",)),
    Mutant("lru_results: hits below each capacity", CACHESIM, 'np.searchsorted(finite, capacities, side="right")',
           'np.searchsorted(finite, capacities, side="left")', (f"{LRU}::test_single_content",)),
    Mutant("lru_results: gap sum not from 0.0", CACHESIM, "(0.0 + float(gaps[-1]))", "float(gaps[-1])",
           (f"{LRU}::test_mean_eviction_time_is_never_negative_zero",)),
    Mutant("lru_results: prev kept through the loop", CACHESIM, "    del prev", "    pass",
           ("tests/test_memory.py::test_peak_per_request[lru_results]",)),
    Mutant("kernel: top level dropped", CACHESIM, "bit_length(), 0, -1)", "bit_length() - 1, 0, -1)", (REPEATS,)),
    Mutant("kernel: key low bits dropped", CACHESIM, "x |= np.arange(n)", "x |= 0", (REPEATS,)),
    Mutant("kernel: partial-block lines dropped", CACHESIM,
           "x[m : m + left.size - w] = left[w:]\n        x[m + h :] = right[w:]", "pass", (REPEATS,)),
    Mutant("kernel: split by bit c", CACHESIM, "bit = np.bitwise_and(x, h)", "bit = np.bitwise_and(x, 2 * h)",
           (REPEATS,)),
    Mutant("kernel: (i & -h) term dropped", CACHESIM, "pos -= np.bitwise_and(i, -h, out=i)", "pass",
           (f"{DISTANCES}::test_against_naive_oracle",)),
    Mutant("size_for_hit_prob: ceil(target * total)", CACHESIM,
           "bisect_left(range(1, total + 1), target, key=lambda j: j / total) + 1", "math.ceil(target * total)",
           ("tests/test_cachesim.py::TestSizeForHitProb::test_least_k_at_and_beside_each_fraction",)),
    Mutant("class_summary: labels from the raw bounds", ANALYSIS, "zip([0.0, 0.0, *bounds], [math.inf, *bounds,",
           "zip([0.0, 0.0, *lifespan_bounds], [math.inf, *lifespan_bounds,",
           ("tests/test_analysis.py::TestClassSummary::test_rows_are_labelled_by_the_bounds_as_floats",)),
    Mutant("class_summary: classes by the default partition", ANALYSIS,
           "classify_contents(stats, volume_threshold, lifespan_bounds)", "classify_contents(stats)",
           ("tests/test_analysis.py::TestClassSummary::test_bounds_follow_the_partition_rule",)),
    Mutant("reader: final-line patch dropped", TRACE, 'if not text.endswith("\\n"):', "if False:", (BLOCKS,)),
    Mutant("reader: readline() dropped", TRACE, "text += stream.readline()", 'text += ""', (BLOCKS,)),
    Mutant("draw: thinning before the candidates", GENERATORS, "t = rng.random(owner.size)",
           "u = rng.random(owner.size) if daynight else None\n    t = rng.random(owner.size)\n"
           "    rng = __import__('types').SimpleNamespace(random=lambda size: u)",  # the thinning draws u
           (KEYED,)),
    Mutant("draw: a fourth key word", GENERATORS, "_TAG_BIRTHS, cfg.class_id])", "_TAG_BIRTHS, cfg.class_id, 0])",
           (KEYED,)),
    Mutant("draw: reversed volume indices", GENERATORS, "rng.integers(0, len(volumes), births.size))",
           "rng.integers(0, len(volumes), births.size)[::-1])", (KEYED,)),
    Mutant("id keys: 0x00 padding", TRACE, "column |= _PAD[np.clip(size - 8 * j, 0, 8)]",
           "column &= ~_PAD[np.clip(size - 8 * j, 0, 8)]",
           ("tests/test_trace.py::TestIdKeys::test_padding_is_no_utf8_byte",)),
    Mutant("id keys: a group's last row names it", TRACE, "np.minimum.at(first, group, np.arange(group.size))",
           "first[group] = np.arange(group.size)",
           ("tests/test_trace.py::TestIdKeys::test_long_ids_with_one_key_name_the_first",)),
    Mutant("writer: each block's last line end dropped", TRACE, 'stream.write("".join(parts))',
           'stream.write("".join(parts)[:-1])',
           ("tests/test_trace.py::TestWriteTrace::test_rows_are_whole_lines_across_write_blocks",)),
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
