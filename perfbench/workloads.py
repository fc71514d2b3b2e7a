"""The benchmark's workloads: inputs, and one round of calls into snmcache.

A workload is two functions.  ``setup(seed, small, workdir)`` builds the
inputs from the seed.  ``round(inputs, session)`` makes every call into
the program through ``session.op``, which times it, and checks each
output as soon as it comes back, outside the timed calls; a wrong output
raises ``checks.CheckError``.  Outputs are dropped once checked, so the
benchmark holds no more data than the pipeline itself would.  ``small``
shrinks the inputs for the harness's own smoke test.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from snmcache import cachesim, cli, generators, shuffle
from snmcache import trace as trace_mod

import checks
from checks import expect
from tracing import STREAM

HORIZON = 30.0
# Reference classes of a residential-ISP trace: (class id, share of
# contents, mean life-span in days, mean volume, stationary).  At
# 6682 contents over 30 days they give about 2e5 requests.
CLASS_ROWS = [
    (1, 0.0317, 1.14, 86.4, False),
    (2, 0.0490, 3.36, 41.9, False),
    (3, 0.0295, 6.40, 59.5, False),
    (4, 0.0445, 10.53, 36.9, False),
    (5, 0.8458, 24.61, 25.7, True),
]
TARGETS = (0.05, 0.10)
SWEEP_K = (1, 10, 100, 1000)
SWEEP_CAPACITIES = (10, 20, 50, 100, 200, 500, 1000, 2000, 5000)
# Requests compared with the benchmark's LRU stack, whose cost grows with
# the sum of the distances: all of them on the original traces, the K=1
# shuffles and the IRM trace; a prefix of the other shuffles and of the
# large traces.
SWEEP_PREFIX = 50_000
EXACT_PREFIX = 100_000


class OpFailed(Exception):
    """A call into the program raised; the round stops there."""


class Session:
    """Counts and times the operations of a run.

    ``wall`` and ``cpu`` add up the wall and CPU time of the calls into the
    program; ``tracer`` is live only when tracing.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.cpu = 0.0

    def op(self, fn, *args):
        self.attempted += 1
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += 1
            raise OpFailed(f"{getattr(fn, '__name__', fn)}: {exc!r}") from exc
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += time.process_time() - cpu


def snm_classes(n_videos: float) -> list:
    return [
        generators.SnmClassConfig(
            class_id=cid,
            arrival_rate=n_videos * share / HORIZON,
            lifespan=lifespan,
            shape_kind="stationary" if stationary else "exponential",
            volumes=volume,
        )
        for cid, share, lifespan, volume, stationary in CLASS_ROWS
    ]


def sample_snm(n_videos: float, seed: int, horizon: float):
    """A plain SNM trace with uniform shots, drawn by the benchmark itself
    so that the CLI workload's input does not depend on the generator
    under test.  ``n_videos`` contents are born over the horizon."""
    rng = np.random.default_rng([seed, 0xBE])
    times, owners = [], []
    for class_id, share, lifespan, volume, stationary in CLASS_ROWS:
        births = rng.uniform(0.0, horizon, rng.poisson(n_videos * share))
        if stationary:
            counts = rng.poisson(volume, births.size)
            t = rng.uniform(0.0, horizon, counts.sum())
        else:
            # uniform shot: density 1/(2L) on [0, 2L], with L = lifespan / 1.6
            L = lifespan / 1.6
            mass = np.clip((horizon - births) / (2 * L), 0.0, 1.0)
            counts = rng.poisson(volume * mass)
            u = rng.random(counts.sum()) * np.repeat(mass, counts)
            t = np.minimum(np.repeat(births, counts) + 2 * L * u, horizon)
        times.append(t)
        owners += [f"c{class_id}_{k}" for k in np.repeat(np.arange(births.size), counts).tolist()]
    times = np.concatenate(times)
    order = np.argsort(times, kind="stable")
    return times[order], [owners[i] for i in order.tolist()]


def write_trace_file(path: Path, times: np.ndarray, ids, horizon: float) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# trace-v1 horizon={horizon!r}\n")
        f.writelines(f"{t!r},{cid}\n" for t, cid in zip(times.tolist(), ids))


# --- locality-sweep ------------------------------------------------------------


def sweep_setup(seed: int, small: bool, workdir: Path):
    n_videos = 300.0 if small else 6682.0
    return SimpleNamespace(
        n_videos=n_videos,
        classes=snm_classes(n_videos),
        irm=generators.IrmConfig(1000, 0.8, 20_000 if small else 1_000_000, HORIZON),
        seed=seed,
    )


def drain_stream(tracer, classes, seed: int):
    with tracer.span(STREAM):
        stream = generators.SnmEventStream(classes, HORIZON, seed, daynight=True)
        events = list(stream)
    tracer.peak(f"{STREAM}.peak_pending", stream.peak_pending)
    return events


def evaluate(session: Session, trace, ids, exact_prefix: int | None = None) -> list:
    """Reuse distances, hit curve and required sizes of one trace, checked;
    returns the required sizes at TARGETS."""
    d = session.op(cachesim.reuse_distances, trace)
    checks.check_distances(ids, d, exact_prefix)
    checks.check_ceiling(d)
    checks.check_curve(d, session.op(cachesim.hit_curve, d, SWEEP_CAPACITIES))
    sizes = [session.op(cachesim.size_for_hit_prob, d, t) for t in TARGETS]
    for target, size in zip(TARGETS, sizes):
        checks.check_required_size(d, target, size)
    return sizes


def sweep_round(inp, session: Session) -> None:
    for daynight in (False, True):
        trace = session.op(generators.generate_snm, inp.classes, HORIZON, inp.seed, daynight)
        times, ids = trace.timestamps(), trace.content_ids()
        checks.check_trace_columns(times, HORIZON)
        if daynight:
            events = session.op(drain_stream, session.tracer, inp.classes, inp.seed)
            expect(events == trace.events, "SnmEventStream does not yield the batch generator's events")
            del events
        else:
            checks.check_snm_count(len(ids), CLASS_ROWS, inp.n_videos, HORIZON)
        original = evaluate(session, trace, ids)[1]
        sizes = {}
        for K in SWEEP_K:
            shuffled = session.op(shuffle.slice_shuffle, trace, K, inp.seed + K)
            shuffled_ids = shuffled.content_ids()
            checks.check_shuffle(times, ids, shuffled.timestamps(), shuffled_ids, K)
            sizes[K] = evaluate(session, shuffled, shuffled_ids, None if K == 1 else SWEEP_PREFIX)[1]
        checks.check_locality_gap(sizes, original)
    irm = session.op(generators.generate_irm, inp.irm, inp.seed)
    ids = irm.content_ids()
    expect(len(ids) == inp.irm.total_requests, f"{len(ids)} IRM requests for {inp.irm.total_requests}")
    checks.check_trace_columns(irm.timestamps(), HORIZON)
    checks.check_irm(ids, inp.irm.catalogue_size, inp.irm.alpha)
    evaluate(session, irm, ids)


# --- cli-pipeline --------------------------------------------------------------

# The fit and generate round trip of acceptance criterion 08: uniform
# shots over 90 days.  The reference classes keep their 6682 contents, so
# each input trace has about 2e5 requests.  A round runs the pipeline on
# two inputs so that it lasts long enough to average out the passing
# slowdowns of a shared machine.
CLI_HORIZON = 90.0
CLI_INPUTS = 2
CLI_TARGETS = (0.05, 0.1, 0.2)  # the evaluate command's default targets
CLI_SLICES = 100
CLI_TOP = 100  # the analyze command's default rank count


def pipeline_setup(seed: int, small: bool, workdir: Path):
    inputs = []
    for j in range(CLI_INPUTS):
        trace_seed = CLI_INPUTS * seed + j
        times, ids = sample_snm(300.0 if small else 6682.0, trace_seed, CLI_HORIZON)
        path = workdir / f"input{j}" / "orig.trace"
        path.parent.mkdir(exist_ok=True)
        write_trace_file(path, times, ids, CLI_HORIZON)
        inputs.append(SimpleNamespace(path=path, times=times, ids=ids, seed=trace_seed))
    return inputs


def run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"snmcache {' '.join(argv)} exited with {code}")


def pipeline_round(inputs, session: Session) -> None:
    for inp in inputs:
        w = Path(tempfile.mkdtemp(dir=inp.path.parent))
        orig, seed = str(inp.path), str(inp.seed)
        try:
            session.op(run_cli, ["analyze", orig, "--slices", str(CLI_SLICES), "--out", f"{w}/analyze"])
            session.op(run_cli, ["fit", orig, "--shape", "uniform", "--seed", seed, "--out", f"{w}/fit"])
            session.op(run_cli, ["generate", f"{w}/fit/snm.conf", "--out", f"{w}/gen.trace"])
            session.op(run_cli, ["shuffle", f"{w}/gen.trace", "1", "--seed", seed, "--out", f"{w}/shuffled.trace"])
            session.op(run_cli, ["evaluate", orig, f"{w}/shuffled.trace", "--out", f"{w}/evaluate"])
            session.op(run_cli, ["evaluate", orig, "--eviction-stats", "--out", f"{w}/evictions"])
            pipeline_check(inp, w)
        finally:
            shutil.rmtree(w)


def pipeline_check(inp, w: Path) -> None:
    table = checks.content_table(inp.times, inp.ids)
    checks.check_content_stats_csv(w / "analyze" / "content_stats.csv", table)
    checks.check_ranks_csv(w / "analyze" / "ranks.csv", inp.ids, CLI_SLICES, CLI_TOP)
    checks.check_density_csv(w / "analyze" / "density.csv", table)
    shares = checks.class_shares(table)
    checks.check_class_summary_csv(w / "fit" / "class_summary.csv", shares)

    gen_times, gen_ids, gen_horizon = checks.read_trace_file(w / "gen.trace")
    expect(gen_horizon == CLI_HORIZON, f"generated horizon {gen_horizon} is not {CLI_HORIZON}")
    checks.check_trace_columns(gen_times, CLI_HORIZON)
    checks.check_class_closure(table, checks.content_table(gen_times, gen_ids))
    sh_times, sh_ids, sh_horizon = checks.read_trace_file(w / "shuffled.trace")
    expect(sh_horizon == gen_horizon, "the shuffle changed the horizon")
    checks.check_shuffle(gen_times, gen_ids, sh_times, sh_ids, 1)

    d = {"orig": checks.lru_stack_distances(inp.ids), "shuffled": checks.lru_stack_distances(sh_ids)}
    for label in d:
        checks.check_curve_csv(w / "evaluate" / f"curve_{label}.csv", d[label])
    checks.check_required_sizes_csv(w / "evaluate" / "required_sizes.csv", d, CLI_TARGETS)
    curve = checks.check_curve_csv(w / "evictions" / "curve_orig.csv", d["orig"])
    distinct = int(np.count_nonzero(np.isinf(d["orig"])))
    checks.check_evictions_csv(w / "evictions" / "evictions_orig.csv", curve, distinct, len(inp.ids))
    checks.check_required_sizes_csv(w / "evictions" / "required_sizes.csv", {"orig": d["orig"]}, CLI_TARGETS)


# --- large-trace ---------------------------------------------------------------


def large_setup(seed: int, small: bool, workdir: Path):
    n_videos = 600.0 if small else 66820.0
    return SimpleNamespace(n_videos=n_videos, classes=snm_classes(n_videos), seed=seed, path=workdir / "large.trace")


def write_file(trace, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        trace_mod.write_trace(trace, f)


def read_file(path: Path):
    with open(path, encoding="utf-8") as f:
        return trace_mod.read_trace(f)


def large_round(inp, session: Session) -> None:
    trace = session.op(generators.generate_snm, inp.classes, HORIZON, inp.seed)
    times, ids = trace.timestamps(), trace.content_ids()
    checks.check_snm_count(len(ids), CLASS_ROWS, inp.n_videos, HORIZON)
    checks.check_trace_columns(times, HORIZON)
    violations = session.op(trace_mod.validate, trace)
    expect(violations == [], f"validate reports {violations[:1]} on a generated trace")
    session.op(write_file, trace, inp.path)
    checks.check_trace_file(inp.path, len(ids))
    back = session.op(read_file, inp.path)
    checks.check_same_trace(times, ids, trace.horizon, back.timestamps(), back.content_ids(), back.horizon)
    del trace
    shuffled = session.op(shuffle.slice_shuffle, back, 1, inp.seed)
    shuffled_ids = shuffled.content_ids()
    checks.check_shuffle(times, ids, shuffled.timestamps(), shuffled_ids, 1)
    sizes = []
    for t, t_ids in ((back, ids), (shuffled, shuffled_ids)):
        d = session.op(cachesim.reuse_distances, t)
        checks.check_distances(t_ids, d, exact_prefix=EXACT_PREFIX)
        checks.check_ceiling(d)
        sizes.append([session.op(cachesim.size_for_hit_prob, d, t) for t in TARGETS])
        for target, size in zip(TARGETS, sizes[-1]):
            checks.check_required_size(d, target, size)
        del d
    checks.check_locality_gap({1: sizes[1][1]}, sizes[0][1])


WORKLOADS = {
    "locality-sweep": (sweep_setup, sweep_round),
    "cli-pipeline": (pipeline_setup, pipeline_round),
    "large-trace": (large_setup, large_round),
}
