"""Command-line front end.

Subcommands wire the library into end-to-end experiment pipelines and
emit CSV artifacts for external plotting:

    analyze   per-content stats, rank/frequency distribution, density map
    fit       derive a generation config (class partition) from a trace
    generate  synthesize a trace from a config file or IRM parameters
    shuffle   K-slice reshuffle of an existing trace
    evaluate  LRU hit curves and required-size comparisons

All commands exit 0 on success and 2 on usage or input errors.  Output
files are written atomically (write-then-rename).  Randomized commands
need an explicit seed, either on the command line or in the config.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, cachesim, generators, shuffle as shuffle_mod
from .trace import Trace, read_trace, write_trace

__all__ = ["main"]


def _write_atomic(path: Path, write_fn) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            write_fn(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_trace_file(path: str) -> Trace:
    with open(path, encoding="utf-8") as f:
        return read_trace(f)


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _default_volume_bins(threshold: int, max_volume: int) -> list[float]:
    # doubling bins from the volume threshold up to the largest volume
    edges = [float(threshold)]
    while edges[-1] <= max_volume:
        edges.append(edges[-1] * 2)
    if len(edges) == 1:  # nothing above the threshold
        edges.append(edges[0] * 2)
    return edges


def cmd_analyze(args) -> int:
    trace = _read_trace_file(args.trace)
    if not len(trace):
        raise ValueError(f"trace {args.trace} has no requests")
    # compute every output, and so check every argument, before writing any
    stats = analysis.content_stats(trace)
    dist = analysis.sliced_popularity(trace, args.slices, args.top)
    if args.lifespan_bins:
        l_bins = _float_list(args.lifespan_bins)
    else:
        l_bins = list(np.linspace(0.0, max(trace.horizon, 1.0), 15))
    if args.volume_bins:
        v_bins = _float_list(args.volume_bins)
    else:
        max_vol = max(st.volume for st in stats.values())
        v_bins = _default_volume_bins(args.volume_threshold, max_vol)
    dm = analysis.density_map(stats, args.volume_threshold, l_bins, v_bins)

    def write_stats(f):
        f.write("content_id,volume,lifespan,first_request,last_request\n")
        for cid in sorted(stats):
            st = stats[cid]
            f.write(f"{cid},{st.volume},{st.lifespan!r},{st.first_request!r},{st.last_request!r}\n")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_atomic(out / "content_stats.csv", write_stats)
    _write_atomic(out / "ranks.csv", lambda f: analysis.write_rank_csv(dist, f))
    _write_atomic(out / "density.csv", lambda f: analysis.write_density_csv(dm, f))

    if args.contents:
        code = {cid: k for k, cid in enumerate(trace.ids)}
        wanted = [code[cid] for cid in args.contents.split(",") if cid in code]
        rows = np.isin(trace.codes, wanted)

        def write_cumulative(f):
            f.write("content_id,timestamp,cum_requests\n")
            counts = dict.fromkeys(wanted, 0)
            for ts, k in zip(trace.times[rows].tolist(), trace.codes[rows].tolist()):
                counts[k] += 1
                f.write(f"{trace.ids[k]},{ts!r},{counts[k]}\n")

        _write_atomic(out / "cumulative.csv", write_cumulative)
    return 0


def cmd_fit(args) -> int:
    trace = _read_trace_file(args.trace)
    if not len(trace):
        raise ValueError(f"trace {args.trace} has no contents")
    bounds = _float_list(args.bounds)
    stats = analysis.content_stats(trace)
    classes = analysis.classify_contents(stats, args.volume_threshold, bounds)
    summaries = analysis.class_summary(trace, classes, bounds)

    last_class = len(bounds) + 1
    class_cfgs = []
    for s in summaries:
        if not s.volume_samples:
            continue
        stationary = s.class_id == 0 or s.class_id == last_class
        class_cfgs.append(
            generators.SnmClassConfig(
                class_id=s.class_id,
                arrival_rate=s.arrival_rate,
                # life-span can degenerate to 0 in bursty toy traces; keep
                # the shot profile well-defined with a tiny floor
                lifespan=s.mean_lifespan if stationary else max(s.mean_lifespan, 1e-9),
                shape_kind="stationary" if stationary else args.shape,
                volumes=tuple(float(v) for v in s.volume_samples),
            )
        )
    config = generators.SnmConfig(
        horizon=trace.horizon, classes=class_cfgs, seed=args.seed, daynight=False
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    generators.write_snm_config(config, out / "snm.conf")

    _write_atomic(out / "class_summary.csv", lambda f: analysis.write_class_summary_csv(summaries, f))
    return 0


def cmd_generate(args) -> int:
    if (args.config is None) == (args.irm is None):
        raise ValueError("exactly one of CONFIG or --irm is required")
    if args.irm is not None:
        if args.seed is None:
            raise ValueError("--seed is required for --irm generation")
        fields = args.irm.split(",")
        if len(fields) != 4:
            raise ValueError("--irm expects N,alpha,requests,horizon")
        cfg = generators.IrmConfig(
            catalogue_size=int(fields[0]),
            alpha=float(fields[1]),
            total_requests=int(fields[2]),
            horizon=float(fields[3]),
        )
        trace = generators.generate_irm(cfg, args.seed)
    else:
        config = generators.parse_snm_config(args.config)
        seed = args.seed if args.seed is not None else config.seed
        if seed is None:
            raise ValueError("no seed: pass --seed or add seed= to the config")
        trace = generators.generate_snm(config.classes, config.horizon, seed, config.daynight)
    _write_atomic(Path(args.out), lambda f: write_trace(trace, f))
    return 0


def cmd_shuffle(args) -> int:
    trace = _read_trace_file(args.trace)
    shuffled = shuffle_mod.slice_shuffle(trace, args.K, args.seed)
    _write_atomic(Path(args.out), lambda f: write_trace(shuffled, f))
    return 0


def _default_capacities(n_distinct: int) -> list[int]:
    caps = []
    step = 1
    while step < n_distinct:
        for mult in (1, 2, 5):
            c = mult * step
            if c < n_distinct:
                caps.append(c)
        step *= 10
    caps.append(n_distinct)
    return sorted(set(caps))


def cmd_evaluate(args) -> int:
    traces = []
    seen_labels: dict[str, int] = {}
    for path in args.traces:
        trace = _read_trace_file(path)
        if not len(trace):
            raise ValueError(f"trace {path} is empty")
        label = Path(path).stem
        seen_labels[label] = seen_labels.get(label, 0) + 1
        if seen_labels[label] > 1:
            label = f"{label}_{seen_labels[label]}"
        traces.append((label, trace))
    targets = _float_list(args.targets)

    # compute every output, and so check every argument, before writing any
    writers = {}
    rows = []
    for label, trace in traces:
        distances = cachesim.reuse_distances(trace)
        caps = _int_list(args.capacities) if args.capacities else _default_capacities(len(trace.ids))
        curve = cachesim.hit_curve(distances, caps)
        writers[f"curve_{label}.csv"] = lambda f, c=curve: cachesim.write_hit_curve_csv(c, f)
        rows.extend((label, t, cachesim.size_for_hit_prob(distances, t)) for t in targets)
        if args.eviction_stats:
            results = [cachesim.simulate_lru(trace, c) for c in caps]

            def write_evictions(f, res=results):
                f.write("capacity,hit_prob,evictions,mean_eviction_time\n")
                for r in res:
                    f.write(f"{r.capacity},{r.hit_prob!r},{r.evictions},{r.mean_eviction_time!r}\n")

            writers[f"evictions_{label}.csv"] = write_evictions
    writers["required_sizes.csv"] = lambda f: cachesim.write_required_sizes_csv(rows, f)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in writers.items():
        _write_atomic(out / name, write)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snmcache",
        description="Analyze request traces, synthesize IRM/shot-noise traffic, evaluate LRU caches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-content stats, rank distribution, density map")
    p.add_argument("trace")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--slices", type=int, default=1, help="number of slices K for the rank distribution")
    p.add_argument("--top", type=int, default=100, help="ranks to report")
    p.add_argument("--contents", default="", help="comma-separated ids for cumulative-request series")
    p.add_argument("--volume-threshold", type=int, default=analysis.DEFAULT_VOLUME_THRESHOLD)
    p.add_argument("--lifespan-bins", default="", help="comma-separated bin edges (days)")
    p.add_argument("--volume-bins", default="", help="comma-separated bin edges (requests)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit", help="derive a generation config from a trace")
    p.add_argument("trace")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--volume-threshold", type=int, default=analysis.DEFAULT_VOLUME_THRESHOLD)
    p.add_argument("--bounds", default="2,5,8,13", help="life-span class boundaries, days")
    p.add_argument("--shape", choices=("exponential", "uniform"), default="exponential")
    p.add_argument("--seed", type=int, default=None, help="seed to embed in the emitted config")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("generate", help="synthesize a trace")
    p.add_argument("config", nargs="?", default=None, help="generation config file")
    p.add_argument("--irm", default=None, metavar="N,ALPHA,REQS,HORIZON", help="IRM parameters")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output trace file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("shuffle", help="reshuffle a trace inside K equal-count slices")
    p.add_argument("trace")
    p.add_argument("K", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output trace file")
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("evaluate", help="LRU hit curves and required cache sizes")
    p.add_argument("traces", nargs="+")
    p.add_argument("--targets", default="0.05,0.1,0.2", help="target hit probabilities")
    p.add_argument("--capacities", default="", help="cache sizes to evaluate (default: auto ladder)")
    p.add_argument("--eviction-stats", action="store_true", help="also simulate per-capacity eviction times")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
