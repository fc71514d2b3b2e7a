"""Command-line front end.

Subcommands wire the library into end-to-end experiment pipelines and
emit CSV artifacts for external plotting:

    analyze   per-content stats, rank/frequency distribution, density map
    fit       derive a generation config (class partition) from a trace
    generate  synthesize a trace from a config file or IRM parameters
    shuffle   K-slice reshuffle of an existing trace
    evaluate  LRU hit curves and required-size comparisons

All commands exit 0 on success and 2 on usage or input errors.  Each
command returns its output files as ``{path: writer}`` and writes none;
:func:`main` writes them in one atomic step that makes each file's
directory (:func:`snmcache.trace.write_atomic`).  This module alone writes
CSV: :func:`_csv` writes every file's header and rows, each number as
the ``repr`` of its Python value (:func:`snmcache.trace.format_cell`),
and quotes a cell that holds a comma or a quote as RFC 4180 says.
Randomized commands need an explicit seed, either on the command line
or in the config.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from . import analysis, cachesim, generators, shuffle as shuffle_mod
from .trace import Trace, _require_int, format_cell, read_trace, write_atomic, write_trace

__all__ = ["main"]


def _read_trace_file(path: str) -> Trace:
    with open(path, encoding="utf-8") as f:
        trace = read_trace(f)
    if not len(trace):
        raise ValueError(f"trace {path} has no requests")
    return trace


def _csv(header: str, rows: Iterable[Sequence]) -> Callable[[IO[str]], None]:
    # a write_atomic writer: the header line, then one line of cells per row
    def write(f):
        f.write(header + "\n")
        csv.writer(f, lineterminator="\n").writerows(map(format_cell, row) for row in rows)

    return write


def _numbers(kind: type, option: str, text: str) -> list:
    # an option's comma-separated ints or floats; an error names the option, as --irm's does
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"{option} {text}: {exc}") from None


def _default_volume_bins(threshold: int, max_volume: int) -> list[float]:
    # doubling bins from the volume threshold up to the largest volume
    edges = [float(threshold)]
    while edges[-1] <= max_volume:
        edges.append(edges[-1] * 2)
    if len(edges) == 1:  # nothing above the threshold
        edges.append(edges[0] * 2)
    return edges


def cmd_analyze(args) -> dict:
    # every option's rule before the trace is read (the upper bound of --slices, the request count, needs it);
    # a volume is at least 1 request: doubling bins from below 1 would never pass the largest volume
    _require_int("--volume-threshold", args.volume_threshold, lo=1)
    _require_int("--slices", args.slices, lo=1)
    _require_int("--top", args.top, lo=1)
    given = {name: analysis._bin_edges(name, _numbers(float, f"--{name}-bins", text)).tolist()
             for name, text in (("lifespan", args.lifespan_bins), ("volume", args.volume_bins)) if text}
    trace = _read_trace_file(args.trace)
    _require_int("--slices", args.slices, lo=1, hi=len(trace))
    stats = analysis.content_stats(trace)
    ranks = analysis.sliced_popularity(trace, args.slices, args.top)
    l_bins = given.get("lifespan") or np.linspace(0.0, max(trace.horizon, 1.0), 15).tolist()
    v_bins = given.get("volume") or _default_volume_bins(args.volume_threshold, int(stats.volume.max()))
    density = analysis.density_map(stats, args.volume_threshold, l_bins, v_bins)
    grid = [(*l_bins[i:i + 2], *v_bins[j:j + 2], density[i, j]) for i, j in np.ndindex(density.shape)]

    out = Path(args.out)
    files = {
        # ids are unique, so the rows sort by id alone
        out / "content_stats.csv": _csv("content_id,volume,lifespan,first_request,last_request",
                                        sorted(zip(stats.ids, *(c.tolist() for c in stats[1:])))),
        out / "ranks.csv": _csv("rank,mean,p5,p95", ranks),
        out / "density.csv": _csv("l_bin_lo,l_bin_hi,v_bin_lo,v_bin_hi,count", grid),
    }
    if args.contents:
        code = {cid: k for k, cid in enumerate(trace.ids)}
        wanted = [code[cid] for cid in args.contents.split(",") if cid in code]
        rows = np.isin(trace.codes, wanted)
        counts, series = dict.fromkeys(wanted, 0), []
        for ts, k in zip(trace.times[rows].tolist(), trace.codes[rows].tolist()):
            counts[k] += 1
            series.append((trace.ids[k], ts, counts[k]))
        files[out / "cumulative.csv"] = _csv("content_id,timestamp,cum_requests", series)
    return files


def cmd_fit(args) -> dict:
    _require_int("--volume-threshold", args.volume_threshold, lo=1)
    bounds = _numbers(float, "--bounds", args.bounds)
    # the library's own rules, on an empty table, before the trace is read
    analysis.classify_contents(analysis.ContentStats((), *[np.empty(0)] * 4), args.volume_threshold, bounds)
    trace = _read_trace_file(args.trace)
    summaries, config = analysis.fit_snm(analysis.content_stats(trace), trace.horizon, args.volume_threshold,
                                         bounds, args.shape, args.seed)
    out = Path(args.out)
    return {  # the config last: a failed write leaves none of these files
        out / "class_summary.csv": _csv(
            "class,lmin_days,lmax_days,pct_reqs,pct_videos,mean_lifespan,mean_volume,arrival_rate",
            [(s.class_id, *s.lifespan_bounds, s.pct_requests, s.pct_videos, s.mean_lifespan, s.mean_volume,
              s.arrival_rate) for s in summaries]),
        **generators.snm_config_files(config, out / "snm.conf"),
    }


def cmd_generate(args) -> dict:
    if (args.config is None) == (args.irm is None):
        raise ValueError("exactly one of CONFIG or --irm is required")
    if args.irm is not None:
        if args.seed is None:
            raise ValueError("--seed is required for --irm generation")
        fields = args.irm.split(",")
        try:
            if len(fields) != 4:
                raise ValueError("expected N,alpha,requests,horizon")
            cfg = generators.IrmConfig(int(fields[0]), float(fields[1]), int(fields[2]), float(fields[3]))
        except ValueError as exc:
            raise ValueError(f"--irm {args.irm}: {exc}") from None
        trace = generators.generate_irm(cfg, args.seed)
    else:
        config = generators.parse_snm_config(args.config)
        seed = args.seed if args.seed is not None else config.seed
        if seed is None:
            raise ValueError("no seed: pass --seed or add seed= to the config")
        trace = generators.generate_snm(config.classes, config.horizon, seed, config.daynight)
    return {Path(args.out): lambda f: write_trace(trace, f)}


def cmd_shuffle(args) -> dict:
    _require_int("K", args.K, lo=1)  # its upper bound, the request count, needs the trace
    trace = _read_trace_file(args.trace)
    shuffled = shuffle_mod.slice_shuffle(trace, args.K, args.seed)
    return {Path(args.out): lambda f: write_trace(shuffled, f)}


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


def cmd_evaluate(args) -> dict:
    targets = _numbers(float, "--targets", args.targets)
    capacities = _numbers(int, "--capacities", args.capacities)
    cachesim.hit_curve([np.inf], capacities)  # the library's own value checks, before any trace is read
    for t in targets:
        cachesim.size_for_hit_prob([np.inf], t)
    out = Path(args.out)
    writers = {}
    rows = []
    for path in args.traces:
        label = stem = Path(path).stem  # the first of <stem>, <stem>_2, <stem>_3, ... whose files are not taken
        n = 1
        while out / f"curve_{label}.csv" in writers:
            n += 1
            label = f"{stem}_{n}"
        trace = _read_trace_file(path)
        distances = cachesim.reuse_distances(trace)
        caps = capacities if args.capacities else _default_capacities(len(trace.ids))
        writers[out / f"curve_{label}.csv"] = _csv("capacity,hit_prob", cachesim.hit_curve(distances, caps))
        sizes = [cachesim.size_for_hit_prob(distances, t) for t in targets]
        rows += [(label, t, "unattainable" if size is None else size) for t, size in zip(targets, sizes)]
        if args.eviction_stats:
            writers[out / f"evictions_{label}.csv"] = _csv(
                "capacity,hit_prob,evictions,mean_eviction_time",
                [(r.capacity, r.hit_prob, r.evictions, r.mean_eviction_time)
                 for r in cachesim.lru_results(trace, distances, caps)])
        del trace, distances  # one trace alive at a time: this one goes before the next is read
    writers[out / "required_sizes.csv"] = _csv("trace_label,target,required_size", rows)
    return writers


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error like any other
        raise ValueError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--bounds", default=",".join(map(str, analysis.DEFAULT_LIFESPAN_BOUNDS)),
                   help="life-span class boundaries, days")
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
    p.add_argument("--eviction-stats", action="store_true", help="also report eviction counts and times")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        write_atomic(args.func(args))  # a command writes nothing itself, so each checks everything first
        return 0
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (OSError, ValueError, MemoryError) as exc:  # MemoryError: an input too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
