"""Per-content statistics and trace characterization.

Covers the measurement side of the toolkit: request volumes and
effective life-spans per content, rank/frequency distributions over
trace slices, power-law tail fitting, the volume/life-span density map,
and the 6-class content partition.  :func:`content_stats` measures a
trace once, in numpy, into a per-content table: the module has no
per-content loop.  Classification, class summaries,
the density map and :func:`fit_snm`, which turns the table into the
shot-noise generator's config, all read that table.  The module only
computes, and returns plain values (rank rows, a count matrix) that the
CLI writes to files.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .generators import SnmClassConfig, SnmConfig
from .trace import Trace, _by_content, _reals, _require, _require_int

__all__ = [
    "ContentStats",
    "RankRow",
    "ClassSummary",
    "DEFAULT_VOLUME_THRESHOLD",
    "DEFAULT_LIFESPAN_BOUNDS",
    "slice_bounds",
    "content_stats",
    "sliced_popularity",
    "fit_zipf",
    "classify_contents",
    "class_summary",
    "fit_snm",
    "density_map",
]

# Defaults for the content partition: contents below the volume
# threshold form class 0; the remaining classes are life-span intervals
# with upper-inclusive boundaries (days).
DEFAULT_VOLUME_THRESHOLD = 10
DEFAULT_LIFESPAN_BOUNDS = (2.0, 5.0, 8.0, 13.0)


class ContentStats(NamedTuple):
    """Per-content table, one column per measure: row k is content ``ids[k]``."""

    ids: tuple[str, ...]  # the trace's ids
    volume: np.ndarray  # number of requests observed in the trace
    lifespan: np.ndarray  # effective life-span, days
    first_request: np.ndarray
    last_request: np.ndarray


class RankRow(NamedTuple):
    rank: int
    mean: float
    p5: float
    p95: float


class ClassSummary(NamedTuple):
    """Aggregate statistics of one content class."""

    class_id: int
    lifespan_bounds: tuple[float, float]  # (lmin, lmax] in days
    pct_requests: float
    pct_videos: float
    mean_lifespan: float  # NaN when the class is empty
    mean_volume: float  # NaN when the class is empty
    arrival_rate: float  # contents per day
    volume_samples: list[int]


def slice_bounds(total: int, K: int) -> list[tuple[int, int]]:
    """Split ``total`` sequence positions into K near-equal runs.

    Slice i covers indices [floor(i*total/K), floor((i+1)*total/K)), so
    slice sizes differ by at most one request.
    """
    K = _require_int("K", K, lo=1, hi=total)
    return [((i * total) // K, ((i + 1) * total) // K) for i in range(K)]


def content_stats(trace: Trace) -> ContentStats:
    """Measure volume, effective life-span and first/last request per content.

    A content's effective life-span is the time between its
    ceil(0.1*V)-th and ceil(0.9*V)-th requests (1-based), of its V
    requests; the ceilings are integer arithmetic, so V=30 uses
    requests 3 and 27 with no float rounding.
    """
    times = trace.times[_by_content(trace.codes)[0]]
    volume = np.bincount(trace.codes, minlength=len(trace.ids))
    start = np.cumsum(volume) - volume
    lo = start + (volume + 9) // 10 - 1
    hi = start + (9 * volume + 9) // 10 - 1
    return ContentStats(trace.ids, volume, times[hi] - times[lo], times[start], times[start + volume - 1])


def sliced_popularity(trace: Trace, K: int, top_ranks: int) -> list[RankRow]:
    """Rank/frequency rows, ranks 1 to ``top_ranks``, averaged over K equal-count slices.

    The request sequence is cut into K consecutive runs of (as close as
    possible) equal size.  Within each slice contents are ranked by
    slice-local frequency (ties broken by content id) and frequencies
    are normalized to the slice total.  For each rank up to
    ``top_ranks`` the mean (summed in slice order) and nearest-rank
    5/95 percentiles across slices are reported; a slice with fewer
    distinct contents than the rank contributes frequency 0.
    """
    top_ranks = _require_int("top_ranks", top_ranks, lo=1)
    n, m = len(trace), len(trace.ids)
    sizes = np.array([hi - lo for lo, hi in slice_bounds(n, K)])
    pairs, counts = np.unique(np.repeat(np.arange(K), sizes) * m + trace.codes, return_counts=True)
    slices, codes = np.divmod(pairs, m)
    by_name = np.empty(m, np.int64)
    by_name[sorted(range(m), key=trace.ids.__getitem__)] = np.arange(m)
    order = np.lexsort((by_name[codes], -counts, slices))  # by slice, then rank
    slices, counts = slices[order], counts[order]
    rank = np.arange(order.size) - np.searchsorted(slices, slices)
    top = rank < top_ranks
    ranked = min(top_ranks, m)  # no slice ranks more contents than the trace has
    freqs = np.zeros((ranked, K))
    freqs[rank[top], slices[top]] = counts[top] / sizes[slices[top]]
    freqs.sort(axis=1)
    mean = np.cumsum(freqs, axis=1)[:, -1] / K
    # nearest-rank percentile: the value at 1-based index ceil(pct/100 * K)
    p5, p95 = (freqs[:, (pct * K + 99) // 100 - 1] for pct in (5, 95))
    rows = list(map(RankRow, range(1, ranked + 1), mean.tolist(), p5.tolist(), p95.tolist()))
    return rows + [RankRow(r, 0.0, 0.0, 0.0) for r in range(ranked + 1, top_ranks + 1)]


def fit_zipf(rank_freqs: Sequence[tuple[int, float]], rank_range: tuple[int, int]) -> float:
    """Power-law tail exponent from a rank/frequency sequence.

    Ordinary least squares of log(frequency) against log(rank) over the
    inclusive ``rank_range``; returns the negated slope.
    """
    lo, hi = rank_range
    pts = [(r, f) for r, f in rank_freqs if lo <= r <= hi]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 ranks in range [{lo}, {hi}], got {len(pts)}")
    for r, f in pts:
        if not 1 <= r < math.inf:
            raise ValueError(f"rank must be >= 1 and finite, got {r!r}")
        if not 0 < f < math.inf:
            raise ValueError(f"frequency must be positive and finite, got {f!r} at rank {r}")
    log_r = np.log([r for r, _ in pts])
    log_f = np.log([f for _, f in pts])
    slope, _ = np.polyfit(log_r, log_f, 1)
    return -float(slope)


def classify_contents(
    stats: ContentStats,
    volume_threshold: int = DEFAULT_VOLUME_THRESHOLD,
    lifespan_bounds: Sequence[float] = DEFAULT_LIFESPAN_BOUNDS,
) -> np.ndarray:
    """Class column of a content table: classes 0..len(bounds)+1, row k for content k.

    Contents below the volume threshold fall into class 0 regardless of
    life-span.  The rest are classed by life-span interval with
    upper-inclusive boundaries: l <= b1 -> 1, b1 < l <= b2 -> 2, ...,
    l > b_last -> last class.
    """
    bounds = _reals("lifespan bounds", lifespan_bounds, sample=True).tolist()
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"lifespan bounds must be finite, got {bounds}")
    if any(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError(f"lifespan bounds must be strictly increasing, got {bounds}")
    classes = np.searchsorted(bounds, stats.lifespan) + 1
    classes[stats.volume < _require_int("volume_threshold", volume_threshold, lo=1)] = 0
    return classes


def class_summary(
    stats: ContentStats,
    horizon: float,
    volume_threshold: int,
    lifespan_bounds: Sequence[float],
) -> list[ClassSummary]:
    """Aggregate request/content shares and means per class of a content table.

    The classes are those of :func:`classify_contents` with the same
    threshold and bounds.  The per-class arrival rate is the content
    count divided by the trace horizon, which must be positive, and
    ``volume_samples`` collects the class's empirical volume multiset
    for later resampling.
    """
    horizon = _require("trace horizon", horizon)  # it gives the arrival rates
    classes = classify_contents(stats, volume_threshold, lifespan_bounds)
    bounds = _reals("lifespan bounds", lifespan_bounds, sample=True).tolist()  # the floats it classed by
    videos, requests, lifespans = (
        np.bincount(classes, w, len(bounds) + 2).tolist()  # sums each class in content order, from 0.0
        for w in (None, stats.volume, stats.lifespan))
    samples = np.split(stats.volume[np.lexsort((stats.volume, classes))], np.cumsum(videos)[:-1])
    total_requests, total_videos = int(stats.volume.sum()), len(stats.ids)
    return [
        ClassSummary(
            class_id=k,
            lifespan_bounds=(lo, hi),  # class 0 is volume-defined and spans all life-spans
            pct_requests=100.0 * r / total_requests if total_requests else 0.0,
            pct_videos=100.0 * v / total_videos if total_videos else 0.0,
            mean_lifespan=ls / v if v else math.nan,
            mean_volume=r / v if v else math.nan,
            arrival_rate=v / horizon,
            volume_samples=vs.tolist(),
        )
        for k, (lo, hi, v, r, ls, vs) in enumerate(zip([0.0, 0.0, *bounds], [math.inf, *bounds, math.inf],
                                                        videos, requests, lifespans, samples))
    ]


def fit_snm(stats: ContentStats, horizon: float, volume_threshold: int, lifespan_bounds: Sequence[float],
            shape: str, seed: int | None = None) -> tuple[list[ClassSummary], SnmConfig]:
    """Class summaries of a content table and the shot-noise config fitted to them: class 0
    and the last class are stationary, the others get ``shape``; empty classes are left out."""
    summaries = class_summary(stats, horizon, volume_threshold, lifespan_bounds)
    class_cfgs = []
    for s in summaries:
        if not s.volume_samples:
            continue
        stationary = s.class_id in (0, len(lifespan_bounds) + 1)
        class_cfgs.append(
            SnmClassConfig(
                class_id=s.class_id,
                arrival_rate=s.arrival_rate,
                # life-span can degenerate to 0 in bursty toy traces; keep
                # the shot profile well-defined with a tiny floor
                lifespan=s.mean_lifespan if stationary else max(s.mean_lifespan, 1e-9),
                shape_kind="stationary" if stationary else shape,
                volumes=s.volume_samples,
            )
        )
    return summaries, SnmConfig(horizon=horizon, classes=class_cfgs, seed=seed, daynight=False)


def _bin_edges(name: str, edges: Sequence[float]) -> np.ndarray:
    # density_map's rule for one axis: two or more strictly increasing edges
    edges = _reals(f"{name} bin edges", edges, sample=True)
    if len(edges) < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError(f"{name} bin edges must be strictly increasing, got {edges}")
    return edges


def density_map(
    stats: ContentStats,
    volume_threshold: int,
    lifespan_bins: Sequence[float],
    volume_bins: Sequence[float],
) -> np.ndarray:
    """2-D content histogram over (life-span, volume) bins: the int counts,
    one row per life-span bin and one column per volume bin.

    Only contents with volume >= threshold are counted; values outside
    the bin range are clamped into the edge bins so the grid total
    always equals the number of qualifying contents.
    """
    l_edges, v_edges = _bin_edges("lifespan", lifespan_bins), _bin_edges("volume", volume_bins)
    qualifying = stats.volume >= _require_int("volume_threshold", volume_threshold, lo=1)
    ls = np.clip(stats.lifespan[qualifying], l_edges[0], l_edges[-1])
    vs = np.clip(stats.volume[qualifying], v_edges[0], v_edges[-1])
    counts, _, _ = np.histogram2d(ls, vs, bins=[l_edges, v_edges])
    return counts.astype(int)

