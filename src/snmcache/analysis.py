"""Per-content statistics and trace characterization.

Covers the measurement side of the toolkit: request volumes and
effective life-spans per content, rank/frequency distributions over
trace slices, power-law tail fitting, the volume/life-span density map,
and the 6-class content partition.  :func:`content_stats` measures a
trace once into a per-content table; classification, class summaries,
the density map and :func:`fit_snm`, which turns the table into the
shot-noise generator's config, all read that table.  The module only
computes, and returns plain values (rank rows, a count matrix) that the
CLI writes to files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .generators import SnmClassConfig, SnmConfig
from .trace import Trace

__all__ = [
    "ContentStats",
    "RankRow",
    "ClassSummary",
    "DEFAULT_VOLUME_THRESHOLD",
    "DEFAULT_LIFESPAN_BOUNDS",
    "slice_bounds",
    "content_stats",
    "effective_lifespan",
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


@dataclass
class ClassSummary:
    """Aggregate statistics of one content class."""

    class_id: int
    lifespan_bounds: tuple[float, float]  # (lmin, lmax] in days
    pct_requests: float
    pct_videos: float
    mean_lifespan: float  # NaN when the class is empty
    mean_volume: float  # NaN when the class is empty
    arrival_rate: float  # contents per day
    volume_samples: list[int] = field(default_factory=list)


def slice_bounds(total: int, K: int) -> list[tuple[int, int]]:
    """Split ``total`` sequence positions into K near-equal runs.

    Slice i covers indices [floor(i*total/K), floor((i+1)*total/K)), so
    slice sizes differ by at most one request.
    """
    if K <= 0 or K > total:
        raise ValueError(f"K must be in [1, {total}], got {K}")
    return [((i * total) // K, ((i + 1) * total) // K) for i in range(K)]


def effective_lifespan(times: Sequence[float]) -> float:
    """Life-span of one content from its sorted request times.

    Elapsed time between the ceil(0.1*V)-th and ceil(0.9*V)-th requests
    (1-based).  The ceilings are computed in integer arithmetic so e.g.
    V=30 maps to indices (3, 27) without float rounding surprises.
    """
    v = len(times)
    if v == 0:
        raise ValueError("times must be non-empty")
    i_lo = (v + 9) // 10  # ceil(0.1 * v)
    i_hi = (9 * v + 9) // 10  # ceil(0.9 * v)
    return times[i_hi - 1] - times[i_lo - 1]


def content_stats(trace: Trace) -> ContentStats:
    """Measure volume, effective life-span and first/last request per content."""
    times = trace.times[np.argsort(trace.codes, kind="stable")]
    volume = np.bincount(trace.codes, minlength=len(trace.ids))
    start = np.cumsum(volume) - volume
    lo = start + (volume + 9) // 10 - 1  # as in effective_lifespan
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
    if top_ranks <= 0:
        raise ValueError(f"top_ranks must be positive, got {top_ranks}")
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
        if f <= 0:
            raise ValueError(f"non-positive frequency {f!r} at rank {r}")
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
    bounds = list(lifespan_bounds)
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"lifespan bounds must be finite, got {bounds}")
    if any(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError(f"lifespan bounds must be strictly increasing, got {bounds}")
    classes = np.searchsorted(np.asarray(bounds, dtype=float), stats.lifespan) + 1
    classes[stats.volume < volume_threshold] = 0
    return classes


def class_summary(
    stats: ContentStats,
    classes: np.ndarray,
    lifespan_bounds: Sequence[float],
    horizon: float,
) -> list[ClassSummary]:
    """Aggregate request/content shares and means per class of a content table.

    ``classes`` is a class column of :func:`classify_contents`, one class
    per row of ``stats``.  The per-class arrival rate is the content
    count divided by the trace horizon, which must be positive, and
    ``volume_samples`` collects the class's empirical volume multiset
    for later resampling.
    """
    classes = np.asarray(classes)
    if classes.shape != (len(stats.ids),):
        raise ValueError(f"need one class per content: {len(stats.ids)} contents, got shape {classes.shape}")
    n_classes = len(lifespan_bounds) + 2
    bad = (classes < 0) | (classes >= n_classes)
    if bad.any():
        k = classes[bad.argmax()]
        raise ValueError(f"class id {k} out of range for {len(lifespan_bounds)} bounds")
    if not horizon > 0:
        raise ValueError(f"trace horizon must be positive to give arrival rates, got {horizon!r}")

    edges = (0.0, *lifespan_bounds, math.inf)
    total_requests = int(stats.volume.sum())
    total_videos = len(stats.ids)
    out = []
    for k in range(n_classes):
        members = classes == k
        volumes = stats.volume[members].tolist()
        lifespans = np.cumsum(stats.lifespan[members])  # summed in content order
        n_videos = len(volumes)
        n_requests = sum(volumes)
        out.append(
            ClassSummary(
                class_id=k,
                # class 0 is volume-defined and spans all life-spans
                lifespan_bounds=(0.0, math.inf) if k == 0 else edges[k - 1:k + 1],
                pct_requests=100.0 * n_requests / total_requests if total_requests else 0.0,
                pct_videos=100.0 * n_videos / total_videos if total_videos else 0.0,
                mean_lifespan=lifespans[-1].item() / n_videos if n_videos else math.nan,
                mean_volume=n_requests / n_videos if n_videos else math.nan,
                arrival_rate=n_videos / horizon,
                volume_samples=sorted(volumes),
            )
        )
    return out


def fit_snm(stats: ContentStats, horizon: float, volume_threshold: int, lifespan_bounds: Sequence[float],
            shape: str, seed: int | None = None) -> tuple[list[ClassSummary], SnmConfig]:
    """Class summaries of a content table and the shot-noise config fitted to them: class 0
    and the last class are stationary, the others get ``shape``; empty classes are left out."""
    classes = classify_contents(stats, volume_threshold, lifespan_bounds)
    summaries = class_summary(stats, classes, lifespan_bounds, horizon)
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
                volumes=tuple(float(v) for v in s.volume_samples),
            )
        )
    return summaries, SnmConfig(horizon=horizon, classes=class_cfgs, seed=seed, daynight=False)


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
    l_edges = np.asarray(lifespan_bins, dtype=float)
    v_edges = np.asarray(volume_bins, dtype=float)
    for name, edges in (("lifespan", l_edges), ("volume", v_edges)):
        if edges.ndim != 1 or len(edges) < 2 or not np.all(np.diff(edges) > 0):
            raise ValueError(f"{name} bin edges must be strictly increasing, got {edges}")
    qualifying = stats.volume >= volume_threshold
    ls = np.clip(stats.lifespan[qualifying], l_edges[0], l_edges[-1])
    vs = np.clip(stats.volume[qualifying], v_edges[0], v_edges[-1])
    counts, _, _ = np.histogram2d(ls, vs, bins=[l_edges, v_edges])
    return counts.astype(int)

