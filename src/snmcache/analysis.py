"""Per-content statistics and trace characterization.

Covers the measurement side of the toolkit: request volumes and
effective life-spans per content, rank/frequency distributions over
trace slices, power-law tail fitting, the volume/life-span density map,
and the 6-class content partition used to parameterize the synthetic
generator.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import IO, Mapping, NamedTuple, Sequence

import numpy as np

from .trace import Trace

__all__ = [
    "ContentStats",
    "RankRow",
    "RankDistribution",
    "ClassSummary",
    "DensityMap",
    "DEFAULT_VOLUME_THRESHOLD",
    "DEFAULT_LIFESPAN_BOUNDS",
    "slice_bounds",
    "content_stats",
    "effective_lifespan",
    "sliced_popularity",
    "fit_zipf",
    "classify_contents",
    "class_summary",
    "density_map",
    "write_class_summary_csv",
    "write_rank_csv",
    "write_density_csv",
]

# Defaults for the content partition: contents below the volume
# threshold form class 0; the remaining classes are life-span intervals
# with upper-inclusive boundaries (days).
DEFAULT_VOLUME_THRESHOLD = 10
DEFAULT_LIFESPAN_BOUNDS = (2.0, 5.0, 8.0, 13.0)


class ContentStats(NamedTuple):
    content_id: str
    volume: int  # number of requests observed in the trace
    lifespan: float  # effective life-span, days
    first_request: float
    last_request: float


class RankRow(NamedTuple):
    rank: int
    mean: float
    p5: float
    p95: float


@dataclass
class RankDistribution:
    """Per-rank relative request frequency across K trace slices."""

    K: int
    rows: list[RankRow]


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


@dataclass
class DensityMap:
    """2-D histogram of contents over (life-span, volume) bins."""

    lifespan_bins: np.ndarray
    volume_bins: np.ndarray
    counts: np.ndarray  # shape (len(lifespan_bins)-1, len(volume_bins)-1)


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


def _content_columns(trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # volume, effective life-span, first and last request time, per code
    times = trace.times[np.argsort(trace.codes, kind="stable")]
    volume = np.bincount(trace.codes, minlength=len(trace.ids))
    start = np.cumsum(volume) - volume
    lo = start + (volume + 9) // 10 - 1  # as in effective_lifespan
    hi = start + (9 * volume + 9) // 10 - 1
    return volume, times[hi] - times[lo], times[start], times[start + volume - 1]


def content_stats(trace: Trace) -> dict[str, ContentStats]:
    """Measure volume, effective life-span and first/last request per content."""
    columns = (c.tolist() for c in _content_columns(trace))
    return dict(zip(trace.ids, map(ContentStats, trace.ids, *columns)))


def _nearest_rank(sorted_vals: Sequence[float], pct: int) -> float:
    # nearest-rank percentile: value at index ceil(pct/100 * n), 1-based
    n = len(sorted_vals)
    idx = (pct * n + 99) // 100
    return sorted_vals[max(idx, 1) - 1]


def sliced_popularity(trace: Trace, K: int, top_ranks: int) -> RankDistribution:
    """Rank/frequency distribution averaged over K equal-count slices.

    The request sequence is cut into K consecutive runs of (as close as
    possible) equal size.  Within each slice contents are ranked by
    slice-local frequency (ties broken by content id) and frequencies
    are normalized to the slice total.  For each rank up to
    ``top_ranks`` the mean and nearest-rank 5/95 percentiles across
    slices are reported; a slice with fewer distinct contents than the
    rank contributes frequency 0.
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
    freqs = np.zeros((top_ranks, K))
    freqs[rank[top], slices[top]] = counts[top] / sizes[slices[top]]
    freqs.sort(axis=1)
    rows = [
        RankRow(rank=r, mean=sum(f) / K, p5=_nearest_rank(f, 5), p95=_nearest_rank(f, 95))
        for r, f in enumerate(freqs.tolist(), start=1)
    ]
    return RankDistribution(K=K, rows=rows)


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
    stats: Mapping[str, ContentStats],
    volume_threshold: int = DEFAULT_VOLUME_THRESHOLD,
    lifespan_bounds: Sequence[float] = DEFAULT_LIFESPAN_BOUNDS,
) -> dict[str, int]:
    """Partition contents into classes 0..len(bounds)+1.

    Contents below the volume threshold fall into class 0 regardless of
    life-span.  The rest are classed by life-span interval with
    upper-inclusive boundaries: l <= b1 -> 1, b1 < l <= b2 -> 2, ...,
    l > b_last -> last class.
    """
    bounds = list(lifespan_bounds)
    if any(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError(f"lifespan bounds must be strictly increasing, got {bounds}")
    out: dict[str, int] = {}
    for cid, st in stats.items():
        if st.volume < volume_threshold:
            out[cid] = 0
        else:
            out[cid] = bisect_left(bounds, st.lifespan) + 1
    return out


def _class_bounds(class_id: int, bounds: Sequence[float]) -> tuple[float, float]:
    if class_id == 0:
        return (0.0, math.inf)  # volume-defined class, spans all life-spans
    if class_id == 1:
        return (0.0, bounds[0])
    if class_id == len(bounds) + 1:
        return (bounds[-1], math.inf)
    return (bounds[class_id - 2], bounds[class_id - 1])


def class_summary(
    trace: Trace,
    classes: Mapping[str, int],
    lifespan_bounds: Sequence[float] = DEFAULT_LIFESPAN_BOUNDS,
) -> list[ClassSummary]:
    """Aggregate request/content shares and means per class.

    ``classes`` must cover every content appearing in the trace.  The
    per-class arrival rate is the content count divided by the trace
    horizon, and ``volume_samples`` collects the class's empirical
    volume multiset for later resampling.
    """
    missing = next((cid for cid in trace.ids if cid not in classes), None)
    if missing is not None:
        raise ValueError(f"content {missing!r} missing from classes")
    n_classes = len(lifespan_bounds) + 2
    member_of = np.array([classes[cid] for cid in trace.ids], np.int64)
    bad = (member_of < 0) | (member_of >= n_classes)
    if bad.any():
        k = member_of[bad.argmax()]
        raise ValueError(f"class id {k} out of range for {len(lifespan_bounds)} bounds")

    volume, lifespan, _, _ = _content_columns(trace)
    total_requests = len(trace)
    total_videos = len(trace.ids)
    out = []
    for k in range(n_classes):
        members = member_of == k
        volumes = volume[members].tolist()
        n_videos = len(volumes)
        n_requests = sum(volumes)
        out.append(
            ClassSummary(
                class_id=k,
                lifespan_bounds=_class_bounds(k, lifespan_bounds),
                pct_requests=100.0 * n_requests / total_requests if total_requests else 0.0,
                pct_videos=100.0 * n_videos / total_videos if total_videos else 0.0,
                mean_lifespan=sum(lifespan[members].tolist()) / n_videos if n_videos else math.nan,
                mean_volume=n_requests / n_videos if n_videos else math.nan,
                arrival_rate=n_videos / trace.horizon if trace.horizon > 0 else math.nan,
                volume_samples=sorted(volumes),
            )
        )
    return out


def density_map(
    stats: Mapping[str, ContentStats],
    volume_threshold: int,
    lifespan_bins: Sequence[float],
    volume_bins: Sequence[float],
) -> DensityMap:
    """2-D content histogram over (life-span, volume) bins.

    Only contents with volume >= threshold are counted; values outside
    the bin range are clamped into the edge bins so the grid total
    always equals the number of qualifying contents.
    """
    l_edges = np.asarray(lifespan_bins, dtype=float)
    v_edges = np.asarray(volume_bins, dtype=float)
    for name, edges in (("lifespan", l_edges), ("volume", v_edges)):
        if edges.ndim != 1 or len(edges) < 2 or not np.all(np.diff(edges) > 0):
            raise ValueError(f"{name} bin edges must be strictly increasing, got {edges}")
    qualifying = [st for st in stats.values() if st.volume >= volume_threshold]
    ls = np.clip([st.lifespan for st in qualifying], l_edges[0], l_edges[-1])
    vs = np.clip([st.volume for st in qualifying], v_edges[0], v_edges[-1])
    counts, _, _ = np.histogram2d(ls, vs, bins=[l_edges, v_edges])
    return DensityMap(lifespan_bins=l_edges, volume_bins=v_edges, counts=counts.astype(int))


def write_class_summary_csv(summaries: Sequence[ClassSummary], stream: IO[str]) -> None:
    stream.write("class,lmin_days,lmax_days,pct_reqs,pct_videos,mean_lifespan,mean_volume,arrival_rate\n")
    for s in summaries:
        lmin, lmax = s.lifespan_bounds
        stream.write(
            f"{s.class_id},{lmin!r},{lmax!r},{s.pct_requests!r},{s.pct_videos!r},"
            f"{s.mean_lifespan!r},{s.mean_volume!r},{s.arrival_rate!r}\n"
        )


def write_rank_csv(dist: RankDistribution, stream: IO[str]) -> None:
    stream.write("rank,mean,p5,p95\n")
    for row in dist.rows:
        stream.write(f"{row.rank},{row.mean!r},{row.p5!r},{row.p95!r}\n")


def write_density_csv(dm: DensityMap, stream: IO[str]) -> None:
    stream.write("l_bin_lo,l_bin_hi,v_bin_lo,v_bin_hi,count\n")
    for i in range(dm.counts.shape[0]):
        for j in range(dm.counts.shape[1]):
            stream.write(
                f"{dm.lifespan_bins[i]!r},{dm.lifespan_bins[i + 1]!r},"
                f"{dm.volume_bins[j]!r},{dm.volume_bins[j + 1]!r},{int(dm.counts[i, j])}\n"
            )
