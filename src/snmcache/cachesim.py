"""Trace-driven LRU cache evaluation.

The module computes per-request reuse distances (the number of distinct
contents referenced since the previous request for the same content,
counting the content itself).  A request is an LRU hit at capacity C iff
its distance is <= C, so one distance pass yields the exact hit
probability at every capacity at once, and the eviction statistics too
(:func:`lru_results`).  The distance kernel (Mattson et al. 1970;
Bennett & Kruskal 1975) counts, for each request, the earlier requests
whose previous reference is older than its own, over aligned
power-of-two blocks: one numpy sort of packed (previous reference,
position) keys, then one linear pass per bit level that splits every
block stably into its halves, O(n log n) with no Python loop per
request.  The previous references come from one sort of packed
(content, position) keys, and the scratch memory is about 33 bytes a
request, the result included.  :func:`simulate_lru` is the same
evaluation at one capacity: the module has no per-request cache loop.
The module only computes: the CLI writes its results to files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .trace import Trace, _by_content, _require, _require_int

__all__ = [
    "LruResult",
    "simulate_lru",
    "reuse_distances",
    "lru_results",
    "hit_curve",
    "size_for_hit_prob",
]


@dataclass(frozen=True)
class LruResult:
    """Outcome of one LRU simulation.

    ``mean_eviction_time`` is the mean, over eviction events, of the
    evicting request's timestamp minus the victim's last-access
    timestamp (NaN when nothing was evicted).
    """

    capacity: int
    requests: int
    hits: int
    evictions: int
    mean_eviction_time: float  # days

    @property
    def hit_prob(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


def simulate_lru(trace: Trace, capacity: int) -> LruResult:
    """Run a unit-size-object LRU cache over the trace: :func:`lru_results` at one capacity.

    Every access (hit or miss) makes the content most recently used; a
    miss inserts it and evicts the least recently used content when the
    cache exceeds its capacity.
    """
    return lru_results(trace, reuse_distances(trace), [capacity])[0]


def _stack_distances(prev: np.ndarray) -> np.ndarray:
    # For p = prev[i] >= 0, d_i = (i - p) - #{k < i : prev[k] > p}, which
    # is below_i - p with below_i = #{k < i : prev[k] < p}.  Each k < i is
    # in the left half of the one aligned 2^c block whose right half holds
    # i.  One sort of ((prev + 1) << 32) | k lists the requests by prev;
    # level c = s..1 splits each 2^c block stably by bit c - 1 of k, so
    # every block keeps its requests in prev order and fills its own
    # positions (the last, partial one too).  A right-half request at
    # position j of its block, the t-th of its half, has j - t left-half
    # requests before it: that adds to the high word.  After level 1,
    # x[k] = below_k << 32 | k.  (prev + 1) << 32 fits an int64, hence
    # n < 2^31.  O(n log n): one sort, s linear passes.
    n = prev.shape[0]
    if n >= 1 << 31:
        raise ValueError(f"at most 2**31 - 1 requests, got {n}")
    x = np.left_shift(prev + 1, 32)
    x |= np.arange(n)
    x.sort()
    x &= 0xFFFFFFFF
    for c in range(max(n - 1, 0).bit_length(), 0, -1):
        h, m = 1 << (c - 1), n >> c << c  # m: the end of the whole 2^c blocks
        bit = np.bitwise_and(x, h).astype(bool)
        pos = np.flatnonzero(bit)
        right = x[pos]
        i = np.arange(pos.size)
        pos -= i
        pos -= np.bitwise_and(i, -h, out=i)
        right += np.left_shift(pos, 32, out=pos)
        del pos, i
        left = x[np.flatnonzero(np.logical_not(bit, out=bit))]
        del bit
        halves, w = x[:m].reshape(-1, 2, h), m >> 1
        halves[:, 0] = left[:w].reshape(-1, h)
        halves[:, 1] = right[:w].reshape(-1, h)
        x[m : m + left.size - w] = left[w:]
        x[m + h :] = right[w:]
        del left, right
    x >>= 32
    out = np.subtract(x, prev, out=x.view(np.float64))
    out[prev < 0] = np.inf
    return out


def _previous(codes: np.ndarray) -> np.ndarray:
    # index of the previous request for the same content, -1 if none
    order, grouped = _by_content(codes)
    prev = np.full(codes.size, -1, dtype=np.int64)
    prev[order[1:]] = np.where(grouped[1:] == grouped[:-1], order[:-1], -1)
    return prev


def reuse_distances(trace: Trace) -> np.ndarray:
    """Reuse (stack) distance of every request, in request order.

    First references get infinity.  A request is an LRU hit at capacity
    C iff its distance is <= C.
    """
    return _stack_distances(_previous(trace.codes))


def lru_results(trace: Trace, distances: np.ndarray, capacities: Sequence[int]) -> list[LruResult]:
    """The LRU cache's result at each capacity, from the trace's reuse distances.

    Request i's content is evicted at capacity C iff keep[i] > C (its next request's distance, or
    1 + the contents last requested after it); LRU evicts those i in order, at misses C+1, C+2, ..."""
    finite, total = _finite_sorted(distances)
    if total != len(trace):
        raise ValueError(f"distances must be one per request: {total} for {len(trace)} requests")
    capacities = [_require_int("capacity", c, lo=1) for c in capacities]
    distances = np.asarray(distances)
    prev = _previous(trace.codes)
    keep = np.full(len(trace), np.nan)
    keep[prev[prev >= 0]] = distances[prev >= 0]
    keep[np.isnan(keep)] = np.arange(np.count_nonzero(np.isnan(keep)), 0, -1)
    results = []
    for c, hits in zip(capacities, np.searchsorted(finite, capacities, side="right").tolist()):
        victims, evictors = np.flatnonzero(keep > c), np.flatnonzero(distances > c)[c:]
        gaps = np.cumsum(trace.times[evictors] - trace.times[victims])  # summed in eviction order
        mean_gap = (0.0 + float(gaps[-1])) / gaps.size if gaps.size else math.nan  # a sum from 0.0: never -0.0
        results.append(LruResult(c, len(trace), hits, gaps.size, mean_gap))
    return results


def _finite_sorted(distances: Iterable[float]) -> tuple[np.ndarray, int]:
    # the finite distances in increasing order, and the request count
    try:
        d = np.asarray(list(distances) if not isinstance(distances, np.ndarray) else distances)
    except ValueError:  # a ragged nested sequence
        d = None
    if d is None or d.ndim != 1 or d.dtype.kind not in "iuf" or not (d >= 1).all():
        raise ValueError("distances must be a 1-D column of integers or floats >= 1 (inf for a first reference)")
    return np.sort(d[np.isfinite(d)]), d.size


def hit_curve(distances: Iterable[float], capacities: Sequence[int]) -> list[tuple[int, float]]:
    """Hit probability at each capacity from precomputed reuse distances."""
    finite, total = _finite_sorted(distances)
    if not total:
        raise ValueError("no requests")
    caps = [_require_int("capacity", c, lo=1) for c in capacities]
    if any(a > b for a, b in zip(caps, caps[1:])):
        raise ValueError("capacities must be sorted")
    counts = np.searchsorted(finite, caps, side="right")
    return [(c, int(k) / total) for c, k in zip(caps, counts)]


def size_for_hit_prob(distances: Iterable[float], target: float) -> int | None:
    """Minimal LRU capacity reaching the target hit probability.

    Returns None when the target exceeds the compulsory-miss ceiling
    (unattainable even with a cache holding every distinct content).
    """
    from bisect import bisect_left  # already in sys.modules after import snmcache

    target = _require("target", target)  # a real number > 0
    if not target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target!r}")
    finite, total = _finite_sorted(distances)
    if not total:
        raise ValueError("no requests")
    k = bisect_left(range(1, total + 1), target, key=lambda j: j / total) + 1  # the least k with k/total >= target
    if k > finite.size:
        return None
    return int(finite[k - 1])

