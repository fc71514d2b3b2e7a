"""Trace-driven LRU cache evaluation.

The module computes per-request reuse distances (the number of distinct
contents referenced since the previous request for the same content,
counting the content itself).  A request is an LRU hit at capacity C iff
its distance is <= C, so one distance pass yields the exact hit
probability at every capacity at once, and the eviction statistics too
(:func:`lru_results`).  The distance kernel (Mattson et al. 1970;
Almasi, Cascaval & Padua 2002) counts, for each request, the earlier
requests whose previous reference is older than its own, as a sum of
rank differences over aligned power-of-two blocks: one in-place numpy
sort of packed keys per bit level, O(n log^2 n) with no Python loop per
request.  The levels up to 2^16 sort 32-bit keys within rows of 2^16
requests, the previous references come from one sort of packed
(content, position) keys, and the scratch memory is about 40 bytes a
request.  :func:`simulate_lru`, a direct per-request LRU cache, is the
reference simulator the distance results are tested against.
The module only computes: the CLI writes its results to files.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .trace import Trace, _by_content

__all__ = [
    "LruResult",
    "simulate_lru",
    "reuse_distances",
    "lru_results",
    "hit_curve",
    "size_for_hit_prob",
]

_ROW_BITS = 16  # the low levels' rows of 2^16 requests, the widest whose keys fit in a uint32


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
    """Run a unit-size-object LRU cache over the trace.

    Every access (hit or miss) makes the content most recently used; a
    miss inserts it and evicts the least recently used content when the
    cache exceeds its capacity.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    cache: OrderedDict[int, None] = OrderedDict()
    last_access: dict[int, float] = {}
    hits = 0
    evictions = 0
    eviction_gap_total = 0.0
    for ts, cid in zip(trace.times.tolist(), trace.codes.tolist()):
        if cid in cache:
            hits += 1
            cache.move_to_end(cid)
        else:
            cache[cid] = None
            if len(cache) > capacity:
                victim, _ = cache.popitem(last=False)
                evictions += 1
                eviction_gap_total += ts - last_access[victim]
        last_access[cid] = ts
    return LruResult(
        capacity=capacity,
        requests=len(trace),
        hits=hits,
        evictions=evictions,
        mean_eviction_time=eviction_gap_total / evictions if evictions else math.nan,
    )


def _stack_distances(prev: np.ndarray) -> np.ndarray:
    # For p = prev[i] >= 0, d_i = (i - p) - #{k < i : prev[k] > p}, which
    # is #{k < i : prev[k] < p} - p.  [0, i) is the left siblings of i's
    # aligned 2^b blocks, b a set bit of i; with rank_c(i) the requests in
    # i's 2^c block with prev below p, such a sibling holds rank_{b+1}(i)
    # - rank_b(i).  Level c sorts keys in place; a block fills its own
    # positions, so the low c bits of key and position give request and
    # rank.  Levels c <= e sort the uint32 keys (block << e | r) << c |
    # (offset & mask) of each row of 2^e requests, r the rank in the row
    # (one sort of ((prev + 1) << e) | offset; the padding ranks last).
    # Levels c > e sort (block start << s) | ((prev + 1) << c) | (k & mask)
    # over the trace: 2s bits; ranks are int32, hence n < 2^31.  O(n log^2 n).
    n = prev.shape[0]
    if n >= 1 << 31:
        raise ValueError(f"at most 2**31 - 1 requests, got {n}")
    s, e = n.bit_length(), min(_ROW_BITS, max(n - 1, 0).bit_length())
    w, size = 1 << e, -(-n >> e) << e  # row width, padded length
    off, starts = np.arange(w, dtype=np.uint32), np.arange(0, size, w, dtype=np.uint32)[:, None]
    key, r = np.full(size, n << e, np.int64), np.empty(size, np.int32)  # padding ranks last: real prev + 1 < n
    np.left_shift(prev + 1, e, out=key[:n])
    rows = key.reshape(-1, w)
    rows |= off
    rows.sort(axis=1)
    r[np.add(rows & (w - 1), starts, out=rows)] = off
    keys = key.view(np.uint32)[:size].reshape(-1, w)  # the row sort is done with the buffer
    low, high, below = np.zeros(size, np.int32), np.empty(size, np.int32), np.zeros(size, np.int32)
    for c in range(1, e + 1):
        mask, h = (1 << c) - 1, 1 << (c - 1)
        np.left_shift(r.view(np.uint32).reshape(-1, w), c, out=keys)
        keys |= (off >> c << c << e) | (off & mask)
        keys.sort(axis=1)
        keys &= mask
        keys |= off >> c << c
        high[np.add(keys, starts, out=keys)] = off & mask
        # below += high - low where bit c - 1 of i is set: the second halves of the (whole) 2^c blocks
        below.reshape(-1, 2, h)[:, 1] += high.reshape(-1, 2, h)[:, 1] - low.reshape(-1, 2, h)[:, 1]
        low, high = high, low
    key, low, high, below = key[:n], r[:n], low[:n], below[:n]  # low holds rank_e, which is r
    k, tail = np.arange(n, dtype=np.int64), np.empty(n, np.int64)
    for c in range(e + 1, s + 1):
        mask, h, m = (1 << c) - 1, 1 << (c - 1), n >> c << c  # m: the end of the whole 2^c blocks
        np.left_shift(prev, c, out=key)
        key += 1 << c
        key |= np.bitwise_and(k, mask, out=tail)
        key |= np.left_shift(np.bitwise_and(k, ~mask, out=tail), s, out=tail)
        key.sort()
        key &= mask
        key |= np.bitwise_and(k, ~mask, out=tail)
        high[key] = np.bitwise_and(k, mask, out=tail)
        right, hi, lo = (a[:m].reshape(-1, 2, h)[:, 1] for a in (below, high, low))
        right += hi - lo
        below[m + h:] += high[m + h:] - low[m + h:]  # and the last, partial block from m + h on
        low, high = high, low
    out = np.subtract(below, prev, out=key.view(np.float64))  # the keys are done with
    out[prev < 0] = np.inf
    return out


def _previous(codes: np.ndarray) -> np.ndarray:
    # index of the previous request for the same content, -1 if none
    order, grouped = _by_content(codes)
    prev = np.full(codes.size, -1, dtype=np.int64)
    same = grouped[1:] == grouped[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def reuse_distances(trace: Trace) -> np.ndarray:
    """Reuse (stack) distance of every request, in request order.

    First references get infinity.  A request is an LRU hit at capacity
    C iff its distance is <= C.
    """
    return _stack_distances(_previous(trace.codes))


def lru_results(trace: Trace, distances: np.ndarray, capacities: Sequence[int]) -> list[LruResult]:
    """:func:`simulate_lru`'s result at each capacity, from the trace's reuse distances.

    Request i's content is evicted at capacity C iff keep[i] > C (its next request's distance, or
    1 + the contents last requested after it); LRU evicts those i in order, at misses C+1, C+2, ..."""
    if len(distances) != len(trace):
        raise ValueError(f"distances must be one per request: {len(distances)} for {len(trace)} requests")
    prev = _previous(trace.codes)
    keep = np.full(len(trace), np.nan)
    keep[prev[prev >= 0]] = distances[prev >= 0]
    keep[np.isnan(keep)] = np.arange(np.count_nonzero(np.isnan(keep)), 0, -1)
    results = []
    for c in capacities:
        if c < 1:
            raise ValueError(f"capacity must be >= 1, got {c}")
        victims, evictors = np.flatnonzero(keep > c), np.flatnonzero(distances > c)[c:]
        gaps = np.cumsum(trace.times[evictors] - trace.times[victims])  # in order, as simulate_lru sums
        mean_gap = (0.0 + float(gaps[-1])) / gaps.size if gaps.size else math.nan  # from 0.0 too
        results.append(LruResult(c, len(trace), int(np.count_nonzero(distances <= c)), gaps.size, mean_gap))
    return results


def _finite_sorted(distances: Iterable[float]) -> tuple[np.ndarray, int]:
    # the finite distances in increasing order, and the request count
    d = np.asarray(list(distances) if not isinstance(distances, np.ndarray) else distances, float)
    if d.size == 0:
        raise ValueError("no requests")
    return np.sort(d[np.isfinite(d)]), d.size


def hit_curve(distances: Iterable[float], capacities: Sequence[int]) -> list[tuple[int, float]]:
    """Hit probability at each capacity from precomputed reuse distances."""
    finite, total = _finite_sorted(distances)
    caps = [int(c) for c in capacities]
    if any(c < 1 for c in caps):
        raise ValueError(f"capacities must be positive, got {caps}")
    if any(a > b for a, b in zip(caps, caps[1:])):
        raise ValueError("capacities must be sorted")
    counts = np.searchsorted(finite, caps, side="right")
    return [(c, int(k) / total) for c, k in zip(caps, counts)]


def size_for_hit_prob(distances: Iterable[float], target: float) -> int | None:
    """Minimal LRU capacity reaching the target hit probability.

    Returns None when the target exceeds the compulsory-miss ceiling
    (unattainable even with a cache holding every distinct content).
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target!r}")
    finite, total = _finite_sorted(distances)
    # smallest hit count k with k/total >= target, under float comparison
    k = math.ceil(target * total)
    while k > 1 and (k - 1) / total >= target:
        k -= 1
    while k / total < target:
        k += 1
    if k > finite.size:
        return None
    return int(finite[k - 1])

