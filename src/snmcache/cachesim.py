"""Trace-driven LRU cache evaluation.

Besides a direct LRU simulation, the module computes per-request reuse
distances (the number of distinct contents referenced since the previous
request for the same content, counting the content itself).  A request
is an LRU hit at capacity C iff its distance is <= C, so one distance
pass yields the exact hit probability at every capacity at once.  The
distance kernel is an offline dominance count in numpy (Mattson et al.
1970; Almasi, Cascaval & Padua 2002), O(n log^2 n) with no Python loop
per request.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .trace import Trace

__all__ = [
    "LruResult",
    "simulate_lru",
    "reuse_distances",
    "hit_curve",
    "size_for_hit_prob",
    "compare_required_sizes",
    "write_hit_curve_csv",
    "write_required_sizes_csv",
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
    # With p = prev[i] >= 0, the requests strictly between p and i that
    # repeat a content already seen in that gap are exactly the k < i
    # with prev[k] > p, so d_i = (i - p) - #{k < i : prev[k] > p}.  The
    # count is a 2-D dominance query answered offline: [0, i) splits into
    # aligned power-of-two blocks, one per set bit of i.  At bit level b
    # the points k are sorted by (block k >> b, prev[k]); all points of
    # earlier blocks plus those of block j with prev <= p sort below the
    # key (j, p + 1), so one searchsorted gives the in-block count.
    n = prev.shape[0]
    out = np.full(n, np.inf)
    i = np.flatnonzero(prev >= 0)
    p = prev[i]
    k = np.arange(n, dtype=np.int64)
    later = np.zeros(i.size, np.int64)
    for b in range(n.bit_length()):
        sel = ((i >> b) & 1).astype(bool)
        keys = np.sort((k >> b) * (n + 1) + prev + 1)
        block = (i[sel] >> b) - 1
        below = np.searchsorted(keys, block * (n + 1) + p[sel] + 2)
        later[sel] += ((block + 1) << b) - below
    out[i] = (i - p) - later
    return out


def reuse_distances(trace: Trace) -> np.ndarray:
    """Reuse (stack) distance of every request, in request order.

    First references get infinity.  A request is an LRU hit at capacity
    C iff its distance is <= C.
    """
    n = len(trace)
    order = np.argsort(trace.codes, kind="stable")
    sorted_codes = trace.codes[order]
    prev = np.full(n, -1, dtype=np.int64)
    same = sorted_codes[1:] == sorted_codes[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return _stack_distances(prev)


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


def compare_required_sizes(
    traces: Sequence[tuple[str, Trace]],
    targets: Sequence[float],
) -> list[tuple[str, float, int | None]]:
    """Required cache size per (trace, target hit probability) pair."""
    rows: list[tuple[str, float, int | None]] = []
    for label, trace in traces:
        if not len(trace):
            raise ValueError(f"trace {label!r} is empty")
        d = reuse_distances(trace)
        rows.extend((label, t, size_for_hit_prob(d, t)) for t in targets)
    return rows


def write_hit_curve_csv(curve: Sequence[tuple[int, float]], stream: IO[str]) -> None:
    stream.write("capacity,hit_prob\n")
    for capacity, prob in curve:
        stream.write(f"{capacity},{prob!r}\n")


def write_required_sizes_csv(
    rows: Sequence[tuple[str, float, int | None]], stream: IO[str]
) -> None:
    stream.write("trace_label,target,required_size\n")
    for label, target, size in rows:
        cell = "unattainable" if size is None else str(size)
        stream.write(f"{label},{target!r},{cell}\n")
