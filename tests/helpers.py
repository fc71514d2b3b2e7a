"""Shared test fixtures: toy traces, reference configs, naive oracles."""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict

import numpy as np

from snmcache import generators
from snmcache.cachesim import LruResult
from snmcache.generators import SnmClassConfig
from snmcache.trace import RequestEvent, Trace, _require_int

# Reference per-class parameters (share of contents, mean life-span in
# days, mean request volume) mirroring a measured residential-ISP
# workload: a small population of short-lived bursty videos plus a large
# slowly-consumed catalogue.  Class 5 is treated as stationary.
REFERENCE_CLASS_ROWS = [
    (1, 0.0317, 1.14, 86.4),
    (2, 0.0490, 3.36, 41.9),
    (3, 0.0295, 6.40, 59.5),
    (4, 0.0445, 10.53, 36.9),
    (5, 0.8458, 24.61, 25.7),
]


def reference_classes(
    n_videos: float = 6682.0, horizon: float = 30.0, shape: str = "exponential"
) -> list[SnmClassConfig]:
    """Reference 5-class config scaled to ~2e5 requests at the default size."""
    return [
        SnmClassConfig(
            class_id=cid,
            arrival_rate=n_videos * pct_videos / horizon,
            lifespan=lifespan,
            shape_kind="stationary" if cid == 5 else shape,
            volumes=volume,
        )
        for cid, pct_videos, lifespan, volume in REFERENCE_CLASS_ROWS
    ]


def make_trace(ids, times=None, horizon=None) -> Trace:
    """Trace from a plain id sequence; timestamps default to 0, 1, 2, ..."""
    ids = [str(x) for x in ids]
    if times is None:
        times = [float(i) for i in range(len(ids))]
    events = [RequestEvent(float(t), cid) for t, cid in zip(times, ids)]
    return Trace.from_events(events, horizon)


def random_trace(rng: np.random.Generator, n_requests: int, n_ids: int, horizon: float = 10.0) -> Trace:
    ids = rng.integers(0, n_ids, n_requests)
    times = np.sort(rng.uniform(0.0, horizon, n_requests))
    events = [RequestEvent(float(t), f"id{x}") for t, x in zip(times, ids)]
    return Trace.from_events(events, horizon)


def lru_oracle(trace: Trace, capacity: int) -> LruResult:
    """Per-request oracle of ``simulate_lru``: a unit-size-object LRU cache.

    Every access (hit or miss) makes the content most recently used; a
    miss inserts it and evicts the least recently used content when the
    cache exceeds its capacity.
    """
    capacity = _require_int("capacity", capacity, lo=1)
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


def effective_lifespan(times) -> float:
    """Per-content oracle of ``content_stats``' life-span, from one content's sorted request times.

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


def naive_reuse_distances(ids) -> list[float]:
    """O(D) rescan oracle for reuse distances."""
    out: list[float] = []
    last: dict = {}
    for i, x in enumerate(ids):
        if x in last:
            out.append(len(set(ids[last[x] + 1 : i])) + 1)
        else:
            out.append(math.inf)
        last[x] = i
    return out


def fenwick_reuse_distances(codes) -> list[float]:
    """O(n log n) oracle for reuse distances: a Fenwick tree over request
    positions holds a 1 at each content's last request so far; a request's
    distance is 1 + the marks between its content's previous request and it."""
    n = len(codes)
    tree = [0] * (n + 1)  # 1-based: tree[j] sums the marks at positions (j - lowbit(j), j]
    last: dict = {}
    out: list[float] = []
    for i, x in enumerate(codes):
        p = last.get(x)
        if p is None:
            out.append(math.inf)
        else:
            hi, lo, marks = i, p + 1, 1  # the marks at 1-based positions (lo, hi], walked down to their meeting
            while hi != lo:
                if hi > lo:
                    marks += tree[hi]
                    hi &= hi - 1
                else:
                    marks -= tree[lo]
                    lo &= lo - 1
            out.append(float(marks))
            j = p + 1
            while j <= n:
                tree[j] -= 1
                j += j & -j
        j = i + 1
        while j <= n:
            tree[j] += 1
            j += j & -j
        last[x] = i
    return out


def class_requests(cfg: SnmClassConfig, horizon: float, seed: int, daynight: bool = False):
    """One shot-noise class drawn as the generator draws it, without its draw functions: its request
    times, unsorted, the serial of each one's content, and every content's birth by serial (0 for
    a stationary content).  One ``default_rng`` per (seed mod 2**64, births tag, class id) key
    draws, in this order: the births; then, for all the class's contents at once in id order
    ("c1_10" before "c1_2"), the volume indices (a volume sample only), the Poisson counts, the
    candidate uniforms and, under day/night, the thinning uniforms.  A candidate u of a content born
    at b is placed at the shape's quantile of u * F(horizon - b) plus b, at most the horizon (at
    u * horizon if stationary); under day/night it is kept if its thinning uniform is below f(t)/2."""
    rng = np.random.default_rng([seed % 2**64, generators._TAG_BIRTHS, cfg.class_id])
    births = np.sort(rng.uniform(0.0, horizon, rng.poisson(cfg.arrival_rate * horizon)))
    shape = generators._class_shape(cfg)
    if shape is None:
        births[:] = 0.0
    serials = np.array(sorted(range(births.size), key=str), dtype=np.int64)  # id order
    b = births[serials]
    masses = np.ones(b.size) if shape is None else shape.cdf(horizon - b)
    volumes = cfg.volumes
    if not isinstance(volumes, float):
        volumes = np.array(volumes)[rng.integers(0, len(volumes), b.size)]
    counts = rng.poisson((2.0 if daynight else 1.0) * volumes * masses)
    u = rng.random(counts.sum())
    owner = np.repeat(np.arange(b.size), counts)  # each candidate's content, by its place in id order
    if shape is None:
        t = u * horizon
    else:
        t = np.minimum(shape.quantile(u * masses[owner]) + b[owner], horizon)
    if daynight:
        keep = rng.random(t.size) < 0.5 * (1.0 + np.sin(2.0 * np.pi * t))
        t, owner = t[keep], owner[keep]
    return t, serials[owner], births


def heap_stream(classes, horizon: float, seed: int, daynight: bool = False):
    """Heap-merge oracle of ``SnmEventStream``: yields each event with the
    pending peak after it.  Each class is drawn by :func:`class_requests`;
    the contents come in (birth, class, serial) order, and pending events
    earlier than a birth are popped before that content's requests are
    pushed."""
    contents = []
    for cfg in classes:
        t, owner, births = class_requests(cfg, horizon, seed, daynight)
        contents += [(birth, cfg.class_id, serial, t[owner == serial])
                     for serial, birth in enumerate(births.tolist())]
    heap, peak = [], 0
    for birth, class_id, serial, times in sorted(contents, key=lambda c: c[:3]):
        while heap and heap[0].timestamp < birth:
            yield heapq.heappop(heap), peak
        for t in times.tolist():
            heapq.heappush(heap, RequestEvent(t, f"c{class_id}_{serial}"))
        peak = max(peak, len(heap))
    while heap:
        yield heapq.heappop(heap), peak
