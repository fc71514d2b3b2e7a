"""Checks of snmcache's outputs, made apart from the program.

Each check raises CheckError when an output is wrong.  No check compares
with a stored copy of an earlier output: each one recomputes the answer
by its own method (an LRU stack, a per-content table, a slice-by-slice
count) or tests a property the method must have.
"""

from __future__ import annotations

import bisect
import math
from pathlib import Path

import numpy as np

LIFESPAN_BOUNDS = (2.0, 5.0, 8.0, 13.0)  # the program's default class partition
VOLUME_THRESHOLD = 10


class CheckError(AssertionError):
    """An output of the program is wrong."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def codes_of(ids, index: dict[str, int] | None = None) -> np.ndarray:
    """Integer code per request; contents are numbered by first appearance
    unless ``index`` gives their codes."""
    if index is None:
        index = {c: k for k, c in enumerate(dict.fromkeys(ids))}
    try:
        return np.fromiter(map(index.__getitem__, ids), np.int64, count=len(ids))
    except KeyError as exc:
        raise CheckError(f"content {exc.args[0]!r} is not in the original trace") from None


# --- reuse distances -------------------------------------------------------


def lru_stack_distances(ids) -> np.ndarray:
    """Reuse distances from an LRU stack kept as sorted last-use positions.

    ``marks`` holds, in increasing order, the position of the last request
    of every content seen so far, so the stack depth of a content last
    used at p is the number of marks >= p.  Deleting a mark moves the
    ``depth - 1`` marks above it, so the cost is the sum of the distances.
    """
    out = np.full(len(ids), np.inf)
    last: dict[str, int] = {}
    marks: list[int] = []
    for i, cid in enumerate(ids):
        p = last.get(cid)
        if p is not None:
            j = bisect.bisect_left(marks, p)
            out[i] = len(marks) - j
            del marks[j]
        marks.append(i)
        last[cid] = i
    return out


def check_distances(ids, d: np.ndarray, exact_prefix: int | None = None) -> None:
    """Compare reuse distances with the LRU stack.

    The distance of a request depends only on the requests before it, so
    ``exact_prefix`` limits the stack comparison to the first requests of
    a long trace.  The whole trace is still checked for the properties
    every distance has: infinite exactly at first requests, 1 exactly on
    an immediate repeat, and never more than the contents seen so far.
    """
    n = len(ids)
    expect(d.shape == (n,), f"{d.shape} distances for {n} requests")
    m = n if exact_prefix is None else min(n, exact_prefix)
    wrong = np.flatnonzero(lru_stack_distances(ids[:m]) != d[:m])
    expect(wrong.size == 0, f"{wrong.size} reuse distances differ from the LRU stack, first at request {wrong[:1]}")
    if m == n:
        return
    codes = codes_of(ids)
    first = np.zeros(n, bool)
    first[np.unique(codes, return_index=True)[1]] = True
    expect(np.array_equal(np.isinf(d), first), "infinite distances are not exactly the first requests")
    repeat = np.zeros(n, bool)
    repeat[1:] = codes[1:] == codes[:-1]
    expect(np.array_equal(d == 1, repeat), "distance 1 is not exactly the immediate repeats")
    finite = d[~first]
    expect(np.all(finite == np.floor(finite)) and np.all(finite >= 1), "a finite distance is not a positive integer")
    expect(np.all(finite <= np.cumsum(first)[~first]), "a distance exceeds the number of contents seen so far")


def hit_prob(d: np.ndarray, capacity: int) -> float:
    return int(np.count_nonzero(d <= capacity)) / d.size


def min_capacity(d: np.ndarray, target: float) -> int | None:
    """Smallest capacity whose hit probability reaches the target."""
    finite = np.sort(d[np.isfinite(d)])
    reach = np.flatnonzero(np.arange(1, finite.size + 1) / d.size >= target)
    return int(finite[reach[0]]) if reach.size else None


def check_curve(d: np.ndarray, curve) -> None:
    for capacity, prob in curve:
        expect(prob == hit_prob(d, capacity), f"hit probability {prob!r} at capacity {capacity} is not {hit_prob(d, capacity)!r}")


def check_required_size(d: np.ndarray, target: float, size) -> None:
    expect(size == min_capacity(d, target), f"size {size} for target {target} is not {min_capacity(d, target)}")


def check_ceiling(d: np.ndarray) -> None:
    """With room for every content, only first requests miss."""
    distinct = int(np.count_nonzero(np.isinf(d)))
    expect(hit_prob(d, distinct) == (d.size - distinct) / d.size, "hit probability at full capacity is not 1 - distinct/requests")


def check_locality_gap(sizes: dict[int, int], original: int) -> None:
    """Shuffling in K slices removes locality below the slice length.

    So the K=1 shuffle needs a larger cache than the original, and the
    extra size shrinks as K grows, with at most one inversion from noise.
    """
    gaps = [sizes[K] - original for K in sorted(sizes)]
    expect(gaps[0] > 0, f"the K=1 shuffle needs no more cache than the original: gaps {gaps}")
    inversions = sum(b > a for a, b in zip(gaps, gaps[1:]))
    expect(inversions <= 1, f"the locality gap does not shrink with K: {gaps}")


# --- traces -----------------------------------------------------------------


def check_trace_columns(times, horizon: float) -> None:
    t = np.asarray(times, dtype=float)
    expect(np.all(np.isfinite(t)) and np.all(t >= 0) and np.all(t <= horizon), "a timestamp lies outside [0, horizon]")
    expect(np.all(t[1:] >= t[:-1]), "timestamps are not sorted")


def check_same_times(times_a, times_b) -> None:
    a = np.asarray(times_a, dtype=np.float64).view(np.uint64)
    b = np.asarray(times_b, dtype=np.float64).view(np.uint64)
    expect(a.shape == b.shape and np.array_equal(a, b), "timestamps differ")


def check_same_trace(times_a, ids_a, horizon_a, times_b, ids_b, horizon_b) -> None:
    """Bit-for-bit equality of two traces."""
    check_same_times(times_a, times_b)
    expect(list(ids_a) == list(ids_b), "content ids differ")
    expect(np.float64(horizon_a).view(np.uint64) == np.float64(horizon_b).view(np.uint64), "horizons differ")


def check_shuffle(times_in, ids_in, times_out, ids_out, K: int) -> None:
    """A K-slice shuffle keeps the timestamps and each slice's id multiset."""
    check_same_times(times_in, times_out)
    n = len(ids_in)
    expect(len(ids_out) == n, f"{len(ids_out)} shuffled requests for {n}")
    index = {c: k for k, c in enumerate(dict.fromkeys(ids_in))}
    a, b = codes_of(ids_in, index), codes_of(ids_out, index)
    ends = [(i * n) // K for i in range(K + 1)]
    key = np.repeat(np.arange(K, dtype=np.int64), np.diff(ends)) * len(index)
    expect(np.array_equal(np.sort(key + a), np.sort(key + b)), f"a slice of the K={K} shuffle changed its ids")


def check_trace_file(path: Path, requests: int) -> None:
    """The file holds a header and one line per request."""
    data = path.read_bytes()
    expect(data.startswith(b"# trace-v1"), f"{path.name} has no trace-v1 header")
    lines = data.count(b"\n") - 1
    expect(lines == requests, f"{path.name} has {lines} request lines for {requests} requests")


def read_trace_file(path: Path):
    """(times, ids, horizon) of a trace file, parsed without snmcache."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        expect(header[:2] == ["#", "trace-v1"], f"{path.name} has no trace-v1 header")
        horizon = float(header[2].removeprefix("horizon="))
        times, ids = [], []
        for line in f:
            t, cid = line.rstrip("\n").split(",")
            times.append(float(t))
            ids.append(cid)
    return np.array(times), ids, horizon


# --- the shot-noise model ---------------------------------------------------


def snm_moments(rows, n_videos: float, horizon: float) -> tuple[float, float]:
    """Mean and variance of the request count of a plain SNM trace.

    Contents arrive as a Poisson process of rate lambda and each emits
    Poisson(V * F(horizon - birth)) requests, so the count is compound
    Poisson: mean lambda*V*int F, variance lambda*int(V F + V^2 F^2) over
    [0, horizon].  F is the exponential shape's CDF with scale
    lifespan/ln 9, or 1 for the stationary class.
    """
    mean = var = 0.0
    for class_id, share, lifespan, volume, stationary in rows:
        lam = n_videos * share / horizon
        if stationary:
            int_f = int_f2 = horizon
        else:
            L = lifespan / math.log(9.0)
            e1, e2 = -math.expm1(-horizon / L), -math.expm1(-2 * horizon / L)
            int_f = horizon - L * e1
            int_f2 = horizon - 2 * L * e1 + 0.5 * L * e2
        mean += lam * volume * int_f
        var += lam * (volume * int_f + volume**2 * int_f2)
    return mean, var


def check_snm_count(requests: int, rows, n_videos: float, horizon: float, sds: float = 5.0) -> None:
    mean, var = snm_moments(rows, n_videos, horizon)
    expect(abs(requests - mean) <= sds * math.sqrt(var), f"{requests} requests, expected {mean:.0f} +- {sds} x {math.sqrt(var):.0f}")


def check_irm(ids, catalogue: int, alpha: float, sds: float = 5.0) -> None:
    """IRM ids are popularity ranks; rank 1 is drawn with probability 1/H."""
    n = len(ids)
    expect(all(c[:1] == "r" and c[1:].isdigit() for c in ids), "an IRM id is not of the form r<rank>")
    ranks = np.array([int(c[1:]) for c in ids])
    expect(ranks.min() >= 1 and ranks.max() <= catalogue, f"an IRM rank lies outside 1..{catalogue}")
    p1 = 1.0 / float(np.sum(np.arange(1, catalogue + 1, dtype=float) ** -alpha))
    top = int(np.count_nonzero(ranks == 1))
    expect(abs(top - n * p1) <= sds * math.sqrt(n * p1 * (1 - p1)), f"rank 1 drawn {top} times, expected {n * p1:.0f}")


# --- per-content statistics and classes ------------------------------------


def content_table(times, ids) -> dict[str, tuple[int, float, float, float]]:
    """id -> (volume, effective life-span, first request, last request).

    The life-span runs from the ceil(0.1 V)-th to the ceil(0.9 V)-th
    request of the content.
    """
    per: dict[str, list[float]] = {}
    for t, cid in zip(np.asarray(times, dtype=float).tolist(), ids):
        per.setdefault(cid, []).append(t)
    table = {}
    for cid, ts in per.items():
        v = len(ts)
        lo, hi = -(-v // 10), -(-9 * v // 10)
        table[cid] = (v, ts[hi - 1] - ts[lo - 1], ts[0], ts[-1])
    return table


def class_shares(table) -> list[tuple[float, float]]:
    """(percent of requests, percent of contents) per class 0..5."""
    requests = [0] * (len(LIFESPAN_BOUNDS) + 2)
    contents = [0] * len(requests)
    for volume, lifespan, _, _ in table.values():
        k = 0 if volume < VOLUME_THRESHOLD else bisect.bisect_left(LIFESPAN_BOUNDS, lifespan) + 1
        requests[k] += volume
        contents[k] += 1
    total_r, total_c = sum(requests), sum(contents)
    return [(100.0 * r / total_r, 100.0 * c / total_c) for r, c in zip(requests, contents)]


def check_class_closure(table_a, table_b, sds: float = 5.0) -> None:
    """A trace regenerated from a fitted config matches the original.

    Content count, request count and each class's content share (classes
    holding at least 1% of contents) agree within ``sds`` standard
    deviations of the difference of two independent draws: Poisson for
    the content count, compound Poisson for the request count, binomial
    for a share.
    """
    m_a, m_b = len(table_a), len(table_b)
    expect(abs(m_b - m_a) <= sds * math.sqrt(m_a + m_b), f"{m_b} contents regenerated from {m_a}")
    v_a = np.array([v[0] for v in table_a.values()], dtype=float)
    v_b = np.array([v[0] for v in table_b.values()], dtype=float)
    spread = math.sqrt(np.sum(v_a**2) + np.sum(v_b**2))
    expect(abs(v_b.sum() - v_a.sum()) <= sds * spread, f"{v_b.sum():.0f} requests regenerated from {v_a.sum():.0f}")
    for k, ((_, ca), (_, cb)) in enumerate(zip(class_shares(table_a), class_shares(table_b))):
        if ca < 1.0:
            continue
        p = (ca * m_a + cb * m_b) / (100.0 * (m_a + m_b))
        sd = 100.0 * math.sqrt(p * (1 - p) * (1 / m_a + 1 / m_b))
        expect(abs(cb - ca) <= sds * sd, f"class {k} holds {cb:.2f}% of regenerated contents, {ca:.2f}% of the original's")


# --- CLI output files ---------------------------------------------------------


def read_csv(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    expect(lines and lines[0] == header, f"{path.name} does not start with {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_content_stats_csv(path: Path, table) -> None:
    rows = read_csv(path, "content_id,volume,lifespan,first_request,last_request")
    got = {r[0]: (int(r[1]), float(r[2]), float(r[3]), float(r[4])) for r in rows}
    expect(len(got) == len(rows) == len(table), f"{len(rows)} content rows for {len(table)} contents")
    expect(sum(v[0] for v in got.values()) == sum(v[0] for v in table.values()), "volumes do not sum to the request count")
    bad = next((cid for cid in table if got.get(cid) != table[cid]), None)
    expect(bad is None, f"content {bad!r}: {got.get(bad)} is not {table.get(bad)}")


def rank_table(ids, K: int, top: int) -> list[tuple[float, float, float]]:
    """Per rank: mean, 5th and 95th nearest-rank percentile of the
    slice-local relative frequency over K equal-count slices."""
    codes = codes_of(ids)
    n = codes.size
    ends = [(i * n) // K for i in range(K + 1)]
    freqs = np.zeros((K, top))
    for s in range(K):
        counts = np.sort(np.bincount(codes[ends[s]:ends[s + 1]]))[::-1][:top]
        freqs[s, :counts.size] = counts / (ends[s + 1] - ends[s])
    freqs.sort(axis=0)
    p5, p95 = (freqs[max((pct * K + 99) // 100, 1) - 1] for pct in (5, 95))
    return list(zip(freqs.mean(axis=0), p5, p95))


def check_ranks_csv(path: Path, ids, K: int, top: int) -> None:
    rows = read_csv(path, "rank,mean,p5,p95")
    expect([int(r[0]) for r in rows] == list(range(1, top + 1)), f"{path.name} does not list ranks 1..{top}")
    for r, (mean, p5, p95) in zip(rows, rank_table(ids, K, top)):
        expect(math.isclose(float(r[1]), mean, rel_tol=1e-9), f"rank {r[0]} mean {r[1]} is not {mean!r}")
        expect((float(r[2]), float(r[3])) == (p5, p95), f"rank {r[0]} percentiles {r[2:]} are not {(p5, p95)}")


def check_density_csv(path: Path, table) -> None:
    rows = read_csv(path, "l_bin_lo,l_bin_hi,v_bin_lo,v_bin_hi,count")
    qualifying = sum(1 for v in table.values() if v[0] >= VOLUME_THRESHOLD)
    expect(sum(int(r[4]) for r in rows) == qualifying, f"density map does not count the {qualifying} contents with volume >= {VOLUME_THRESHOLD}")


def check_class_summary_csv(path: Path, shares) -> None:
    rows = read_csv(path, "class,lmin_days,lmax_days,pct_reqs,pct_videos,mean_lifespan,mean_volume,arrival_rate")
    expect(len(rows) == len(shares), f"{len(rows)} class rows for {len(shares)} classes")
    for r, (pr, pc) in zip(rows, shares):
        ok = math.isclose(float(r[3]), pr, rel_tol=1e-9, abs_tol=1e-12) and math.isclose(float(r[4]), pc, rel_tol=1e-9, abs_tol=1e-12)
        expect(ok, f"class {r[0]} shares {r[3:5]} are not {(pr, pc)}")


def default_capacities(distinct: int) -> list[int]:
    """1, 2, 5, 10, 20, 50, ... below the distinct count, then the count."""
    caps = [m * 10**e for e in range(len(str(distinct))) for m in (1, 2, 5) if m * 10**e < distinct]
    return caps + [distinct]


def check_curve_csv(path: Path, d: np.ndarray) -> list[tuple[int, float]]:
    """The curve is exact at the default capacity ladder; returns it."""
    curve = [(int(r[0]), float(r[1])) for r in read_csv(path, "capacity,hit_prob")]
    distinct = int(np.count_nonzero(np.isinf(d)))
    expect([c for c, _ in curve] == default_capacities(distinct), f"{path.name} capacities are not the default ladder")
    check_curve(d, curve)
    return curve


def check_required_sizes_csv(path: Path, distances: dict[str, np.ndarray], targets) -> None:
    rows = read_csv(path, "trace_label,target,required_size")
    expect(len(rows) == len(distances) * len(targets), f"{len(rows)} required-size rows")
    for label, target, size in rows:
        check_required_size(distances[label], float(target), None if size == "unattainable" else int(size))


def check_evictions_csv(path: Path, curve, distinct: int, requests: int) -> None:
    """The LRU simulation agrees with the curve at every capacity, and once
    the cache is full every miss evicts one content."""
    rows = read_csv(path, "capacity,hit_prob,evictions,mean_eviction_time")
    expect(len(rows) == len(curve), f"{len(rows)} eviction rows for {len(curve)} capacities")
    for r, (capacity, prob) in zip(rows, curve):
        expect((int(r[0]), float(r[1])) == (capacity, prob), f"evictions at capacity {r[0]}: hit probability {r[1]} is not {prob!r}")
        misses = requests - round(prob * requests)
        expect(int(r[2]) == misses - min(capacity, distinct), f"{r[2]} evictions at capacity {capacity}, expected {misses - min(capacity, distinct)}")
