"""Controlled-temporal-locality trace variants.

Reshuffling a trace inside K equal-count slices destroys request
correlations at time scales below the slice duration while leaving the
long-term popularity of every content untouched: content ids are
permuted across the slice's original timestamps, so the timestamp
multiset and the per-slice content multisets are preserved exactly.
K=1 removes all temporal locality; K equal to the request count is the
identity.
"""

from __future__ import annotations

import numpy as np

from .analysis import slice_bounds
from .trace import Trace, _require_int

__all__ = ["slice_shuffle"]

_SHUFFLE_TAG = 0x51  # keys the shuffle's RNG stream apart from other modules


def slice_shuffle(trace: Trace, K: int, seed: int) -> Trace:
    """Randomly permute content ids within each of K equal-count slices.

    Timestamps stay fixed (so the result is still sorted and keeps the
    same horizon); only the ids move, and only within their slice.
    Deterministic given (trace, K, seed): one RNG per call, keyed by
    (seed mod 2**64, shuffle tag), draws each slice's permutation in
    slice order.
    """
    rng = np.random.default_rng([_require_int("seed", seed) % 2**64, _SHUFFLE_TAG])
    source = np.empty(len(trace), np.int64)  # output position -> input position
    for lo, hi in slice_bounds(len(trace), K):
        source[lo:hi] = lo + rng.permutation(hi - lo)
    return Trace(trace.times, trace.codes[source], trace.ids, trace.horizon)
