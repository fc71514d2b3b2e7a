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
from .trace import Trace

__all__ = ["slice_shuffle"]

_SHUFFLE_TAG = 0x51  # keys the per-slice RNG streams apart from other modules


def slice_shuffle(trace: Trace, K: int, seed: int) -> Trace:
    """Randomly permute content ids within each of K equal-count slices.

    Timestamps stay fixed (so the result is still sorted and keeps the
    same horizon); only the ids move, and only within their slice.
    Deterministic given (trace, K, seed): each slice draws its
    permutation from an RNG keyed by (seed, slice index).
    """
    source = np.empty(len(trace), np.int64)  # output position -> input position
    for idx, (lo, hi) in enumerate(slice_bounds(len(trace), K)):
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, _SHUFFLE_TAG, idx])
        source[lo:hi] = lo + rng.permutation(hi - lo)
    return Trace.from_codes(trace.times, trace.codes[source], trace.ids, trace.horizon)
