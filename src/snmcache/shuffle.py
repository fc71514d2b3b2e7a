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
from .generators import _rngs, _seed_words
from .trace import Trace, _require_int

__all__ = ["slice_shuffle"]

_SHUFFLE_TAG = 0x51  # keys the per-slice RNG streams apart from other modules


def slice_shuffle(trace: Trace, K: int, seed: int) -> Trace:
    """Randomly permute content ids within each of K equal-count slices.

    Timestamps stay fixed (so the result is still sorted and keeps the
    same horizon); only the ids move, and only within their slice.
    Deterministic given (trace, K, seed): each slice draws its
    permutation from an RNG keyed by (seed, slice index).
    """
    seed = _require_int("seed", seed)
    source = np.empty(len(trace), np.int64)  # output position -> input position
    bounds = slice_bounds(len(trace), K)
    for (lo, hi), rng in zip(bounds, _rngs(_seed_words(seed, [_SHUFFLE_TAG], np.arange(len(bounds))))):
        source[lo:hi] = lo + rng.permutation(hi - lo)
    return Trace(trace.times, trace.codes[source], trace.ids, trace.horizon)
