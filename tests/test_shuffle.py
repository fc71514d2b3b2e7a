import re
from collections import Counter

import numpy as np
import pytest

from snmcache.analysis import slice_bounds
from snmcache.cachesim import simulate_lru
from snmcache.shuffle import slice_shuffle
from snmcache.trace import Trace

from helpers import make_trace, random_trace


def runs_count(ids) -> int:
    a = np.asarray(ids)
    return 1 + int(np.count_nonzero(a[1:] != a[:-1]))


class TestSliceShuffle:
    def test_identity_at_singleton_slices(self):
        rng = np.random.default_rng(1)
        trace = random_trace(rng, 200, 10)
        out = slice_shuffle(trace, K=len(trace.events), seed=99)
        assert out == trace

    @pytest.mark.parametrize("K", [1, 3, 17, 50])
    def test_preserves_volumes_timestamps_and_slices(self, K):
        rng = np.random.default_rng(2)
        trace = random_trace(rng, 500, 20)
        out = slice_shuffle(trace, K, seed=5)
        assert out.horizon == trace.horizon
        assert out.timestamps() == trace.timestamps()
        assert Counter(out.content_ids()) == Counter(trace.content_ids())
        for lo, hi in slice_bounds(len(trace.events), K):
            assert Counter(e.content_id for e in out.events[lo:hi]) == Counter(
                e.content_id for e in trace.events[lo:hi]
            )

    @pytest.mark.parametrize("seed", [1.5, True, "3", None])
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 used to raise a TypeError from the seed's 64-bit mask
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            slice_shuffle(random_trace(np.random.default_rng(4), 50, 5), 3, seed)

    def test_numpy_integer_seed_is_the_python_int(self):
        # a numpy seed used to overflow in the seed's 64-bit mask
        trace = random_trace(np.random.default_rng(4), 200, 10)
        assert slice_shuffle(trace, 3, np.int64(7)) == slice_shuffle(trace, 3, np.uint16(7)) == slice_shuffle(trace, 3, 7)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        trace = random_trace(rng, 300, 15)
        assert slice_shuffle(trace, 4, seed=7) == slice_shuffle(trace, 4, seed=7)
        assert slice_shuffle(trace, 4, seed=7) != slice_shuffle(trace, 4, seed=8)

    def test_invalid_k(self):
        trace = make_trace([1, 2, 3])
        for bad in (0, -2, 4, 1.5, True):  # True used to run a 1-slice shuffle
            with pytest.raises(ValueError, match="K must be"):
                slice_shuffle(trace, bad, seed=0)

    def test_identity_shuffle_same_lru_hit_prob(self):
        rng = np.random.default_rng(6)
        trace = random_trace(rng, 400, 25)
        out = slice_shuffle(trace, len(trace.events), seed=11)
        for cap in (2, 10):
            assert simulate_lru(out, cap).hits == simulate_lru(trace, cap).hits

    def test_full_shuffle_passes_runs_test(self):
        # blocked sequence 1...1 2...2 3...3: 3 runs, wildly non-random;
        # after a K=1 shuffle the run count should look like a random
        # permutation's.  The null distribution is estimated by brute
        # force from the same multiset.
        n_per = 200
        ids = ["1"] * n_per + ["2"] * n_per + ["3"] * n_per
        trace = make_trace(ids, times=[i / 100.0 for i in range(len(ids))])

        rng = np.random.default_rng(0)
        base = np.array(ids)
        null = np.array([runs_count(rng.permutation(base)) for _ in range(2000)])
        mu, sd = null.mean(), null.std(ddof=1)
        z_crit = 2.5758  # two-sided 1% significance

        assert abs(runs_count(ids) - mu) / sd > z_crit  # input fails

        passes = 0
        for seed in range(100):
            shuffled = slice_shuffle(trace, 1, seed)
            z = abs(runs_count(shuffled.content_ids()) - mu) / sd
            passes += z <= z_crit
        assert passes >= 95

    def test_output_is_valid_trace(self):
        from snmcache.trace import validate

        rng = np.random.default_rng(10)
        trace = random_trace(rng, 250, 12)
        assert validate(slice_shuffle(trace, 5, seed=3)) == []
