"""A memory budget for every compute layer: its tracemalloc peak on the reference trace, in bytes a request.

The reference trace is the five reference classes drawn over 30 days with seed 1 (198,026 requests).
A layer's peak is what it allocates above its inputs, its result included.  Each bound is the peak
measured when it was set (in the comment) plus a margin under 8 bytes a request, so a change that keeps
one more float64 column of the trace alive at the peak fails it.  ``read_trace``, ``reuse_distances``
and the stream drain keep their own bounds in the tests of their modules.
"""

import tracemalloc

import pytest

from snmcache import analysis, cachesim, generators, shuffle
from snmcache.trace import validate

from helpers import reference_classes

CLASSES = reference_classes()
CAPACITIES = [m * 10**e for e in range(4) for m in (1, 2, 5)]  # 12 capacities, 1 to 5000
PARTITION = (analysis.DEFAULT_VOLUME_THRESHOLD, analysis.DEFAULT_LIFESPAN_BOUNDS)


@pytest.fixture(scope="module")
def reference():
    trace = generators.generate_snm(CLASSES, 30.0, seed=1)
    return trace, cachesim.reuse_distances(trace), analysis.content_stats(trace)


@pytest.mark.parametrize("call,bound", [  # each call takes the trace, its reuse distances and its content table
    pytest.param(lambda t, d, s: generators.generate_snm(CLASSES, 30.0, seed=1), 40, id="generate_snm"),  # 35.0
    pytest.param(lambda t, d, s: generators.generate_snm(CLASSES, 30.0, seed=1, daynight=True), 62,
                 id="generate_snm-daynight"),  # 57.4
    pytest.param(lambda t, d, s: shuffle.slice_shuffle(t, 1, seed=1), 33, id="slice_shuffle-K1"),  # 28.6
    pytest.param(lambda t, d, s: analysis.content_stats(t), 20, id="content_stats"),  # 16.3
    pytest.param(lambda t, d, s: analysis.sliced_popularity(t, 100, 100), 46, id="sliced_popularity-K100"),  # 41.3
    pytest.param(lambda t, d, s: cachesim.lru_results(t, d, CAPACITIES), 60, id="lru_results"),  # 56.7
    pytest.param(lambda t, d, s: cachesim.hit_curve(d, CAPACITIES), 20, id="hit_curve"),  # 15.5
    pytest.param(lambda t, d, s: validate(t), 8, id="validate"),  # 4.0
    pytest.param(lambda t, d, s: analysis.class_summary(s, t.horizon, *PARTITION), 4, id="class_summary"),  # 0.8
    pytest.param(lambda t, d, s: analysis.fit_snm(s, t.horizon, *PARTITION, "uniform"), 5, id="fit_snm"),  # 1.9
])
def test_peak_per_request(reference, call, bound):
    trace = reference[0]
    assert len(trace) == 198_026
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call(*reference)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / len(trace) <= bound
