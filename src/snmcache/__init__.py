"""Request-trace analysis, IRM/shot-noise synthesis, LRU cache evaluation."""

from .analysis import (
    ClassSummary,
    ContentStats,
    class_summary,
    classify_contents,
    content_stats,
    density_map,
    fit_snm,
    fit_zipf,
    sliced_popularity,
)
from .cachesim import (
    LruResult,
    hit_curve,
    reuse_distances,
    simulate_lru,
    size_for_hit_prob,
)
from .generators import (
    IrmConfig,
    PopularityShape,
    SnmClassConfig,
    SnmConfig,
    SnmEventStream,
    daynight_factor,
    generate_irm,
    generate_snm,
    lifespan_to_L,
    parse_snm_config,
    shot_requests,
    write_snm_config,
    zipf_probabilities,
)
from .shuffle import slice_shuffle
from .trace import RequestEvent, Trace, TraceFormatError, Violation, read_trace, validate, write_trace

__version__ = "0.1.0"
