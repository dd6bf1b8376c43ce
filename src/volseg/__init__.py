"""Volatility-regime segmentation and clustering for intraday index series.

The pipeline runs in four stages, each usable on its own:

    ingest    tic-by-tic files -> half-hourly level series -> log returns
    segmenter log-return series -> stationary Gaussian segments
    cluster   segments -> volatility classes -> macroeconomic phases
    analysis  phase timelines -> recovery/onset dates, shocks, rank tables,
              rate-event response classification

``volseg.cli`` wires the stages into a command-line tool.
"""

__version__ = "0.1.0"

from .calendar import TradingCalendar, load_holidays
from .divergence import (
    Boundary,
    DegenerateSplitError,
    PrefixSums,
    SegmentStats,
    best_split,
    delta_error,
    delta_error_max,
    js_divergence,
    segment_stats,
)
from .ingest import (
    HalfHourSeries,
    LogReturnSeries,
    RejectedRow,
    TickColumns,
    log_returns,
    parse_ticks,
    resample,
)
from .segmenter import (
    Segment,
    SegmentationConfig,
    SegmentationResult,
    emit_segment_table,
    optimize_boundaries,
    recursive_segment,
    refine_long_segments,
)
from .cluster import (
    ClusterAssignment,
    Dendrogram,
    assign_phases,
    complete_link,
    extract_clusters,
    segment_distance,
)
from .analysis import (
    PhaseTimeline,
    RateEvent,
    Shock,
    build_timeline,
    classify_event_responses,
    detect_onset,
    detect_recovery,
    extract_shocks,
    match_shocks,
    rank_table,
)

__all__ = [
    "Boundary",
    "ClusterAssignment",
    "DegenerateSplitError",
    "Dendrogram",
    "HalfHourSeries",
    "LogReturnSeries",
    "PhaseTimeline",
    "PrefixSums",
    "RateEvent",
    "RejectedRow",
    "Segment",
    "SegmentStats",
    "SegmentationConfig",
    "SegmentationResult",
    "Shock",
    "TickColumns",
    "TradingCalendar",
    "assign_phases",
    "best_split",
    "build_timeline",
    "classify_event_responses",
    "complete_link",
    "delta_error",
    "delta_error_max",
    "detect_onset",
    "detect_recovery",
    "emit_segment_table",
    "extract_clusters",
    "extract_shocks",
    "js_divergence",
    "load_holidays",
    "log_returns",
    "match_shocks",
    "optimize_boundaries",
    "parse_ticks",
    "rank_table",
    "recursive_segment",
    "refine_long_segments",
    "resample",
    "segment_distance",
    "segment_stats",
]
