"""Volatility-regime segmentation and clustering for intraday index series.

The pipeline runs in four stages, each usable on its own:

    ingest    tic-by-tic files -> half-hourly level series -> log returns
    segmenter log-return series -> stationary Gaussian segments
    cluster   segments -> volatility classes -> macroeconomic phases
    analysis  phase timelines -> recovery/onset dates, shocks, rank tables,
              rate-event response classification

``volseg.cli`` wires the stages into a command-line tool.

The names in ``__all__`` load their home module on first use (PEP 562),
so ``import volseg`` loads no submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "calendar": ("TradingCalendar", "load_holidays"),
    "divergence": (
        "Boundary", "DegenerateSplitError", "PrefixSums", "SegmentStats", "best_split",
        "delta_error", "delta_error_max", "js_divergence", "segment_stats",
    ),
    "ingest": (
        "HalfHourSeries", "LogReturnSeries", "RejectedRow", "TickColumns", "log_returns",
        "parse_ticks", "resample",
    ),
    "segmenter": (
        "Segment", "SegmentationConfig", "SegmentationResult", "emit_segment_table",
        "optimize_boundaries", "recursive_segment", "refine_long_segments",
    ),
    "cluster": (
        "ClusterAssignment", "Dendrogram", "assign_phases", "complete_link", "extract_clusters",
        "segment_distance",
    ),
    "analysis": (
        "PhaseTimeline", "RateEvent", "Shock", "build_timeline", "classify_event_responses",
        "detect_onset", "detect_recovery", "extract_shocks", "match_shocks", "rank_table",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
