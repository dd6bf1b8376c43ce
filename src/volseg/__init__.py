"""Volatility-regime segmentation and clustering for intraday index series.

The pipeline runs in four stages, each usable on its own:

    ingest    tic-by-tic files -> half-hourly level series -> log returns
    segmenter log-return series -> stationary Gaussian segments
    cluster   segments -> volatility classes -> macroeconomic phases
    analysis  phase timelines -> recovery/onset dates, shocks, rank tables,
              rate-event response classification

``volseg.cli`` wires the stages into a command-line tool.

The names in ``__all__`` load their home module on first use (PEP 562),
so ``import volseg`` loads no submodule and no numpy.  The submodules bind
numpy (and ``calendar`` zoneinfo) through ``_lazy``, so importing them
executes neither: ``volseg analyze`` never loads numpy, and ``segment``
and ``cluster`` never load a time zone.  ``volseg.cli`` binds the four
stage modules, and ``calendar`` and ``divergence``, the same way, so each
command executes only the modules it runs: ``ingest`` executes
``calendar`` and ``ingest``, ``segment`` ``divergence``, ``ingest`` and
``segmenter``, ``cluster`` ``divergence``, ``segmenter`` and ``cluster``,
``analyze`` all but ``ingest``, and ``--help`` none.
"""

import importlib
import importlib.util
import sys
import types

__version__ = "0.1.0"

_HOMES = {
    "calendar": ("TradingCalendar", "load_holidays"),
    "divergence": (
        "Boundary", "DegenerateSplitError", "PrefixSums", "SegmentStats", "best_split",
        "delta_error", "delta_error_max", "js_divergence", "segment_stats",
    ),
    "ingest": (
        "HalfHourSeries", "RejectedRow", "TickColumns", "log_returns", "parse_ticks", "resample",
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


def _lazy(name: str) -> types.ModuleType:
    """Module ``name``: the loaded one if there is one, else a module that
    executes on first attribute access (``importlib.util.LazyLoader``).
    A submodule is bound on its package at once, as ``import`` binds it.

    A module that cannot be found raises ``ModuleNotFoundError`` here, as
    ``import name`` would, and so does a ``None`` entry in ``sys.modules``."""
    if name in sys.modules:  # read directly: the import system would execute a lazy entry
        module = sys.modules[name]
        if module is None:
            raise ModuleNotFoundError(f"import of {name} halted; None in sys.modules", name=name)
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:  # bound on its package, as ``import name`` does
        setattr(sys.modules[parent], child, module)
    return module


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
