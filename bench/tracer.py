"""Traced volseg invocation and the per-layer metrics derived from it.

Run as a script, this is one ``volseg`` process with a span around every
public function of every volseg module:

    python3 bench/tracer.py --launch T --spans FILE -- <volseg arguments>

Wrappers go on module attributes (in every volseg module that binds the
function, so ``from .x import f`` call sites are covered too) and on the
``PrefixSums`` and ``TradingCalendar`` methods, before ``cli.main`` runs;
the program itself is unchanged.  Spans stay in memory and are written
to FILE after ``cli.main`` returns.  FILE lies outside the volseg output
directory, so the artifacts of a traced run stay byte-identical to an
untraced one.

``T`` is the launching process's ``time.perf_counter()`` just before the
child started.  On Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so ``import-done - T`` is the start-up time of the process,
interpreter included.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time
from collections import Counter
from typing import Callable

import numpy as np

CLI_MODULES = ("calendar", "divergence", "ingest", "segmenter", "cluster", "analysis", "cli")
TRACED_METHODS = {
    "divergence": {"PrefixSums": ("scan", "delta_at")},
    "calendar": {"TradingCalendar": None},  # None: every public method
}

# span name -> layer whose self time it adds to; names not listed fall
# back to "<module>.other" (or "<module>" for the one-bucket modules)
LAYER_OF = {
    "ingest.parse_ticks": "ingest.parse_ticks",
    "ingest.resample": "ingest.resample",
    "ingest.log_returns": "ingest.log_returns",
    "ingest.series_to_csv": "ingest.write",
    "ingest.series_to_json": "ingest.write",
    "ingest.write_reject_log": "ingest.write",
    "ingest.series_from_json": "ingest.read",
    "ingest.series_from_csv": "ingest.read",
    "segmenter.recursive_segment": "segmenter.recursive_segment",
    "segmenter.refine_long_segments": "segmenter.refine_long_segments",
    "segmenter.emit_segment_table": "segmenter.write",
    "segmenter.write_segment_csv": "segmenter.write",
    "segmenter.write_segment_json": "segmenter.write",
    "divergence.PrefixSums.scan": "divergence.scan",
    "divergence.PrefixSums.delta_at": "divergence.delta_at",
    "cluster.complete_link": "cluster.complete_link",
    "cluster.segment_distance": "cluster.segment_distance",
    "cluster.extract_clusters": "cluster.extract_clusters",
    "cluster.dendrogram_to_json": "cluster.write",
    "cluster.write_merges_csv": "cluster.write",
    "cluster.write_assignment_csv": "cluster.write",
    "cluster.write_robustness_json": "cluster.write",
}
SINGLE_BUCKET_MODULES = ("calendar", "cli")
LAYERS = (
    "ingest.parse_ticks", "ingest.resample", "ingest.log_returns", "ingest.write",
    "ingest.read", "ingest.other", "calendar", "segmenter.recursive_segment",
    "segmenter.refine_long_segments", "segmenter.write", "segmenter.other",
    "divergence.scan", "divergence.delta_at", "divergence.other",
    "cluster.complete_link", "cluster.segment_distance", "cluster.extract_clusters",
    "cluster.write", "cluster.other", "analysis", "analysis.write", "cli",
)


def layer_of(name: str) -> str:
    if name in LAYER_OF:
        return LAYER_OF[name]
    module, func = name.split(".")[0], name.split(".")[-1]
    if module == "analysis":
        return "analysis.write" if func.startswith("write_") else "analysis"
    if module in SINGLE_BUCKET_MODULES:
        return module
    return f"{module}.other"


# ---------------------------------------------------------------------------
# counters taken from a traced call's arguments and result


def _file_bytes(args, kwargs, out) -> dict[str, int]:
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"ingest.write.bytes": os.path.getsize(path)}


def _parsed(args, kwargs, out) -> dict[str, int]:
    records, rejects = out
    return {
        "ingest.parse_ticks.rows": len(records) + len(rejects),
        "ingest.parse_ticks.rejects": len(rejects),
    }


def _table(args, kwargs, out) -> dict[str, int]:
    refined = sum(1 for row in out if row["flag"] == "refined")
    return {"segmenter.segments": len(out), "segmenter.refined_boundaries": refined}


COUNTERS: dict[str, Callable] = {
    "ingest.parse_ticks": _parsed,
    "ingest.series_to_csv": _file_bytes,
    "ingest.series_to_json": _file_bytes,
    "ingest.write_reject_log": _file_bytes,
    "segmenter.recursive_segment": lambda a, k, out: {"segmenter.returns": out.n},
    "segmenter.refine_long_segments": lambda a, k, out: {"segmenter.unconverged": int(not out.converged)},
    "segmenter.emit_segment_table": _table,
    "divergence.PrefixSums.scan": lambda a, k, out: {"divergence.scan.points": a[2] - a[1]},
    "cluster.complete_link": lambda a, k, out: {"cluster.leaves": out.n_leaves},
    "cluster.extract_clusters": lambda a, k, out: {"cluster.k": out[0].k},
    "analysis.extract_shocks": lambda a, k, out: {"analysis.shocks": len(out)},
}


# ---------------------------------------------------------------------------
# recording (child process)


class Tracer:
    """Spans kept in memory as parallel lists: name, start, end, parent index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                counts.update(counter(args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        """Wrap every public function of the CLI's modules and the listed methods."""
        modules = {name: sys.modules[f"volseg.{name}"] for name in CLI_MODULES}
        bound = [m for n, m in sys.modules.items() if n == "volseg" or n.startswith("volseg.")]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for other in bound:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, traced)
            for cls_name, methods in TRACED_METHODS.get(short, {}).items():
                cls = getattr(module, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_") or (methods is not None and attr not in methods):
                        continue
                    name = f"{short}.{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                    elif inspect.isfunction(raw):
                        setattr(cls, attr, self.wrap(name, raw))

    def dump(self, path: str, origin: float, startup_s: float) -> None:
        """Write the spans, times relative to ``origin``, as one .npz file."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        meta = {"startup_s": startup_s, "counts": dict(self.counts)}
        np.savez(
            path,
            table=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts) - origin,
            end=np.array(self.ends) - origin,
            parent=np.array(self.parents, dtype=np.int64),
            meta=np.array(json.dumps(meta)),
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    import volseg.cli

    startup_s = time.perf_counter() - args.launch
    tracer = Tracer()
    tracer.install()
    rc = volseg.cli.main(argv)
    tracer.dump(args.spans, args.launch, startup_s)
    return rc


# ---------------------------------------------------------------------------
# aggregation (benchmark process)


def self_times(trace: dict) -> np.ndarray:
    """Span duration minus the durations of its direct children."""
    duration = trace["end"] - trace["start"]
    own = duration.copy()
    child = trace["parent"] >= 0
    np.subtract.at(own, trace["parent"][child], duration[child])
    return own


def check_nesting(trace: dict) -> None:
    """Raise ValueError unless every span lies inside its parent and
    siblings do not overlap (one thread, so calls are strictly nested)."""
    start, end, parent = trace["start"], trace["end"], trace["parent"]
    if np.any(end < start):
        raise ValueError("a span ends before it starts")
    child = np.flatnonzero(parent >= 0)
    if np.any(start[child] < start[parent[child]]) or np.any(end[child] > end[parent[child]]):
        raise ValueError("a span is not inside its parent")
    order = np.lexsort((start, parent))
    same = parent[order[1:]] == parent[order[:-1]]
    if np.any(start[order[1:]][same] < end[order[:-1]][same]):
        raise ValueError("sibling spans overlap")


def load(paths) -> list[dict]:
    traces = []
    for path in paths:
        with np.load(path) as data:
            trace = {key: data[key] for key in ("table", "name", "start", "end", "parent")}
            trace.update(json.loads(str(data["meta"])))
        traces.append(trace)
    return traces


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts summed over a workload's processes."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    total = startup = 0.0
    for trace in traces:
        check_nesting(trace)
        own = np.bincount(trace["name"], weights=self_times(trace), minlength=len(trace["table"]))
        n_calls = np.bincount(trace["name"], minlength=len(trace["table"]))
        for name, seconds, n in zip(trace["table"].tolist(), own.tolist(), n_calls.tolist()):
            self_s[layer_of(name)] += seconds
            calls[name] += n
        root = trace["parent"] < 0
        total += float(np.sum(trace["end"][root] - trace["start"][root]))
        counts.update(trace["counts"])
        startup += trace["startup_s"]
    rows = counts["ingest.parse_ticks.rows"]
    returns = counts["segmenter.returns"]
    metrics = {f"{layer}.self_s": value for layer, value in self_s.items()}
    metrics.update(
        {
            "ingest.parse_ticks.rows": rows,
            "ingest.parse_ticks.us_per_row": 1e6 * self_s["ingest.parse_ticks"] / rows if rows else 0.0,
            "ingest.parse_ticks.rejects": counts["ingest.parse_ticks.rejects"],
            "ingest.write.bytes": counts["ingest.write.bytes"],
            "calendar.session_open.calls": calls["calendar.TradingCalendar.session_open"],
            "segmenter.segments": counts["segmenter.segments"],
            "segmenter.refined_boundaries": counts["segmenter.refined_boundaries"],
            "segmenter.unconverged": counts["segmenter.unconverged"],
            "divergence.scan.calls": calls["divergence.PrefixSums.scan"],
            "divergence.scan.points": counts["divergence.scan.points"],
            "divergence.scan.points_per_return": counts["divergence.scan.points"] / returns if returns else 0.0,
            "divergence.delta_at.calls": calls["divergence.PrefixSums.delta_at"],
            "cluster.leaves": counts["cluster.leaves"],
            "cluster.segment_distance.calls": calls["cluster.segment_distance"],
            "cluster.k": counts["cluster.k"],
            "analysis.shocks": counts["analysis.shocks"],
            "cli.startup_s": startup,
            "trace.total_s": total,
        }
    )
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
