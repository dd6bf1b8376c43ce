"""Recursive change-point segmentation with boundary optimization.

The series is split greedily: every current segment is scanned for its
most divergent admissible split, the strongest candidate at or above
the cutoff is accepted, and all boundaries are then re-optimized by
sweeping each one over the window bounded by its neighbors until no
boundary moves.  Recursion stops when no segment offers a split at the
cutoff.

Segments longer than ``long_segment_len`` can hide internal structure
behind their context; ``refine_long_segments`` re-segments each of them
once at half the cutoff and keeps any internal boundary whose
re-optimized divergence clears the original cutoff.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, field, replace
from heapq import heappop, heappush
from pathlib import Path
from typing import Callable, Sequence

from . import _lazy
from .artifacts import write_csv, write_json
from .divergence import Boundary, DegenerateSplitError, PrefixSums, SegmentStats, delta_error

np = _lazy("numpy")
log = logging.getLogger(__name__)

FLAG_AUTOMATIC = "automatic"
FLAG_REFINED = "refined"

TABLE_COLUMNS = (
    "m",
    "start",
    "end",
    "duration",
    "start_date",
    "mean",
    "mean_err",
    "stdev",
    "stdev_err",
    "delta",
    "delta_err",
    "flag",
)


@dataclass(frozen=True)
class SegmentationConfig:
    """The segmenter's settings: significance cutoff, shortest segment,
    the length above which a segment is refined and the boundary
    optimizer's iteration cap."""

    cutoff: float = 10.0
    min_segment_len: int = 14  # one trading day
    long_segment_len: int = 1000
    max_opt_iters: int = 100

    def __post_init__(self) -> None:
        if not 0 < self.cutoff < math.inf:
            raise ValueError("cutoff must be positive and finite")
        if self.min_segment_len < 4:
            raise ValueError("min_segment_len must be at least 4")


@dataclass(frozen=True)
class Segment:
    """Half-open index range [start, end) with its fitted statistics."""

    start: int
    end: int
    stats: SegmentStats

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class SegmentationResult:
    """Segments that tile the series, the boundaries between them with
    their provenance, and the config that made them."""

    segments: tuple[Segment, ...]
    boundaries: tuple[Boundary, ...]  # absolute positions, one between neighbors
    flags: tuple[str, ...]  # automatic | refined, aligned with boundaries
    config: SegmentationConfig
    converged: bool = True
    # the work recursive_segment did (divergence scans, the points they
    # spanned, side terms computed) and the work refine_long_segments did
    # (long windows re-segmented, scans made); not part of the result's value
    scans: int = field(default=0, compare=False)
    scan_points: int = field(default=0, compare=False)
    term_points: int = field(default=0, compare=False)
    refine_windows: int = field(default=0, compare=False)
    refine_scans: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.segments) - 1:
            raise ValueError("need exactly one boundary between adjacent segments")
        if len(self.flags) != len(self.boundaries):
            raise ValueError("one provenance flag per boundary")
        prev_end = self.segments[0].start
        for seg in self.segments:
            if seg.start != prev_end:
                raise ValueError(f"segments must tile contiguously, gap at {seg.start}")
            prev_end = seg.end
        for seg, b in zip(self.segments[1:], self.boundaries):
            if b.position != seg.start:
                raise ValueError("boundary positions must match segment starts")

    @property
    def positions(self) -> list[int]:
        return [b.position for b in self.boundaries]

    @property
    def n(self) -> int:
        return self.segments[-1].end


# ---------------------------------------------------------------------------
# core sweeps


class _Scanner:
    """Memoized divergence scans and split divergences over one PrefixSums
    instance, and the boundary edits that keep its side-term caches small.

    A scan is a pure function of (window, margin), and a split's divergence
    of (window, split), so results survive across optimization sweeps,
    recursion rounds and pruning rounds.  A degenerate split is not
    memoized: it raises again on every call.

    Every scanned window spans at most two segments, so the left terms
    cached at boundary j serve splits up to boundary j + 2, and its right
    terms splits from boundary j - 2 (``lo`` stands at -1 and ``hi`` at
    ``len(bounds)``).  Each edit of a boundary list goes through
    ``insert``, ``move`` or ``remove``: a position that stops being a
    boundary releases its terms, and the terms at both ends of each window
    two segments wide that narrowed are cut to it, which bounds the live
    cache by 4 floats per point.
    """

    def __init__(self, ps: PrefixSums, margin: int) -> None:
        self.ps = ps
        self.margin = margin
        self._cache: dict[tuple[int, int], tuple[int, float] | None] = {}
        self._deltas: dict[tuple[int, int, int], float] = {}

    def scan(self, a: int, b: int) -> tuple[int, float] | None:
        key = (a, b)
        try:
            return self._cache[key]
        except KeyError:
            out = self.ps.scan(a, b, self.margin)
            self._cache[key] = out
            return out

    def delta_at(self, a: int, t: int, b: int) -> float:
        key = (a, t, b)
        try:
            return self._deltas[key]
        except KeyError:
            delta = self._deltas[key] = self.ps.delta_at(a, t, b)
            return delta

    def insert(self, bounds: list[int], lo: int, hi: int, dirty: set[int], pos: int) -> int:
        """Insert a boundary at pos and mark it and both neighbors dirty."""
        idx = bisect_left(bounds, pos)
        bounds.insert(idx, pos)
        dirty.update(bounds[max(idx - 1, 0) : idx + 2])
        for j in range(idx - 2, idx + 1):
            self._cut(bounds, lo, hi, j)
        return idx

    def move(self, bounds: list[int], lo: int, hi: int, k: int, pos: int) -> None:
        """Move boundary k to pos; a move toward lo narrows the window from
        boundary k - 2, one toward hi the window to boundary k + 2."""
        self.ps.release(bounds[k])
        toward_lo = pos < bounds[k]
        bounds[k] = pos
        self._cut(bounds, lo, hi, k - 2 if toward_lo else k)

    def remove(self, bounds: list[int], k: int) -> int:
        pos = bounds.pop(k)
        self.ps.release(pos)
        return pos

    def _cut(self, bounds: list[int], lo: int, hi: int, j: int) -> None:
        """Cut the terms at the two ends of the window from boundary j to
        boundary j + 2 to its splits."""
        if -1 <= j and j + 2 <= len(bounds):
            self.ps.keep_terms(bounds[j] if j >= 0 else lo, bounds[j + 2] if j + 2 < len(bounds) else hi)


def _optimize(
    sc: _Scanner,
    bounds: list[int],
    lo: int,
    hi: int,
    max_iters: int,
    dirty: set[int],
    moved: set[int] | None = None,
) -> bool:
    """Sweep left to right until a fixed point; returns False if max_iters ran out.

    A boundary's scan depends only on its two neighbors, so a sweep
    re-places just the ``dirty`` boundaries (held by position): those
    whose window changed since their last scan.  A move dirties k+1
    later in the same sweep and k-1 in the next one, which keeps the
    sweep count of a full left-to-right pass.  On return ``dirty`` holds
    the boundaries that may still move (empty after a fixed point);
    indices that moved are added to ``moved``.
    """
    if not bounds:
        return True
    last = len(bounds) - 1
    for _ in range(max_iters):
        heap = sorted(bisect_left(bounds, p) for p in dirty)
        dirty.clear()
        any_moved = False
        while heap:
            k = heappop(heap)
            a = bounds[k - 1] if k > 0 else lo
            b = bounds[k + 1] if k < last else hi
            found = sc.scan(a, b)
            if found is None or found[0] == bounds[k]:
                continue
            sc.move(bounds, lo, hi, k, found[0])
            any_moved = True
            if moved is not None:
                moved.add(k)
            if k < last and (not heap or heap[0] != k + 1):  # k+1, if queued, is the minimum
                heappush(heap, k + 1)
            if k > 0:
                dirty.add(bounds[k - 1])
        if not any_moved:
            return True
    return False


def _recurse(
    sc: _Scanner, lo: int, hi: int, cutoff: float, max_iters: int
) -> tuple[list[int], bool, set[int]]:
    """Greedy recursive splitting of [lo, hi) at the given cutoff.

    Candidates live in a heap keyed (-delta, t): strongest first, equal
    strength leftmost.  Each round scans only the windows next to a
    boundary that was inserted or moved; an entry whose window is no
    longer a segment is dropped when it reaches the top.  Returns the
    boundaries, the convergence flag and the still-dirty positions.
    """
    bounds: list[int] = []
    dirty: set[int] = set()
    converged = True
    heap: list[tuple[float, int, int, int]] = []
    fresh = {(lo, hi)}
    while True:
        for a, b in fresh:
            found = sc.scan(a, b)
            if found is not None and found[1] >= cutoff:
                heappush(heap, (-found[1], found[0], a, b))
        while heap:
            _, t, a, b = heap[0]
            i = bisect_left(bounds, t)
            if (bounds[i - 1] if i else lo) == a and (bounds[i] if i < len(bounds) else hi) == b:
                break
            heappop(heap)
        if not heap:
            return bounds, converged, dirty
        moved = {sc.insert(bounds, lo, hi, dirty, heappop(heap)[1])}
        converged &= _optimize(sc, bounds, lo, hi, max_iters, dirty, moved)
        edges = [lo] + bounds + [hi]
        fresh = {w for k in moved for w in ((edges[k], edges[k + 1]), (edges[k + 1], edges[k + 2]))}


def _prune_weak(
    sc: _Scanner,
    bounds: list[int],
    flags: list[str],
    lo: int,
    hi: int,
    cutoff: float,
    max_iters: int,
    dirty: set[int],
) -> bool:
    """Drop boundaries whose final-window divergence fell below the cutoff
    (optimization can shrink a window after later splits).  Automatic
    boundaries must reach the cutoff; refined ones must exceed it.
    ``dirty`` carries the unsettled boundaries in and out, as in
    ``_optimize``.  Returns the accumulated optimization convergence
    flag."""
    converged = True
    while True:
        weakest: tuple[float, int] | None = None
        for k in range(len(bounds)):
            a = bounds[k - 1] if k > 0 else lo
            b = bounds[k + 1] if k + 1 < len(bounds) else hi
            try:
                delta = sc.delta_at(a, bounds[k], b)
            except DegenerateSplitError:
                delta = -np.inf
            weak = delta <= cutoff if flags[k] == FLAG_REFINED else delta < cutoff
            if weak and (weakest is None or delta < weakest[0]):
                weakest = (delta, k)
        if weakest is None:
            return converged
        k = weakest[1]
        log.debug("pruning sub-cutoff boundary at %d (delta=%.3f)", bounds[k], weakest[0])
        dirty.discard(sc.remove(bounds, k))
        del flags[k]
        dirty.update(bounds[max(k - 1, 0) : k + 1])  # the neighbors now facing each other
        converged &= _optimize(sc, bounds, lo, hi, max_iters, dirty)


def _build_result(
    ps: PrefixSums,
    bounds: list[int],
    flags: list[str],
    cfg: SegmentationConfig,
    converged: bool,
    delta_at: Callable[[int, int, int], float] | None = None,
) -> SegmentationResult:
    """The result for final boundaries ``bounds``; ``delta_at`` (default
    ``ps.delta_at``) gives each boundary's divergence."""
    delta_at = delta_at or ps.delta_at
    n = ps.length
    edges = [0] + list(bounds) + [n]
    segments = tuple(Segment(a, b, ps.stats(a, b)) for a, b in zip(edges, edges[1:]))
    boundaries = []
    for k, pos in enumerate(bounds):
        a = edges[k]
        b = edges[k + 2]
        boundaries.append(Boundary(pos, delta_at(a, pos, b), delta_error(pos - a, b - pos)))
    return SegmentationResult(segments, tuple(boundaries), tuple(flags), cfg, converged)


# ---------------------------------------------------------------------------
# public operations


def recursive_segment(x, cfg: SegmentationConfig | None = None) -> SegmentationResult:
    """Segment a log-return series into stationary Gaussian stretches.

    Splits are only considered where both children keep at least
    ``min_segment_len`` points, and accepted while their divergence
    clears ``cutoff``.  A series with no acceptable split comes back as
    a single segment.
    """
    cfg = cfg or SegmentationConfig()
    arr = np.asarray(x, dtype=np.float64)
    if arr.size < 2 * cfg.min_segment_len:
        raise ValueError(
            f"series of {arr.size} points is shorter than two minimum segments"
        )
    ps = PrefixSums(arr)
    sc = _Scanner(ps, cfg.min_segment_len)
    bounds, converged, dirty = _recurse(sc, 0, arr.size, cfg.cutoff, cfg.max_opt_iters)
    flags = [FLAG_AUTOMATIC] * len(bounds)
    converged &= _prune_weak(
        sc, bounds, flags, 0, arr.size, cfg.cutoff, cfg.max_opt_iters, dirty
    )
    if not converged:
        log.warning("boundary optimization hit max_opt_iters without converging")
    result = _build_result(ps, bounds, flags, cfg, converged, sc.delta_at)
    points = sum(b - a for a, b in sc._cache)
    return replace(result, scans=len(sc._cache), scan_points=points, term_points=ps.terms_computed)


def optimize_boundaries(
    x,
    positions: Sequence[int],
    min_segment_len: int = 2,
    max_iters: int = 100,
) -> tuple[list[int], bool]:
    """Iteratively re-place each boundary between its current neighbors.

    Returns the converged positions and whether a fixed point was
    reached within ``max_iters`` full sweeps.
    """
    arr = np.asarray(x, dtype=np.float64)
    bounds = sorted(int(p) for p in positions)
    if bounds and not (0 < bounds[0] and bounds[-1] < arr.size):
        raise ValueError("boundaries must be interior to the series")
    sc = _Scanner(PrefixSums(arr), max(2, min_segment_len))
    ok = _optimize(sc, bounds, 0, arr.size, max_iters, set(bounds))
    if not ok:
        log.warning("optimize_boundaries stopped at max_iters without a fixed point")
    return bounds, ok


def refine_long_segments(x, result: SegmentationResult, cfg: SegmentationConfig | None = None) -> SegmentationResult:
    """Split overly long segments at half the cutoff.

    Each long window is re-segmented once, locally, at ``cutoff / 2``;
    internal boundaries whose post-optimization divergence clears the
    original cutoff are kept (flagged ``refined``) and the whole series
    is then re-optimized.  Segments that yield no such boundary remain
    whole.  A result without a long segment is returned as it is, under
    ``cfg``.
    """
    cfg = cfg or result.config
    if all(seg.length <= cfg.long_segment_len for seg in result.segments):
        return result if cfg == result.config else replace(result, config=cfg)
    arr = np.asarray(x, dtype=np.float64)
    ps = PrefixSums(arr)
    sc = _Scanner(ps, cfg.min_segment_len)
    bounds = list(result.positions)
    flags = list(result.flags)
    converged = result.converged
    dirty = set(bounds)  # a given result need not be a fixed point
    attempted: set[tuple[int, int]] = set()

    while True:
        edges = [0] + bounds + [arr.size]
        target = None
        for a, b in zip(edges, edges[1:]):
            if b - a > cfg.long_segment_len and (a, b) not in attempted:
                target = (a, b)
                break
        if target is None:
            break
        a, b = target
        attempted.add((a, b))
        found = _refine_window(sc, a, b, cfg)
        if not found:
            continue
        for pos in found:
            flags.insert(sc.insert(bounds, 0, arr.size, dirty, pos), FLAG_REFINED)
        converged &= _optimize(sc, bounds, 0, arr.size, cfg.max_opt_iters, dirty)
        # global optimization may shift positions; refined boundaries only
        # survive if they still clear the cutoff in their final windows
        converged &= _prune_weak(sc, bounds, flags, 0, arr.size, cfg.cutoff, cfg.max_opt_iters, dirty)

    refined = _build_result(ps, bounds, flags, cfg, converged, sc.delta_at)
    return replace(
        refined, scans=result.scans, scan_points=result.scan_points, term_points=result.term_points,
        refine_windows=len(attempted), refine_scans=len(sc._cache),
    )


def _refine_window(sc: _Scanner, a: int, b: int, cfg: SegmentationConfig) -> list[int]:
    """Re-segment [a, b) at half the cutoff; return the internal
    boundaries that re-optimize above the original cutoff."""
    sub_bounds, _, _ = _recurse(sc, a, b, cfg.cutoff / 2, cfg.max_opt_iters)
    keep = []
    for k, pos in enumerate(sub_bounds):
        wa = sub_bounds[k - 1] if k > 0 else a
        wb = sub_bounds[k + 1] if k + 1 < len(sub_bounds) else b
        found = sc.scan(wa, wb)
        if found is not None and found[0] == pos and found[1] > cfg.cutoff:
            keep.append(pos)
    for pos in set(sub_bounds).difference(keep):
        sc.ps.release(pos)
    if keep:
        log.info("refined segment [%d, %d): %d boundary(ies)", a, b, len(keep))
    return keep


# ---------------------------------------------------------------------------
# segment table


def emit_segment_table(result: SegmentationResult, grid: Sequence[dt.datetime]) -> list[dict[str, object]]:
    """Rows in the published listing layout.

    ``grid`` holds the timestamps of the level series (length N+1 for N
    returns); segment m starting at return index s is dated by grid[s].
    Indices in the table are 1-based and inclusive.  The first row has
    no leading boundary, so its divergence columns are empty.
    """
    rows: list[dict[str, object]] = []
    for m, seg in enumerate(result.segments, start=1):
        row: dict[str, object] = {
            "m": m,
            "start": seg.start + 1,
            "end": seg.end,
            "duration": seg.length,
            "start_date": grid[seg.start].strftime("%d/%m/%Y"),
            "mean": seg.stats.mean,
            "mean_err": seg.stats.mean_err,
            "stdev": seg.stats.stdev,
            "stdev_err": seg.stats.stdev_err,
            "delta": "",
            "delta_err": "",
            "flag": "",
        }
        if m >= 2:
            boundary = result.boundaries[m - 2]
            row["delta"] = boundary.divergence
            row["delta_err"] = boundary.divergence_err
            row["flag"] = result.flags[m - 2]
        rows.append(row)
    return rows


def write_segment_csv(rows: list[dict[str, object]], path: str | Path) -> None:
    write_csv(path, TABLE_COLUMNS, ([row[c] for c in TABLE_COLUMNS] for row in rows))


def write_segment_json(
    rows: list[dict[str, object]],
    path: str | Path,
    sector: str,
    config: SegmentationConfig,
    converged: bool,
) -> None:
    """The table as JSON, with the configuration and the result's ``converged`` flag."""
    write_json(path, {"sector": sector, "rows": rows, "config": asdict(config), "converged": converged})


class _TableError(ValueError):
    """A segment table's own message, not wrapped as malformed."""


def _row_segment(row: dict[str, object]) -> Segment:
    """One table row's segment, once the cells that place it and its boundary check out."""
    start, end, m = row["start"], row["end"], row["m"]
    for col, value in (("start", start), ("end", end)):
        if type(value) is not int:
            raise ValueError(f"row {m}: {col} {value!r} is not an integer")
    if row["duration"] != end - start + 1:
        raise ValueError(f"row {m}: duration {row['duration']!r} is not end - start + 1 ({end - start + 1})")
    cells = row["delta"], row["delta_err"]
    if not (all(c in ("", None) for c in cells) or all(type(c) in (int, float) for c in cells)):
        raise ValueError(f"row {m}: delta and delta_err {cells!r} must be two numbers or two blanks")
    stats = SegmentStats(
        n=end - start + 1, mean=float(row["mean"]), stdev=float(row["stdev"]), mean_err=float(row["mean_err"]),
        stdev_err=float(row["stdev_err"]),
    )
    return Segment(start - 1, end, stats)


def read_segment_table(path: str | Path) -> tuple[str, list[Segment], list[Boundary]]:
    """The sector (unchecked; by default the file's stem), segments and
    boundaries of a table ``write_segment_json`` wrote.  Rows need not
    tile a series.  A row after the first has a boundary before it
    unless its ``delta`` and ``delta_err`` are empty.  A malformed table
    raises ValueError."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        sector = payload.get("sector") or path.stem
        rows = payload["rows"]
        if not rows:
            raise _TableError("segment table has no rows")
        missing = sorted({c for row in rows for c in TABLE_COLUMNS if c not in row})
        if missing:
            raise _TableError(f"segment table rows lack columns {missing}")
        segments = [_row_segment(row) for row in rows]
        boundaries = [
            Boundary(seg.start, float(row["delta"]), float(row["delta_err"]))
            for seg, row in zip(segments[1:], rows[1:])
            if row["delta"] not in ("", None)
        ]
    except _TableError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed segment table ({type(exc).__name__}: {exc})") from exc
    return sector, segments, boundaries
