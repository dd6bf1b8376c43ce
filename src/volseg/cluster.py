"""Complete-link clustering of segments into volatility classes.

The distance between two segments is the same divergence used for
splitting, evaluated from sufficient statistics alone: pooling
(n, mean, stdev) of both sides reproduces the divergence of their
concatenated raw windows exactly, so raw data never needs to be kept.

Clusters come out of the merge tree by choosing a threshold; the
statistical criterion is robustness, not significance: a good cluster
count is one that survives a wide threshold interval.  Extracted
clusters are ordered by volatility and mapped onto the heat-map ladder

    black  blue  green   yellow  orange  red
    extremely-low .. extremely-high
    growth growth correction crisis crisis crash
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

from . import _lazy
from .artifacts import write_csv, write_json
from .divergence import VARIANCE_FLOOR, SegmentStats, split_divergence

np = _lazy("numpy")
log = logging.getLogger(__name__)

COLOR_LADDER = ("black", "blue", "green", "yellow", "orange", "red")
# the ladder of 1-3 clusters: a top-k suffix of COLOR_LADDER would label
# the calm baseline crisis; a second class is "very high", the default
# shock class, and a third "extremely high"
_SHORT_LADDER = ("blue", "orange", "red")
# four clusters: the top-4 suffix would start at green (correction), so
# the calmest class is anchored at growth as above
_FOUR_LADDER = ("blue", "yellow", "orange", "red")
PHASE_BY_COLOR = {
    "black": "growth",
    "blue": "growth",
    "green": "correction",
    "yellow": "crisis",
    "orange": "crisis",
    "red": "crash",
}


def _square(x: np.ndarray) -> np.ndarray:
    # Python's ``**`` (libm pow) and ``x * x`` round apart in about 1 of
    # 1,000 cells; the distances follow the scalar formula's ``**``
    return np.fromiter(map(pow, x.tolist(), repeat(2)), np.float64, x.size)


def _square_or_inf(x: float) -> float:
    """``x**2``, or +inf where the square passes the float range (``**``
    raises there, where ``*`` would give inf)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _log(x: np.ndarray) -> np.ndarray:
    # ``np.log`` and ``math.log`` round apart in one or two cells per 10,000
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


class _SegmentColumns:
    """Per-segment terms of the distance formula, computed with Python
    floats exactly as the scalar formula computes them.  Raises
    ValueError for a segment of fewer than 2 points, or whose mean,
    stdev or either square is not finite."""

    def __init__(self, stats: Sequence[SegmentStats]) -> None:
        if any(s.n < 2 for s in stats):
            raise ValueError("segments need at least 2 points each")
        var = [_square_or_inf(s.stdev) for s in stats]
        mean_sq = [_square_or_inf(s.mean) for s in stats]
        for i, (s, v, m2) in enumerate(zip(stats, var, mean_sq)):
            if not (math.isfinite(v) and math.isfinite(m2)):  # NaN and inf square to themselves
                raise ValueError(
                    f"segment {i + 1}: mean {s.mean!r} and stdev {s.stdev!r} must be finite, "
                    "with finite squares"
                )
        self.count = np.array([s.n for s in stats], dtype=np.int64)
        self.weighted_mean = np.array([s.n * s.mean for s in stats], dtype=np.float64)
        self.weighted_m2 = np.array([s.n * (v + m) for s, v, m in zip(stats, var, mean_sq)], dtype=np.float64)
        self.flat = np.array([v <= VARIANCE_FLOOR for v in var], dtype=bool)
        self.weighted_log_var = np.array(
            [0.0 if v <= VARIANCE_FLOOR else s.n * math.log(v) for s, v in zip(stats, var)],
            dtype=np.float64,
        )
        # position in canonical (n, mean, stdev) operand order
        order = sorted(range(len(stats)), key=lambda i: (stats[i].n, stats[i].mean, stats[i].stdev))
        self.rank = np.empty(len(stats), dtype=np.int64)
        self.rank[order] = np.arange(len(stats))

    def distances(self, first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances of the pairs (first[k], second[k]) and which of them
        are degenerate (+inf).

        Each pair is put in canonical order, so a distance is exactly
        symmetric; squares and logs are taken per element with Python's
        ``**`` and ``math.log``, so a cell is the same float whatever the
        batch it is computed in.
        """
        swap = self.rank[first] > self.rank[second]
        a = np.where(swap, second, first)
        b = np.where(swap, first, second)
        n = self.count[a] + self.count[b]
        pooled_mean = (self.weighted_mean[a] + self.weighted_mean[b]) / n
        pooled_m2 = (self.weighted_m2[a] + self.weighted_m2[b]) / n
        pooled_var = np.maximum(pooled_m2 - _square(pooled_mean), 0.0)
        degenerate = (pooled_var <= VARIANCE_FLOOR) | self.flat[a] | self.flat[b]
        ok = ~degenerate
        a, b = a[ok], b[ok]
        dist = np.full(n.shape, np.inf)
        dist[ok] = split_divergence(n[ok] * _log(pooled_var[ok]), self.weighted_log_var[a], self.weighted_log_var[b])
        return dist, degenerate


def segment_distance(a: SegmentStats, b: SegmentStats) -> float:
    """Divergence between two segments from sufficient statistics only.

    Equals the split divergence of their concatenation at t = a.n.
    Degenerate inputs (zero variance on either side or pooled) give
    +inf so they merge last.
    """
    dist, degenerate = _SegmentColumns((a, b)).distances(np.array([0]), np.array([1]))
    if degenerate[0]:
        log.warning("degenerate segment pair in distance computation")
    return float(dist[0])


@dataclass(frozen=True)
class Merge:
    """Clusters ``a`` and ``b`` join at ``height``."""

    a: int
    b: int
    height: float


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge tree; new clusters take ids n_leaves, n_leaves+1, ...

    Complete linkage is monotone, so merge heights never decrease.
    """

    n_leaves: int
    merges: tuple[Merge, ...]

    def __post_init__(self) -> None:
        if len(self.merges) != self.n_leaves - 1:
            raise ValueError("a full agglomeration has exactly n_leaves - 1 merges")
        heights = [m.height for m in self.merges]
        if any(h2 < h1 for h1, h2 in zip(heights, heights[1:])):
            raise ValueError("merge heights must be non-decreasing")

    @property
    def height(self) -> float:
        return self.merges[-1].height if self.merges else 0.0

    def cut(self, threshold: float) -> list[int]:
        """Cluster label per leaf after merging everything at or below
        ``threshold``; labels are numbered 0.. by first appearance in
        leaf order."""
        parent = list(range(self.n_leaves + len(self.merges)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for k, m in enumerate(self.merges):
            if m.height <= threshold:
                new = self.n_leaves + k
                parent[find(m.a)] = new
                parent[find(m.b)] = new
        roots: dict[int, int] = {}
        labels = []
        for leaf in range(self.n_leaves):
            r = find(leaf)
            if r not in roots:
                roots[r] = len(roots)
            labels.append(roots[r])
        return labels

    def threshold_interval(self, k: int) -> tuple[float, float]:
        """Half-open threshold interval [lo, hi) that yields exactly k
        clusters; empty (lo == hi) when duplicate heights skip k."""
        if not 1 <= k <= self.n_leaves:
            raise ValueError(f"k must be in [1, {self.n_leaves}]")
        heights = [m.height for m in self.merges]
        idx = self.n_leaves - k  # merges applied
        lo = heights[idx - 1] if idx > 0 else 0.0
        hi = heights[idx] if idx < len(heights) else math.inf
        return lo, hi


_PAIR_BLOCK = 1 << 12


def complete_link(stats: Sequence[SegmentStats]) -> Dendrogram:
    """Agglomerate segments; inter-cluster distance = max pairwise distance.

    Merge order: least distance, then the smallest (a, b) cluster-id
    pair, with +inf (degenerate) pairs last in id order.  A run costs
    O(n^2) numpy work in the common case and O(n^3) at worst.  One
    segment gives a tree of one leaf and no merges.
    """
    n = len(stats)
    if n < 1:
        raise ValueError("need at least 1 segment to cluster")
    columns = _SegmentColumns(stats)
    # slot s holds cluster ids[s]; a merge reuses the slot of its first
    # member, and the slot merged away takes id 2n, past every cluster id,
    # with +inf in its row and column
    dist = np.full((n, n), np.inf)
    ids = np.arange(n)
    gone = 2 * n
    n_degenerate = 0
    # fill a block of rows at a time, so temporaries stay near _PAIR_BLOCK pairs
    block = max(1, _PAIR_BLOCK // n)
    for lo in range(0, n, block):
        first, second = np.nonzero(np.arange(lo, min(lo + block, n))[:, None] < ids)
        first += lo
        values, degenerate = columns.distances(first, second)
        n_degenerate += int(degenerate.sum())
        dist[first, second] = values
        dist[second, first] = values
    if n_degenerate:
        log.warning(
            "%d of %d segment pairs are degenerate; their distance is +inf",
            n_degenerate,
            n * (n - 1) // 2,
        )

    # each live row's least distance to any other live cluster
    row_min = dist.min(axis=1)
    merges: list[Merge] = []
    for step in range(n - 1):
        # the smallest-id row at the least distance d, then the smallest
        # larger id at d in that row (every cluster of a pair at d has an
        # id of at least ids[sa]; at d = +inf the id test skips row sa's
        # own cell); slots merged away hold id 2n, so they come last
        d = row_min.min()
        sa = int(np.where(row_min == d, ids, gone).argmin())
        sb = int(np.where((dist[sa] == d) & (ids > ids[sa]), ids, gone).argmin())
        merges.append(Merge(int(ids[sa]), int(ids[sb]), float(d)))

        # a finite least distance held in neither merged column is still
        # the row's least, and a +inf row stays +inf
        stale = np.flatnonzero((row_min < np.inf) & ((dist[:, sa] == row_min) | (dist[:, sb] == row_min)))
        merged = np.maximum(dist[sa], dist[sb])
        dist[sa] = merged
        dist[:, sa] = merged
        dist[sb] = np.inf
        dist[:, sb] = np.inf
        ids[sa], ids[sb] = n + step, gone
        row_min[stale] = dist[stale].min(axis=1)
    return Dendrogram(n, tuple(merges))


@dataclass(frozen=True)
class KInterval:
    """Stability of a cluster count: the threshold interval producing it."""

    k: int
    lo: float
    hi: float
    score: float  # interval width / tree height


@dataclass(frozen=True)
class ClusterAssignment:
    """Segment -> cluster labels plus per-cluster volatility and phases.

    Cluster ids are 0..k-1 in order of first appearance along the
    series; colors/phases are empty until ``assign_phases`` runs.
    """

    labels: tuple[int, ...]
    mean_vol: tuple[float, ...]  # per cluster id, length-weighted
    k: int
    policy: str = "uniform-threshold"
    colors: tuple[str, ...] = ()
    phases: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def _cluster_mean_vol(
    stats: Sequence[SegmentStats], labels: Sequence[int], k: int
) -> tuple[float, ...]:
    sums = [0.0] * k
    weights = [0.0] * k
    for s, lab in zip(stats, labels):
        w = float(s.n)
        sums[lab] += w * s.stdev
        weights[lab] += w
    return tuple(s / w for s, w in zip(sums, weights))


def extract_clusters(
    tree: Dendrogram,
    stats: Sequence[SegmentStats],
    k_range: Iterable[int],
) -> tuple[ClusterAssignment, list[KInterval]]:
    """Pick the most robust cluster count in ``k_range`` and label segments.

    For each k the uniform-threshold interval is measured; the pick is
    the k in [4, 6] with the widest interval relative to tree height
    (falling back to the overall widest when none of 4..6 is available).
    When duplicate merge heights leave the picked k no interval of its
    own, the cut yields fewer clusters and the assignment carries a
    warning.  Each cluster's mean volatility is the mean of its
    segments' stdevs weighted by their lengths.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("empty k_range")
    if ks[0] < 1 or ks[-1] > tree.n_leaves:
        raise ValueError(f"k_range must lie within [1, {tree.n_leaves}]")
    if len(stats) != tree.n_leaves:
        raise ValueError("one SegmentStats per leaf required")

    height = tree.height or 1.0
    report: list[KInterval] = []
    for k in ks:
        lo, hi = tree.threshold_interval(k)
        width = (hi - lo) if math.isfinite(hi) else 0.0
        report.append(KInterval(k, lo, hi, width / height))

    # prefer the coarse-grained 4..6 band, but yield when another count
    # is decisively (more than twice) more robust
    global_best = max(report, key=lambda r: (r.score, -r.k))
    in_band = [r for r in report if 4 <= r.k <= 6]
    best = global_best
    if in_band:
        band_best = max(in_band, key=lambda r: (r.score, -r.k))
        if global_best.score <= 2.0 * band_best.score:
            best = band_best
    chosen = best.k
    threshold = 0.5 * (best.lo + (best.hi if math.isfinite(best.hi) else best.lo))

    # leaves are in series order, so the cut numbers clusters by first appearance
    labels = tree.cut(threshold)
    k_actual = max(labels) + 1
    warnings: tuple[str, ...] = ()
    if k_actual != chosen:
        warnings = (f"requested {chosen} clusters, threshold produced {k_actual}",)
        log.warning(warnings[0])
    mean_vol = _cluster_mean_vol(stats, labels, k_actual)
    assignment = ClusterAssignment(
        labels=tuple(labels),
        mean_vol=mean_vol,
        k=k_actual,
        warnings=warnings,
    )
    return assignment, report


def assign_phases(assignment: ClusterAssignment) -> ClusterAssignment:
    """Order clusters by mean volatility and label them along the ladder.

    5 and 6 clusters take the top-k suffix of the ladder (5: blue..red;
    6: black..red), and more than 6 pad the bottom with black.  Fewer
    keep the calmest class at the growth baseline: k <= 3 takes the
    first k of ``_SHORT_LADDER`` (1 cluster: blue; 2: blue, orange; 3:
    blue, orange, red) and 4 take blue, yellow, orange, red.  Counts
    outside 4..6 carry a warning.
    Volatility ties break by earliest segment.
    """
    k = assignment.k
    warnings = list(assignment.warnings)
    first_member = [len(assignment.labels)] * k
    for i, lab in enumerate(assignment.labels):
        first_member[lab] = min(first_member[lab], i)
    if len(set(assignment.mean_vol)) != k:
        warnings.append("mean-volatility tie broken by earliest segment start")
        log.warning("cluster mean volatilities tie; ordering by earliest segment")
    order = sorted(range(k), key=lambda c: (assignment.mean_vol[c], first_member[c]))

    if k <= 3:
        ladder = _SHORT_LADDER[:k]
        if k == 1:
            warnings.append("single cluster: labeled as the growth baseline")
    elif k == 4:
        ladder = _FOUR_LADDER
    elif k <= 6:
        ladder = COLOR_LADDER[-k:]
    else:
        ladder = ("black",) * (k - 6) + COLOR_LADDER
        warnings.append(f"{k} clusters exceed the 6-color ladder; extras labeled black")
    if not 4 <= k <= 6:
        warnings.append(f"cluster count {k} outside the usual 4..6 range")

    colors = [""] * k
    for rank, cid in enumerate(order):
        colors[cid] = ladder[rank]
    phases = tuple(PHASE_BY_COLOR[c] for c in colors)
    return replace(assignment, colors=tuple(colors), phases=phases, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# file formats


def dendrogram_to_json(tree: Dendrogram, path: str | Path, sector: str = "") -> None:
    payload = {
        "sector": sector,
        "n_leaves": tree.n_leaves,
        "merges": [{"a": m.a, "b": m.b, "height": m.height} for m in tree.merges],
    }
    write_json(path, payload)


def write_merges_csv(tree: Dendrogram, path: str | Path) -> None:
    write_csv(path, ("merge", "a", "b", "height"), ((i, m.a, m.b, m.height) for i, m in enumerate(tree.merges)))


ASSIGNMENT_COLUMNS = ("segment", "cluster", "color", "phase")


def write_assignment_csv(assignment: ClusterAssignment, path: str | Path) -> None:
    colors, phases = assignment.colors, assignment.phases
    rows = ((sid, lab, colors[lab], phases[lab]) for sid, lab in enumerate(assignment.labels, start=1))
    write_csv(path, ASSIGNMENT_COLUMNS, rows)


def _cluster_id(text: str | None) -> int:
    try:
        value = int(text or "")
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"cluster id {text!r} is not a non-negative integer")
    return value


def read_assignment(path: str | Path, n_segments: int) -> ClusterAssignment:
    """The labels, colors and phases of an assignment CSV of ``n_segments``
    segments; the file holds no volatilities, so ``mean_vol`` is zeros.
    Raises ``ValueError`` on a missing column, a cluster id that is not a
    non-negative integer or is ``n_segments`` or more, a color off the
    ladder, or a row count other than ``n_segments``."""
    labels: list[int] = []
    named: dict[int, tuple[str, str]] = {}  # cluster id -> color and phase of its last row
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ASSIGNMENT_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"assignment lacks columns {missing}")
        for rec in reader:
            if rec["color"] not in PHASE_BY_COLOR:
                raise ValueError(f"segment {rec['segment']}: unknown color {rec['color']!r}")
            labels.append(_cluster_id(rec["cluster"]))
            named[labels[-1]] = rec["color"], rec["phase"]
    if len(labels) != n_segments:
        raise ValueError(f"{len(labels)} labels for {n_segments} segments")
    k = max(labels) + 1
    if k > n_segments:
        raise ValueError(f"cluster id {k - 1} for {n_segments} segments")
    colors, phases = zip(*(named.get(c, ("", "")) for c in range(k)))
    return ClusterAssignment(tuple(labels), (0.0,) * k, k, colors=colors, phases=phases)


def write_robustness_json(report: list[KInterval], path: str | Path, assignment: ClusterAssignment) -> None:
    payload = {
        "chosen_k": assignment.k,
        "warnings": sorted(assignment.warnings),
        "intervals": [
            {
                "k": r.k,
                "lo": r.lo,
                "hi": r.hi if math.isfinite(r.hi) else None,
                "score": r.score,
            }
            for r in report
        ],
    }
    write_json(path, payload)
