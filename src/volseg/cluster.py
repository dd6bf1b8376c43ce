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
import json
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .divergence import VARIANCE_FLOOR, SegmentStats

log = logging.getLogger(__name__)

COLOR_LADDER = ("black", "blue", "green", "yellow", "orange", "red")
VOLATILITY_LABELS = (
    "extremely low",
    "low",
    "moderate",
    "high",
    "very high",
    "extremely high",
)
PHASE_BY_COLOR = {
    "black": "growth",
    "blue": "growth",
    "green": "correction",
    "yellow": "crisis",
    "orange": "crisis",
    "red": "crash",
}


def segment_distance(a: SegmentStats, b: SegmentStats) -> float:
    """Divergence between two segments from sufficient statistics only.

    Equals the split divergence of their concatenation at t = a.n.
    Degenerate inputs (zero variance on either side or pooled) give
    +inf so they merge last.
    """
    if a.n < 2 or b.n < 2:
        raise ValueError("segments need at least 2 points each")
    # canonical operand order makes the result exactly symmetric in (a, b)
    a, b = sorted((a, b), key=lambda s: (s.n, s.mean, s.stdev))
    n = a.n + b.n
    pooled_mean = (a.n * a.mean + b.n * b.mean) / n
    pooled_m2 = (a.n * (a.stdev**2 + a.mean**2) + b.n * (b.stdev**2 + b.mean**2)) / n
    pooled_var = max(pooled_m2 - pooled_mean**2, 0.0)
    var_a = a.stdev**2
    var_b = b.stdev**2
    if min(pooled_var, var_a, var_b) <= VARIANCE_FLOOR:
        log.warning("degenerate segment pair in distance computation")
        return math.inf
    return 0.5 * (
        n * math.log(pooled_var) - a.n * math.log(var_a) - b.n * math.log(var_b)
    ) + 0.5


@dataclass(frozen=True)
class Merge:
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

    def members(self, cluster_id: int) -> tuple[int, ...]:
        if cluster_id < self.n_leaves:
            return (cluster_id,)
        m = self.merges[cluster_id - self.n_leaves]
        return tuple(sorted(self.members(m.a) + self.members(m.b)))

    def cut(self, threshold: float) -> list[int]:
        """Cluster label per leaf after merging everything at or below
        ``threshold``; labels are renumbered 0.. by smallest member."""
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

    def n_clusters(self, threshold: float) -> int:
        return self.n_leaves - sum(1 for m in self.merges if m.height <= threshold)

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


def complete_link(stats: Sequence[SegmentStats]) -> Dendrogram:
    """Agglomerate segments; inter-cluster distance = max pairwise distance.

    Distance ties resolve toward the smallest (a, b) cluster-id pair.
    """
    n = len(stats)
    if n < 2:
        raise ValueError("need at least 2 segments to cluster")
    total = 2 * n - 1
    dist = np.full((total, total), np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = segment_distance(stats[i], stats[j])

    active: list[int] = list(range(n))
    merges: list[Merge] = []
    for step in range(n - 1):
        best: tuple[float, int, int] | None = None
        for ii, a in enumerate(active):
            for b in active[ii + 1 :]:
                d = dist[a, b]
                if best is None or d < best[0] or (d == best[0] and (a, b) < (best[1], best[2])):
                    best = (d, a, b)
        assert best is not None
        d, a, b = best
        new = n + step
        merges.append(Merge(a, b, float(d)))
        for c in active:
            if c != a and c != b:
                dist[new, c] = dist[c, new] = max(dist[a, c], dist[b, c])
        active.remove(a)
        active.remove(b)
        active.append(new)
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
    mean_vol: tuple[float, ...]  # per cluster id, length-weighted by default
    k: int
    policy: str
    colors: tuple[str, ...] = ()
    phases: tuple[str, ...] = ()
    vol_labels: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    def color_of(self, segment_index: int) -> str:
        return self.colors[self.labels[segment_index]]

    def phase_of(self, segment_index: int) -> str:
        return self.phases[self.labels[segment_index]]


def _cluster_mean_vol(
    stats: Sequence[SegmentStats], labels: Sequence[int], k: int, weighted: bool
) -> tuple[float, ...]:
    sums = [0.0] * k
    weights = [0.0] * k
    for s, lab in zip(stats, labels):
        w = float(s.n) if weighted else 1.0
        sums[lab] += w * s.stdev
        weights[lab] += w
    return tuple(s / w for s, w in zip(sums, weights))


def extract_clusters(
    tree: Dendrogram,
    stats: Sequence[SegmentStats],
    k_range: Iterable[int],
    policy: str = "uniform-threshold",
    weighted: bool = True,
) -> tuple[ClusterAssignment, list[KInterval]]:
    """Pick the most robust cluster count in ``k_range`` and label segments.

    For each k the uniform-threshold interval is measured; the default
    pick is the k in [4, 6] with the widest interval relative to tree
    height (falling back to the overall widest when none of 4..6 is
    available).  The per-branch policy instead cuts the two top-level
    branches with independent thresholds and scores a k by the best
    split k = k_left + k_right.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("empty k_range")
    if ks[0] < 1 or ks[-1] > tree.n_leaves:
        raise ValueError(f"k_range must lie within [1, {tree.n_leaves}]")
    if len(stats) != tree.n_leaves:
        raise ValueError("one SegmentStats per leaf required")
    if policy not in ("uniform-threshold", "per-branch"):
        raise ValueError(f"unknown policy {policy!r}")

    height = tree.height or 1.0
    report: list[KInterval] = []
    for k in ks:
        if policy == "per-branch" and k >= 2 and tree.n_leaves >= 2:
            split = _best_branch_split(tree, k)
            score = split[0] if split is not None else 0.0
            lo, hi = tree.threshold_interval(k)
            report.append(KInterval(k, lo, hi, score))
        else:
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

    raw_labels: list[int] | None = None
    if policy == "per-branch" and chosen >= 2 and tree.n_leaves >= 2:
        raw_labels = _per_branch_labels(tree, chosen)
        if raw_labels is None:
            log.warning("no per-branch split yields %d clusters; using uniform threshold", chosen)
    if raw_labels is None:
        threshold = 0.5 * (best.lo + (best.hi if math.isfinite(best.hi) else best.lo))
        raw_labels = tree.cut(threshold)

    # renumber by first appearance along the series
    remap: dict[int, int] = {}
    labels = []
    for lab in raw_labels:
        if lab not in remap:
            remap[lab] = len(remap)
        labels.append(remap[lab])
    k_actual = len(remap)
    if k_actual != chosen:
        log.warning("requested %d clusters, threshold produced %d", chosen, k_actual)
    mean_vol = _cluster_mean_vol(stats, labels, k_actual, weighted)
    assignment = ClusterAssignment(
        labels=tuple(labels),
        mean_vol=mean_vol,
        k=k_actual,
        policy=policy,
    )
    return assignment, report


def _branch_heights(tree: Dendrogram, cluster_id: int) -> list[float]:
    """Sorted heights of all merges inside the subtree at ``cluster_id``."""
    out: list[float] = []
    stack = [cluster_id]
    while stack:
        c = stack.pop()
        if c >= tree.n_leaves:
            m = tree.merges[c - tree.n_leaves]
            out.append(m.height)
            stack.append(m.a)
            stack.append(m.b)
    return sorted(out)


def _branch_interval(
    heights: list[float], n_branch_leaves: int, k: int, cap: float
) -> tuple[float, float] | None:
    """Threshold interval giving exactly k clusters inside one branch."""
    if not 1 <= k <= n_branch_leaves:
        return None
    applied = n_branch_leaves - k
    lo = heights[applied - 1] if applied > 0 else 0.0
    hi = heights[applied] if applied < len(heights) else cap
    if hi <= lo:
        return None
    return lo, hi


def _best_branch_split(
    tree: Dendrogram, k: int
) -> tuple[float, int, float, float] | None:
    """Best (score, k_left, threshold_left, threshold_right) for total k.

    The score of a split is the narrower of the two branch stability
    intervals, relative to tree height; ties prefer fewer clusters on
    the left branch.
    """
    root = tree.merges[-1]
    left, right = tree.members(root.a), tree.members(root.b)
    ha = _branch_heights(tree, root.a)
    hb = _branch_heights(tree, root.b)
    cap = tree.height
    best: tuple[float, int, float, float] | None = None
    for ka in range(1, len(left) + 1):
        kb = k - ka
        ia = _branch_interval(ha, len(left), ka, cap)
        ib = _branch_interval(hb, len(right), kb, cap)
        if ia is None or ib is None:
            continue
        score = min(ia[1] - ia[0], ib[1] - ib[0]) / (cap or 1.0)
        if best is None or score > best[0]:
            best = (score, ka, 0.5 * (ia[0] + ia[1]), 0.5 * (ib[0] + ib[1]))
    return best


def _per_branch_labels(tree: Dendrogram, k: int) -> list[int] | None:
    """Independent thresholds on the two top branches totalling k clusters.

    Branches are disjoint subtrees, so a global cut at a branch's
    threshold restricted to that branch's leaves equals the branch-local
    cut (both thresholds sit below the root height).
    """
    split = _best_branch_split(tree, k)
    if split is None:
        return None
    _, _, thr_left, thr_right = split
    root = tree.merges[-1]
    left = set(tree.members(root.a))
    cut_left = tree.cut(thr_left)
    cut_right = tree.cut(thr_right)
    labels = []
    for leaf in range(tree.n_leaves):
        if leaf in left:
            labels.append(2 * cut_left[leaf])  # even ids: left branch
        else:
            labels.append(2 * cut_right[leaf] + 1)
    return labels


def assign_phases(
    assignment: ClusterAssignment, stats: Sequence[SegmentStats] | None = None
) -> ClusterAssignment:
    """Order clusters by mean volatility and label them along the ladder.

    k <= 6 takes the top-k suffix of the ladder (5 clusters: blue..red;
    6: black..red); a lone cluster is treated as the growth baseline
    (blue).  Counts outside 4..6 are labeled on a best-effort ladder
    suffix with a warning.  Volatility ties break by earliest segment.
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

    if k == 1:
        ladder = ("blue",)
        warnings.append("single cluster: labeled as the growth baseline")
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
    vol_labels = tuple(
        VOLATILITY_LABELS[COLOR_LADDER.index(c)] for c in colors
    )
    return replace(
        assignment,
        colors=tuple(colors),
        phases=phases,
        vol_labels=vol_labels,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# file formats


def dendrogram_to_json(tree: Dendrogram, path: str | Path, sector: str = "") -> None:
    def node(cid: int) -> dict:
        if cid < tree.n_leaves:
            return {"leaf": cid}
        m = tree.merges[cid - tree.n_leaves]
        return {"height": m.height, "children": [node(m.a), node(m.b)]}

    payload = {
        "sector": sector,
        "n_leaves": tree.n_leaves,
        "merges": [{"a": m.a, "b": m.b, "height": m.height} for m in tree.merges],
        "tree": node(2 * tree.n_leaves - 2) if tree.n_leaves > 1 else {"leaf": 0},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def write_merges_csv(tree: Dendrogram, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["merge", "a", "b", "height"])
        for i, m in enumerate(tree.merges):
            writer.writerow([i, m.a, m.b, repr(m.height)])


def write_assignment_csv(
    assignment: ClusterAssignment, path: str | Path, segment_ids: Sequence[object] | None = None
) -> None:
    ids = segment_ids if segment_ids is not None else range(1, len(assignment.labels) + 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["segment", "cluster", "color", "phase"])
        for sid, lab in zip(ids, assignment.labels):
            color = assignment.colors[lab] if assignment.colors else ""
            phase = assignment.phases[lab] if assignment.phases else ""
            writer.writerow([sid, lab, color, phase])


def read_assignment_csv(path: str | Path) -> list[dict[str, object]]:
    with open(path, newline="") as fh:
        return [
            {
                "segment": rec["segment"],
                "cluster": int(rec["cluster"]),
                "color": rec["color"],
                "phase": rec["phase"],
            }
            for rec in csv.DictReader(fh)
        ]


def write_robustness_json(report: list[KInterval], path: str | Path, chosen: int) -> None:
    payload = {
        "chosen_k": chosen,
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
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
