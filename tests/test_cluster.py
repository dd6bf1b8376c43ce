import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scaled_window
from volseg.cluster import (
    COLOR_LADDER,
    ClusterAssignment,
    Dendrogram,
    Merge,
    _SegmentColumns,
    assign_phases,
    complete_link,
    dendrogram_to_json,
    extract_clusters,
    segment_distance,
)
from volseg.divergence import VARIANCE_FLOOR, SegmentStats, js_divergence, segment_stats


def stats_of(rng, n, mean, stdev) -> SegmentStats:
    return segment_stats(scaled_window(rng, n, mean, stdev))


def brute_force_agglomeration(stats):
    """Re-derive every inter-cluster distance from raw member pairs each
    round (leaf distances come from ``segment_distance`` once); ties
    break on the smallest (a, b) id pair."""
    n = len(stats)
    leaf = {(i, j): segment_distance(stats[i], stats[j]) for i in range(n) for j in range(i + 1, n)}
    clusters = {i: (i,) for i in range(n)}
    merges = []
    next_id = n
    while len(clusters) > 1:
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if b <= a:
                    continue
                d = max(leaf[min(i, j), max(i, j)] for i in clusters[a] for j in clusters[b])
                if best is None or d < best[0] or (d == best[0] and (a, b) < best[1:]):
                    best = (d, a, b)
        d, a, b = best
        clusters[next_id] = tuple(sorted(clusters[a] + clusters[b]))
        del clusters[a], clusters[b]
        merges.append(Merge(a, b, d))
        next_id += 1
    return merges


def reference_distance(a: SegmentStats, b: SegmentStats) -> float:
    """The scalar ``segment_distance`` formula as it stood before the
    distance matrix was vectorized, verbatim but for its log warning."""
    a, b = sorted((a, b), key=lambda s: (s.n, s.mean, s.stdev))
    n = a.n + b.n
    pooled_mean = (a.n * a.mean + b.n * b.mean) / n
    pooled_m2 = (a.n * (a.stdev**2 + a.mean**2) + b.n * (b.stdev**2 + b.mean**2)) / n
    pooled_var = max(pooled_m2 - pooled_mean**2, 0.0)
    var_a = a.stdev**2
    var_b = b.stdev**2
    if min(pooled_var, var_a, var_b) <= VARIANCE_FLOOR:
        return math.inf
    return 0.5 * (
        n * math.log(pooled_var) - a.n * math.log(var_a) - b.n * math.log(var_b)
    ) + 0.5


def edge_case_stats(rng, m: int) -> list[SegmentStats]:
    """Segments drawn so that equal lengths, equal means, zero and
    below-floor variances, and pooled variances lost to cancellation
    (mean 1 with stdev 1e-9) all occur often."""
    out = []
    for _ in range(m):
        n = int(rng.choice([2, 3, 50, 120, int(rng.integers(2, 400))]))
        mean = float(rng.choice([0.0, 1e-4, -2e-4, 1.0, rng.normal() * 1e-3, rng.normal()]))
        u = rng.random()
        if u < 0.05:
            stdev = 0.0
        elif u < 0.08:
            stdev = 1e-16
        elif u < 0.12:
            mean, stdev = 1.0, 1e-9
        else:
            stdev = float(10 ** rng.uniform(-5, -1))
        out.append(SegmentStats(n, mean, stdev, 0.0, 0.0))
    return out


class TestDistanceKernel:
    def test_matrix_equals_scalar_formula_bit_for_bit(self):
        stats = edge_case_stats(np.random.default_rng(4242), 300)
        first, second = np.triu_indices(len(stats), 1)
        want = np.array(
            [reference_distance(stats[i], stats[j]) for i, j in zip(first.tolist(), second.tolist())]
        )
        columns = _SegmentColumns(stats)
        for pairs in ((first, second), (second, first)):
            got, degenerate = columns.distances(*pairs)
            assert np.array_equal(got, want)  # exact, +inf included
            assert np.array_equal(degenerate, np.isinf(want))
        assert 0 < np.isinf(want).sum() < want.size

    def test_one_pair_case_equals_scalar_formula(self):
        stats = edge_case_stats(np.random.default_rng(4243), 400)
        for a, b in zip(stats[::2], stats[1::2]):
            assert segment_distance(a, b) == reference_distance(a, b)
            assert segment_distance(b, a) == reference_distance(a, b)


class TestSegmentDistance:
    def test_identical_models_give_constant(self, rng):
        s = stats_of(rng, 40, 1e-4, 2e-3)
        assert segment_distance(s, s) == pytest.approx(0.5, abs=1e-12)

    def test_matches_concatenation_divergence(self, rng):
        for _ in range(200):
            na, nb = int(rng.integers(4, 80)), int(rng.integers(4, 80))
            wa = rng.normal(rng.normal() * 1e-3, 10 ** rng.uniform(-4, -2), na)
            wb = rng.normal(rng.normal() * 1e-3, 10 ** rng.uniform(-4, -2), nb)
            d = segment_distance(segment_stats(wa), segment_stats(wb))
            oracle = js_divergence(np.concatenate([wa, wb]), na)
            assert d == pytest.approx(oracle, abs=1e-9)

    def test_symmetry_is_exact(self, rng):
        a = stats_of(rng, 33, 2e-4, 1.5e-3)
        b = stats_of(rng, 71, -4e-4, 6e-3)
        assert segment_distance(a, b) == segment_distance(b, a)

    def test_degenerate_side_gives_infinity(self):
        flat = segment_stats([1e-3] * 10)
        other = segment_stats([0.0, 1e-3, 2e-3, -1e-3])
        assert segment_distance(flat, other) == math.inf

    def test_minimum_lengths(self, rng):
        good = stats_of(rng, 10, 0, 1e-3)
        with pytest.raises(ValueError):
            segment_distance(SegmentStats(1, 0.0, 1.0, 1.0, 1.0), good)


class TestCompleteLink:
    def test_three_segment_hand_case(self, rng):
        # engineered so d(0,1) is smallest; the final height is the max
        # of the two cross distances (complete-link definition)
        s0 = stats_of(rng, 200, 0.0, 1.00e-3)
        s1 = stats_of(rng, 200, 0.0, 1.05e-3)
        s2 = stats_of(rng, 200, 0.0, 4.00e-3)
        tree = complete_link([s0, s1, s2])
        assert (tree.merges[0].a, tree.merges[0].b) == (0, 1)
        assert tree.merges[0].height == segment_distance(s0, s1)
        assert tree.merges[1].height == max(segment_distance(s0, s2), segment_distance(s1, s2))

    def test_matches_brute_force_oracle(self, rng):
        for trial in range(60):
            m = int(rng.integers(2, 9))
            stats = [
                stats_of(rng, int(rng.integers(8, 120)), rng.normal() * 1e-4, 10 ** rng.uniform(-3.5, -2))
                for _ in range(m)
            ]
            tree = complete_link(stats)
            assert list(tree.merges) == brute_force_agglomeration(stats)

    def test_heights_non_decreasing(self, rng):
        stats = [stats_of(rng, 50, 0, 10 ** rng.uniform(-4, -2)) for _ in range(12)]
        tree = complete_link(stats)
        heights = [m.height for m in tree.merges]
        assert heights == sorted(heights)

    def test_permutation_gives_isomorphic_tree(self, rng):
        stats = [
            stats_of(rng, int(rng.integers(20, 90)), rng.normal() * 1e-4, 10 ** rng.uniform(-3.5, -2))
            for _ in range(7)
        ]
        perm = list(rng.permutation(7))
        permuted = [stats[p] for p in perm]
        t1 = complete_link(stats)
        t2 = complete_link(permuted)
        assert [m.height for m in t1.merges] == pytest.approx([m.height for m in t2.merges], abs=0)
        # identical composition: compare member sets mapped through the permutation
        def compositions(tree, mapping):
            leaves = {i: (i,) for i in range(tree.n_leaves)}
            for k, m in enumerate(tree.merges):
                leaves[tree.n_leaves + k] = leaves[m.a] + leaves[m.b]
            return {tuple(sorted(mapping[i] for i in leaves[c])) for c in range(tree.n_leaves, len(leaves))}

        ident = {i: i for i in range(7)}
        back = {i: perm[i] for i in range(7)}
        assert compositions(t1, ident) == compositions(t2, back)

    def test_one_segment_gives_a_leaf_only_tree_and_none_raises(self, rng):
        assert complete_link([stats_of(rng, 10, 0, 1e-3)]) == Dendrogram(1, ())
        with pytest.raises(ValueError, match="at least 1 segment"):
            complete_link([])


def oracle_sets(seed: int, kind: str) -> list[list[SegmentStats]]:
    """Seeded segment sets of 2-40 leaves for the agglomeration oracle."""
    rng = np.random.default_rng(seed)
    flat = SegmentStats(30, 1e-4, 0.0, 0.0, 0.0)
    sets = []
    for m in (2, 3, 4, 7, 12, 23, 40):
        stats = [
            stats_of(rng, int(rng.integers(8, 120)), rng.normal() * 1e-4, 10 ** rng.uniform(-3.5, -2))
            for _ in range(m)
        ]
        if kind == "duplicates":
            # repeats of a few segments give exact distance ties
            pool = stats[: max(1, m // 3)]
            stats = [pool[int(i)] for i in rng.integers(0, len(pool), m)]
        elif kind == "one-flat":
            stats[int(rng.integers(m))] = flat
        elif kind == "flat-mixed":
            for i in rng.choice(m, size=max(1, m // 2), replace=False):
                stats[int(i)] = SegmentStats(int(rng.integers(2, 60)), 0.0, float(rng.choice([0.0, 1e-16])), 0.0, 0.0)
        elif kind == "all-degenerate":
            stats = [
                SegmentStats(int(rng.integers(2, 60)), float(rng.normal()), float(rng.choice([0.0, 1e-16])), 0.0, 0.0)
                for _ in range(m)
            ]
        sets.append(stats)
    return sets


class TestCompleteLinkTiesAndDegenerates:
    @pytest.mark.parametrize(
        "seed, kind",
        [(1, "duplicates"), (2, "one-flat"), (3, "flat-mixed"), (4, "all-degenerate"), (5, "plain")],
    )
    def test_matches_brute_force_oracle(self, seed, kind):
        for stats in oracle_sets(seed, kind):
            tree = complete_link(stats)
            assert list(tree.merges) == brute_force_agglomeration(stats)

    def test_all_degenerate_merges_in_id_order(self):
        # every distance is +inf, so each step takes the smallest live pair
        stats = [SegmentStats(10, 0.0, 0.0, 0.0, 0.0)] * 5
        tree = complete_link(stats)
        assert [(m.a, m.b) for m in tree.merges] == [(0, 1), (2, 3), (4, 5), (6, 7)]
        assert all(m.height == math.inf for m in tree.merges)

    def test_one_warning_per_call_with_pair_count(self, rng, caplog):
        stats = [stats_of(rng, 40, 0.0, 10 ** rng.uniform(-3.5, -2)) for _ in range(9)]
        stats += [SegmentStats(20, 0.0, 0.0, 0.0, 0.0), SegmentStats(20, 0.0, 1e-16, 0.0, 0.0)]
        with caplog.at_level(logging.WARNING, logger="volseg.cluster"):
            complete_link(stats)
        records = [r.getMessage() for r in caplog.records if "degenerate" in r.getMessage()]
        # pairs touching either flat segment: 55 in all, 36 among the others
        assert records == ["19 of 55 segment pairs are degenerate; their distance is +inf"]

    def test_scalar_distance_still_warns_per_call(self, caplog):
        flat = SegmentStats(10, 0.0, 0.0, 0.0, 0.0)
        other = SegmentStats(10, 0.0, 1e-3, 0.0, 0.0)
        with caplog.at_level(logging.WARNING, logger="volseg.cluster"):
            segment_distance(flat, other)
            segment_distance(other, flat)
        assert sum("degenerate" in r.getMessage() for r in caplog.records) == 2


# few enough distinct leaves that repeats, and so exact ties between a
# merged cluster and a leaf of lower slot but higher id, are common; flat
# leaves (stdev 0 and 1e-16, at or below the variance floor) give +inf
# rows, all-+inf tables included
LEAF_POOL = tuple(
    SegmentStats(n, mean, stdev, 0.0, 0.0)
    for n, mean, stdev in (
        (30, 0.0, 1e-3),
        (30, 0.0, 2e-3),
        (60, 1e-4, 1e-3),
        (12, -2e-4, 4e-3),
        (30, 0.0, 0.0),
        (8, 1e-4, 1e-16),
    )
)


class TestCompleteLinkDifferential:
    @given(st.lists(st.sampled_from(LEAF_POOL), min_size=1, max_size=12))
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    def test_equals_brute_force_agglomeration(self, stats):
        assert list(complete_link(stats).merges) == brute_force_agglomeration(stats)


def chain_tree(n: int) -> Dendrogram:
    """Leaf k + 1 joins the cluster of leaves 0..k at height k + 1."""
    return Dendrogram(
        n, tuple(Merge(0 if k == 0 else n + k - 1, k + 1, float(k + 1)) for k in range(n - 1))
    )


class TestDeepDendrogram:
    N = 1500

    def test_json_of_chain(self, tmp_path):
        tree = chain_tree(self.N)
        path = tmp_path / "chain.dendrogram.json"
        dendrogram_to_json(tree, path, "CH")
        payload = json.loads(path.read_text())
        assert sorted(payload) == ["merges", "n_leaves", "sector"]
        assert payload["sector"] == "CH" and payload["n_leaves"] == self.N
        # leaf k + 1 joins cluster N + k - 1 (leaf 0 at the first merge)
        assert payload["merges"] == [
            {"a": 0 if k == 0 else self.N + k - 1, "b": k + 1, "height": float(k + 1)}
            for k in range(self.N - 1)
        ]
        # one line per key of every merge: the size grows linearly with depth
        assert path.stat().st_size < 60 * self.N


def published_style_tree() -> Dendrogram:
    # heights echo the published top levels: 31.3, 34.4, 102.2, 249.3, 739.1
    merges = (
        Merge(0, 1, 31.3),
        Merge(7, 2, 34.4),
        Merge(3, 4, 50.0),
        Merge(8, 9, 102.2),
        Merge(5, 10, 249.3),
        Merge(6, 11, 739.1),
    )
    return Dendrogram(7, merges)


class TestDendrogram:
    def test_two_clusters_between_top_heights(self):
        tree = published_style_tree()
        for threshold in (250.0, 500.0, 739.0):
            assert len(set(tree.cut(threshold))) == 2
        assert tree.threshold_interval(2) == (249.3, 739.1)

    def test_three_cluster_interval(self):
        tree = published_style_tree()
        assert tree.threshold_interval(3) == (102.2, 249.3)

    def test_every_leaf_its_own_cluster_below_first_merge(self):
        tree = published_style_tree()
        assert tree.cut(31.2) == list(range(7))
        lo, hi = tree.threshold_interval(7)
        assert lo == 0.0 and hi == 31.3

    def test_cut_labels_consistent_with_count(self):
        tree = published_style_tree()
        # merges up to 102.2 join leaves 0..4; leaves 5 and 6 stay apart
        assert tree.cut(150.0) == [0, 0, 0, 0, 0, 1, 2]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cut_numbers_clusters_by_first_appearance(self, seed):
        # random merge orders and heights, with ties, cut at random
        # thresholds and at merge heights
        rng = np.random.default_rng(seed)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            live, merges, height = list(range(n)), [], 0.0
            for step in range(n - 1):
                a, b = (live.pop(int(rng.integers(len(live)))) for _ in range(2))
                height += float(rng.choice([0.0, rng.exponential()]))
                merges.append(Merge(a, b, height))
                live.append(n + step)
            tree = Dendrogram(n, tuple(merges))
            threshold = rng.uniform(-0.5, height + 0.5)
            if merges and rng.random() < 0.5:
                threshold = merges[int(rng.integers(len(merges)))].height
            labels = tree.cut(threshold)
            # first appearances along the leaves read 0, 1, 2, ...
            firsts = list(dict.fromkeys(labels))
            assert firsts == list(range(len(firsts)))
            # and the clusters are the leaf sets of the merges at or below the threshold
            leaves = {i: {i} for i in range(n)}
            for k, m in enumerate(merges):
                if m.height <= threshold:
                    leaves[n + k] = leaves.pop(m.a) | leaves.pop(m.b)
            clusters = {}
            for leaf, label in enumerate(labels):
                clusters.setdefault(label, set()).add(leaf)
            assert sorted(map(sorted, clusters.values())) == sorted(map(sorted, leaves.values()))

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            Dendrogram(3, (Merge(0, 1, 5.0), Merge(2, 3, 1.0)))


def three_class_stats(rng, per_class=4, n=400):
    stats = []
    for sigma in (1e-3, 3e-3, 9e-3):
        for _ in range(per_class):
            jitter = sigma * (1 + float(rng.uniform(-0.03, 0.03)))
            stats.append(stats_of(rng, n, 0.0, jitter))
    return stats


class TestExtractClusters:
    def test_three_class_fixture_most_robust_at_three(self, rng):
        # among counts that can resolve all three classes, k=3 survives
        # the widest threshold interval and wins the pick
        stats = three_class_stats(rng)
        tree = complete_link(stats)
        assignment, report = extract_clusters(tree, stats, range(3, 9))
        best = max(report, key=lambda r: r.score)
        assert best.k == 3
        assert assignment.k == 3

    def test_default_pick_prefers_four_to_six(self, rng):
        stats = three_class_stats(rng)
        tree = complete_link(stats)
        assignment, report = extract_clusters(tree, stats, range(4, 7))
        assert assignment.k in (4, 5, 6)

    def test_threshold_interval_endpoints_same_composition(self, rng):
        stats = three_class_stats(rng)
        tree = complete_link(stats)
        _, report = extract_clusters(tree, stats, [3])
        (interval,) = report
        eps = 1e-9 * tree.height
        lo_labels = tree.cut(interval.lo + eps)
        hi_labels = tree.cut(interval.hi - eps)
        assert lo_labels == hi_labels

    def test_k_equal_leaves(self, rng):
        stats = three_class_stats(rng, per_class=2)
        tree = complete_link(stats)
        assignment, _ = extract_clusters(tree, stats, [len(stats)])
        assert assignment.k == len(stats)
        assert sorted(assignment.labels) == list(range(len(stats)))

    def test_empty_k_range_rejected(self, rng):
        stats = three_class_stats(rng, per_class=2)
        tree = complete_link(stats)
        with pytest.raises(ValueError, match="empty"):
            extract_clusters(tree, stats, [])

    def test_length_weighted_mean_volatility(self, rng):
        a = stats_of(rng, 100, 0.0, 1e-3)
        b = stats_of(rng, 300, 0.0, 2e-3)
        c = stats_of(rng, 100, 0.0, 9e-3)
        tree = complete_link([a, b, c])
        assignment, _ = extract_clusters(tree, [a, b, c], [2])
        merged = sorted(assignment.mean_vol)[0]
        expect = (100 * a.stdev + 300 * b.stdev) / 400
        assert merged == pytest.approx(expect, abs=1e-15)


class TestAssignPhases:
    def make_assignment(self, vols, lengths=None):
        k = len(vols)
        return ClusterAssignment(
            labels=tuple(range(k)),
            mean_vol=tuple(vols),
            k=k,
        )

    def test_six_cluster_ladder(self):
        vols = (0.0005, 0.0015, 0.0023, 0.0031, 0.0053, 0.0121)
        out = assign_phases(self.make_assignment(vols))
        assert out.colors == ("black", "blue", "green", "yellow", "orange", "red")
        assert out.phases == ("growth", "growth", "correction", "crisis", "crisis", "crash")

    def test_five_cluster_ladder_has_no_black(self):
        out = assign_phases(self.make_assignment((0.0016, 0.0037, 0.0046, 0.0069, 0.0146)))
        assert out.colors == ("blue", "green", "yellow", "orange", "red")

    def test_color_order_tracks_volatility_order(self):
        vols = (0.004, 0.001, 0.009, 0.002)
        out = assign_phases(self.make_assignment(vols))
        ranked = sorted(range(4), key=lambda c: vols[c])
        for rank, cid in enumerate(ranked):
            assert out.colors[cid] == ("blue", "yellow", "orange", "red")[rank]

    def test_single_cluster_is_growth_baseline(self):
        out = assign_phases(self.make_assignment((0.001,)))
        assert out.colors == ("blue",)
        assert out.phases == ("growth",)
        assert any("single cluster" in w for w in out.warnings)

    def test_tie_breaks_deterministically_with_warning(self):
        asg = ClusterAssignment(
            labels=(0, 1, 0, 1),
            mean_vol=(0.002, 0.002),
            k=2,
        )
        out = assign_phases(asg)
        assert out.colors[0] == "blue" and out.colors[1] == "orange"
        assert any("tie" in w for w in out.warnings)

    def test_more_than_six_clusters_clamped(self):
        vols = tuple(0.001 * (i + 1) for i in range(8))
        out = assign_phases(self.make_assignment(vols))
        assert out.colors[:3] == ("black", "black", "black")
        assert out.colors[-1] == "red"
        assert any("ladder" in w for w in out.warnings)
