"""Refinement judged by a null/recall oracle, not by the current output.

*Null side.* Long pure-Gaussian stretches hold no change point, so every
refined boundary on them is false.  At the cutoff of 10, the maximum
divergence over a window of 1k-20k noise returns has a median of about
4-5 and grows like log log N, so a rule that re-segments down to local
cutoffs of 2.5 and 2 lets noise through.

*Recall side.* A short shock (14-100 returns at 1.5-5x sigma) between two
calm stretches of 1k-6k returns is often masked at the cutoff by its
long context.  Refinement exists to find such shocks, so it must recall
more of their edges than the recursion alone.

Both bounds were calibrated on 10,000 null series (100 sets of 100) and
12,000 shock series (200 sets of 60), on seeds disjoint from the ones
below.  Per set of 100 null series (about 1.05 M returns), one local
pass at half the cutoff gave 0-0.098 refined boundaries per 10k returns
(0.029 over all sets); the earlier descent to cutoff 2 gave 0.343-0.844
(0.571 over all sets).  On every shock set the paired bound held with a
margin of at least 3.  On the seeds below the single pass gives 0.114
per 10k and the descent 0.686; refinement finds 79 of 120 shock edges,
the recursion alone 56.
"""

import math

import numpy as np
import pytest

from volseg import segmenter
from volseg.divergence import PrefixSums
from volseg.segmenter import FLAG_REFINED, SegmentationConfig, recursive_segment, refine_long_segments

SIGMA = 1e-3
NULL_SEEDS = range(20_000, 20_100)
NULL_BOUND_PER_10K = 0.2
SHOCK_SEEDS = range(30_000, 30_060)
EDGE_TOLERANCE = 10


def null_series(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0, SIGMA, int(rng.integers(1_000, 20_001)))


def shock_series(seed: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Calm, shock, calm; returns the series and the shock's two edges."""
    rng = np.random.default_rng(seed)
    n1 = int(rng.integers(1_000, 6_001))
    m = int(rng.integers(14, 101))
    n2 = int(rng.integers(1_000, 6_001))
    ratio = float(rng.uniform(1.5, 5.0))
    x = np.concatenate([rng.normal(0, SIGMA, n1), rng.normal(0, SIGMA * ratio, m), rng.normal(0, SIGMA, n2)])
    return x, (n1, n1 + m)


def test_null_refined_boundaries_per_10k_returns():
    refined = returns = 0
    for seed in NULL_SEEDS:
        x = null_series(seed)
        result = refine_long_segments(x, recursive_segment(x))
        refined += result.flags.count(FLAG_REFINED)
        returns += x.size
    rate = refined / returns * 1e4
    assert rate <= NULL_BOUND_PER_10K, (
        f"{refined} refined boundaries on {returns} pure-noise returns: "
        f"{rate:.3f} per 10k > {NULL_BOUND_PER_10K}"
    )


def test_recall_of_planted_shock_edges_beats_the_recursion_alone():
    only_refined = only_recursion = 0
    for seed in SHOCK_SEEDS:
        x, edges = shock_series(seed)
        auto = recursive_segment(x)
        refined = refine_long_segments(x, auto)
        for edge in edges:
            in_auto = any(abs(p - edge) <= EDGE_TOLERANCE for p in auto.positions)
            in_refined = any(abs(p - edge) <= EDGE_TOLERANCE for p in refined.positions)
            only_refined += in_refined and not in_auto
            only_recursion += in_auto and not in_refined
    # a sign test on the discordant edges, as in criterion 4
    bound = 2 * math.sqrt(only_refined + only_recursion)
    assert only_refined - only_recursion > bound, (
        f"edges within +-{EDGE_TOLERANCE} found only with refinement: {only_refined}, "
        f"only without: {only_recursion}; difference <= 2*sqrt(sum) = {bound:.2f}"
    )


@pytest.mark.parametrize(
    "seed, windows",
    [(20, [(0, 20_000)]), (28, [(0, 20_000), (0, 18_891), (18_929, 20_000)])],
    ids=["nothing-kept", "pair-kept"],
)
def test_scan_budget_one_local_pass_per_long_window(monkeypatch, seed, windows):
    # one _recurse per long window, at one cutoff: a descent through
    # lower cutoffs re-segments each window again and scans far more
    x = np.random.default_rng(seed).normal(0, SIGMA, 20_000)
    cfg = SegmentationConfig()
    auto = recursive_segment(x, cfg)
    calls: list[tuple[int, int, float]] = []
    scans = 0
    recurse, scan = segmenter._recurse, PrefixSums.scan

    def counting_recurse(sc, lo, hi, cutoff, max_iters):
        calls.append((lo, hi, cutoff))
        return recurse(sc, lo, hi, cutoff, max_iters)

    def counting_scan(ps, *args):
        nonlocal scans
        scans += 1
        return scan(ps, *args)

    monkeypatch.setattr(segmenter, "_recurse", counting_recurse)
    monkeypatch.setattr(PrefixSums, "scan", counting_scan)
    refine_long_segments(x, auto, cfg)
    assert calls == [(lo, hi, cfg.cutoff / 2) for lo, hi in windows]
    assert all(hi - lo > cfg.long_segment_len for lo, hi in windows)
    assert scans < 16
