"""The segmenter against verbatim copies of the full-sweep code it replaced.

``PrefixSums.scan`` below is the earlier fancy-indexing kernel, and
``_Scanner`` through ``_refine_window`` are the earlier segmenter
internals: every sweep visited every boundary and every recursion round
rescanned every segment.  ``_refine_window`` follows the current rule,
one local pass at half the cutoff.  The current code scans lean, in place, and
re-places only boundaries whose window changed; both must give the same
bits.  The corpora use the 5-level sigma ladder, zero-return stretches
and long quiet stretches, and ``max_opt_iters`` of 1-3 leaves many runs
unconverged, so the dirty set carried between optimization calls is
exercised.
"""

import math
from typing import Sequence

import numpy as np
import pytest

from volseg import divergence
from volseg import segmenter as seg
from volseg.divergence import VARIANCE_FLOOR, DegenerateSplitError
from volseg.segmenter import (
    FLAG_AUTOMATIC,
    FLAG_REFINED,
    SegmentationConfig,
    SegmentationResult,
    _build_result,
    log,
)

SIGMA_LADDER = (4.5e-4, 9e-4, 1.8e-3, 3.6e-3, 7.2e-3)


# ---------------------------------------------------------------------------
# verbatim copies of the earlier implementation


class PrefixSums(divergence.PrefixSums):
    def scan(self, a: int, b: int, margin: int = 2) -> tuple[int, float] | None:
        """Argmax of the divergence over splits of [a, b), each side >= margin.

        Vectorized over all admissible t; ties resolve to the smallest
        t.  Returns None when every admissible split is degenerate (or
        the window is too short to admit one).
        """
        if margin < 2:
            raise ValueError("margin must be at least 2 for variance estimates")
        n = b - a
        if n < 2 * margin:
            return None
        _, var = self.mean_var(a, b)
        if var <= VARIANCE_FLOOR:
            return None
        t = np.arange(a + margin, b - margin + 1)
        nl = t - a
        nr = b - t
        s_l = self._cum[t] - self._cum[a]
        s2_l = self._cum2[t] - self._cum2[a]
        var_l = np.maximum((s2_l - s_l * s_l / nl) / nl, 0.0)
        s_r = self._cum[b] - self._cum[t]
        s2_r = self._cum2[b] - self._cum2[t]
        var_r = np.maximum((s2_r - s_r * s_r / nr) / nr, 0.0)
        ok = (var_l > VARIANCE_FLOOR) & (var_r > VARIANCE_FLOOR)
        if not ok.any():
            return None
        delta = np.full(t.size, -np.inf)
        delta[ok] = 0.5 * (
            n * math.log(var) - nl[ok] * np.log(var_l[ok]) - nr[ok] * np.log(var_r[ok])
        ) + 0.5
        best = int(np.argmax(delta))  # first occurrence == smallest t
        return int(t[best]), float(delta[best])


class _Scanner:
    """Memoized divergence scans over one PrefixSums instance.

    A scan is a pure function of (window, margin), so results survive
    across optimization sweeps and recursion rounds.
    """

    def __init__(self, ps: PrefixSums, margin: int) -> None:
        self.ps = ps
        self.margin = margin
        self._cache: dict[tuple[int, int], tuple[int, float] | None] = {}

    def scan(self, a: int, b: int) -> tuple[int, float] | None:
        key = (a, b)
        try:
            return self._cache[key]
        except KeyError:
            out = self.ps.scan(a, b, self.margin)
            self._cache[key] = out
            return out


def _sweep_once(sc: _Scanner, bounds: list[int], lo: int, hi: int) -> bool:
    """One left-to-right pass re-placing every boundary; True if any moved."""
    moved = False
    for k in range(len(bounds)):
        a = bounds[k - 1] if k > 0 else lo
        b = bounds[k + 1] if k + 1 < len(bounds) else hi
        found = sc.scan(a, b)
        if found is not None and found[0] != bounds[k]:
            bounds[k] = found[0]
            moved = True
    return moved


def _optimize(sc: _Scanner, bounds: list[int], lo: int, hi: int, max_iters: int) -> bool:
    """Sweep until a fixed point; returns False if max_iters ran out."""
    if not bounds:
        return True
    for _ in range(max_iters):
        if not _sweep_once(sc, bounds, lo, hi):
            return True
    return False


def _recurse(
    sc: _Scanner, lo: int, hi: int, cutoff: float, max_iters: int
) -> tuple[list[int], bool]:
    """Greedy recursive splitting of [lo, hi) at the given cutoff."""
    bounds: list[int] = []
    converged = True
    while True:
        best: tuple[float, int] | None = None
        for a, b in zip([lo] + bounds, bounds + [hi]):
            found = sc.scan(a, b)
            if found is None:
                continue
            t, delta = found
            if delta < cutoff:
                continue
            # strongest candidate first; equal strength -> leftmost
            if best is None or delta > best[0] or (delta == best[0] and t < best[1]):
                best = (delta, t)
        if best is None:
            return bounds, converged
        pos = best[1]
        idx = int(np.searchsorted(bounds, pos))
        bounds.insert(idx, pos)
        converged &= _optimize(sc, bounds, lo, hi, max_iters)


def _prune_weak(
    sc: _Scanner,
    bounds: list[int],
    flags: list[str],
    lo: int,
    hi: int,
    cutoff: float,
    max_iters: int,
    include_refined: bool = False,
) -> bool:
    """Drop boundaries whose final-window divergence fell below the cutoff
    (optimization can shrink a window after later splits).  Automatic
    boundaries must reach the cutoff; refined ones, when included, must
    exceed it.  Returns the accumulated optimization convergence flag."""
    converged = True
    while True:
        weakest: tuple[float, int] | None = None
        for k in range(len(bounds)):
            if flags[k] == FLAG_REFINED and not include_refined:
                continue
            a = bounds[k - 1] if k > 0 else lo
            b = bounds[k + 1] if k + 1 < len(bounds) else hi
            try:
                delta = sc.ps.delta_at(a, bounds[k], b)
            except DegenerateSplitError:
                delta = -np.inf
            weak = delta <= cutoff if flags[k] == FLAG_REFINED else delta < cutoff
            if weak and (weakest is None or delta < weakest[0]):
                weakest = (delta, k)
        if weakest is None:
            return converged
        k = weakest[1]
        log.debug("pruning sub-cutoff boundary at %d (delta=%.3f)", bounds[k], weakest[0])
        del bounds[k]
        del flags[k]
        converged &= _optimize(sc, bounds, lo, hi, max_iters)




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
    bounds, converged = _recurse(sc, 0, arr.size, cfg.cutoff, cfg.max_opt_iters)
    flags = [FLAG_AUTOMATIC] * len(bounds)
    converged &= _prune_weak(sc, bounds, flags, 0, arr.size, cfg.cutoff, cfg.max_opt_iters)
    if not converged:
        log.warning("boundary optimization hit max_opt_iters without converging")
    return _build_result(ps, bounds, flags, cfg, converged)


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
    ok = _optimize(sc, bounds, 0, arr.size, max_iters)
    if not ok:
        log.warning("optimize_boundaries stopped at max_iters without a fixed point")
    return bounds, ok


def refine_long_segments(x, result: SegmentationResult, cfg: SegmentationConfig | None = None) -> SegmentationResult:
    """Split overly long segments at half the cutoff.

    Each long window is re-segmented once, locally, at ``cutoff / 2``;
    internal boundaries whose post-optimization divergence clears the
    original cutoff are kept (flagged ``refined``) and the whole series
    is then re-optimized.  Segments that yield no such boundary remain
    whole.
    """
    cfg = cfg or result.config
    arr = np.asarray(x, dtype=np.float64)
    ps = PrefixSums(arr)
    sc = _Scanner(ps, cfg.min_segment_len)
    bounds = list(result.positions)
    flags = list(result.flags)
    converged = result.converged
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
            idx = int(np.searchsorted(bounds, pos))
            bounds.insert(idx, pos)
            flags.insert(idx, FLAG_REFINED)
        converged &= _optimize(sc, bounds, 0, arr.size, cfg.max_opt_iters)
        # global optimization may shift positions; refined boundaries only
        # survive if they still clear the cutoff in their final windows
        converged &= _prune_weak(
            sc, bounds, flags, 0, arr.size, cfg.cutoff, cfg.max_opt_iters, include_refined=True
        )

    return _build_result(ps, bounds, flags, cfg, converged)


def _refine_window(sc: _Scanner, a: int, b: int, cfg: SegmentationConfig) -> list[int]:
    """Re-segment [a, b) at half the cutoff; return the internal
    boundaries that re-optimize above the original cutoff."""
    sub_bounds, _ = _recurse(sc, a, b, cfg.cutoff / 2, cfg.max_opt_iters)
    keep = []
    for k, pos in enumerate(sub_bounds):
        wa = sub_bounds[k - 1] if k > 0 else a
        wb = sub_bounds[k + 1] if k + 1 < len(sub_bounds) else b
        found = sc.scan(wa, wb)
        if found is not None and found[0] == pos and found[1] > cfg.cutoff:
            keep.append(pos)
    return keep


# ---------------------------------------------------------------------------
# corpora


def ladder_corpus(seed: int, n: int = 2400) -> np.ndarray:
    """Regimes of 20-160 returns on the sigma ladder (neighbours differ),
    interleaved with zero-return stretches and long quiet stretches that
    make ``refine_long_segments`` work."""
    rng = np.random.default_rng(seed)
    parts: list[np.ndarray] = []
    level = int(rng.integers(len(SIGMA_LADDER)))
    total = 0
    while total < n:
        r = rng.random()
        if r < 0.12:
            piece = np.zeros(int(rng.integers(4, 40)))
        elif r < 0.22:
            piece = rng.normal(0, SIGMA_LADDER[0], int(rng.integers(600, 1100)))
            burst = int(rng.integers(0, piece.size - 60))
            piece[burst : burst + int(rng.integers(20, 60))] *= 2.0
        else:
            level = int(rng.choice([k for k in range(len(SIGMA_LADDER)) if k != level]))
            piece = rng.normal(0, SIGMA_LADDER[level], int(rng.integers(20, 160)))
        parts.append(piece)
        total += piece.size
    return np.concatenate(parts)[:n]


def assert_same(new: SegmentationResult, old: SegmentationResult) -> None:
    assert new.positions == old.positions
    assert new.flags == old.flags
    assert new.converged == old.converged
    assert new.boundaries == old.boundaries
    assert [s.stats for s in new.segments] == [s.stats for s in old.segments]
    assert new.segments == old.segments


# ---------------------------------------------------------------------------
# the segmenter


SEEDS = range(10)


@pytest.mark.parametrize("max_iters", [1, 2, 3, 100])
@pytest.mark.parametrize("min_len", [4, 14])
def test_segmentation_matches_full_sweeps(min_len, max_iters):
    cfg = SegmentationConfig(
        min_segment_len=min_len, long_segment_len=500, max_opt_iters=max_iters
    )
    converged = []
    refined = 0
    for seed in SEEDS:
        x = ladder_corpus(seed)
        new = seg.recursive_segment(x, cfg)
        old = recursive_segment(x, cfg)
        assert_same(new, old)
        new_r = seg.refine_long_segments(x, new)
        old_r = refine_long_segments(x, old)
        assert_same(new_r, old_r)
        converged += [old.converged, old_r.converged]
        refined += old_r.flags.count(FLAG_REFINED)
    assert refined > 0
    if max_iters == 1:
        # the carried dirty set only matters when optimization runs out
        assert not all(converged)


def test_unsettled_boundaries_carry_into_pruning():
    # the last recursion round runs out of sweeps and pruning follows: the
    # boundaries left unsettled must still be re-placed after the prune
    x = ladder_corpus(39, n=1470)
    cfg = SegmentationConfig(cutoff=5.0, min_segment_len=4, max_opt_iters=1)
    sc = seg._Scanner(divergence.PrefixSums(x), cfg.min_segment_len)
    bounds, _, dirty = seg._recurse(sc, 0, x.size, cfg.cutoff, cfg.max_opt_iters)
    assert dirty
    old = recursive_segment(x, cfg)
    assert len(old.positions) < len(bounds)
    assert_same(seg.recursive_segment(x, cfg), old)


@pytest.mark.parametrize("max_iters", [1, 100])
def test_refine_reoptimizes_a_result_off_its_fixed_point(max_iters):
    # refine_long_segments cannot assume the result it is given is settled
    x = ladder_corpus(2)
    cfg = SegmentationConfig(long_segment_len=500, max_opt_iters=max_iters)
    settled = seg.recursive_segment(x, cfg)
    ps = divergence.PrefixSums(x)
    # the refined split lands between the 2nd and 3rd boundaries, far from the last
    nudged = settled.positions[:-1] + [settled.positions[-1] + 6]
    given = _build_result(ps, nudged, list(settled.flags), cfg, True)
    new = seg.refine_long_segments(x, given)
    old = refine_long_segments(x, given)
    assert_same(new, old)
    assert FLAG_REFINED in old.flags
    assert old.positions != nudged


@pytest.mark.parametrize("max_iters", [1, 100])
def test_many_leaf_series_matches_full_sweeps(max_iters):
    # 60-160-return regimes only: a few hundred boundaries, many rounds
    rng = np.random.default_rng(7)
    sigma = rng.choice(SIGMA_LADDER, 120)
    x = np.concatenate([rng.normal(0, s, int(rng.integers(60, 160))) for s in sigma])
    cfg = SegmentationConfig(long_segment_len=500, max_opt_iters=max_iters)
    new = seg.recursive_segment(x, cfg)
    old = recursive_segment(x, cfg)
    assert_same(new, old)
    assert_same(seg.refine_long_segments(x, new), refine_long_segments(x, old))
    assert len(old.positions) > 60


@pytest.mark.parametrize("max_iters", [1, 2, 3, 100])
def test_optimize_boundaries_matches_full_sweeps(max_iters):
    unconverged = 0
    for seed in SEEDS:
        x = ladder_corpus(seed, n=1200)
        rng = np.random.default_rng(seed + 100)
        start = sorted(int(p) for p in rng.choice(np.arange(8, 1192), 40, replace=False))
        new = seg.optimize_boundaries(x, start, min_segment_len=4, max_iters=max_iters)
        old = optimize_boundaries(x, start, min_segment_len=4, max_iters=max_iters)
        assert new == old
        unconverged += not old[1]
    if max_iters == 1:
        assert unconverged > 0


# ---------------------------------------------------------------------------
# the scan kernel


def kernel_corpus(seed: int, n: int = 3000) -> np.ndarray:
    """Ladder regimes plus zero and constant stretches, so that some
    windows have degenerate sides and some have nothing else."""
    rng = np.random.default_rng(seed)
    x = ladder_corpus(seed, n)
    for _ in range(12):
        a = int(rng.integers(0, n - 60))
        m = int(rng.integers(6, 30))
        x[a : a + m] = 0.0
        x[a + m : a + 2 * m] = SIGMA_LADDER[int(rng.integers(5))]
    return x


def side_variances(ps: divergence.PrefixSums, a: int, b: int, margin: int):
    """Both sides' variances at every admissible split, from mean_var."""
    ts = range(a + margin, b - margin + 1)
    return [(ps.mean_var(a, t)[1], ps.mean_var(t, b)[1]) for t in ts]


def test_scan_kernel_bit_identical():
    x = kernel_corpus(11)
    n = x.size
    new_ps = divergence.PrefixSums(x)
    old_ps = PrefixSums(x)
    rng = np.random.default_rng(12)
    windows = [(0, n, 2), (0, n, n // 2), (0, 4, 2)]
    for _ in range(3000):
        width = int(min(n, 4 + rng.geometric(1 / 300)))
        a = int(rng.integers(0, n - width + 1))
        margin = int(rng.integers(2, width // 2 + 1))
        windows.append((a, a + width, margin))
    # windows starting inside each zero stretch of the kernel corpus
    zero_starts = np.flatnonzero((x[1:] == 0.0) & (x[:-1] != 0.0)) + 1
    for z in zero_starts:
        for width, margin in ((8, 2), (20, 3), (60, 2), (60, 14)):
            if z + width <= n:
                windows.append((int(z), int(z) + width, margin))

    partial = all_degenerate = 0
    for a, b, margin in windows:
        got = new_ps.scan(a, b, margin)
        want = old_ps.scan(a, b, margin)
        assert got == want, (a, b, margin)
        if b - a > 80 or new_ps.mean_var(a, b)[1] <= VARIANCE_FLOOR:
            continue
        degenerate = [min(v) <= VARIANCE_FLOOR for v in side_variances(new_ps, a, b, margin)]
        if all(degenerate):
            assert got is None
            all_degenerate += 1
        elif any(degenerate):
            partial += 1
    assert partial > 0 and all_degenerate > 0
    margins = {m for _, _, m in windows}
    assert {2, n // 2} <= margins and len(windows) >= 3000


def test_scan_kernel_degenerate_windows():
    x = np.concatenate([np.zeros(20), np.full(20, 1e-3)])
    ps = divergence.PrefixSums(x)
    # every split leaves a constant side although the window is not constant
    assert ps.scan(0, 40, 2) is None
    assert PrefixSums(x).scan(0, 40, 2) is None
    # a constant window, and a window too short for the margin
    assert ps.scan(0, 20, 2) is None
    assert ps.scan(0, 7, 4) is None
