"""The endpoint side-term caches behind ``PrefixSums.scan``.

A scan of [a, b) combines the left terms cached at endpoint a with the
right terms cached at b.  ``OraclePrefixSums`` (in
``test_divergence_oracle``) recomputes both sides' variances on every
scan, as the kernel did before the caches.  Driven by the same
segmenter, the two kernels must be asked for the same windows in the
same order and return the same bits, and the results must equal those
of the earlier full-sweep segmenter in ``test_segmenter_oracle``.  The
series are demo-, paper- and manyleaf-shaped, and have constant
stretches, where sides and whole windows are degenerate.

The caches hold at most 4 floats per point of the series after every
boundary edit, and nothing outlives the public operations.
"""

import gc
import weakref

import numpy as np
import pytest

import test_segmenter_oracle as earlier
from test_divergence_oracle import (
    SHAPES,
    OraclePrefixSums,
    bits,
    manyleaf_shaped,
    with_constant_stretches,
)
from test_segmenter_oracle import assert_same, kernel_corpus
from volseg import divergence
from volseg import segmenter as seg
from volseg.segmenter import SegmentationConfig

SMALL = SegmentationConfig(min_segment_len=4, long_segment_len=300, max_opt_iters=2)


def recorded(x, kernel, monkeypatch, cfg: SegmentationConfig):
    """Every scan the segmenter asks ``kernel`` for, with its result, and
    the results of a segmentation, its refinement and a re-optimization
    of every other refined boundary."""
    calls = []

    class Recording(kernel):
        def scan(self, a, b, margin=2):
            out = super().scan(a, b, margin)
            calls.append((a, b, margin, bits(out)))
            return out

    with monkeypatch.context() as m:
        m.setattr(seg, "PrefixSums", Recording)
        result = seg.recursive_segment(x, cfg)
        refined = seg.refine_long_segments(x, result, cfg)
        optimized = seg.optimize_boundaries(x, refined.positions[::2], cfg.min_segment_len, cfg.max_opt_iters)
    return calls, result, refined, optimized


def assert_same_windows_and_bits(x, cfg, monkeypatch):
    calls, result, refined, optimized = recorded(x, divergence.PrefixSums, monkeypatch, cfg)
    want_calls, want, want_refined, want_optimized = recorded(x, OraclePrefixSums, monkeypatch, cfg)
    assert calls == want_calls
    assert_same(result, want)
    assert_same(refined, want_refined)
    assert optimized == want_optimized
    # and the earlier full-sweep segmenter gives the same results
    old = earlier.recursive_segment(x, cfg)
    assert_same(result, old)
    assert_same(refined, earlier.refine_long_segments(x, old, cfg))
    assert optimized == earlier.optimize_boundaries(x, refined.positions[::2], cfg.min_segment_len, cfg.max_opt_iters)
    return calls, refined


@pytest.mark.parametrize("shape", list(SHAPES))
def test_shaped_series_scan_the_same_windows_with_the_same_bits(shape, monkeypatch):
    calls, refined = assert_same_windows_and_bits(SHAPES[shape](), SegmentationConfig(), monkeypatch)
    assert len(calls) > 3 and len(refined.positions) >= 3


def test_constant_stretches_scan_the_same_windows_with_the_same_bits(monkeypatch):
    kinds = set()
    for seed in range(40):
        x = with_constant_stretches(seed) if seed % 4 else kernel_corpus(seed, 1500)
        calls, _ = assert_same_windows_and_bits(x, SMALL, monkeypatch)
        kinds.update("none" if out is None else "found" for *_, out in calls)
    assert kinds == {"none", "found"}


def live_floats(ps: divergence.PrefixSums) -> int:
    return sum(terms.size for cache in (ps._left, ps._right) for _, terms, _ in cache.values())


def test_cache_stays_within_four_floats_per_point_and_dies_with_the_operation(monkeypatch):
    # ~250 boundaries; refinement of every segment over 150 returns adds
    # nested recursions whose unkept boundaries are released, and a prune
    x = manyleaf_shaped(13)
    cfg = SegmentationConfig(long_segment_len=150, max_opt_iters=3)
    edits = {"insert": 0, "move": 0, "remove": 0}
    most = 0
    made = []

    class Tracked(divergence.PrefixSums):
        def __init__(self, arr):
            super().__init__(arr)
            made.append(weakref.ref(self))

    def counting(name):
        edit = getattr(seg._Scanner, name)

        def wrapper(self, *args):
            nonlocal most
            out = edit(self, *args)
            edits[name] += 1
            most = max(most, live_floats(self.ps))
            assert live_floats(self.ps) <= 4 * self.ps.length, (name, edits)
            return out

        return wrapper

    build = seg._build_result

    def only_edges_cached(ps, bounds, *args):
        # every endpoint that moved away, was pruned or was not kept is released
        assert set(ps._left) | set(ps._right) <= {0, ps.length, *bounds}
        built.append(len(bounds))
        return build(ps, bounds, *args)

    built = []
    monkeypatch.setattr(seg, "PrefixSums", Tracked)
    monkeypatch.setattr(seg, "_build_result", only_edges_cached)
    for name in edits:
        monkeypatch.setattr(seg._Scanner, name, counting(name))
    result = seg.recursive_segment(x, cfg)
    refined = seg.refine_long_segments(x, result, cfg)
    seg.optimize_boundaries(x, refined.positions[1::2], cfg.min_segment_len)
    assert len(result.positions) >= 240 and refined.refine_windows > 20
    assert built == [len(result.positions), len(refined.positions)]
    assert all(edits.values()), edits
    assert 3 * x.size < most <= 4 * x.size
    gc.collect()
    assert len(made) == 3 and all(ref() is None for ref in made)


def test_released_and_cut_terms_are_recomputed_with_the_same_bits():
    x = kernel_corpus(3, 600)
    ps, oracle = divergence.PrefixSums(x), OraclePrefixSums(x)
    rng = np.random.default_rng(4)
    for _ in range(400):
        a = int(rng.integers(0, 560))
        b = int(rng.integers(a + 8, min(600, a + 200) + 1))
        margin = int(rng.integers(2, (b - a) // 2 + 1))
        assert bits(ps.scan(a, b, margin)) == bits(oracle.scan(a, b, margin)), (a, b, margin)
        pos = int(rng.integers(0, 601))
        if rng.random() < 0.3:
            ps.release(pos)
        else:
            ps.keep_terms(pos, pos + int(rng.integers(-20, 200)))
    assert ps.terms_computed > 0
