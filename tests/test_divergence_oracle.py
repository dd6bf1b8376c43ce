"""``PrefixSums.delta_at`` and ``PrefixSums.scan`` against verbatim copies of
the earlier two, which each computed their own side variances, and
``js_divergence`` against a verbatim copy of the earlier one, which took
each side's variance with ``np.mean``.

All must give the same bits, or raise the same error, on the windows and
splits the segmenter asks for on demo-, paper- and manyleaf-shaped series,
and on random windows of series with constant stretches, where sides and
whole windows are degenerate.
"""

import math

import numpy as np
import pytest

from volseg import divergence
from volseg.divergence import VARIANCE_FLOOR, DegenerateSplitError
from volseg.segmenter import recursive_segment, refine_long_segments
from volseg.synthetic import demo_sector_pieces, levels_from_returns, regime_returns

SIGMA_LADDER = (4.5e-4, 9e-4, 1.8e-3, 3.6e-3, 7.2e-3)


# ---------------------------------------------------------------------------
# verbatim copies of the earlier implementation


class OraclePrefixSums(divergence.PrefixSums):
    def delta_at(self, a: int, t: int, b: int) -> float:
        """Divergence of the split of window [a, b) at absolute index t.

        Raises DegenerateSplitError when any variance hits the floor.
        """
        if not a + 2 <= t <= b - 2:
            raise ValueError(f"split {t} leaves fewer than 2 points on one side of [{a}, {b})")
        n = b - a
        _, var = self.mean_var(a, b)
        _, var_l = self.mean_var(a, t)
        _, var_r = self.mean_var(t, b)
        if min(var, var_l, var_r) <= VARIANCE_FLOOR:
            raise DegenerateSplitError(f"zero variance at split {t} of [{a}, {b})")
        return 0.5 * (
            n * math.log(var) - (t - a) * math.log(var_l) - (b - t) * math.log(var_r)
        ) + 0.5

    def scan(self, a: int, b: int, margin: int = 2) -> tuple[int, float] | None:
        """Argmax of the divergence over splits of [a, b), each side >= margin.

        Vectorized over all admissible t; ties resolve to the smallest
        t.  Returns None when every admissible split is degenerate (or
        the window is too short to admit one).  The splits t run over a
        slice of the prefix arrays and the arithmetic reuses three buffers
        in place, in the operation order of ``delta_at`` except that the
        side logs come from ``np.log``.
        """
        if margin < 2:
            raise ValueError("margin must be at least 2 for variance estimates")
        n = b - a
        if n < 2 * margin:
            return None
        _, var = self.mean_var(a, b)
        if var <= VARIANCE_FLOOR:
            return None
        lo = a + margin  # first admissible t
        hi = b - margin + 1
        nl = self._count[margin : n - margin + 1]  # t - a
        nr = self._rcount[self.length - n + margin : self.length - margin + 1]  # b - t
        cum, cum2 = self._cum, self._cum2

        s = np.subtract(cum[lo:hi], cum[a])
        var_l = np.subtract(cum2[lo:hi], cum2[a])
        _side_var(var_l, s, nl)
        np.subtract(cum[b], cum[lo:hi], out=s)
        var_r = np.subtract(cum2[b], cum2[lo:hi])
        _side_var(var_r, s, nr)

        ok = None  # every split admissible
        if not (var_l.min() > VARIANCE_FLOOR and var_r.min() > VARIANCE_FLOOR):
            ok = (var_l > VARIANCE_FLOOR) & (var_r > VARIANCE_FLOOR)
            if not ok.any():
                return None
        # clamped sides only feed splits that are masked out below
        delta = np.log(var_l, out=var_l)
        np.multiply(nl, delta, out=delta)
        np.subtract(n * math.log(var), delta, out=delta)
        np.log(var_r, out=var_r)
        np.multiply(nr, var_r, out=var_r)
        np.subtract(delta, var_r, out=delta)
        np.multiply(0.5, delta, out=delta)
        np.add(delta, 0.5, out=delta)
        if ok is not None:
            delta[~ok] = -np.inf
        best = int(delta.argmax())  # first occurrence == smallest t
        return lo + best, float(delta[best])


def _side_var(s2: np.ndarray, s: np.ndarray, count: np.ndarray) -> None:
    """In place: s2 <- max((s2 - s*s/count)/count, VARIANCE_FLOOR); s is clobbered."""
    np.multiply(s, s, out=s)
    np.divide(s, count, out=s)
    np.subtract(s2, s, out=s2)
    np.divide(s2, count, out=s2)
    np.maximum(s2, VARIANCE_FLOOR, out=s2)


def oracle_js_divergence(x, t: int) -> float:
    """Divergence of the window split into x[:t] and x[t:].

    Requires 2 <= t <= n-2 so both sides admit variance estimates.
    Variances are taken two-pass per side: a single split evaluation
    does not need the prefix cache, and the direct route stays accurate
    even for tiny sub-windows sitting far from the window mean.
    """
    arr = np.asarray(x, dtype=np.float64)
    n = arr.size
    if not 2 <= t <= n - 2:
        raise ValueError(f"split {t} leaves fewer than 2 points on one side of {n}")

    def mle_var(w: np.ndarray) -> float:
        return float(np.mean((w - w.mean()) ** 2))

    var = mle_var(arr)
    var_l = mle_var(arr[:t])
    var_r = mle_var(arr[t:])
    if min(var, var_l, var_r) <= VARIANCE_FLOOR:
        raise DegenerateSplitError(f"zero variance at split {t}")
    return 0.5 * (
        n * math.log(var) - t * math.log(var_l) - (n - t) * math.log(var_r)
    ) + 0.5


# ---------------------------------------------------------------------------
# series shapes


def ingested(x: np.ndarray, start_level: float = 100.0) -> np.ndarray:
    """Returns as volseg reads them back: of levels written to 4 decimals,
    so quiet stretches hold exact zeros."""
    return np.diff(np.log(np.round(levels_from_returns(x, start_level), 4)))


def demo_shaped(n_days: int, seed: int) -> np.ndarray:
    return ingested(regime_returns(demo_sector_pieces(0, n_days), seed))


def manyleaf_shaped(seed: int, n: int = 31_555) -> np.ndarray:
    # regimes of 60-160 returns on the 5-level sigma ladder, neighbours differing
    rng = np.random.default_rng(seed)
    pieces, total, level = [], 0, -1
    while total < n:
        length = min(int(rng.integers(60, 161)), n - total)
        level = (level + 1 + int(rng.integers(0, len(SIGMA_LADDER) - 1))) % len(SIGMA_LADDER)
        pieces.append((length, 0.0, SIGMA_LADDER[level]))
        total += length
    return ingested(regime_returns(pieces, seed))


SHAPES = {
    "demo": lambda: demo_shaped(120, 11),
    "paper": lambda: demo_shaped(2254, 12),
    "manyleaf": lambda: manyleaf_shaped(13),
}


def with_constant_stretches(seed: int, n: int = 600) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1e-3, n)
    for _ in range(8):
        start = int(rng.integers(0, n - 2))
        x[start : start + int(rng.integers(2, 60))] = rng.choice([0.0, 2e-4, -1e-3])
    return x


# ---------------------------------------------------------------------------
# comparison


def bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


def outcome(fn, *args):
    try:
        return "value", bits(fn(*args))
    except DegenerateSplitError as exc:
        return "degenerate", str(exc)


def recorded_calls(x: np.ndarray, monkeypatch) -> tuple[set, set]:
    """The (a, b, margin) scans and (a, t, b) splits a full segmentation with
    refinement asks ``PrefixSums`` for."""
    scans, splits = set(), set()
    scan, delta_at = divergence.PrefixSums.scan, divergence.PrefixSums.delta_at

    def record_scan(self, a, b, margin=2):
        scans.add((a, b, margin))
        return scan(self, a, b, margin)

    def record_delta_at(self, a, t, b):
        splits.add((a, t, b))
        return delta_at(self, a, t, b)

    with monkeypatch.context() as m:
        m.setattr(divergence.PrefixSums, "scan", record_scan)
        m.setattr(divergence.PrefixSums, "delta_at", record_delta_at)
        refine_long_segments(x, recursive_segment(x))
    return scans, splits


@pytest.mark.parametrize("shape", list(SHAPES))
def test_segmenter_windows_match_the_oracle(shape, monkeypatch):
    x = SHAPES[shape]()
    scans, splits = recorded_calls(x, monkeypatch)
    assert scans and splits
    ps, oracle = divergence.PrefixSums(x), OraclePrefixSums(x)
    rng = np.random.default_rng(len(x))
    for a, b, margin in sorted(scans):
        found = ps.scan(a, b, margin)
        assert bits(found) == bits(oracle.scan(a, b, margin)), (a, b, margin)
        if found is not None:
            splits.add((a, found[0], b))  # each scan's best split as a point
        # and a few more splits of the same window
        splits.update((a, int(t), b) for t in rng.integers(a + 2, b - 1, 8))
    for a, t, b in sorted(splits):
        assert outcome(ps.delta_at, a, t, b) == outcome(oracle.delta_at, a, t, b), (a, t, b)


@pytest.mark.parametrize("seed", range(4))
def test_random_windows_with_constant_stretches_match_the_oracle(seed):
    x = with_constant_stretches(seed)
    ps, oracle = divergence.PrefixSums(x), OraclePrefixSums(x)
    rng = np.random.default_rng(100 + seed)
    kinds = set()
    for _ in range(1500):
        a = int(rng.integers(0, x.size - 4))
        b = int(rng.integers(a + 4, min(x.size, a + 200) + 1))
        t = int(rng.integers(a + 2, b - 1))
        got = outcome(ps.delta_at, a, t, b)
        assert got == outcome(oracle.delta_at, a, t, b), (a, t, b)
        kinds.add(got[0])
        margin = int(rng.integers(2, (b - a) // 2 + 1))
        assert bits(ps.scan(a, b, margin)) == bits(oracle.scan(a, b, margin)), (a, b, margin)
    assert kinds == {"value", "degenerate"}


def test_js_divergence_matches_the_oracle():
    # windows shaped as acceptance criterion 2 draws them, every split of
    # the first 40 and a random one of the rest; then windows with
    # constant stretches, where sides and whole windows are degenerate,
    # and windows given as lists of ints
    rng = np.random.default_rng(2002)
    kinds = set()
    for k in range(2000):
        n = int(rng.integers(8, 257))
        x = rng.normal(rng.normal() * 1e-4, 10 ** rng.uniform(-5, -2), n)
        for t in range(2, n - 1) if k < 40 else [int(rng.integers(2, n - 1))]:
            assert outcome(divergence.js_divergence, x, t) == outcome(oracle_js_divergence, x, t), (k, t)
    for seed in range(4):
        x = with_constant_stretches(seed)
        for _ in range(500):
            a = int(rng.integers(0, x.size - 4))
            b = int(rng.integers(a + 4, min(x.size, a + 200) + 1))
            t = int(rng.integers(2, b - a - 1))
            got = outcome(divergence.js_divergence, x[a:b], t)
            assert got == outcome(oracle_js_divergence, x[a:b], t), (a, t, b)
            kinds.add(got[0])
    assert kinds == {"value", "degenerate"}
    for n in (4, 9, 30):
        x = rng.integers(-50, 50, n).tolist()
        for t in range(2, n - 1):
            assert outcome(divergence.js_divergence, x, t) == outcome(oracle_js_divergence, x, t), (x, t)
