"""Gaussian split statistics: divergence of a candidate change point.

A window x_1..x_n is scored against the hypothesis that it breaks at t
into two stationary Gaussian pieces.  With population-MLE estimates
(variance divided by n) the log-likelihood gain of the two-segment
model over the one-segment model reduces to

    D(t) = n ln s - t ln s_L - (n - t) ln s_R + 1/2

where s, s_L, s_R are the standard deviations of the whole window and
of its two sides.  The constant 1/2 is part of the published form of
the statistic and keeps D(t) strictly positive; a bare likelihood
ratio would omit it.  All divergences in this package include it.

Standard errors use the finite-sample formulas

    d_mu    = s / sqrt(n)
    d_sigma = s / sqrt(2 (n - 1))
    d_D     = n_L / sqrt(2 (n_L - 1)) + n_R / sqrt(2 (n_R - 1))
              - n / sqrt(2 (n - 1))
    d_D_max = sqrt(n) (1 - 1 / sqrt(2))        # large-n cap of d_D

Everything here is pure and operates on plain float64 arrays; the
PrefixSums cache makes a full divergence scan O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _lazy

np = _lazy("numpy")

# variances at or below this are treated as degenerate rather than
# producing huge or infinite log terms
VARIANCE_FLOOR = 1e-30


class DegenerateSplitError(ValueError):
    """A split whose pooled or one-sided variance vanishes."""


@dataclass(frozen=True)
class SegmentStats:
    """Sample count, MLE mean/stdev, and their standard errors."""

    n: int
    mean: float
    stdev: float
    mean_err: float
    stdev_err: float


@dataclass(frozen=True)
class Boundary:
    """A scored split at t* = position."""

    position: int
    divergence: float
    divergence_err: float


def mu_err(n: int, stdev: float) -> float:
    return stdev / math.sqrt(n)


def sigma_err(n: int, stdev: float) -> float:
    return stdev / math.sqrt(2.0 * (n - 1))


def segment_stats(x) -> SegmentStats:
    """Mean and population-MLE standard deviation of a window.

    Zero variance is allowed (constant window).
    """
    arr = np.asarray(x, dtype=np.float64)
    n = arr.size
    if n < 2:
        raise ValueError(f"window must have at least 2 points, got {n}")
    mean = float(arr.mean())
    var = float(np.mean((arr - mean) ** 2))
    stdev = math.sqrt(max(var, 0.0))
    return SegmentStats(
        n=n,
        mean=mean,
        stdev=stdev,
        mean_err=mu_err(n, stdev),
        stdev_err=sigma_err(n, stdev),
    )


def delta_error(n_l: int, n_r: int) -> float:
    """Standard error of the divergence between adjacent segments.

    Depends only on the two segment lengths, not on the data.
    """
    if n_l < 2 or n_r < 2:
        raise ValueError("both sides need at least 2 points")
    n = n_l + n_r
    return (
        n_l / math.sqrt(2.0 * (n_l - 1))
        + n_r / math.sqrt(2.0 * (n_r - 1))
        - n / math.sqrt(2.0 * (n - 1))
    )


def delta_error_max(n: int) -> float:
    """Large-n cap of ``delta_error`` over all splits of an n-point window."""
    if n < 4:
        raise ValueError("need at least 4 points")
    return math.sqrt(n) * (1.0 - 1.0 / math.sqrt(2.0))


class PrefixSums:
    """Running sums enabling O(1) mean/variance of any sub-window.

    Values are centered on the full-series mean before accumulating, so
    windows with a large common offset (index returns hover around a
    tiny mean) do not lose precision to cancellation.
    """

    def __init__(self, x) -> None:
        arr = np.asarray(x, dtype=np.float64)
        self.length = arr.size
        self._shift = float(arr.mean()) if arr.size else 0.0
        centered = arr - self._shift
        self._cum = np.zeros(arr.size + 1, dtype=np.float64)
        self._cum2 = np.zeros(arr.size + 1, dtype=np.float64)
        np.cumsum(centered, out=self._cum[1:])
        np.cumsum(centered * centered, out=self._cum2[1:])
        # side counts for scan: _count[i] == i and _rcount[i] == length - i
        self._count = np.arange(arr.size + 1, dtype=np.float64)
        self._rcount = self._count[::-1].copy()

    def mean_var(self, a: int, b: int) -> tuple[float, float]:
        """MLE mean and variance of the window [a, b)."""
        n = b - a
        if n < 1:
            raise ValueError(f"empty window [{a}, {b})")
        s = self._cum[b] - self._cum[a]
        s2 = self._cum2[b] - self._cum2[a]
        var = (s2 - s * s / n) / n
        return float(self._shift + s / n), float(max(var, 0.0))

    def stats(self, a: int, b: int) -> SegmentStats:
        n = b - a
        if n < 2:
            raise ValueError(f"window [{a}, {b}) must have at least 2 points")
        mean, var = self.mean_var(a, b)
        stdev = math.sqrt(var)
        return SegmentStats(
            n=n,
            mean=mean,
            stdev=stdev,
            mean_err=mu_err(n, stdev),
            stdev_err=sigma_err(n, stdev),
        )

    def delta_at(self, a: int, t: int, b: int) -> float:
        """Divergence of the split of window [a, b) at absolute index t.

        Raises DegenerateSplitError when any variance hits the floor.
        """
        if not a + 2 <= t <= b - 2:
            raise ValueError(f"split {t} leaves fewer than 2 points on one side of [{a}, {b})")
        n = b - a
        _, var = self.mean_var(a, b)
        _, _, left, right = self._side_vars(a, t, t + 1, b)
        var_l, var_r = float(left[0]), float(right[0])
        if min(var, var_l, var_r) <= VARIANCE_FLOOR:
            raise DegenerateSplitError(f"zero variance at split {t} of [{a}, {b})")
        return 0.5 * (
            n * math.log(var) - (t - a) * math.log(var_l) - (b - t) * math.log(var_r)
        ) + 0.5

    def _side_vars(
        self, a: int, lo: int, hi: int, b: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """For each split t in [lo, hi) of the window [a, b): t - a, b - t,
        and the MLE variances of [a, t) and [t, b), each at least
        VARIANCE_FLOOR.  The counts are views of the shared count arrays;
        the variances are new arrays."""
        nl = self._count[lo - a : hi - a]
        nr = self._rcount[self.length - b + lo : self.length - b + hi]
        cum, cum2 = self._cum, self._cum2
        s = np.subtract(cum[lo:hi], cum[a])
        var_l = np.subtract(cum2[lo:hi], cum2[a])
        _side_var(var_l, s, nl)
        np.subtract(cum[b], cum[lo:hi], out=s)
        var_r = np.subtract(cum2[b], cum2[lo:hi])
        _side_var(var_r, s, nr)
        return nl, nr, var_l, var_r

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
        nl, nr, var_l, var_r = self._side_vars(a, lo, b - margin + 1, b)

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


def js_divergence(x, t: int) -> float:
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
        d = w - w.sum() / w.size
        d *= d
        return float(d.sum() / w.size)

    var = mle_var(arr)
    var_l = mle_var(arr[:t])
    var_r = mle_var(arr[t:])
    if min(var, var_l, var_r) <= VARIANCE_FLOOR:
        raise DegenerateSplitError(f"zero variance at split {t}")
    return 0.5 * (
        n * math.log(var) - t * math.log(var_l) - (n - t) * math.log(var_r)
    ) + 0.5


def best_split(x, min_margin: int = 2) -> Boundary | None:
    """Most divergent split of a window, or None if all are degenerate."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size < 2 * min_margin:
        raise ValueError(f"window of {arr.size} points cannot host two {min_margin}-point sides")
    found = PrefixSums(arr).scan(0, arr.size, min_margin)
    if found is None:
        return None
    t, delta = found
    return Boundary(position=t, divergence=delta, divergence_err=delta_error(t, arr.size - t))
