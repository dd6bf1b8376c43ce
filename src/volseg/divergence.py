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

Everything here operates on plain float64 arrays.  The running sums of
PrefixSums make a full divergence scan O(n).  The side term
n_L ln s_L^2 of a split depends only on the window's left end and the
split, and n_R ln s_R^2 only on the split and the right end, so
PrefixSums also keeps them per window endpoint: a scan whose splits an
endpoint's terms cover slices them, and any other scan recomputes that
endpoint's terms over the union of its splits and theirs.  The caches
live until cut or released; the segmenter keeps them under 4 floats per
point of the series.
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


def split_divergence(whole, left, right):
    """D = (whole - left - right) / 2 + 1/2 from the terms n ln s^2 of the
    window and of its two sides, floats or arrays alike.  Callers compute
    the terms with their own logs, so each keeps its bits."""
    d = whole - left
    d -= right  # in place on arrays: a scan makes one temporary
    d *= 0.5
    d += 0.5
    return d


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
    tiny mean) do not lose precision to cancellation.  ``scan`` keeps the
    side terms of every window endpoint it meets (see ``_side_terms``);
    ``terms_computed`` counts the terms it has computed.
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
        # endpoint -> (first split, side terms, any degenerate); see _side_terms
        self._left: dict[int, tuple[int, np.ndarray, bool]] = {}
        self._right: dict[int, tuple[int, np.ndarray, bool]] = {}
        self.terms_computed = 0

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
        _, var_l = self.mean_var(a, t)
        _, var_r = self.mean_var(t, b)
        if min(var, var_l, var_r) <= VARIANCE_FLOOR:
            raise DegenerateSplitError(f"zero variance at split {t} of [{a}, {b})")
        return split_divergence(n * math.log(var), (t - a) * math.log(var_l), (b - t) * math.log(var_r))

    def scan(self, a: int, b: int, margin: int = 2) -> tuple[int, float] | None:
        """Argmax of the divergence over splits of [a, b), each side >= margin.

        Vectorized over all admissible t; ties resolve to the smallest
        t.  Returns None when every admissible split is degenerate (or
        the window is too short to admit one).  The side terms come from
        the endpoint caches (see ``_side_terms``) and combine in the
        operation order of ``delta_at``, except that the side logs come
        from ``np.log``.
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
        left, left_degenerate = self._side_terms(a, lo, b - margin + 1)
        right, right_degenerate = self._side_terms(b, lo, b - margin + 1)
        delta = split_divergence(n * math.log(var), left, right)
        if left_degenerate or right_degenerate:
            ok = ~(np.isnan(left) | np.isnan(right))
            if not ok.any():
                return None
            delta[~ok] = -np.inf
        best = int(delta.argmax())  # first occurrence == smallest t
        return lo + best, float(delta[best])

    def _side_terms(self, pos: int, lo: int, hi: int) -> tuple[np.ndarray, bool]:
        """The terms of the sides ending at endpoint ``pos`` for the splits
        t in [lo, hi), as a view of the endpoint's cache, and whether the
        cache holds a degenerate side.

        Each endpoint keeps one array per side: (t - pos) ln var[pos, t)
        for splits after it, (pos - t) ln var[t, pos) for splits before
        it, NaN where the variance is at or below VARIANCE_FLOOR.  A term
        depends only on the endpoint and the split, so an array that
        covers [lo, hi) is sliced, and any other request replaces it with
        the terms of the union of its splits and [lo, hi), computed
        afresh with the same bits.  An array serves every window with
        that endpoint until ``keep_terms`` cuts it or ``release`` drops it.
        """
        cache = self._left if lo > pos else self._right
        first, end = lo, hi
        entry = cache.get(pos)
        if entry is not None:
            start, terms, degenerate = entry
            if start <= lo and hi <= start + terms.size:
                return terms[lo - start : hi - start], degenerate
            first, end = min(lo, start), max(hi, start + terms.size)
        terms, degenerate = self._terms(pos, first, end)
        cache[pos] = first, terms, degenerate
        return terms[lo - first : hi - first], degenerate

    def _terms(self, pos: int, lo: int, hi: int) -> tuple[np.ndarray, bool]:
        """New side terms of endpoint ``pos`` for the splits [lo, hi), all
        on one side of it, and whether any is degenerate."""
        cum, cum2 = self._cum, self._cum2
        if lo > pos:  # sides [pos, t)
            count = self._count[lo - pos : hi - pos]
            s = np.subtract(cum[lo:hi], cum[pos])
            var = np.subtract(cum2[lo:hi], cum2[pos])
        else:  # sides [t, pos)
            count = self._rcount[self.length - pos + lo : self.length - pos + hi]
            s = np.subtract(cum[pos], cum[lo:hi])
            var = np.subtract(cum2[pos], cum2[lo:hi])
        self.terms_computed += hi - lo
        # in place: var <- max((var - s*s/count)/count, VARIANCE_FLOOR)
        np.multiply(s, s, out=s)
        np.divide(s, count, out=s)
        np.subtract(var, s, out=var)
        np.divide(var, count, out=var)
        np.maximum(var, VARIANCE_FLOOR, out=var)
        degenerate = None if var.min() > VARIANCE_FLOOR else ~(var > VARIANCE_FLOOR)
        terms = np.log(var, out=var)
        np.multiply(count, terms, out=terms)
        if degenerate is not None:
            terms[degenerate] = np.nan
        return terms, degenerate is not None

    def keep_terms(self, a: int, b: int) -> None:
        """Cut the left terms cached at endpoint a and the right terms
        cached at endpoint b to the splits inside (a, b)."""
        entry = self._left.get(a)
        if entry is not None and entry[0] + entry[1].size > b:
            first, terms, degenerate = entry
            if first < b:
                self._left[a] = first, terms[: b - first].copy(), degenerate
            else:
                del self._left[a]
        entry = self._right.get(b)
        if entry is not None and entry[0] <= a:
            first, terms, degenerate = entry
            if first + terms.size > a + 1:
                self._right[b] = a + 1, terms[a + 1 - first :].copy(), degenerate
            else:
                del self._right[b]

    def release(self, pos: int) -> None:
        """Drop the side terms cached at endpoint ``pos``."""
        self._left.pop(pos, None)
        self._right.pop(pos, None)


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
