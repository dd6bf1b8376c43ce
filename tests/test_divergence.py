import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scaled_window
from volseg.divergence import (
    Boundary,
    DegenerateSplitError,
    PrefixSums,
    best_split,
    delta_error,
    delta_error_max,
    js_divergence,
    mu_err,
    segment_stats,
    sigma_err,
)


def likelihood_ratio_oracle(x: np.ndarray, t: int) -> float:
    """Explicit per-point Gaussian likelihood products at the MLE fits,
    plus the 1/2 constant carried by the divergence convention."""

    def loglik(w: np.ndarray) -> float:
        mu = w.mean()
        var = np.mean((w - mu) ** 2)
        return float(np.sum(-0.5 * np.log(2 * np.pi * var) - (w - mu) ** 2 / (2 * var)))

    return loglik(x[:t]) + loglik(x[t:]) - loglik(x) + 0.5


class TestSegmentStats:
    def test_published_row_errors(self, rng):
        # a 16-point window with sample stdev exactly 0.006626
        w = scaled_window(rng, 16, 0.002377, 0.006626)
        s = segment_stats(w)
        assert s.n == 16
        assert s.stdev == pytest.approx(0.006626, abs=1e-12)
        assert s.stdev_err == pytest.approx(0.001210, abs=1e-6)
        assert s.mean_err == pytest.approx(0.001657, abs=2e-6)

    def test_error_formula_helpers(self):
        assert sigma_err(16, 0.006626) == pytest.approx(0.006626 / math.sqrt(30), abs=1e-15)
        assert mu_err(16, 0.006626) == pytest.approx(0.006626 / 4.0, abs=1e-15)

    def test_constant_window_degenerate(self):
        s = segment_stats([3.25] * 10)
        assert s.mean == 3.25
        assert s.stdev == 0.0

    def test_two_point_mle(self):
        s = segment_stats([-1.0, 1.0])
        assert s.mean == 0.0
        assert s.stdev == 1.0  # population MLE, divide by n
        assert s.mean_err == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert s.stdev_err == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_window_too_short(self):
        with pytest.raises(ValueError):
            segment_stats([1.0])


class TestJsDivergence:
    def test_identical_halves_gives_constant(self):
        w = np.array([0.4, -1.3, 0.9, 0.4, -1.3, 0.9])
        assert js_divergence(w, 3) == pytest.approx(0.5, abs=1e-9)

    def test_zero_variance_halves_are_degenerate(self):
        # both sides constant: the split cannot be scored
        with pytest.raises(DegenerateSplitError):
            js_divergence([0, 0, 0, 0, 10, 10, 10, 10], 4)

    def test_matches_likelihood_product_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(8, 257))
            x = rng.normal(rng.normal() * 1e-4, 10 ** rng.uniform(-5, -2), n)
            for t in range(2, n - 1):
                assert js_divergence(x, t) == pytest.approx(
                    likelihood_ratio_oracle(x, t), abs=1e-9
                )

    def test_nonnegative_on_stationary_windows(self, rng):
        for _ in range(50):
            x = rng.normal(0, 1e-3, int(rng.integers(8, 128)))
            for t in range(2, len(x) - 1):
                assert js_divergence(x, t) >= 0.0

    @given(shift=st.floats(min_value=-10.0, max_value=10.0), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1e-3, 64)
        t = int(rng.integers(2, 63))
        assert js_divergence(x + shift, t) == pytest.approx(js_divergence(x, t), abs=1e-9)

    def test_split_bounds_enforced(self):
        with pytest.raises(ValueError):
            js_divergence(np.arange(8.0), 1)
        with pytest.raises(ValueError):
            js_divergence(np.arange(8.0), 7)


class TestBestSplit:
    def test_two_regime_localization(self):
        joint = 0
        strong = 0
        trials = 200
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            x = np.concatenate([rng.normal(0, 1e-3, 500), rng.normal(0, 2e-3, 500)])
            b = best_split(x)
            strong += b.divergence > 10.0
            joint += b.divergence > 10.0 and abs(b.position - 500) <= 10
        assert strong == trials  # the step is always significant
        assert joint / trials >= 0.90  # MLE localization tails hold ~93% here

    def test_constant_window_returns_none(self):
        assert best_split([5.0] * 40) is None

    def test_tie_breaks_to_smallest_position(self):
        # palindrome with exactly representable sums: divergence at t and n-t match
        x = np.array([0.0, 2.0, 4.0, 4.0, 2.0, 0.0])
        b = best_split(x)
        assert js_divergence(x, b.position) == js_divergence(x, len(x) - b.position)
        assert b.position <= len(x) - b.position

    def test_stationary_null_rarely_exceeds_cutoff(self):
        exceed = 0
        trials = 300
        for seed in range(trials):
            x = np.random.default_rng(seed).normal(0, 1.0, 821)
            if best_split(x).divergence > 10.0:
                exceed += 1
        assert exceed / trials <= 0.05

    def test_boundary_fields_consistent(self, rng):
        x = np.concatenate([rng.normal(0, 1e-3, 60), rng.normal(0, 5e-3, 40)])
        b = best_split(x)
        assert isinstance(b, Boundary)
        assert b.divergence_err == pytest.approx(delta_error(b.position, 100 - b.position), abs=1e-12)

    def test_window_too_short(self):
        with pytest.raises(ValueError):
            best_split([1.0, 2.0, 3.0])


class TestDeltaError:
    def test_published_asymmetric_split(self):
        v = delta_error(446, 16)
        assert 2.6 <= v <= 2.7
        assert v == pytest.approx(2.65598, abs=1e-5)

    def test_equal_split_of_thousand(self):
        # exact value 9.2826 sits within 0.3% of the large-n cap 9.2621
        v = delta_error(500, 500)
        assert v == pytest.approx(9.28258, abs=1e-5)
        assert v == pytest.approx(delta_error_max(1000), rel=3e-3)

    def test_half_series_split(self):
        assert delta_error(15780, 15780) == pytest.approx(52.0, abs=0.1)

    def test_minimum_lengths_enforced(self):
        with pytest.raises(ValueError):
            delta_error(1, 10)

    def test_interior_maximum_at_equal_split(self):
        # over sides of at least 4 points the error peaks at the midpoint
        # and approaches the closed-form cap as n grows
        for n in (10, 100, 1000):
            values = {a: delta_error(a, n - a) for a in range(4, n - 3)}
            argmax = max(values, key=lambda a: (values[a], -a))
            assert argmax == n // 2
            assert values[argmax] == pytest.approx(delta_error_max(n), rel=3.0 / n)


class TestDeltaErrorMax:
    def test_published_values(self):
        assert delta_error_max(1000) == pytest.approx(9.26, abs=0.01)
        assert delta_error_max(31560) == pytest.approx(52.0, abs=0.1)

    def test_small_window(self):
        assert delta_error_max(4) == pytest.approx(0.586, abs=5e-4)
        assert delta_error_max(4) == pytest.approx(2.0 * (1 - 1 / math.sqrt(2)), abs=1e-15)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            delta_error_max(3)


class TestPrefixSums:
    def test_matches_two_pass_stats(self, rng):
        for _ in range(30):
            n = int(rng.integers(8, 2048))
            x = rng.normal(rng.normal() * 1e-5, 10 ** rng.uniform(-6, -2), n)
            ps = PrefixSums(x)
            a = int(rng.integers(0, n - 2))
            b = int(rng.integers(a + 2, n + 1))
            s = ps.stats(a, b)
            w = x[a:b]
            assert s.mean == pytest.approx(float(w.mean()), abs=1e-12)
            assert s.stdev == pytest.approx(float(np.sqrt(np.mean((w - w.mean()) ** 2))), abs=1e-12)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_adversarial_offset_windows(self, seed):
        # tiny fluctuations riding a large common offset
        rng = np.random.default_rng(seed)
        n = int(rng.integers(16, 4096))
        x = 1e-5 + rng.normal(0, 1e-8, n)
        ps = PrefixSums(x)
        a, b = 0, n
        s = ps.stats(a, b)
        w = x[a:b]
        assert s.mean == pytest.approx(float(w.mean()), abs=1e-12)
        assert s.stdev == pytest.approx(float(np.sqrt(np.mean((w - w.mean()) ** 2))), abs=1e-12)

    def test_large_window_precision(self, rng):
        x = 1e-5 + rng.normal(0, 1e-5, 32768)
        ps = PrefixSums(x)
        for a, b in [(0, 32768), (1000, 2000), (30000, 32768), (5, 9)]:
            w = x[a:b]
            s = ps.stats(a, b)
            assert s.mean == pytest.approx(float(w.mean()), abs=1e-12)
            assert s.stdev == pytest.approx(float(np.sqrt(np.mean((w - w.mean()) ** 2))), abs=1e-12)

    def test_scan_agrees_with_point_evaluation(self, rng):
        x = np.concatenate([rng.normal(0, 1e-3, 30), rng.normal(0, 4e-3, 34)])
        ps = PrefixSums(x)
        t, delta = ps.scan(0, 64, 2)
        assert delta == pytest.approx(js_divergence(x, t), abs=1e-9)
        brute = max(range(2, 63), key=lambda u: js_divergence(x, u))
        assert t == brute
