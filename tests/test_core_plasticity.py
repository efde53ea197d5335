"""Tests for the plasticity metric (SP loss) and its time-series tracker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sp_loss
from repro.core.plasticity import (
    PlasticityTracker,
    direct_difference_loss,
    moving_average,
    similarity_matrix,
    windowed_slope,
)


class TestSPLoss:
    def test_identical_activations_zero_loss(self, rng):
        a = rng.standard_normal((8, 4, 3, 3)).astype(np.float32)
        assert sp_loss(a, a.copy()) == pytest.approx(0.0, abs=1e-10)

    def test_loss_grows_with_perturbation(self, rng):
        a = rng.standard_normal((8, 16)).astype(np.float32)
        small = sp_loss(a, a + 0.01 * rng.standard_normal(a.shape).astype(np.float32))
        large = sp_loss(a, a + 1.0 * rng.standard_normal(a.shape).astype(np.float32))
        assert small < large

    def test_nonnegative_and_symmetric_shapes(self, rng):
        a = rng.standard_normal((4, 10)).astype(np.float32)
        b = rng.standard_normal((4, 10)).astype(np.float32)
        assert sp_loss(a, b) >= 0.0

    def test_different_feature_shapes_allowed(self, rng):
        """Only the batch dimension must match (similarity matrices are b x b)."""
        a = rng.standard_normal((4, 10)).astype(np.float32)
        b = rng.standard_normal((4, 3, 2, 2)).astype(np.float32)
        assert sp_loss(a, b) >= 0.0

    def test_batch_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            sp_loss(rng.standard_normal((4, 8)), rng.standard_normal((5, 8)))

    def test_scale_invariance_of_similarity_structure(self, rng):
        """SP loss compares normalised similarity patterns, so uniform scaling
        of one activation changes the loss far less than reshuffling it."""
        a = rng.standard_normal((8, 32)).astype(np.float32)
        scaled = sp_loss(a, 2.0 * a)
        shuffled = sp_loss(a, a[np.random.default_rng(0).permutation(8)])
        assert scaled < shuffled

    def test_accepts_tensor_inputs(self, rng):
        from repro.nn import Tensor
        a = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        assert sp_loss(a, a) == pytest.approx(0.0, abs=1e-10)

    def test_similarity_matrix_shape_and_normalisation(self, rng):
        a = rng.standard_normal((6, 20)).astype(np.float32)
        g = similarity_matrix(a)
        assert g.shape == (6, 6)
        assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-5)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_property_sp_loss_nonnegative(self, batch, features):
        rng = np.random.default_rng(batch * 31 + features)
        a = rng.standard_normal((batch, features)).astype(np.float32)
        b = rng.standard_normal((batch, features)).astype(np.float32)
        assert sp_loss(a, b) >= 0.0
        assert sp_loss(a, a) <= sp_loss(a, b) + 1e-6


class TestDirectDifference:
    def test_zero_for_identical(self, rng):
        a = rng.standard_normal((4, 8)).astype(np.float32)
        assert direct_difference_loss(a, a) == 0.0

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            direct_difference_loss(rng.standard_normal((4, 8)), rng.standard_normal((4, 9)))

    def test_sensitive_to_uniform_scaling_unlike_sp(self, rng):
        """The Skip-Conv/FitNets metric penalises scale changes that SP loss mostly ignores."""
        a = rng.standard_normal((8, 16)).astype(np.float32)
        assert direct_difference_loss(a, 2 * a) > sp_loss(a, 2 * a)


class TestTimeSeriesHelpers:
    def test_moving_average_window(self):
        assert moving_average([1, 2, 3, 4], window=2) == 3.5
        assert moving_average([1, 2, 3, 4], window=10) == 2.5
        with pytest.raises(ValueError):
            moving_average([], 3)

    def test_windowed_slope_linear_series(self):
        series = [10.0 - i for i in range(8)]
        assert windowed_slope(series, window=5) == pytest.approx(-1.0)

    def test_windowed_slope_flat_and_short(self):
        assert windowed_slope([3.0, 3.0, 3.0], window=3) == pytest.approx(0.0)
        assert windowed_slope([1.0], window=3) == 0.0


class TestPlasticityTracker:
    def test_smoothing_follows_equation2(self):
        tracker = PlasticityTracker(window=3)
        values = [4.0, 2.0, 6.0, 8.0]
        for i, v in enumerate(values):
            tracker.record(v, iteration=i)
        # Last smoothed value = mean of last 3 raw readings.
        assert tracker.smoothed_history[-1] == pytest.approx(np.mean(values[-3:]))

    def test_tolerance_calibrated_from_initial_readings(self):
        tracker = PlasticityTracker(window=5, tolerance_coefficient=0.2, initial_readings=3)
        for i, v in enumerate([10.0, 8.0, 6.0, 5.0]):
            tracker.record(v, iteration=i)
        assert tracker.tolerance is not None
        assert tracker.tolerance > 0

    def test_stationary_on_converged_series(self):
        tracker = PlasticityTracker(window=4, tolerance_coefficient=0.2)
        series = [10.0, 6.0, 3.0] + [1.0] * 10
        for i, v in enumerate(series):
            tracker.record(v, iteration=i)
        assert tracker.is_stationary()

    def test_not_stationary_on_decreasing_series(self):
        tracker = PlasticityTracker(window=4, tolerance_coefficient=0.05, relative_slope_floor=0.01)
        for i, v in enumerate([100.0, 80.0, 60.0, 40.0, 20.0, 10.0]):
            tracker.record(v, iteration=i)
        assert not tracker.is_stationary()

    def test_relative_floor_covers_preconverged_layers(self):
        """A layer that is already flat-but-noisy counts as stationary."""
        rng = np.random.default_rng(0)
        tracker = PlasticityTracker(window=4, tolerance_coefficient=0.2, relative_slope_floor=0.2)
        for i in range(12):
            tracker.record(1e-8 * (1.0 + 0.05 * rng.standard_normal()), iteration=i)
        assert tracker.is_stationary()

    def test_rejects_non_finite(self):
        tracker = PlasticityTracker()
        with pytest.raises(ValueError):
            tracker.record(float("nan"), iteration=0)

    def test_reset_window_and_history(self):
        tracker = PlasticityTracker(window=6)
        for i in range(5):
            tracker.record(float(i), iteration=i)
        tracker.reset_window(3)
        assert tracker.window == 3
        tracker.reset_history()
        assert len(tracker) == 0
        assert tracker.tolerance is not None  # kept by default
        with pytest.raises(ValueError):
            tracker.reset_window(0)

    def test_latest_none_when_empty(self):
        assert PlasticityTracker().latest() is None
