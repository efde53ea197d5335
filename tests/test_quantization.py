"""Tests for post-training quantization."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import models, nn
from repro.quantization import (
    FLOAT16,
    FLOAT32,
    INT4,
    INT8,
    PRECISIONS,
    dequantize_array,
    fake_quantize,
    quantize_array,
    quantize_state_dict,
)


def _mean_abs_error(x, spec):
    return float(np.mean(np.abs(x - fake_quantize(x, spec))))


class TestQuantizeArray:
    def test_int8_roundtrip_error_bounded(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        q, scale = quantize_array(x, INT8)
        recovered = dequantize_array(q, scale, INT8)
        assert np.abs(x - recovered).max() <= scale * 0.5 + 1e-6

    def test_int8_dtype_and_range(self, rng):
        x = rng.standard_normal(100).astype(np.float32) * 10
        q, _ = quantize_array(x, INT8)
        assert q.dtype == np.int8
        assert q.max() <= 127 and q.min() >= -128

    def test_int4_coarser_than_int8(self, rng):
        x = rng.standard_normal(500).astype(np.float32)
        assert _mean_abs_error(x, INT4) > _mean_abs_error(x, INT8)

    def test_float32_identity(self, rng):
        x = rng.standard_normal(10).astype(np.float32)
        assert np.allclose(fake_quantize(x, FLOAT32), x)
        assert _mean_abs_error(x, FLOAT32) == 0.0

    def test_float16_small_error(self, rng):
        x = rng.standard_normal(100).astype(np.float32)
        assert _mean_abs_error(x, FLOAT16) < _mean_abs_error(x, INT8) + 1e-3

    def test_zero_array(self):
        x = np.zeros(10, dtype=np.float32)
        assert np.allclose(fake_quantize(x, INT8), 0.0)

    @pytest.mark.parametrize("spec", [INT8, INT4])
    def test_subnormal_tensor_keeps_the_symmetric_range_without_warnings(self, spec):
        """A largest magnitude of a few float32 subnormal steps must not round the scale to 0."""
        step = np.finfo(np.float32).smallest_subnormal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, scale = quantize_array(np.array([1e-45, 0.0, -1e-45], np.float32), spec)
            assert q.tolist() == [1, 0, -1]
            assert scale == step
            # Every tensor whose scale underflows is a whole number of steps within qmax.
            steps = np.arange(-(spec.qmax // 2), spec.qmax // 2 + 1)
            x = steps.astype(np.float32) * step
            q, scale = quantize_array(x, spec)
            assert q.tolist() == steps.tolist()
            assert np.array_equal(dequantize_array(q, scale, spec), x)

    def test_precision_table_matches_paper(self):
        """Table 2: int8 is 3.59x faster than fp32, fp16 is 1.69x."""
        assert PRECISIONS["int8"].cpu_speedup == pytest.approx(3.59)
        assert PRECISIONS["float16"].cpu_speedup == pytest.approx(1.69)
        assert PRECISIONS["float32"].cpu_speedup == 1.0
        # int4 saves memory but is not faster than int8 (CPU instruction set, §4.1.3).
        assert PRECISIONS["int4"].cpu_speedup == PRECISIONS["int8"].cpu_speedup
        assert PRECISIONS["int4"].memory_ratio < PRECISIONS["int8"].memory_ratio

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip_bounded_by_scale(self, values):
        x = np.asarray(values, dtype=np.float32)
        q, scale = quantize_array(x, INT8)
        recovered = dequantize_array(q, scale, INT8)
        assert np.abs(x - recovered).max() <= scale * 0.5 + 1e-4

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_property_fake_quantize_idempotent(self, size):
        x = np.random.default_rng(size).standard_normal(size).astype(np.float32)
        once = fake_quantize(x, INT8)
        twice = fake_quantize(once, INT8)
        assert np.allclose(once, twice, atol=1e-5)


class TestStateDictQuantization:
    def test_quantize_state_dict_preserves_keys_and_shapes(self):
        model = models.resnet8(num_classes=4, seed=0)
        state = model.state_dict()
        quantized = quantize_state_dict(state, INT8)
        assert set(quantized) == set(state)
        for key in state:
            assert quantized[key].shape == state[key].shape

    def test_batchnorm_statistics_skipped(self):
        model = models.resnet8(num_classes=4, seed=0)
        state = model.state_dict()
        key = next(k for k in state if k.endswith("running_mean"))
        state[key] = np.linspace(0.001, 0.002, state[key].size).astype(np.float32)
        quantized = quantize_state_dict(state, INT8)
        assert np.allclose(quantized[key], state[key])

    def test_quantized_model_still_close(self, rng):
        model = models.resnet8(num_classes=4, seed=0)
        clone = models.resnet8(num_classes=4, seed=0)
        clone.load_state_dict(quantize_state_dict(model.state_dict(), INT8))
        x = nn.Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        with nn.no_grad():
            original = model(x).data
            quantized = clone(x).data
        assert np.allclose(original, quantized, atol=0.5)
