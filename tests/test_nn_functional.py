"""Tests for repro.nn.functional: conv, pooling, softmax, embedding, upsample, dropout."""

import warnings

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


class TestConv2d:
    def test_output_shape(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((5, 3, 3, 3)).astype(np.float32))
        out = F.conv2d(x, w, stride=1, padding=1)
        assert out.shape == (2, 5, 8, 8)

    def test_stride_and_padding_shapes(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 9, 9)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        assert F.conv2d(x, w, stride=2, padding=1).shape == (1, 4, 5, 5)
        assert F.conv2d(x, w, stride=1, padding=0).shape == (1, 4, 7, 7)

    def test_matches_naive_convolution(self, rng):
        x_np = rng.standard_normal((1, 1, 5, 5)).astype(np.float32)
        w_np = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x_np), Tensor(w_np), padding=0).data[0, 0]
        naive = np.zeros((3, 3), dtype=np.float32)
        for i in range(3):
            for j in range(3):
                naive[i, j] = np.sum(x_np[0, 0, i:i + 3, j:j + 3] * w_np[0, 0])
        assert np.allclose(out, naive, atol=1e-5)

    def test_weight_gradient_numeric(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 6, 6)).astype(np.float32))
        w_np = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        w = Tensor(w_np, requires_grad=True)
        F.conv2d(x, w, padding=1).sum().backward()
        eps, idx = 1e-3, (1, 0, 2, 2)
        orig = w_np[idx]
        w.data[idx] = orig + eps
        plus = F.conv2d(x, w).sum().item() if False else F.conv2d(x, w, padding=1).sum().item()
        w.data[idx] = orig - eps
        minus = F.conv2d(x, w, padding=1).sum().item()
        w.data[idx] = orig
        assert np.isclose(w.grad[idx], (plus - minus) / (2 * eps), rtol=1e-2, atol=1e-2)

    def test_input_gradient_shape(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        F.conv2d(x, w, b, stride=2, padding=1).sum().backward()
        assert x.grad.shape == x.shape
        assert b.grad.shape == (4,)

    def test_grouped_convolution_depthwise(self, rng):
        x = Tensor(rng.standard_normal((2, 6, 8, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 1, 3, 3)).astype(np.float32), requires_grad=True)
        out = F.conv2d(x, w, padding=1, groups=6)
        assert out.shape == (2, 6, 8, 8)
        out.sum().backward()
        assert w.grad.shape == (6, 1, 3, 3)

    def test_group_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 4, 3, 3)).astype(np.float32))
        with pytest.raises(AssertionError):
            F.conv2d(x, w, padding=1, groups=2)


class TestIm2Col:
    def test_roundtrip_shapes(self, rng):
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        cols, out_h, out_w = F.im2col(x, kernel=3, stride=1, padding=1)
        assert cols.shape == (2, 27, 36)
        back = F.col2im(cols, x.shape, kernel=3, stride=1, padding=1)
        assert back.shape == x.shape

    def test_conv_output_size(self):
        assert F.conv_output_size(32, 3, 1, 1) == 32
        assert F.conv_output_size(32, 3, 2, 1) == 16
        assert F.conv_output_size(8, 2, 2, 0) == 4


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_backward_routes_to_max(self):
        x_np = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        x = Tensor(x_np, requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        assert x.grad.sum() == 4.0
        assert x.grad[0, 0, 3, 3] == 1.0
        assert x.grad[0, 0, 0, 0] == 0.0

    def test_adaptive_avg_pool_global(self):
        x = Tensor(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2))
        out = F.adaptive_avg_pool2d(x, 1)
        assert out.shape == (1, 2, 1, 1)
        assert np.isclose(out.data[0, 0, 0, 0], 1.5)

    def test_adaptive_avg_pool_rejects_other_sizes(self):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="output_size=1 only"):
            F.adaptive_avg_pool2d(x, 2)

    @pytest.mark.parametrize("size", [0, 3, 4])
    def test_adaptive_avg_pool_rejects_every_size_but_one(self, size):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match=f"got {size}"):
            F.adaptive_avg_pool2d(x, size)

    def test_adaptive_avg_pool_is_the_spatial_sum_times_the_reciprocal_count(self, rng):
        data = rng.standard_normal((3, 4, 5, 6)).astype(np.float32)
        out = F.adaptive_avg_pool2d(Tensor(data))
        expected = data.sum(axis=(2, 3), keepdims=True) * np.float32(1.0 / 30)
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == expected.tobytes()

    def test_adaptive_avg_pool_spreads_the_gradient_evenly(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4, 2)).astype(np.float32), requires_grad=True)
        upstream = rng.standard_normal((2, 3, 1, 1)).astype(np.float32)
        (F.adaptive_avg_pool2d(x) * Tensor(upstream)).sum().backward()
        assert x.grad.shape == (2, 3, 4, 2)
        assert np.allclose(x.grad, np.broadcast_to(upstream / 8.0, x.grad.shape))


class TestSoftmaxAndEmbedding:
    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.standard_normal((4, 7)).astype(np.float32))
        probs = F.softmax(x, axis=-1)
        assert np.allclose(probs.data.sum(axis=-1), 1.0, atol=1e-5)

    def test_log_softmax_consistency(self, rng):
        x = Tensor(rng.standard_normal((3, 5)).astype(np.float32))
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data + 1e-12), atol=1e-4)

    def test_softmax_stability_large_values(self):
        x = Tensor(np.array([[1000.0, 1000.0]], dtype=np.float32))
        probs = F.softmax(x)
        assert np.allclose(probs.data, [[0.5, 0.5]])

    def test_embedding_lookup_and_grad(self, rng):
        weight = Tensor(rng.standard_normal((10, 4)).astype(np.float32), requires_grad=True)
        idx = np.array([[1, 2], [2, 3]])
        out = F.embedding(idx, weight)
        assert out.shape == (2, 2, 4)
        out.sum().backward()
        assert np.allclose(weight.grad[2], 2.0)
        assert np.allclose(weight.grad[0], 0.0)

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), 3)
        assert np.allclose(out, [[1, 0, 0], [0, 0, 1]])


class TestUpsampleDropout:
    def test_upsample_nearest(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2), requires_grad=True)
        out = F.upsample_nearest(x, 2)
        assert out.shape == (1, 1, 4, 4)
        assert np.allclose(out.data[0, 0, :2, :2], 0.0)
        out.sum().backward()
        assert np.allclose(x.grad, 4.0)

    def test_dropout_eval_mode_identity(self, rng):
        x = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        out = F.dropout(x, p=0.5, training=False)
        assert out is x

    def test_dropout_scales_inverse(self):
        x = Tensor(np.ones((1000,), dtype=np.float32))
        out = F.dropout(x, p=0.5, training=True, rng=np.random.default_rng(0))
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 2.0)
        assert 0.3 < (out.data > 0).mean() < 0.7

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 0.999])
    def test_dropout_mask_is_the_inverted_draw_bit_for_bit(self, rng, p):
        data = rng.standard_normal((3, 7)).astype(np.float32)
        out = F.dropout(Tensor(data), p, training=True, rng=np.random.default_rng(4))
        mask = (np.random.default_rng(4).random(data.shape) >= p).astype(np.float32) / (1.0 - p)
        assert np.array_equal(out.data, data * mask)

    def test_dropout_of_everything_is_zeros_and_draws_as_usual(self, rng):
        x = Tensor(rng.standard_normal((4, 5)).astype(np.float32), requires_grad=True)
        gen = np.random.default_rng(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = F.dropout(x, 1.0, training=True, rng=gen)
            out.sum().backward()
        assert np.array_equal(out.data, np.zeros((4, 5), dtype=np.float32))
        assert np.array_equal(x.grad, np.zeros((4, 5), dtype=np.float32))
        reference = np.random.default_rng(3)
        reference.random((4, 5))
        assert gen.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    @pytest.mark.parametrize("training", [True, False])
    def test_dropout_rejects_a_probability_outside_0_1(self, p, training):
        with pytest.raises(ValueError, match="dropout probability"):
            F.dropout(Tensor(np.ones(3, dtype=np.float32)), p, training=training)
