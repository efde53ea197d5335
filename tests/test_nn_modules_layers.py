"""Tests for Module/Parameter plumbing, layers, blocks, losses and initializers."""

import math

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, init
from repro.nn.layers import ReLU6
from repro.nn.module import Identity


class TestModulePlumbing:
    def test_named_parameters_paths(self):
        block = nn.BasicBlock(4, 4, rng=np.random.default_rng(0))
        names = dict(block.named_parameters())
        assert "conv1.weight" in names and "bn2.bias" in names

    def test_get_submodule(self):
        model = nn.Sequential(nn.Linear(4, 4), nn.ReLU(), nn.Linear(4, 2))
        assert isinstance(model.get_submodule("2"), nn.Linear)
        with pytest.raises(KeyError):
            model.get_submodule("missing")

    def test_forward_hook_fires_and_removes(self):
        layer = nn.Linear(3, 2)
        captured = []
        handle = layer.register_forward_hook(lambda m, i, o: captured.append(o.shape))
        layer(Tensor(np.zeros((5, 3), dtype=np.float32)))
        assert captured == [(5, 2)]
        handle.remove()
        layer(Tensor(np.zeros((5, 3), dtype=np.float32)))
        assert len(captured) == 1

    def test_state_dict_roundtrip(self):
        a = nn.Linear(4, 3, rng=np.random.default_rng(0))
        b = nn.Linear(4, 3, rng=np.random.default_rng(1))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_state_dict_includes_buffers(self):
        bn = nn.BatchNorm2d(4)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

    def test_freeze_unfreeze(self):
        layer = nn.Linear(4, 4)
        layer.freeze()
        assert layer.is_frozen()
        assert all(not p.requires_grad for p in layer.parameters())
        layer.unfreeze()
        assert not layer.is_frozen()

    def test_num_parameters_trainable_only(self):
        layer = nn.Linear(4, 4)
        total = layer.num_parameters()
        layer.freeze()
        assert layer.num_parameters(trainable_only=True) == 0
        assert layer.num_parameters() == total

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.BatchNorm2d(3), nn.Sequential(nn.BatchNorm2d(3)))
        model.eval()
        assert all(not m.training for m in model.modules())

    def test_module_list(self):
        ml = nn.ModuleList([nn.Linear(2, 2), nn.Linear(2, 2)])
        assert len(ml) == 2
        assert len(list(ml[0].parameters())) == 2
        with pytest.raises(RuntimeError):
            ml(Tensor(np.zeros((1, 2), dtype=np.float32)))

    def test_zero_grad(self):
        layer = nn.Linear(3, 3)
        out = layer(Tensor(np.ones((2, 3), dtype=np.float32)))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLayers:
    def test_linear_shapes_and_values(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        x = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
        out = layer(x)
        assert out.shape == (5, 3)
        expected = x.data @ layer.weight.data.T + layer.bias.data
        assert np.allclose(out.data, expected, atol=1e-5)

    def test_linear_3d_input(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 6, 4)).astype(np.float32)))
        assert out.shape == (2, 6, 3)

    def test_conv2d_layer(self, rng):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        out = conv(Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 8, 4, 4)

    def test_conv2d_invalid_groups(self):
        with pytest.raises(ValueError):
            nn.Conv2d(3, 8, 3, groups=2)

    def test_batchnorm_normalises_in_training(self, rng):
        bn = nn.BatchNorm2d(4)
        x = Tensor(rng.standard_normal((8, 4, 5, 5)).astype(np.float32) * 3 + 2)
        out = bn(x)
        assert abs(out.data.mean()) < 0.1
        assert abs(out.data.std() - 1.0) < 0.2

    def test_batchnorm_eval_uses_running_stats(self, rng):
        bn = nn.BatchNorm2d(2)
        for _ in range(20):
            bn(Tensor(rng.standard_normal((8, 2, 4, 4)).astype(np.float32) + 5.0))
        bn.eval()
        x = Tensor(np.full((2, 2, 4, 4), 5.0, dtype=np.float32))
        out = bn(x)
        assert abs(out.data.mean()) < 1.0

    def test_layernorm(self, rng):
        ln = nn.LayerNorm(8)
        out = ln(Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32) * 4))
        assert abs(out.data.mean(axis=-1)).max() < 1e-3

    def test_embedding_layer(self, rng):
        emb = nn.Embedding(12, 6, rng=rng)
        out = emb(np.array([[0, 1], [2, 3]]))
        assert out.shape == (2, 2, 6)

    def test_dropout_reseed_replays_mask(self):
        drop = nn.Dropout(0.5, seed=7)
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        first = drop(x).data.copy()
        drop.reseed(7)
        second = drop(x).data.copy()
        assert np.allclose(first, second)

    @pytest.mark.parametrize("p", [-0.5, 1.5, float("nan")])
    def test_dropout_rejects_a_probability_outside_0_1(self, p):
        with pytest.raises(ValueError, match="dropout probability"):
            nn.Dropout(p)

    def test_dropout_of_everything_outputs_zeros(self):
        drop = nn.Dropout(1.0, seed=0)
        out = drop(Tensor(np.ones((2, 3), dtype=np.float32)))
        assert np.array_equal(out.data, np.zeros((2, 3), dtype=np.float32))

    def test_activations_shapes(self, rng):
        x = Tensor(rng.standard_normal((3, 5)).astype(np.float32))
        for layer in (nn.ReLU(), ReLU6(), nn.GELU()):
            assert layer(x).shape == (3, 5)

    def test_relu6_caps(self):
        x = Tensor(np.array([-1.0, 3.0, 10.0], dtype=np.float32))
        assert np.allclose(ReLU6()(x).data, [0.0, 3.0, 6.0])

    def test_flatten(self):
        x = Tensor(np.zeros((2, 3, 4, 4), dtype=np.float32))
        assert nn.Flatten()(x).shape == (2, 48)

    def test_pool_layers(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 8, 8)).astype(np.float32))
        assert nn.MaxPool2d(2)(x).shape == (1, 2, 4, 4)
        assert nn.AdaptiveAvgPool2d(1)(x).shape == (1, 2, 1, 1)


class TestBlocks:
    def test_basic_block_identity_shortcut(self, rng):
        block = nn.BasicBlock(8, 8, rng=rng)
        assert isinstance(block.shortcut, Identity)
        out = block(Tensor(rng.standard_normal((2, 8, 6, 6)).astype(np.float32)))
        assert out.shape == (2, 8, 6, 6)

    def test_basic_block_projection_shortcut(self, rng):
        block = nn.BasicBlock(4, 8, stride=2, rng=rng)
        assert not isinstance(block.shortcut, Identity)
        out = block(Tensor(rng.standard_normal((2, 4, 6, 6)).astype(np.float32)))
        assert out.shape == (2, 8, 3, 3)

    def test_bottleneck(self, rng):
        block = nn.Bottleneck(16, 4, rng=rng)
        out = block(Tensor(rng.standard_normal((2, 16, 4, 4)).astype(np.float32)))
        assert out.shape == (2, 16, 4, 4)

    def test_inverted_residual_uses_residual_when_possible(self, rng):
        block = nn.InvertedResidual(8, 8, stride=1, expand_ratio=2, rng=rng)
        assert block.use_residual
        block2 = nn.InvertedResidual(8, 16, stride=2, expand_ratio=2, rng=rng)
        assert not block2.use_residual

    def test_multi_head_attention_shapes(self, rng):
        attn = nn.MultiHeadAttention(16, 4, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 16)).astype(np.float32))
        assert attn(x).shape == (2, 5, 16)

    def test_attention_mask_blocks_future(self, rng):
        attn = nn.MultiHeadAttention(8, 2, rng=rng)
        x = Tensor(rng.standard_normal((1, 4, 8)).astype(np.float32))
        mask = np.tril(np.ones((4, 4), dtype=bool))
        out = attn(x, mask=mask)
        assert out.shape == (1, 4, 8)

    def test_attention_value_defaults_to_key(self, rng):
        attn = nn.MultiHeadAttention(8, 2, rng=rng)
        query = Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32))
        memory = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32))
        out = attn(query, key=memory)
        assert out.shape == (2, 3, 8)
        assert np.array_equal(out.data, attn(query, key=memory, value=memory).data)
        assert np.array_equal(attn(query).data, attn(query, key=query, value=query).data)

    def test_attention_invalid_heads(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(10, 3)

    def test_encoder_decoder_layers(self, rng):
        enc = nn.TransformerEncoderLayer(16, 4, 32, rng=rng)
        dec = nn.TransformerDecoderLayer(16, 4, 32, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 16)).astype(np.float32))
        memory = enc(x)
        out = dec(x, memory)
        assert out.shape == (2, 5, 16)

    def test_positional_encoding_added(self):
        pe = nn.PositionalEncoding(8, max_len=16)
        x = Tensor(np.zeros((1, 4, 8), dtype=np.float32))
        out = pe(x)
        assert not np.allclose(out.data, 0.0)

    def test_conv_bn_relu(self, rng):
        stem = nn.ConvBNReLU(3, 8, stride=2, rng=rng)
        out = stem(Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 8, 4, 4)
        assert (out.data >= 0).all()


class TestLosses:
    def test_cross_entropy_matches_manual(self, rng):
        logits_np = rng.standard_normal((4, 5)).astype(np.float32)
        targets = np.array([0, 1, 2, 3])
        loss = nn.cross_entropy(Tensor(logits_np, requires_grad=True), targets)
        shifted = logits_np - logits_np.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        manual = -log_probs[np.arange(4), targets].mean()
        assert np.isclose(loss.item(), manual, atol=1e-4)

    def test_cross_entropy_gradient_flows(self, rng):
        logits = Tensor(rng.standard_normal((4, 5)).astype(np.float32), requires_grad=True)
        nn.cross_entropy(logits, np.array([0, 1, 2, 3])).backward()
        assert logits.grad is not None and logits.grad.shape == (4, 5)

    def test_label_smoothing_increases_loss_on_confident_predictions(self):
        logits = Tensor(np.array([[10.0, -10.0]], dtype=np.float32))
        plain = nn.cross_entropy(logits, np.array([0]))
        smoothed = nn.cross_entropy(logits, np.array([0]), label_smoothing=0.2)
        assert smoothed.item() > plain.item()

    def test_ignore_index_masks_padding(self, rng):
        logits = Tensor(rng.standard_normal((2, 3, 5)).astype(np.float32))
        targets = np.array([[1, 0, 0], [2, 3, 0]])
        loss_all = nn.cross_entropy(logits, targets)
        loss_masked = nn.cross_entropy(logits, targets, ignore_index=0)
        assert not np.isclose(loss_all.item(), loss_masked.item())

    def test_span_extraction_loss(self, rng):
        start = Tensor(rng.standard_normal((3, 8)).astype(np.float32), requires_grad=True)
        end = Tensor(rng.standard_normal((3, 8)).astype(np.float32), requires_grad=True)
        loss = nn.SpanExtractionLoss()(start, end, np.array([1, 2, 3]), np.array([2, 3, 4]))
        loss.backward()
        assert loss.item() > 0
        assert start.grad is not None


class TestInit:
    def test_compute_fans(self):
        assert init.compute_fans((10, 20)) == (20, 10)
        assert init.compute_fans((8, 4, 3, 3)) == (36, 72)
        assert init.compute_fans((7,)) == (7, 7)

    def test_kaiming_bounds(self):
        rng = np.random.default_rng(0)
        w = init.kaiming_uniform((64, 32), rng=rng)
        bound = math.sqrt(2.0) * math.sqrt(3.0 / 32)
        assert np.abs(w).max() <= bound + 1e-6

    def test_constant_fills(self):
        assert np.allclose(init.zeros((3, 3)), 0.0)
        assert np.allclose(init.ones((2,)), 1.0)
        assert init.normal((100,), std=0.02, rng=np.random.default_rng(0)).std() < 0.05
