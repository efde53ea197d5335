"""Tests for the seven evaluation models and the workload registry."""

import numpy as np
import pytest

from repro import models, nn
from repro.core import parse_layer_modules


class TestCifarResNet:
    def test_depth_validation(self):
        with pytest.raises(ValueError):
            models.CifarResNet(depth=10)

    def test_resnet56_structure(self):
        model = models.resnet56()
        # 3 stages x 9 basic blocks + conv1 + fc in the module sequence.
        assert len(model.module_sequence) == 3 * 9 + 2
        assert model.module_sequence[0] == "conv1"
        assert model.module_sequence[-1] == "fc"

    def test_resnet8_forward_and_backward(self, rng):
        model = models.resnet8(num_classes=4, seed=0)
        x = nn.Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        logits = model(x)
        assert logits.shape == (2, 4)
        nn.cross_entropy(logits, np.array([0, 1])).backward()
        assert model.conv1.weight.grad is not None

    def test_deep_stage_dominates_parameters(self):
        """Figure 11: stage 3 holds ~75% of ResNet-56's parameters."""
        model = models.resnet56()
        stage_params = []
        for stage in ("layer1", "layer2", "layer3"):
            stage_params.append(sum(p.size for p in model.get_submodule(stage).parameters()))
        total = sum(stage_params)
        assert stage_params[2] / total > 0.6
        assert stage_params[0] / total < 0.1

    def test_width_scales_parameters(self):
        small = models.resnet8(width=0.5)
        large = models.resnet8(width=1.0)
        assert large.num_parameters() > small.num_parameters()

    def test_features_shape(self, rng):
        model = models.resnet8(seed=0)
        feats = model.features(nn.Tensor(rng.standard_normal((1, 3, 16, 16)).astype(np.float32)))
        assert feats.shape == (1, 64, 4, 4)

    def test_module_sequence_paths_resolve(self):
        model = models.CifarResNet(depth=20)
        for path in model.module_sequence:
            assert model.get_submodule(path) is not None


class TestImageNetResNet:
    def test_resnet50_lite_stage_counts(self):
        model = models.resnet50_lite()
        assert [len(model.get_submodule(f"layer{i}")._modules) for i in range(1, 5)] == [3, 4, 6, 3]

    def test_forward_shape(self, rng):
        model = models.ImageNetResNet(stage_blocks=(2, 2, 2, 2), num_classes=7, base_width=4, seed=0)
        out = model(nn.Tensor(rng.standard_normal((2, 3, 16, 16)).astype(np.float32)))
        assert out.shape == (2, 7)

    def test_module_sequence_counts_blocks(self):
        model = models.resnet50_lite()
        # conv1 + 16 bottleneck blocks + fc
        assert len(model.module_sequence) == 1 + 16 + 1


class TestMobileNetV2:
    def test_17_building_blocks(self):
        model = models.mobilenet_v2_lite()
        assert model.num_building_blocks == 17

    def test_forward(self, rng):
        model = models.mobilenet_v2_lite(num_classes=10, seed=0)
        out = model(nn.Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 10)


class TestDeepLab:
    def test_output_is_dense_prediction(self, rng):
        model = models.deeplabv3_lite(num_classes=5)
        out = model(nn.Tensor(rng.standard_normal((2, 3, 16, 16)).astype(np.float32)))
        assert out.shape == (2, 16, 16, 5)

    def test_backbone_plus_head_structure(self):
        model = models.DeepLabV3Lite(num_classes=4, backbone_depth=8)
        assert model.module_sequence[-1] == "classifier"
        assert model.module_sequence[-2] == "head"
        assert any(path.startswith("backbone.layer3") for path in model.module_sequence)


class TestTransformer:
    def test_base_and_tiny_layer_counts(self):
        base = models.transformer_base_lite()
        tiny = models.transformer_tiny()
        assert base.num_encoder_layers == 6 and base.num_decoder_layers == 6
        assert tiny.num_encoder_layers == 2 and tiny.num_decoder_layers == 2
        assert len(base.module_sequence) == 1 + 12 + 1

    def test_forward_logits_shape(self):
        model = models.transformer_tiny(vocab_size=32, seed=0)
        src = np.random.default_rng(0).integers(1, 32, size=(3, 6))
        out = model(src, src)
        assert out.shape == (3, 6, 32)

    def test_causal_mask_lower_triangular(self):
        mask = models.transformer.causal_mask(4)
        assert mask[0, 1] == False  # noqa: E712 - numpy bool comparison
        assert mask[3, 0] == True  # noqa: E712

    def test_encoder_output_used_by_decoder(self):
        model = models.transformer_tiny(vocab_size=16, seed=0)
        src = np.ones((1, 4), dtype=np.int64)
        memory = model.encode(src)
        assert memory.shape == (1, 4, model.d_model)
        decoded = model.decode(src, memory)
        assert decoded.shape == (1, 4, model.d_model)


class TestBert:
    def test_bert_lite_forward(self):
        model = models.BertLite(num_layers=2, vocab_size=32, d_model=16, num_heads=2, d_ff=32)
        tokens = np.random.default_rng(0).integers(0, 32, size=(2, 6))
        out = model(tokens)
        assert out.shape == (2, 6, 16)

    def test_qa_head_outputs_spans(self):
        model = models.bert_qa_lite(num_layers=2, vocab_size=32, d_model=16, num_heads=2, d_ff=32)
        tokens = np.random.default_rng(0).integers(0, 32, size=(3, 6))
        start, end = model(tokens)
        assert start.shape == (3, 6) and end.shape == (3, 6)

    def test_pretraining_changes_weights(self):
        model = models.BertLite(num_layers=2, vocab_size=32, d_model=16, num_heads=2, d_ff=32, seed=0)
        before = model.token_embed.weight.data.copy()
        models.pretrain_bert_lite(model, num_steps=5, batch_size=4, seq_len=8, seed=0)
        assert not np.allclose(before, model.token_embed.weight.data)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reference_model_skips_pretraining(self, seed, monkeypatch):
        """The reference model is built under ``skip_random_init``: pre-training
        its uninitialised weights overflowed, and ``load_state_dict`` discarded it."""
        from repro.core.reference import ReferenceModel
        from repro.experiments import build_workload
        from repro.optim import Adam

        steps = [0]
        original = Adam.step

        def counting(self):
            steps[0] += 1
            original(self)

        monkeypatch.setattr(Adam, "step", counting)
        workload = build_workload("bert_squad", scale="tiny", seed=seed)
        training_model = workload.make_model()
        assert steps[0] == 15
        with np.errstate(over="raise", invalid="raise"):
            reference = ReferenceModel(workload.model_factory).generate(training_model)
        assert steps[0] == 15
        assert reference is not training_model

    def test_module_sequence_has_12_layers_by_default(self):
        model = models.bert_qa_lite()
        encoder_layers = [p for p in model.module_sequence if p.startswith("encoder.layers.")]
        assert len(encoder_layers) == 12


class TestRegistry:
    def test_seven_workloads_registered(self):
        assert len(models.WORKLOADS) == 7

    def test_get_workload_and_unknown(self):
        spec = models.get_workload("resnet56_cifar10")
        assert spec.paper_layer_modules == 54
        with pytest.raises(KeyError):
            models.get_workload("unknown_model")

    def test_list_by_task(self):
        cv = models.list_workloads(task="image_classification")
        assert len(cv) == 3

    def test_paper_speedups_within_reported_range(self):
        for spec in models.list_workloads():
            assert 0.19 <= spec.paper_tta_speedup <= 0.43

    def test_factories_produce_parseable_models(self):
        for name in ("resnet56_cifar10", "transformer_tiny_wmt16"):
            spec = models.get_workload(name)
            model = spec.model_factory()
            modules = parse_layer_modules(model)
            assert len(modules) >= 2
