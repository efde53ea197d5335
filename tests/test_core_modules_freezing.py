"""Tests for layer-module parsing and the Algorithm 1 freezing engine."""

import numpy as np
import pytest

from repro import models
from repro.core import EgeriaConfig, FreezingEngine, parse_layer_modules
from repro.core.modules import LayerModule, active_parameter_fraction, building_blocks


class TestLayerModuleParsing:
    def test_uses_module_sequence(self, tiny_model):
        paths = building_blocks(tiny_model)
        assert paths == tiny_model.module_sequence

    def test_pattern_filter(self, tiny_model):
        paths = building_blocks(tiny_model, pattern=r"layer\d")
        assert all(p.startswith("layer") for p in paths)
        with pytest.raises(ValueError):
            building_blocks(tiny_model, pattern="no_such_block")

    def test_excludes_classifier_head(self, tiny_model):
        modules = parse_layer_modules(tiny_model)
        assert all("fc" not in m.paths for m in modules)

    def test_front_to_back_order_and_indices(self, tiny_layer_modules):
        assert [m.index for m in tiny_layer_modules] == list(range(len(tiny_layer_modules)))
        assert tiny_layer_modules[0].paths[0] == "conv1"

    def test_large_stage_split_by_max_fraction(self):
        model = models.CifarResNet(depth=56)
        modules = parse_layer_modules(model, max_fraction=0.2)
        total = sum(m.num_params for m in modules)
        # No group (except possibly a single indivisible block) exceeds ~the budget.
        for module in modules:
            if len(module.paths) > 1:
                assert module.num_params <= total * 0.25
        # Stage 3 is split into several modules while stage 1 groups whole.
        stage3_groups = [m for m in modules if m.paths[0].startswith("layer3")]
        stage1_groups = [m for m in modules if m.paths[0].startswith("layer1")]
        assert len(stage3_groups) >= len(stage1_groups)

    def test_groups_never_cross_stage_boundaries(self):
        model = models.CifarResNet(depth=20)
        for module in parse_layer_modules(model, max_fraction=0.9):
            stages = {p.split(".")[0] for p in module.paths}
            assert len(stages) == 1

    def test_freeze_unfreeze_roundtrip(self, tiny_layer_modules, tiny_model):
        module = tiny_layer_modules[1]
        assert not module.is_frozen()
        module.freeze()
        assert module.is_frozen()
        assert active_parameter_fraction(tiny_layer_modules, tiny_model) < 1.0
        module.unfreeze()
        assert not module.is_frozen()
        assert active_parameter_fraction(tiny_layer_modules, tiny_model) == 1.0

    def test_tail_path_resolves(self, tiny_model, tiny_layer_modules):
        for module in tiny_layer_modules:
            assert tiny_model.get_submodule(module.tail_path) is module.tail_block

    def test_transformer_modules_are_encoder_decoder_layers(self):
        model = models.transformer_tiny()
        modules = parse_layer_modules(model)
        joined = [p for m in modules for p in m.paths]
        assert any(p.startswith("encoder.") for p in joined)
        assert any(p.startswith("decoder.") for p in joined)


def converged_engine(layer_modules, window=2, **config_kwargs):
    config = EgeriaConfig(freeze_window=window, eval_interval_iters=1, **config_kwargs)
    return FreezingEngine(layer_modules, config)


def feed_stationary(engine, iterations, start=0):
    """Feed identical activations so plasticity is zero/stationary."""
    rng = np.random.default_rng(0)
    activation = rng.standard_normal((4, 8)).astype(np.float32)
    for i in range(start, start + iterations):
        engine.check_plasticity(activation, activation, iteration=i)


class TestFreezingEngine:
    def test_monitors_frontmost_module(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules)
        assert engine.monitored_module is tiny_layer_modules[0]

    def test_freezes_after_w_stationary_evaluations(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=3)
        feed_stationary(engine, iterations=10)
        assert tiny_layer_modules[0].is_frozen()
        assert engine.frontmost_active >= 1
        assert engine.events[0].action == "freeze"

    def test_oscillating_plasticity_does_not_freeze(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=3)
        rng = np.random.default_rng(0)
        base = rng.standard_normal((4, 8)).astype(np.float32)
        for i in range(12):
            # Alternate between very different reference activations -> large slope.
            ref = base * (1.0 + 5.0 * (i % 2)) + rng.standard_normal(base.shape).astype(np.float32) * i
            engine.check_plasticity(base, ref, iteration=i)
        assert engine.num_frozen() == 0

    def test_progressive_front_to_back_freezing(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=2)
        feed_stationary(engine, iterations=40)
        frozen_indices = [e.module_index for e in engine.events if e.action == "freeze"]
        assert frozen_indices == sorted(frozen_indices)
        assert engine.num_frozen() >= 2

    def test_last_module_never_frozen(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=1)
        feed_stationary(engine, iterations=100)
        assert not tiny_layer_modules[-1].is_frozen()
        assert engine.monitored_module is None  # all freezable modules done

    def test_frozen_prefix_length(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=1)
        feed_stationary(engine, iterations=20)
        assert engine.frozen_prefix_length() == engine.num_frozen()

    def test_unfreeze_on_lr_drop(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=1)
        engine.observe_lr(0.1, iteration=0)
        feed_stationary(engine, iterations=10)
        assert engine.num_frozen() > 0
        window_before = engine.window
        unfroze = engine.observe_lr(0.1 / 10, iteration=50)
        assert unfroze
        assert engine.num_frozen() == 0
        assert engine.frontmost_active == 0
        assert engine.window <= window_before
        assert any(e.action == "unfreeze" for e in engine.events)

    def test_no_unfreeze_for_small_lr_drop(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=1)
        engine.observe_lr(0.1, iteration=0)
        feed_stationary(engine, iterations=10)
        assert not engine.observe_lr(0.05, iteration=20)
        assert engine.num_frozen() > 0

    def test_refreeze_events_after_unfreeze(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=2)
        engine.observe_lr(0.1, iteration=0)
        feed_stationary(engine, iterations=20)
        engine.observe_lr(0.005, iteration=30)
        feed_stationary(engine, iterations=20, start=31)
        assert any(e.action == "refreeze" for e in engine.events)

    def test_cyclical_lr_uses_custom_unfreeze(self, tiny_layer_modules):
        calls = []
        engine = FreezingEngine(tiny_layer_modules, EgeriaConfig(freeze_window=1),
                                custom_unfreeze=lambda eng, it: calls.append(it))
        feed_stationary(engine, iterations=10)
        engine.observe_lr(0.01, iteration=20, cyclical=True)
        assert calls == [20]
        # Cyclical schedules never trigger the 10x-drop rule implicitly.
        assert engine.num_frozen() > 0

    def test_frozen_parameter_fraction_and_summary(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=1)
        feed_stationary(engine, iterations=6)
        assert 0.0 < engine.frozen_parameter_fraction() <= 1.0
        summary = engine.summary()
        assert summary["num_frozen"] == engine.num_frozen()
        assert summary["num_modules"] == len(tiny_layer_modules)

    def test_timeline_dicts(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=1)
        feed_stationary(engine, iterations=6)
        timeline = engine.timeline()
        assert timeline and {"iteration", "action", "module", "active_parameter_fraction"} <= set(timeline[0])

    def test_empty_modules_rejected(self):
        with pytest.raises(ValueError):
            FreezingEngine([], EgeriaConfig())


class TestUnfreezeRefreezeCycle:
    """Coverage of the full unfreeze -> refreeze life cycle (§4.2.2)."""

    def test_window_halves_on_each_unfreeze(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=4)
        engine.observe_lr(0.1, iteration=0)
        feed_stationary(engine, iterations=30)
        assert engine.num_frozen() > 0
        engine.observe_lr(0.01, iteration=40)          # 10x drop -> unfreeze
        assert engine.window == 2                       # 4 * 0.5
        feed_stationary(engine, iterations=30, start=41)
        engine.observe_lr(0.001, iteration=80)          # second unfreeze
        assert engine.window == 1                       # halved again
        # The window never collapses below one evaluation.
        feed_stationary(engine, iterations=10, start=81)
        engine.observe_lr(0.0001, iteration=100)
        assert engine.window == 1

    def test_trackers_adopt_halved_window(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=4)
        engine.observe_lr(0.1, iteration=0)
        feed_stationary(engine, iterations=30)
        engine.observe_lr(0.01, iteration=40)
        assert all(tracker.window == engine.window for tracker in engine.trackers.values())

    def test_refreeze_events_labelled_refreeze(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=2)
        engine.observe_lr(0.1, iteration=0)
        feed_stationary(engine, iterations=20)
        first_cycle = [e.action for e in engine.events]
        assert set(first_cycle) == {"freeze"}           # first cycle: plain freezes
        engine.observe_lr(0.01, iteration=30)
        feed_stationary(engine, iterations=20, start=31)
        actions = [e.action for e in engine.events]
        assert "unfreeze" in actions
        # Every post-unfreeze freezing decision is labelled "refreeze".
        post_unfreeze = actions[actions.index("unfreeze") + 1:]
        assert post_unfreeze and set(post_unfreeze) == {"refreeze"}
        # Refreezing restarts from the front module.
        refreeze_events = [e for e in engine.events if e.action == "refreeze"]
        assert refreeze_events[0].module_index == 0

    def test_tolerance_retained_across_reset_history(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=2)
        engine.observe_lr(0.1, iteration=0)
        feed_stationary(engine, iterations=20)
        tolerances = {index: tracker.tolerance for index, tracker in engine.trackers.items()
                      if tracker.tolerance is not None}
        assert tolerances                                # calibration happened
        engine.observe_lr(0.01, iteration=30)            # unfreeze resets histories
        for index, tracker in engine.trackers.items():
            assert len(tracker) == 0                     # history cleared ...
            if index in tolerances:
                assert tracker.tolerance == tolerances[index]  # ... tolerance kept
        # With T retained, stationary readings refreeze without recalibration.
        feed_stationary(engine, iterations=10, start=31)
        assert engine.num_frozen() > 0

    def test_reset_history_can_drop_tolerance(self, tiny_layer_modules):
        engine = converged_engine(tiny_layer_modules, window=2)
        feed_stationary(engine, iterations=10)
        tracker = next(t for t in engine.trackers.values() if t.tolerance is not None)
        tracker.reset_history(keep_tolerance=False)
        assert tracker.tolerance is None
        assert len(tracker) == 0


class TestEgeriaConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EgeriaConfig(eval_interval_iters=0)
        with pytest.raises(ValueError):
            EgeriaConfig(tolerance_coefficient=1.5)
        with pytest.raises(ValueError):
            EgeriaConfig(unfreeze_lr_drop_factor=1.0)
        with pytest.raises(ValueError):
            EgeriaConfig(reference_precision="int2")
