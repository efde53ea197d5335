"""Tests for the controller/worker protocol, task adapters and trainers."""

import dataclasses

import numpy as np
import pytest

from repro import models, nn, optim
from repro.baselines import VanillaTrainer
from repro.core import (
    ClassificationTask,
    EgeriaConfig,
    EgeriaController,
    EgeriaTrainer,
    EgeriaWorker,
    FreezingEngine,
    ReferenceModel,
    parse_layer_modules,
)
from repro.core.queues import EvaluationChannels
from repro.core.tasks import QuestionAnsweringTask, SegmentationTask, TranslationTask
from repro.data import DataLoader, make_dataset


def make_setup(window=1, cpu_load_fn=None):
    model = models.resnet8(num_classes=4, width=0.5, seed=0)
    layer_modules = parse_layer_modules(model)
    config = EgeriaConfig(freeze_window=window, eval_interval_iters=1)
    engine = FreezingEngine(layer_modules, config)
    channels = EvaluationChannels()
    reference = ReferenceModel(lambda: models.resnet8(num_classes=4, width=0.5, seed=0))
    controller = EgeriaController(engine, reference, channels, config, cpu_load_fn=cpu_load_fn)
    worker = EgeriaWorker(model, engine, channels)
    return model, engine, controller, worker


class TestControllerWorkerProtocol:
    def test_worker_monitors_frontmost_tail(self):
        _model, engine, _controller, worker = make_setup()
        assert worker.monitored_path == engine.monitored_module.tail_path

    def test_submit_and_evaluate_through_queues(self, rng):
        model, engine, controller, worker = make_setup(window=2)
        controller.initialize_reference(model, iteration=0)
        x = nn.Tensor(rng.standard_normal((4, 3, 8, 8)).astype(np.float32))
        for i in range(1, 8):
            model(x)
            assert worker.submit_evaluation((x,), iteration=i)
            readings = controller.step(model)
            assert isinstance(readings, list)
        assert controller.evaluations_done > 0
        assert engine.num_frozen() >= 1

    def test_worker_drops_when_queue_full(self, rng):
        model, _engine, _controller, worker = make_setup()
        x = nn.Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        model(x)
        accepted = [worker.submit_evaluation((x,), iteration=i) for i in range(10)]
        assert not all(accepted)  # the bounded IQ eventually rejects

    def test_controller_skips_under_cpu_load(self, rng):
        model, _engine, controller, worker = make_setup(cpu_load_fn=lambda: 0.9)
        controller.initialize_reference(model, iteration=0)
        x = nn.Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        model(x)
        worker.submit_evaluation((x,), iteration=1)
        readings = controller.step(model)
        assert readings == []
        assert controller.evaluations_skipped_cpu >= 1

    def test_apply_decisions_switches_batchnorm_to_eval(self, rng):
        model, engine, controller, worker = make_setup(window=1)
        controller.initialize_reference(model, iteration=0)
        x = nn.Tensor(rng.standard_normal((4, 3, 8, 8)).astype(np.float32))
        for i in range(1, 20):
            model(x)
            worker.submit_evaluation((x,), iteration=i)
            controller.step(model)
            if engine.num_frozen() >= 2:
                break
        # At least conv1 and the first residual block (which contains BatchNorm)
        # end up frozen with stationary plasticity.
        assert engine.num_frozen() >= 2
        summary = worker.apply_decisions()
        assert summary["frozen_modules"] >= 2
        bn_layers = [m for frozen in engine.frozen_modules() for block in frozen.blocks
                     for m in block.modules() if isinstance(m, nn.BatchNorm2d)]
        assert bn_layers and all(not bn.training for bn in bn_layers)
        # After unfreeze, training mode is restored.
        engine.unfreeze_all(iteration=100)
        worker.restore_training_mode()
        assert all(bn.training for bn in bn_layers)

    def test_reference_updated_periodically(self, rng):
        model, _engine, controller, worker = make_setup(window=50)
        controller.config.reference_update_interval = 2
        controller.initialize_reference(model, iteration=0)
        x = nn.Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        for i in range(1, 10):
            model(x)
            worker.submit_evaluation((x,), iteration=i)
            controller.step(model)
        assert controller.reference.stats.updates >= 1

    def test_summaries(self, rng):
        model, _engine, controller, worker = make_setup()
        controller.initialize_reference(model, iteration=0)
        assert "evaluations_done" in controller.summary()
        assert "monitored_path" in worker.summary()


class TestTaskAdapters:
    def test_classification_loss_and_eval(self, tiny_model, tiny_dataset):
        task = ClassificationTask()
        batch = tiny_dataset.get_batch(np.arange(8))
        loss = task.loss(task.forward(tiny_model, batch), batch)
        assert loss.item() > 0
        loader = DataLoader(tiny_dataset, batch_size=8, shuffle=False)
        accuracy = task.evaluate(tiny_model, iter(loader))
        assert 0.0 <= accuracy <= 1.0

    def test_segmentation_task(self):
        task = SegmentationTask(num_classes=4)
        model = models.DeepLabV3Lite(num_classes=4, backbone_depth=8, seed=0)
        dataset = make_dataset("synthetic_voc", num_samples=8, num_classes=4, image_size=16, seed=0)
        batch = dataset.get_batch(np.arange(2))
        loss = task.loss(task.forward(model, batch), batch)
        assert loss.item() > 0
        miou = task.evaluate(model, iter(DataLoader(dataset, batch_size=2, shuffle=False)))
        assert 0.0 <= miou <= 1.0

    def test_translation_task_lower_is_better(self):
        task = TranslationTask()
        assert not task.higher_is_better
        assert task.better(3.0, 5.0)
        model = models.transformer_tiny(vocab_size=16, seed=0)
        dataset = make_dataset("synthetic_wmt16", num_samples=16, vocab_size=16, seq_len=6, seed=0)
        batch = dataset.get_batch(np.arange(4))
        loss = task.loss(task.forward(model, batch), batch)
        assert loss.item() > 0
        ppl = task.evaluate(model, iter(DataLoader(dataset, batch_size=4, shuffle=False)))
        assert ppl > 1.0

    def test_translation_loss_of_an_all_padding_batch_backpropagates_zero(self):
        """Such a loss used to be a constant outside the graph, and the
        trainer's ``loss.backward()`` raised ``RuntimeError``."""
        task = TranslationTask()
        model = models.transformer_tiny(vocab_size=16, seed=0)
        dataset = make_dataset("synthetic_wmt16", num_samples=16, vocab_size=16, seq_len=6, seed=0)
        batch = dataset.get_batch(np.arange(4))
        batch = dataclasses.replace(batch, targets=np.full_like(batch.targets, task.pad_token))
        logits = task.forward(model, batch)
        loss = task.loss(logits, batch)
        assert loss.item() == 0.0
        assert loss.backward() > 1
        assert logits.grad.shape == logits.shape and not logits.grad.any()
        grads = [param.grad for param in model.parameters() if param.grad is not None]
        assert grads and not any(grad.any() for grad in grads)

    def test_qa_task(self):
        task = QuestionAnsweringTask()
        model = models.BertForQuestionAnswering(num_layers=2, vocab_size=64, d_model=16, num_heads=2, d_ff=32)
        dataset = make_dataset("synthetic_squad", num_samples=16, vocab_size=64, seq_len=12, seed=0)
        batch = dataset.get_batch(np.arange(4))
        loss = task.loss(task.forward(model, batch), batch)
        assert loss.item() > 0
        f1 = task.evaluate(model, iter(DataLoader(dataset, batch_size=4, shuffle=False)))
        assert 0.0 <= f1 <= 1.0


def build_cv_pieces(num_samples=64, noise=0.8, num_classes=4):
    full = make_dataset("synthetic_cifar10", num_samples=num_samples, num_classes=num_classes,
                        image_size=8, noise=noise, seed=0)
    train_ds, eval_ds = full.split(eval_fraction=0.25)
    train_loader = DataLoader(train_ds, batch_size=8, seed=0)
    eval_loader = DataLoader(eval_ds, batch_size=8, shuffle=False)
    return train_loader, eval_loader


class TestBaseTrainer:
    def test_fit_records_history_and_learns(self):
        train_loader, eval_loader = build_cv_pieces()
        model = models.resnet8(num_classes=4, width=0.5, seed=0)
        optimizer = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
        trainer = VanillaTrainer(model, ClassificationTask(), train_loader, eval_loader, optimizer)
        history = trainer.fit(num_epochs=4)
        assert len(history.records) == 4
        assert history.losses()[-1] < history.losses()[0]
        assert history.total_simulated_time() > 0
        assert history.frozen_fractions() == [0.0] * 4

    def test_stop_at_target(self):
        train_loader, eval_loader = build_cv_pieces(noise=0.3)
        model = models.resnet8(num_classes=4, width=0.5, seed=0)
        optimizer = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
        trainer = VanillaTrainer(model, ClassificationTask(), train_loader, eval_loader, optimizer)
        history = trainer.fit(num_epochs=10, target_metric=0.5, stop_at_target=True)
        assert len(history.records) <= 10

    def test_requires_optimizer(self):
        train_loader, eval_loader = build_cv_pieces()
        with pytest.raises(ValueError):
            VanillaTrainer(models.resnet8(seed=0), ClassificationTask(), train_loader, eval_loader, None)


class TestEgeriaTrainer:
    def _build(self, tmp_path, num_samples=96, noise=1.5, **config_kwargs):
        full = make_dataset("synthetic_cifar10", num_samples=num_samples, num_classes=4,
                            image_size=8, noise=noise, seed=0)
        train_ds, eval_ds = full.split(eval_fraction=0.25)
        train_loader = DataLoader(train_ds, batch_size=8, seed=0)
        eval_loader = DataLoader(eval_ds, batch_size=8, shuffle=False)
        model_factory = lambda: models.resnet8(num_classes=4, width=0.5, seed=0)
        model = model_factory()
        optimizer = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
        scheduler = optim.MultiStepLR(optimizer, milestones=[8], gamma=0.1)
        config = EgeriaConfig(eval_interval_iters=2, freeze_window=2, bootstrap_min_evaluations=2,
                              cache_dir=str(tmp_path), **config_kwargs)
        return EgeriaTrainer(model, model_factory, ClassificationTask(), train_loader, eval_loader,
                             optimizer, scheduler, config=config)

    def test_starts_in_bootstrapping_stage(self, tmp_path):
        trainer = self._build(tmp_path)
        assert trainer.stage == EgeriaTrainer.BOOTSTRAPPING
        trainer.close()

    def test_full_run_freezes_and_keeps_accuracy(self, tmp_path):
        trainer = self._build(tmp_path)
        history = trainer.fit(num_epochs=12)
        assert trainer.stage == EgeriaTrainer.KNOWLEDGE_GUIDED
        assert trainer.engine.num_frozen() >= 1
        assert trainer.freezing_timeline()
        assert max(history.frozen_fractions()) > 0.0
        # Reasonable accuracy on the easy synthetic task.
        assert history.final_metric() > 0.4
        # Cache activity happened once modules froze.
        assert trainer.cache.stats.stores > 0
        summary = trainer.summary()
        assert summary["frozen_prefix"] == trainer.engine.frozen_prefix_length()
        trainer.close()

    def test_simulated_time_cheaper_than_vanilla_at_equal_epochs(self, tmp_path):
        egeria = self._build(tmp_path)
        egeria_history = egeria.fit(num_epochs=12)
        train_loader, eval_loader = build_cv_pieces(num_samples=96, noise=1.5)
        model = models.resnet8(num_classes=4, width=0.5, seed=0)
        optimizer = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
        scheduler = optim.MultiStepLR(optimizer, milestones=[8], gamma=0.1)
        vanilla = VanillaTrainer(model, ClassificationTask(), train_loader, eval_loader, optimizer, scheduler)
        vanilla_history = vanilla.fit(num_epochs=12)
        assert egeria_history.total_simulated_time() < vanilla_history.total_simulated_time() * 1.05
        egeria.close()

    def test_disable_caching(self, tmp_path):
        trainer = self._build(tmp_path, enable_fp_caching=False)
        trainer.fit(num_epochs=8)
        assert trainer.cache.stats.stores == 0
        assert not trainer.uses_cached_fp()
        trainer.close()

    def test_no_stale_cache_hits_across_unfreeze_refreeze(self, tmp_path):
        """Regression: freeze -> unfreeze -> refreeze must never serve stale hits.

        The old code versioned the cache with ``prefix_version + 1`` after an
        unfreeze and left the activation recorder hooked, so (a) the
        still-training prefix kept populating the cache and (b) a later
        refreeze whose prefix length collided with that version served the
        stale pre-refreeze activations as hits.
        """
        trainer = self._build(tmp_path)
        trainer.stage = EgeriaTrainer.KNOWLEDGE_GUIDED
        trainer.controller.initialize_reference(trainer.model, 0)
        engine = trainer.engine
        act = np.zeros((4, 8), dtype=np.float32)

        # Freeze the first two modules through Algorithm 1's fast path.
        engine.observe_lr(0.1, iteration=0)
        for it in (1, 3):
            engine.stale_counter = engine.window
            engine.check_plasticity(act, act, iteration=it)
        assert engine.frozen_prefix_length() == 2

        loader = trainer.train_loader
        loader.set_epoch(0)
        batch = loader.next_batch()
        trainer.iteration = 3  # odd: skips the periodic evaluation submission
        trainer.on_iteration_end(batch, loss_value=1.0)  # syncs version + recorder
        trainer.forward_batch(batch)                     # miss: the full forward fills the recorder hook
        trainer.on_iteration_end(batch, loss_value=1.0)  # stores the batch
        stores_before_unfreeze = trainer.cache.stats.stores
        assert stores_before_unfreeze > 0
        trainer.forward_batch(batch)                     # legitimate full hit: resumes past the prefix
        trainer.on_iteration_end(batch, loss_value=1.0)  # ... and leaves nothing to store
        assert trainer.fp_skipped_iterations == 1
        assert trainer.cache.stats.stores == stores_before_unfreeze

        # 10x LR drop -> the real epoch hook unfreezes everything.
        trainer.on_epoch_start(epoch=1, lr=0.01)
        assert engine.num_frozen() == 0
        # The recorder must be gone: the prefix trains again, so recording
        # (and serving) its tail would be stale immediately.
        assert trainer._cache_recorder is None
        trainer.forward_batch(batch)
        trainer.on_iteration_end(batch, loss_value=1.0)
        assert trainer.cache.stats.stores == stores_before_unfreeze  # no post-unfreeze stores

        # Refreeze three modules in one burst (several queued evaluation
        # results can land in a single on_iteration_end), colliding with the
        # old version counter (2 + 1 == 3 == new frozen_prefix_length).
        engine.observe_lr(0.01, iteration=9)
        for it in (11, 13, 15):
            engine.stale_counter = engine.window
            engine.check_plasticity(act, act, iteration=it)
        assert engine.frozen_prefix_length() == 3
        trainer.iteration = 15
        trainer.on_iteration_end(batch, loss_value=1.0)
        # Nothing stored since the refreeze may be served; the pre-unfreeze
        # activations (different prefix, different weights) must all miss.
        assert trainer.cache.load_batch(batch.indices) is None
        assert trainer.fp_skipped_iterations == 1
        trainer.close()
