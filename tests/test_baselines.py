"""Tests for the baseline systems: static/gradient/FreezeOut freezing, Skip-Conv, ByteScheduler."""

import numpy as np
import pytest

from repro import models, optim
from repro.baselines import (
    DistributedThroughputComparison,
    FreezeOutTrainer,
    GradientFreezeTrainer,
    SkipConvTrainer,
    StaticFreezeTrainer,
    freezeout_schedule,
    module_gradient_norm,
)
from repro.core import ClassificationTask, EgeriaConfig, parse_layer_modules
from repro.core.plasticity import direct_difference_loss
from repro.data import DataLoader, make_dataset
from repro.sim import SchedulePolicy, paper_testbed_cluster


def cv_pieces(num_samples=64, noise=1.0):
    full = make_dataset("synthetic_cifar10", num_samples=num_samples, num_classes=4, image_size=8,
                        noise=noise, seed=0)
    train_ds, eval_ds = full.split(eval_fraction=0.25)
    return (DataLoader(train_ds, batch_size=8, seed=0),
            DataLoader(eval_ds, batch_size=8, shuffle=False))


def cv_model_and_optim():
    model = models.resnet8(num_classes=4, width=0.5, seed=0)
    return model, optim.SGD(model.parameters(), lr=0.1, momentum=0.9)


class TestStaticFreeze:
    def test_freezes_at_scheduled_epoch(self):
        train_loader, eval_loader = cv_pieces()
        model, optimizer = cv_model_and_optim()
        trainer = StaticFreezeTrainer(model, ClassificationTask(), train_loader, eval_loader, optimizer,
                                      freeze_schedule={2: 2})
        history = trainer.fit(num_epochs=4)
        assert trainer.frozen_prefix() == 2
        assert trainer.freeze_events == [{"epoch": 2, "frozen_prefix": 2}]
        assert history.frozen_fractions()[1] == 0.0
        assert history.frozen_fractions()[3] > 0.0

    def test_never_freezes_everything(self):
        train_loader, eval_loader = cv_pieces()
        model, optimizer = cv_model_and_optim()
        trainer = StaticFreezeTrainer(model, ClassificationTask(), train_loader, eval_loader, optimizer,
                                      freeze_schedule={0: 100})
        trainer.fit(num_epochs=1)
        assert trainer.frozen_prefix() < len(trainer.layer_modules)


class TestGradientFreeze:
    def test_module_gradient_norm(self, tiny_model, tiny_layer_modules, tiny_dataset):
        task = ClassificationTask()
        batch = tiny_dataset.get_batch(np.arange(8))
        loss = task.loss(task.forward(tiny_model, batch), batch)
        loss.backward()
        norms = [module_gradient_norm(m) for m in tiny_layer_modules]
        assert all(n >= 0 for n in norms)
        assert any(n > 0 for n in norms)

    def test_aggressive_threshold_freezes_front_modules(self):
        train_loader, eval_loader = cv_pieces()
        model, optimizer = cv_model_and_optim()
        trainer = GradientFreezeTrainer(model, ClassificationTask(), train_loader, eval_loader, optimizer,
                                        eval_interval_iters=2, norm_share_threshold=0.9, patience=1)
        trainer.fit(num_epochs=3)
        assert trainer.frozen_prefix() >= 1
        assert trainer.freeze_events
        indices = [e["module_index"] for e in trainer.freeze_events]
        assert indices == sorted(indices)

    def test_conservative_threshold_never_freezes(self):
        train_loader, eval_loader = cv_pieces()
        model, optimizer = cv_model_and_optim()
        trainer = GradientFreezeTrainer(model, ClassificationTask(), train_loader, eval_loader, optimizer,
                                        eval_interval_iters=2, norm_share_threshold=1e-9, patience=2)
        trainer.fit(num_epochs=2)
        assert trainer.frozen_prefix() == 0


class TestFreezeOut:
    def test_schedule_monotone_and_bounded(self):
        times = freezeout_schedule(6, t0=0.5, cubed=True)
        assert times == sorted(times)
        assert times[0] == pytest.approx(0.125)
        assert times[-1] == 1.0
        assert freezeout_schedule(1) == [1.0]

    def test_progressive_freezing_over_epochs(self):
        train_loader, eval_loader = cv_pieces()
        model, optimizer = cv_model_and_optim()
        trainer = FreezeOutTrainer(model, ClassificationTask(), train_loader, eval_loader, optimizer,
                                   total_epochs=8, t0=0.3, cubed=True)
        trainer.fit(num_epochs=8)
        assert trainer.frozen_prefix() >= 1
        assert trainer.frozen_prefix() < len(trainer.layer_modules)


class TestSkipConv:
    def test_uses_direct_difference_metric(self, tmp_path):
        train_loader, eval_loader = cv_pieces()
        model_factory = lambda: models.resnet8(num_classes=4, width=0.5, seed=0)
        model = model_factory()
        optimizer = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
        config = EgeriaConfig(eval_interval_iters=2, freeze_window=2, cache_dir=str(tmp_path))
        trainer = SkipConvTrainer(model, model_factory, ClassificationTask(), train_loader, eval_loader,
                                  optimizer, config=config)
        assert trainer.engine.metric is direct_difference_loss
        history = trainer.fit(num_epochs=3)
        assert len(history.records) == 3
        trainer.close()


class TestByteScheduler:
    def test_overhead_makes_it_slightly_slower_than_optimal(self):
        model = models.resnet8(num_classes=4, seed=0)
        layer_modules = parse_layer_modules(model)
        comparison = DistributedThroughputComparison(layer_modules, batch_size=16,
                                                     cluster=paper_testbed_cluster())
        throughputs = comparison.throughputs(num_machines=3)
        assert set(throughputs) == set(SchedulePolicy.ALL)
        assert throughputs[SchedulePolicy.EGERIA] > 0

    def test_scaling_sweep_rows(self):
        model = models.resnet8(num_classes=4, seed=0)
        comparison = DistributedThroughputComparison(parse_layer_modules(model), batch_size=16)
        rows = comparison.scaling_sweep([2, 4], frozen_prefix=1)
        assert [row["num_machines"] for row in rows] == [2.0, 4.0]
        for row in rows:
            assert row[SchedulePolicy.EGERIA] >= row[SchedulePolicy.VANILLA]

    def test_bytescheduler_model_overhead(self):
        layer_modules = parse_layer_modules(models.resnet8(num_classes=4, seed=0))

        def throughputs(fraction):
            return DistributedThroughputComparison(
                layer_modules, batch_size=16,
                scheduling_overhead_fraction=fraction).throughputs(num_machines=2)

        zero_overhead, with_overhead = throughputs(0.0), throughputs(0.05)
        for policy in (SchedulePolicy.BYTESCHEDULER, SchedulePolicy.EGERIA_BYTESCHEDULER):
            assert with_overhead[policy] == pytest.approx(zero_overhead[policy] / 1.05)
        assert with_overhead[SchedulePolicy.VANILLA] == zero_overhead[SchedulePolicy.VANILLA]
