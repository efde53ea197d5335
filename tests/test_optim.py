"""Tests for optimizers and learning-rate schedulers."""

import numpy as np
import pytest

from repro import nn, optim
from repro.nn import Tensor
from repro.nn.module import Parameter


def make_param(value=1.0):
    return Parameter(np.array([value], dtype=np.float32))


class TestSGD:
    def test_plain_sgd_step(self):
        p = make_param(1.0)
        p.grad = np.array([0.5], dtype=np.float32)
        opt = optim.SGD([p], lr=0.1, momentum=0.0)
        opt.step()
        assert np.isclose(p.data[0], 1.0 - 0.1 * 0.5)

    def test_momentum_accumulates(self):
        p = make_param(0.0)
        opt = optim.SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        first = p.data[0]
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        second_step = p.data[0] - first
        assert second_step < -1.0  # momentum makes the second step larger

    def test_weight_decay(self):
        p = make_param(2.0)
        p.grad = np.zeros(1, dtype=np.float32)
        opt = optim.SGD([p], lr=0.1, momentum=0.0, weight_decay=0.5)
        opt.step()
        assert p.data[0] < 2.0

    def test_frozen_parameters_skipped(self):
        p = make_param(1.0)
        p.grad = np.array([1.0], dtype=np.float32)
        p.requires_grad = False
        opt = optim.SGD([p], lr=0.1)
        opt.step()
        assert p.data[0] == 1.0

    def test_nesterov_differs_from_plain_momentum(self):
        p1, p2 = make_param(0.0), make_param(0.0)
        o1 = optim.SGD([p1], lr=0.1, momentum=0.9, nesterov=False)
        o2 = optim.SGD([p2], lr=0.1, momentum=0.9, nesterov=True)
        for opt, p in ((o1, p1), (o2, p2)):
            for _ in range(3):
                p.grad = np.array([1.0], dtype=np.float32)
                opt.step()
        assert not np.isclose(p1.data[0], p2.data[0])

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            optim.SGD([], lr=0.1)

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            optim.SGD([make_param()], lr=0.0)

    def test_zero_grad_and_state_summary(self):
        p = make_param()
        p.grad = np.ones(1, dtype=np.float32)
        opt = optim.SGD([p], lr=0.1)
        opt.step()
        opt.zero_grad()
        assert p.grad is None
        summary = opt.state_summary()
        assert summary["num_velocity_buffers"] == 1.0

    def test_training_reduces_loss(self, rng):
        layer = nn.Linear(4, 1, rng=rng)
        opt = optim.SGD(layer.parameters(), lr=0.1, momentum=0.9)
        x = rng.standard_normal((32, 4)).astype(np.float32)
        y = (x @ np.array([1.0, -2.0, 0.5, 3.0], dtype=np.float32)).reshape(-1, 1)
        losses = []
        for _ in range(30):
            pred = layer(Tensor(x))
            diff = pred - Tensor(y)
            loss = (diff * diff).mean()
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.2


class TestAdam:
    def test_adam_step_moves_against_gradient(self):
        p = make_param(1.0)
        opt = optim.Adam([p], lr=0.1)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        assert p.data[0] < 1.0

    def test_adam_bias_correction_first_step_magnitude(self):
        p = make_param(0.0)
        opt = optim.Adam([p], lr=0.1)
        p.grad = np.array([0.3], dtype=np.float32)
        opt.step()
        assert np.isclose(abs(p.data[0]), 0.1, atol=1e-3)

    def test_adamw_decoupled_decay(self):
        p = make_param(5.0)
        p.grad = np.zeros(1, dtype=np.float32)
        opt = optim.AdamW([p], lr=0.1, weight_decay=0.1)
        opt.step()
        assert p.data[0] < 5.0

    def test_adam_skips_frozen(self):
        p = make_param(1.0)
        p.requires_grad = False
        p.grad = np.array([1.0], dtype=np.float32)
        optim.Adam([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_step_count(self):
        p = make_param()
        opt = optim.Adam([p], lr=0.1)
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
        opt.step()
        assert opt.step_count == 2


class TestSchedulers:
    def _opt(self, lr=1.0):
        return optim.SGD([make_param()], lr=lr)

    def test_multistep_lr_milestones(self):
        sched = optim.MultiStepLR(self._opt(), milestones=[100, 150], gamma=0.1)
        assert np.isclose(sched.get_lr(99), 1.0)
        assert np.isclose(sched.get_lr(100), 0.1)
        assert np.isclose(sched.get_lr(160), 0.01)

    def test_inverse_square_root_warmup_then_decay(self):
        sched = optim.InverseSquareRootLR(self._opt(), warmup_steps=10)
        assert sched.get_lr(4) < sched.get_lr(9)
        assert sched.get_lr(40) < sched.get_lr(10)

    def test_linear_decay(self):
        sched = optim.LinearDecayLR(self._opt(), total_steps=10)
        assert sched.get_lr(0) == 1.0
        assert np.isclose(sched.get_lr(5), 0.5)
        assert sched.get_lr(10) == 0.0

    def test_lambda_poly(self):
        sched = optim.LambdaLR(self._opt(), total_epochs=10, power=1.0)
        assert np.isclose(sched.get_lr(5), 0.5)

    def test_cyclical_lr_triangle(self):
        sched = optim.CyclicalLR(self._opt(), min_lr=0.0, max_lr=1.0, cycle_length=10)
        assert np.isclose(sched.get_lr(5), 1.0)
        assert np.isclose(sched.get_lr(0), 0.0)
        assert sched.cyclical

    def test_step_updates_optimizer_lr(self):
        opt = self._opt()
        sched = optim.MultiStepLR(opt, milestones=[2], gamma=0.1)
        sched.step(5)
        assert np.isclose(opt.lr, 0.1)

    def test_history(self):
        sched = optim.MultiStepLR(self._opt(), milestones=[2], gamma=0.5)
        assert sched.history(4) == [1.0, 1.0, 0.5, 0.5]

    _SCHEDULES = {
        "multistep": lambda opt: optim.MultiStepLR(opt, milestones=[2, 5], gamma=0.5),
        "inverse_sqrt": lambda opt: optim.InverseSquareRootLR(opt, warmup_steps=3),
        "linear": lambda opt: optim.LinearDecayLR(opt, total_steps=8, warmup_steps=2),
        "lambda_poly": lambda opt: optim.LambdaLR(opt, total_epochs=8, power=0.9),
        "cyclical": lambda opt: optim.CyclicalLR(opt, min_lr=0.1, max_lr=1.0, cycle_length=4),
    }

    @pytest.mark.parametrize("kind", sorted(_SCHEDULES))
    def test_state_dict_resumes_the_schedule(self, kind):
        make = self._SCHEDULES[kind]
        sched = make(self._opt())
        for _ in range(4):
            sched.step()
        resumed_opt = self._opt(lr=123.0)
        resumed = make(resumed_opt)
        resumed.load_state_dict(sched.state_dict())
        assert resumed.last_epoch == sched.last_epoch == 4
        assert resumed_opt.lr == sched.current_lr
        assert [resumed.step() for _ in range(5)] == [sched.step() for _ in range(5)]

    @pytest.mark.parametrize("kind", sorted(_SCHEDULES))
    def test_history_leaves_the_position_alone(self, kind):
        opt = self._opt()
        sched = self._SCHEDULES[kind](opt)
        sched.step()
        lr, epoch = opt.lr, sched.last_epoch
        history = sched.history(10)
        assert (opt.lr, sched.last_epoch) == (lr, epoch)
        assert history == [sched.step(e) for e in range(10)]

    def test_multistep_lr_sorts_its_milestones(self):
        sched = optim.MultiStepLR(self._opt(), milestones=[6, 2], gamma=0.5)
        assert sched.milestones == [2, 6]
        assert sched.history(8) == [1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.25, 0.25]

    def test_cyclical_lr_repeats_each_cycle(self):
        sched = optim.CyclicalLR(self._opt(), min_lr=0.2, max_lr=1.0, cycle_length=4)
        assert sched.history(4) == pytest.approx([0.2, 0.6, 1.0, 0.6])
        assert sched.history(12)[4:] == sched.history(8)
        # a cycle shorter than two epochs is widened to two
        assert optim.CyclicalLR(self._opt(), min_lr=0.0, max_lr=1.0, cycle_length=1).cycle_length == 2

    def test_linear_decay_warms_up_then_decays_to_zero(self):
        sched = optim.LinearDecayLR(self._opt(), total_steps=6, warmup_steps=2)
        assert sched.history(7) == pytest.approx([0.5, 1.0, 1.0, 0.75, 0.5, 0.25, 0.0])
        assert sched.get_lr(20) == 0.0

    def test_inverse_square_root_peaks_at_the_end_of_warmup(self):
        sched = optim.InverseSquareRootLR(self._opt(), warmup_steps=4)
        lrs = sched.history(16)
        assert lrs[:4] == pytest.approx([0.25, 0.5, 0.75, 1.0])
        assert max(lrs) == lrs[3] == 1.0
        assert lrs[15] == pytest.approx(0.5)
