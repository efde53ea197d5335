"""Tests for optimizers and learning-rate schedulers."""

import numpy as np
import pytest

from repro import nn, optim
from repro.nn import Tensor
from repro.nn.losses import MSELoss
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
            loss = MSELoss()(pred, y)
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

    def test_step_lr(self):
        sched = optim.StepLR(self._opt(), step_size=10, gamma=0.1)
        assert np.isclose(sched.get_lr(0), 1.0)
        assert np.isclose(sched.get_lr(10), 0.1)
        assert np.isclose(sched.get_lr(25), 0.01)

    def test_multistep_lr_milestones(self):
        sched = optim.MultiStepLR(self._opt(), milestones=[100, 150], gamma=0.1)
        assert np.isclose(sched.get_lr(99), 1.0)
        assert np.isclose(sched.get_lr(100), 0.1)
        assert np.isclose(sched.get_lr(160), 0.01)

    def test_exponential_lr(self):
        sched = optim.ExponentialLR(self._opt(), gamma=0.5)
        assert np.isclose(sched.get_lr(3), 0.125)

    def test_cosine_annealing_endpoints(self):
        sched = optim.CosineAnnealingLR(self._opt(), t_max=10)
        assert np.isclose(sched.get_lr(0), 1.0)
        assert sched.get_lr(10) < 1e-6
        assert sched.cyclical

    def test_cosine_restarts(self):
        sched = optim.CosineAnnealingLR(self._opt(), t_max=10, restarts=True)
        assert np.isclose(sched.get_lr(10), sched.get_lr(0))

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
        sched = optim.StepLR(self._opt(), step_size=2, gamma=0.5)
        assert sched.history(4) == [1.0, 1.0, 0.5, 0.5]
