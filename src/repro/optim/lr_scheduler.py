"""Learning-rate schedulers.

The paper evaluates with several schedules (§6.1): step decay at milestones
for CV models, inverse square root for Transformer training, a linear
schedule for BERT fine-tuning, and a Lambda schedule for DeepLabv3.  The
unfreezing mechanism of Egeria (§4.2.2 / Algorithm 1 lines 19–26) watches
the current LR through these schedulers: "restart training all the frozen
layers if the LR has dropped over a factor of 10 since the frontmost layers'
freeze".

The triangular :class:`CyclicalLR` is §4.2.2's cyclical case: it triggers the
user-customisable unfreeze path instead.  No workload uses it, so
only tests reach that path.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from .optimizer import Optimizer

__all__ = [
    "LRScheduler",
    "MultiStepLR",
    "InverseSquareRootLR",
    "LinearDecayLR",
    "LambdaLR",
    "CyclicalLR",
]


class LRScheduler:
    """Base class: computes the LR for an epoch/step and writes it into the optimizer."""

    #: Whether the schedule is periodic (cyclical) — Egeria uses this to
    #: pick between the LR-drop unfreeze rule and the customised unfreeze rule.
    cyclical: bool = False

    def __init__(self, optimizer: Optimizer, base_lr: Optional[float] = None):
        self.optimizer = optimizer
        self.base_lr = base_lr if base_lr is not None else optimizer.lr
        self.last_epoch = -1
        self.step()

    def get_lr(self, epoch: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def step(self, epoch: Optional[int] = None) -> float:
        """Advance the schedule and update ``optimizer.lr``; returns the new LR."""
        self.last_epoch = self.last_epoch + 1 if epoch is None else epoch
        lr = self.get_lr(self.last_epoch)
        self.optimizer.lr = lr
        return lr

    @property
    def current_lr(self) -> float:
        return self.optimizer.lr

    def state_dict(self) -> dict:
        """Serializable schedule position (the trainers checkpoint this)."""
        return {"last_epoch": int(self.last_epoch), "base_lr": float(self.base_lr)}

    def load_state_dict(self, state: dict) -> None:
        self.last_epoch = int(state["last_epoch"])
        self.base_lr = float(state["base_lr"])
        self.optimizer.lr = self.get_lr(self.last_epoch)

    def history(self, num_epochs: int) -> List[float]:
        """LR values for epochs ``0..num_epochs-1`` without touching state."""
        return [self.get_lr(e) for e in range(num_epochs)]


class MultiStepLR(LRScheduler):
    """Decay the LR by ``gamma`` at each milestone epoch.

    The paper's ResNet-56/CIFAR-10 reference run drops the LR at epochs 100
    and 150 (Figure 1), i.e. ``milestones=[100, 150]``.
    """

    def __init__(self, optimizer: Optimizer, milestones: Sequence[int], gamma: float = 0.1,
                 base_lr: Optional[float] = None):
        self.milestones = sorted(milestones)
        self.gamma = gamma
        super().__init__(optimizer, base_lr)

    def get_lr(self, epoch: int) -> float:
        passed = sum(1 for m in self.milestones if epoch >= m)
        return self.base_lr * self.gamma ** passed


class InverseSquareRootLR(LRScheduler):
    """fairseq-style inverse-square-root schedule with linear warmup."""

    def __init__(self, optimizer: Optimizer, warmup_steps: int = 4000, base_lr: Optional[float] = None):
        self.warmup_steps = max(warmup_steps, 1)
        super().__init__(optimizer, base_lr)

    def get_lr(self, epoch: int) -> float:
        step = max(epoch, 0) + 1
        if step < self.warmup_steps:
            return self.base_lr * step / self.warmup_steps
        return self.base_lr * math.sqrt(self.warmup_steps / step)


class LinearDecayLR(LRScheduler):
    """Linear decay to zero over ``total_steps`` (BERT fine-tuning schedule)."""

    def __init__(self, optimizer: Optimizer, total_steps: int, warmup_steps: int = 0,
                 base_lr: Optional[float] = None):
        self.total_steps = max(total_steps, 1)
        self.warmup_steps = warmup_steps
        super().__init__(optimizer, base_lr)

    def get_lr(self, epoch: int) -> float:
        step = max(epoch, 0)
        if self.warmup_steps and step < self.warmup_steps:
            return self.base_lr * (step + 1) / self.warmup_steps
        remaining = max(self.total_steps - step, 0) / max(self.total_steps - self.warmup_steps, 1)
        return self.base_lr * remaining


class LambdaLR(LRScheduler):
    """Scale the base LR by an arbitrary user function of the epoch.

    DeepLabv3 uses a polynomial ("poly") lambda schedule in the paper's
    evaluation; the default lambda reproduces that shape.
    """

    def __init__(self, optimizer: Optimizer, lr_lambda=None, total_epochs: int = 60, power: float = 0.9,
                 base_lr: Optional[float] = None):
        if lr_lambda is None:
            lr_lambda = lambda epoch: (1.0 - min(epoch, total_epochs) / max(total_epochs, 1)) ** power
        self.lr_lambda = lr_lambda
        super().__init__(optimizer, base_lr)

    def get_lr(self, epoch: int) -> float:
        return self.base_lr * float(self.lr_lambda(max(epoch, 0)))


class CyclicalLR(LRScheduler):
    """Triangular cyclical learning rate (Smith, WACV 2017)."""

    cyclical = True

    def __init__(self, optimizer: Optimizer, min_lr: float, max_lr: float, cycle_length: int = 10,
                 base_lr: Optional[float] = None):
        self.min_lr = min_lr
        self.max_lr = max_lr
        self.cycle_length = max(cycle_length, 2)
        super().__init__(optimizer, base_lr if base_lr is not None else max_lr)

    def get_lr(self, epoch: int) -> float:
        position = max(epoch, 0) % self.cycle_length
        half = self.cycle_length / 2.0
        fraction = position / half if position <= half else (self.cycle_length - position) / half
        return self.min_lr + (self.max_lr - self.min_lr) * fraction
