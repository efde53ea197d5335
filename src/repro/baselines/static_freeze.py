"""Static layer freezing: fix a stage's parameters at a preset epoch.

This is the transfer-learning technique the paper's motivation experiment
(Figure 2, left) applies to general training: "we first fix the parameters of
each layer module at the 20th/50th epoch and show their validation accuracies
alongside the baseline.  The degraded accuracies indicate that freezing layers
prematurely can hurt accuracy by nearly 2%."
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.tasks import TaskAdapter
from ..core.trainer import BaseTrainer
from ..data.dataloader import DataLoader
from ..nn.module import Module
from ..optim.lr_scheduler import LRScheduler
from ..optim.optimizer import Optimizer

__all__ = ["StaticFreezeTrainer"]


class StaticFreezeTrainer(BaseTrainer):
    """Freeze a fixed set of front layer modules at a fixed epoch.

    Parameters
    ----------
    freeze_schedule:
        Mapping from epoch number to the number of front layer modules that
        should be frozen *from that epoch onward* (e.g. ``{20: 3}`` freezes
        the first three modules at epoch 20).  Schedules are cumulative: the
        largest prefix requested so far stays frozen.
    """

    def __init__(self, model: Module, task: TaskAdapter, train_loader: DataLoader,
                 eval_loader: Optional[DataLoader] = None, optimizer: Optional[Optimizer] = None,
                 scheduler: Optional[LRScheduler] = None, freeze_schedule: Optional[Dict[int, int]] = None,
                 name: str = "static_freeze"):
        super().__init__(model, task, train_loader, eval_loader, optimizer, scheduler, name=name)
        self.freeze_schedule: Dict[int, int] = dict(freeze_schedule or {})
        self._frozen_prefix = 0
        self.freeze_events: List[Dict[str, int]] = []

    def frozen_prefix(self) -> int:
        return self._frozen_prefix

    def on_epoch_start(self, epoch: int, lr: float) -> None:
        requested = self.freeze_schedule.get(epoch)
        if requested is None:
            return
        requested = min(requested, len(self.layer_modules) - 1)
        if requested <= self._frozen_prefix:
            return
        for module in self.layer_modules[self._frozen_prefix:requested]:
            module.freeze()
        self._frozen_prefix = requested
        self.freeze_events.append({"epoch": epoch, "frozen_prefix": requested})
