"""Vanilla (full) training baseline.

This is the paper's main comparison point: the unmodified training framework
("PyTorch" in Table 1/Figure 8), whose converged accuracy defines the TTA
target every accelerated run must reach.
"""

from __future__ import annotations

from typing import Optional

from ..core.tasks import TaskAdapter
from ..core.trainer import BaseTrainer
from ..data.dataloader import DataLoader
from ..nn.module import Module
from ..optim.lr_scheduler import LRScheduler
from ..optim.optimizer import Optimizer

__all__ = ["VanillaTrainer"]


class VanillaTrainer(BaseTrainer):
    """Full training with no freezing — identical loop, zero Egeria machinery."""

    def __init__(self, model: Module, task: TaskAdapter, train_loader: DataLoader,
                 eval_loader: Optional[DataLoader] = None, optimizer: Optional[Optimizer] = None,
                 scheduler: Optional[LRScheduler] = None, name: str = "vanilla"):
        super().__init__(model, task, train_loader, eval_loader, optimizer, scheduler, name=name)
