"""FreezeOut baseline: progressive layer freezing on a cosine schedule.

FreezeOut (Brock et al., 2017) freezes layers front-to-back on a *time-based*
schedule: layer ``i`` stops training once a fraction ``t_i`` of the run has
elapsed, where ``t_i`` follows a (optionally cubed) cosine-like ramp from
``t_0`` to 1.  The paper cites it as an early exploration that "shows that
freezing can trade off accuracy for speed" but "reports large accuracy loss on
many models" (§7) — the behaviour this baseline reproduces since its schedule
ignores the layers' actual convergence.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.tasks import TaskAdapter
from ..core.trainer import BaseTrainer
from ..data.dataloader import DataLoader
from ..nn.module import Module
from ..optim.lr_scheduler import LRScheduler
from ..optim.optimizer import Optimizer

__all__ = ["FreezeOutTrainer", "freezeout_schedule"]


def freezeout_schedule(num_modules: int, t0: float = 0.5, cubed: bool = True) -> List[float]:
    """Per-module freeze times as fractions of the total run.

    Module 0 freezes at ``t0`` (optionally ``t0 ** 3`` for the cubed variant,
    which front-loads freezing), the last freezable module never freezes
    (fraction 1.0), and the rest interpolate linearly — following the
    FreezeOut paper's scaled linear/cubic schedules.
    """
    if num_modules <= 1:
        return [1.0] * num_modules
    start = t0 ** 3 if cubed else t0
    times = []
    for index in range(num_modules):
        fraction = index / (num_modules - 1)
        times.append(start + (1.0 - start) * fraction)
    return times


class FreezeOutTrainer(BaseTrainer):
    """Freeze modules front-to-back once their scheduled time fraction elapses."""

    def __init__(self, model: Module, task: TaskAdapter, train_loader: DataLoader,
                 eval_loader: Optional[DataLoader] = None, optimizer: Optional[Optimizer] = None,
                 scheduler: Optional[LRScheduler] = None, total_epochs: int = 50, t0: float = 0.5,
                 cubed: bool = True, name: str = "freezeout"):
        super().__init__(model, task, train_loader, eval_loader, optimizer, scheduler, name=name)
        self.total_epochs = max(total_epochs, 1)
        freezable = max(len(self.layer_modules) - 1, 1)
        self.schedule = freezeout_schedule(freezable, t0=t0, cubed=cubed)
        self._frozen_prefix = 0
        self.freeze_events: List[Dict[str, float]] = []

    def frozen_prefix(self) -> int:
        return self._frozen_prefix

    def on_epoch_start(self, epoch: int, lr: float) -> None:
        progress = epoch / self.total_epochs
        target_prefix = sum(1 for t in self.schedule if progress >= t and t < 1.0)
        target_prefix = min(target_prefix, len(self.layer_modules) - 1)
        if target_prefix <= self._frozen_prefix:
            return
        for module in self.layer_modules[self._frozen_prefix:target_prefix]:
            module.freeze()
            self.freeze_events.append({"epoch": epoch, "module_index": module.index, "progress": progress})
        self._frozen_prefix = target_prefix
