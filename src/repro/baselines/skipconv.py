"""Skip-Conv–style freezing baseline: direct activation-difference gating.

§6.1/§6.2 of the paper: "We also compare Egeria ... to using the metric of
Skip-Conv as an alternative to plasticity.  We use the input-norm gate of
Skip-Conv, which applies to intermediate activation rather than
convolution-specific. ... When comparing models' intermediate results,
Skip-Conv metric works similarly to an early KD research, FitNets, by directly
subtracting two tensors."

Rather than re-implementing the whole Egeria pipeline, this baseline *is* the
Egeria trainer with the plasticity metric swapped for the direct
mean-squared-difference of the activation tensors — exactly the comparison the
paper makes (same system, different convergence signal).  Because the direct
difference is noisier and scale-dependent, it tends to trigger premature
freezes, reproducing the accuracy loss of Figure 8.
"""

from __future__ import annotations

from typing import Optional

from ..core.config import EgeriaConfig
from ..core.plasticity import direct_difference_loss
from ..core.tasks import TaskAdapter
from ..core.trainer import EgeriaTrainer
from ..data.dataloader import DataLoader
from ..nn.module import Module
from ..optim.lr_scheduler import LRScheduler
from ..optim.optimizer import Optimizer

__all__ = ["SkipConvTrainer"]


class SkipConvTrainer(EgeriaTrainer):
    """Egeria's machinery with the Skip-Conv/FitNets direct-difference metric."""

    def __init__(self, model: Module, model_factory, task: TaskAdapter, train_loader: DataLoader,
                 eval_loader: Optional[DataLoader] = None, optimizer: Optional[Optimizer] = None,
                 scheduler: Optional[LRScheduler] = None, config: Optional[EgeriaConfig] = None,
                 aggressiveness: float = 2.0, name: str = "skipconv"):
        super().__init__(model, model_factory, task, train_loader, eval_loader, optimizer, scheduler,
                         config, name=name)
        # Swap the convergence signal: direct tensor difference instead of SP loss.
        self.engine.metric = direct_difference_loss
        # The direct-difference signal is flatter, which makes the slope test
        # pass sooner; ``aggressiveness`` scales the tolerance the same way the
        # paper tunes this baseline to match Egeria's speedup.
        self._aggressiveness = aggressiveness
        for tracker in self.engine.trackers.values():
            tracker.tolerance_coefficient = min(tracker.tolerance_coefficient * aggressiveness, 0.95)
