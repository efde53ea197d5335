"""Gradient-norm–based freezing (AutoFreeze-style baseline).

AutoFreeze (Liu et al., 2021) and PipeTransformer freeze layers whose
*gradient norm* (relative to the other layers) has become small — a metric
computed against hard labels, which the paper argues is less semantically
meaningful than activation-based plasticity and which it measures to lose
~1–1.5% accuracy at matched speedup outside of fine-tuning (Figure 2 right,
Figure 8, §6.2).

:class:`GradientFreezeTrainer` reproduces that family: it tracks an
exponentially smoothed per-module gradient norm and freezes the frontmost
active module once its share of the total gradient norm stays below a
threshold for a number of consecutive evaluations.  An aggressiveness knob
lets benchmarks tune it to reach the same speedup as Egeria (the paper's
comparison protocol).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.modules import LayerModule
from ..core.tasks import TaskAdapter
from ..core.trainer import BaseTrainer
from ..data.dataloader import DataLoader
from ..nn.module import Module
from ..optim.lr_scheduler import LRScheduler
from ..optim.optimizer import Optimizer
from ..sim.cost_model import CostModel

__all__ = ["GradientFreezeTrainer", "module_gradient_norm"]


def module_gradient_norm(layer_module: LayerModule) -> float:
    """L2 norm of all gradients currently stored in a layer module."""
    total = 0.0
    for block in layer_module.owned:
        for param in block.parameters():
            if param.grad is not None:
                total += float(np.sum(param.grad.astype(np.float64) ** 2))
    return float(np.sqrt(total))


class GradientFreezeTrainer(BaseTrainer):
    """Freeze front modules whose relative gradient norm stays small.

    Parameters
    ----------
    eval_interval_iters:
        Evaluate gradient norms every this many iterations.
    norm_share_threshold:
        Freeze the frontmost active module once its smoothed share of the
        total gradient norm falls below this value.
    patience:
        Number of consecutive below-threshold evaluations required.
    smoothing:
        Exponential smoothing factor for the per-module norm estimates.
    """

    def __init__(self, model: Module, task: TaskAdapter, train_loader: DataLoader,
                 eval_loader: Optional[DataLoader] = None, optimizer: Optional[Optimizer] = None,
                 scheduler: Optional[LRScheduler] = None, eval_interval_iters: int = 20,
                 norm_share_threshold: float = 0.05, patience: int = 3, smoothing: float = 0.7,
                 cost_model: Optional[CostModel] = None, layer_modules: Optional[Sequence[LayerModule]] = None,
                 comm_seconds_per_byte: float = 0.0, name: str = "autofreeze"):
        super().__init__(model, task, train_loader, eval_loader, optimizer, scheduler,
                         cost_model, layer_modules, comm_seconds_per_byte, name=name)
        self.eval_interval_iters = max(eval_interval_iters, 1)
        self.norm_share_threshold = norm_share_threshold
        self.patience = max(patience, 1)
        self.smoothing = smoothing
        self._frozen_prefix = 0
        self._below_threshold_count = 0
        self._smoothed_norms: Dict[int, float] = {}
        self.freeze_events: List[Dict[str, float]] = []

    def frozen_prefix(self) -> int:
        return self._frozen_prefix

    # ------------------------------------------------------------------ #
    # Gradient-norm evaluation
    # ------------------------------------------------------------------ #
    def _update_norms(self) -> None:
        for module in self.layer_modules:
            norm = module_gradient_norm(module)
            previous = self._smoothed_norms.get(module.index)
            if previous is None:
                self._smoothed_norms[module.index] = norm
            else:
                self._smoothed_norms[module.index] = self.smoothing * previous + (1 - self.smoothing) * norm

    def _frontmost_share(self) -> Optional[float]:
        """Smoothed gradient-norm share of the frontmost active module."""
        if self._frozen_prefix >= len(self.layer_modules) - 1:
            return None
        total = sum(self._smoothed_norms.get(m.index, 0.0) for m in self.layer_modules[self._frozen_prefix:])
        if total <= 0:
            return None
        front = self._smoothed_norms.get(self.layer_modules[self._frozen_prefix].index, 0.0)
        return front / total

    def on_iteration_end(self, batch, loss_value: float) -> None:
        if self.iteration % self.eval_interval_iters != 0:
            return
        self._update_norms()
        share = self._frontmost_share()
        if share is None:
            return
        if share < self.norm_share_threshold:
            self._below_threshold_count += 1
        else:
            self._below_threshold_count = 0
        if self._below_threshold_count >= self.patience:
            module = self.layer_modules[self._frozen_prefix]
            module.freeze()
            self._frozen_prefix += 1
            self._below_threshold_count = 0
            self.freeze_events.append({
                "iteration": self.iteration,
                "module_index": module.index,
                "gradient_share": share,
            })
