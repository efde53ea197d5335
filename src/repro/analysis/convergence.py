"""Post hoc layer-convergence analysis (the Figure 1 experiment).

:class:`ConvergenceAnalyzer` reproduces the paper's motivation study: track
the PWCCA distance (or SP-loss plasticity) of each layer module's
activations against a *fully-trained* snapshot of the same model across
training, then identify the "freezable regions" — epochs where a module's
score is stable — and the theoretical compute saving from freezing inside
them (the paper estimates 45% for ResNet-56).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.hooks import ActivationRecorder
from ..core.modules import LayerModule
from ..core.plasticity import sp_loss
from ..nn.module import Module
from ..nn.tensor import no_grad
from .pwcca import pwcca_distance

__all__ = ["ConvergenceAnalyzer", "freezable_regions", "theoretical_saving"]


def freezable_regions(scores: Sequence[float], stability_threshold: float = 0.05,
                      min_length: int = 2) -> List[tuple]:
    """Contiguous index ranges where the score curve is stable.

    A region is stable when consecutive scores change by less than
    ``stability_threshold`` (absolute).  Returns ``(start, end)`` inclusive
    index pairs of length at least ``min_length``.
    """
    regions: List[tuple] = []
    start: Optional[int] = None
    for i in range(1, len(scores)):
        stable = abs(scores[i] - scores[i - 1]) < stability_threshold
        if stable and start is None:
            start = i - 1
        elif not stable and start is not None:
            if i - 1 - start + 1 >= min_length:
                regions.append((start, i - 1))
            start = None
    if start is not None and len(scores) - start >= min_length:
        regions.append((start, len(scores) - 1))
    return regions


def theoretical_saving(module_params: Sequence[int], module_regions: Sequence[List[tuple]],
                       num_epochs: int) -> float:
    """Fraction of backward compute saved by freezing inside stable regions.

    The paper's back-of-envelope estimate ("we can reduce the computation
    costs by 45% in theory"): sum over modules of (parameters x epochs spent
    inside a freezable region) divided by (total parameters x total epochs).
    """
    total_params = sum(module_params)
    if total_params == 0 or num_epochs == 0:
        return 0.0
    saved = 0.0
    for params, regions in zip(module_params, module_regions):
        frozen_epochs = sum(end - start + 1 for start, end in regions)
        saved += params * min(frozen_epochs, num_epochs)
    return saved / (total_params * num_epochs)


@dataclass
class ConvergenceAnalyzer:
    """Tracks per-module convergence scores against a fully-trained snapshot.

    Parameters
    ----------
    layer_modules:
        Module decomposition of the model under analysis.
    metric:
        ``"pwcca"`` (Figure 1), ``"sp"`` (plasticity, Figure 4) or a custom
        callable ``f(train_activation, reference_activation) -> float``.
    """

    layer_modules: Sequence[LayerModule]
    metric: object = "pwcca"
    history: Dict[str, List[float]] = field(default_factory=dict)
    epochs: List[int] = field(default_factory=list)

    def _metric_fn(self) -> Callable[[np.ndarray, np.ndarray], float]:
        if callable(self.metric):
            return self.metric
        if self.metric == "pwcca":
            return pwcca_distance
        if self.metric == "sp":
            return sp_loss
        raise ValueError(f"unknown metric {self.metric!r}")

    def record(self, epoch: int, training_model: Module, reference_model: Module, inputs) -> Dict[str, float]:
        """Compare every module's activation between the two models for one batch."""
        metric_fn = self._metric_fn()
        paths = [module.tail_path for module in self.layer_modules]
        scores: Dict[str, float] = {}
        with ActivationRecorder(training_model, paths) as train_recorder, \
                ActivationRecorder(reference_model, paths) as ref_recorder:
            with no_grad():
                training_model(*inputs)
                reference_model(*inputs)
            for module in self.layer_modules:
                train_act = train_recorder.get(module.tail_path)
                ref_act = ref_recorder.get(module.tail_path)
                if train_act is None or ref_act is None:
                    continue
                score = metric_fn(train_act, ref_act)
                scores[module.name] = score
                self.history.setdefault(module.name, []).append(score)
        self.epochs.append(epoch)
        return scores

    def module_regions(self, stability_threshold: float = 0.05, min_length: int = 2) -> Dict[str, List[tuple]]:
        """Freezable regions per module."""
        return {
            name: freezable_regions(scores, stability_threshold, min_length)
            for name, scores in self.history.items()
        }

    def estimated_saving(self, stability_threshold: float = 0.05) -> float:
        """Theoretical compute saving from freezing inside all stable regions."""
        regions = self.module_regions(stability_threshold)
        params = [module.num_params for module in self.layer_modules]
        ordered_regions = [regions.get(module.name, []) for module in self.layer_modules]
        return theoretical_saving(params, ordered_regions, max(len(self.epochs), 1))

    def as_table(self) -> List[Dict[str, float]]:
        """Per-epoch rows of every module's score (printable by the bench)."""
        rows = []
        for row_index, epoch in enumerate(self.epochs):
            row: Dict[str, float] = {"epoch": float(epoch)}
            for name, scores in self.history.items():
                if row_index < len(scores):
                    row[name] = scores[row_index]
            rows.append(row)
        return rows
