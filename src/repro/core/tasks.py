"""Task adapters: per-task forward/loss/metric logic shared by all trainers.

The paper evaluates four task types (§6.1) — image classification, semantic
segmentation, machine translation and question answering — each with its own
loss and accuracy metric.  A :class:`TaskAdapter` bundles that logic so the
Egeria trainer and every baseline trainer share one training loop and only the
task-specific pieces differ.

Each adapter implements:

* ``forward(model, batch)`` — run the model on a :class:`repro.data.Batch`;
* ``loss(outputs, batch)`` — task loss as an autograd scalar;
* ``evaluate(model, loader)`` — the paper's accuracy metric on held-out data
  (top-1 accuracy, mIoU, perplexity or span F1);
* ``input_tensors(batch)`` — the model inputs, used for the reference-model
  forward pass so both models see the identical mini-batch.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Iterator, Tuple

import numpy as np

from .. import nn
from ..data.datasets import Batch
from ..metrics.accuracy import f1_spans, mean_iou, perplexity_from_loss, top1_accuracy

__all__ = [
    "TaskAdapter",
    "ClassificationTask",
    "SegmentationTask",
    "TranslationTask",
    "QuestionAnsweringTask",
    "make_task",
]


@contextlib.contextmanager
def inference_mode(model: nn.Module) -> Iterator[None]:
    """Evaluate ``model`` under ``eval()`` + ``no_grad``, then restore each submodule's own mode.

    A blanket ``model.train()`` afterwards would flip the BatchNorm/Dropout
    layers of *frozen* layer modules back to training mode, so they would
    normalise with batch statistics again and cached activations (§4.3) would
    no longer match a recomputed prefix.
    """
    modes = [(module, module.training) for module in model.modules()]
    model.eval()
    try:
        with nn.no_grad():
            yield
    finally:
        for module, training in modes:
            module.training = training


class TaskAdapter:
    """Base class for task-specific training logic."""

    #: Name of the accuracy metric this task reports.
    metric_name: str = "metric"
    #: Whether larger metric values are better (perplexity flips this).
    higher_is_better: bool = True

    def input_tensors(self, batch: Batch) -> Tuple:
        """Model inputs for a batch (shared by training and reference models)."""
        raise NotImplementedError

    def forward(self, model: nn.Module, batch: Batch):
        """Run the model's forward pass for this task."""
        return model(*self.input_tensors(batch))

    def loss(self, outputs, batch: Batch) -> nn.Tensor:
        """Task loss as an autograd scalar."""
        raise NotImplementedError

    def evaluate(self, model: nn.Module, loader: Iterable[Batch]) -> float:
        """Task accuracy metric over an evaluation loader."""
        raise NotImplementedError

    def better(self, a: float, b: float) -> bool:
        """Whether metric value ``a`` is better than ``b``."""
        return a > b if self.higher_is_better else a < b


class ClassificationTask(TaskAdapter):
    """Image classification: cross-entropy loss, top-1 accuracy."""

    metric_name = "top1"

    def input_tensors(self, batch: Batch) -> Tuple:
        return (nn.Tensor(batch.inputs),)

    def loss(self, outputs, batch: Batch) -> nn.Tensor:
        return nn.cross_entropy(outputs, batch.targets)

    def evaluate(self, model: nn.Module, loader: Iterable[Batch]) -> float:
        correct, total = 0, 0
        with inference_mode(model):
            for batch in loader:
                logits = self.forward(model, batch)
                correct += int((logits.data.argmax(axis=-1) == batch.targets).sum())
                total += len(batch)
        return correct / total if total else 0.0


class SegmentationTask(TaskAdapter):
    """Semantic segmentation: per-pixel cross-entropy, mean IoU."""

    metric_name = "miou"

    def __init__(self, num_classes: int = 8):
        self.num_classes = num_classes

    def input_tensors(self, batch: Batch) -> Tuple:
        return (nn.Tensor(batch.inputs),)

    def loss(self, outputs, batch: Batch) -> nn.Tensor:
        # outputs: (N, H, W, C) logits; targets: (N, H, W) integer masks.
        return nn.cross_entropy(outputs, batch.targets)

    def evaluate(self, model: nn.Module, loader: Iterable[Batch]) -> float:
        predictions, targets = [], []
        with inference_mode(model):
            for batch in loader:
                logits = self.forward(model, batch)
                predictions.append(logits.data.argmax(axis=-1))
                targets.append(batch.targets)
        if not predictions:
            return 0.0
        return mean_iou(np.concatenate(predictions), np.concatenate(targets), self.num_classes)


class TranslationTask(TaskAdapter):
    """Machine translation: label-smoothed cross-entropy, validation perplexity.

    Perplexity is *lower-is-better*; the trainer's target-accuracy logic uses
    :meth:`better` so this works transparently.
    """

    metric_name = "perplexity"
    higher_is_better = False

    def __init__(self, label_smoothing: float = 0.1, pad_token: int = 0):
        self.label_smoothing = label_smoothing
        self.pad_token = pad_token

    def input_tensors(self, batch: Batch) -> Tuple:
        decoder_inputs = batch.extras["decoder_inputs"] if batch.extras else batch.inputs
        return (batch.inputs, decoder_inputs)

    def loss(self, outputs, batch: Batch) -> nn.Tensor:
        return nn.cross_entropy(outputs, batch.targets, label_smoothing=self.label_smoothing,
                                ignore_index=self.pad_token)

    def evaluate(self, model: nn.Module, loader: Iterable[Batch]) -> float:
        losses = []
        with inference_mode(model):
            for batch in loader:
                outputs = self.forward(model, batch)
                losses.append(nn.cross_entropy(outputs, batch.targets, ignore_index=self.pad_token).item())
        if not losses:
            return float("inf")
        return perplexity_from_loss(float(np.mean(losses)))


class QuestionAnsweringTask(TaskAdapter):
    """Span-extraction QA: start/end cross-entropy, span F1."""

    metric_name = "f1"

    def input_tensors(self, batch: Batch) -> Tuple:
        return (batch.inputs,)

    def loss(self, outputs, batch: Batch) -> nn.Tensor:
        start_logits, end_logits = outputs
        starts, ends = batch.targets[:, 0], batch.targets[:, 1]
        loss_fn = nn.SpanExtractionLoss()
        return loss_fn(start_logits, end_logits, starts, ends)

    def evaluate(self, model: nn.Module, loader: Iterable[Batch]) -> float:
        f1_scores = []
        with inference_mode(model):
            for batch in loader:
                start_logits, end_logits = self.forward(model, batch)
                pred_starts = start_logits.data.argmax(axis=-1)
                pred_ends = end_logits.data.argmax(axis=-1)
                f1_scores.append(f1_spans(pred_starts, pred_ends, batch.targets[:, 0], batch.targets[:, 1]))
        return float(np.mean(f1_scores)) if f1_scores else 0.0


def make_task(task_name: str, **kwargs) -> TaskAdapter:
    """Build the adapter for one of the paper's four task types."""
    factories = {
        "image_classification": ClassificationTask,
        "semantic_segmentation": SegmentationTask,
        "machine_translation": TranslationTask,
        "question_answering": QuestionAnsweringTask,
    }
    if task_name not in factories:
        raise KeyError(f"unknown task {task_name!r}; known: {sorted(factories)}")
    return factories[task_name](**kwargs)
