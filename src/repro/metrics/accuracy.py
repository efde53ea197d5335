"""Accuracy metrics used in the paper's evaluation (Table 1).

Top-1 accuracy for image classification, mean IoU for semantic segmentation,
perplexity for machine translation and span F1 for question answering.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["top1_accuracy", "mean_iou", "perplexity_from_loss", "f1_spans", "span_f1_single"]


def top1_accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of samples whose arg-max prediction matches the target."""
    predictions = np.asarray(logits).argmax(axis=-1)
    targets = np.asarray(targets)
    return float((predictions == targets).mean()) if targets.size else 0.0


def mean_iou(predictions: np.ndarray, targets: np.ndarray, num_classes: int) -> float:
    """Mean intersection-over-union across classes present in the targets."""
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    ious = []
    for cls in range(num_classes):
        pred_mask = predictions == cls
        target_mask = targets == cls
        union = np.logical_or(pred_mask, target_mask).sum()
        if union == 0:
            continue
        intersection = np.logical_and(pred_mask, target_mask).sum()
        ious.append(intersection / union)
    return float(np.mean(ious)) if ious else 0.0


def perplexity_from_loss(mean_cross_entropy: float) -> float:
    """Perplexity = exp(mean token cross-entropy); capped to stay finite."""
    return float(math.exp(min(mean_cross_entropy, 30.0)))


def span_f1_single(pred_start: int, pred_end: int, true_start: int, true_end: int) -> float:
    """Token-overlap F1 between a predicted and a gold answer span."""
    pred_tokens = set(range(int(pred_start), int(pred_end) + 1))
    true_tokens = set(range(int(true_start), int(true_end) + 1))
    if not pred_tokens or not true_tokens:
        return 0.0
    overlap = len(pred_tokens & true_tokens)
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(true_tokens)
    return 2 * precision * recall / (precision + recall)


def f1_spans(pred_starts: Sequence[int], pred_ends: Sequence[int],
             true_starts: Sequence[int], true_ends: Sequence[int]) -> float:
    """Mean span F1 over a batch (the SQuAD metric)."""
    scores = [
        span_f1_single(ps, pe, ts, te)
        for ps, pe, ts, te in zip(pred_starts, pred_ends, true_starts, true_ends)
    ]
    return float(np.mean(scores)) if scores else 0.0
