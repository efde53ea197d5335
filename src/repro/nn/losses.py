"""Training loss functions.

The per-task losses used in the paper's evaluation (§6.1): cross-entropy for
image classification and segmentation, label-smoothed cross-entropy for
machine translation (fairseq defaults), and the span extraction loss used
when fine-tuning the BERT model on the synthetic SQuAD-like dataset.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from .module import Module
from .tensor import Tensor

__all__ = [
    "SpanExtractionLoss",
    "cross_entropy",
]


def cross_entropy(logits: Tensor, targets: np.ndarray, label_smoothing: float = 0.0,
                  ignore_index: Optional[int] = None) -> Tensor:
    """Cross entropy between logits ``(..., num_classes)`` and integer targets.

    Supports label smoothing and an ``ignore_index`` (used to mask padding
    tokens in translation batches).  Returns the mean loss over non-ignored
    positions.
    """
    targets = np.asarray(targets.data if isinstance(targets, Tensor) else targets, dtype=np.int64)
    num_classes = logits.shape[-1]
    flat_logits = logits.reshape(-1, num_classes)
    flat_targets = targets.reshape(-1)

    if ignore_index is not None:
        keep = np.nonzero(flat_targets != ignore_index)[0]
        flat_logits = flat_logits[keep]
        if not keep.size:
            # Every target is padding: the sum over no positions is a zero
            # loss that is still a node over the logits, so backward() runs
            # and hands them a zero gradient.
            return flat_logits.sum()
        flat_targets = flat_targets[keep]

    log_probs = F.log_softmax(flat_logits, axis=-1)
    one_hot = F.one_hot(flat_targets, num_classes)
    if label_smoothing > 0.0:
        one_hot = one_hot * (1.0 - label_smoothing) + label_smoothing / num_classes
    nll = -(log_probs * Tensor(one_hot)).sum(axis=-1)
    return nll.mean()


class SpanExtractionLoss(Module):
    """Loss for extractive question answering (start + end position logits).

    Mirrors the BERT-for-SQuAD objective: the average of the cross-entropy on
    the start-position logits and on the end-position logits.
    """

    def forward(self, start_logits: Tensor, end_logits: Tensor, start_positions, end_positions) -> Tensor:
        start_loss = cross_entropy(start_logits, start_positions)
        end_loss = cross_entropy(end_logits, end_positions)
        return (start_loss + end_loss) * 0.5
