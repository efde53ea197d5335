"""``repro.metrics`` — accuracy metrics and time-to-accuracy tracking."""

from .accuracy import f1_spans, mean_iou, perplexity_from_loss, span_f1_single
from .tracking import EpochRecord, RunHistory, tta_speedup

__all__ = [
    "mean_iou",
    "perplexity_from_loss",
    "f1_spans",
    "span_f1_single",
    "EpochRecord",
    "RunHistory",
    "tta_speedup",
]
