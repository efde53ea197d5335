"""``repro.optim`` — optimizers and learning-rate schedulers.

Provides the training-loop plumbing the paper's evaluation relies on: SGD for
CNN workloads, Adam/AdamW for Transformer and BERT, plus the multi-step,
inverse-square-root, linear and lambda (poly) LR schedules the workloads use,
whose drops drive Egeria's unfreezing rule, and the cyclical schedule of
§4.2.2's customised unfreeze, which no workload uses.
"""

from .adam import Adam, AdamW
from .lr_scheduler import (
    CyclicalLR,
    InverseSquareRootLR,
    LambdaLR,
    LinearDecayLR,
    LRScheduler,
    MultiStepLR,
)
from .optimizer import Optimizer
from .sgd import SGD

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "LRScheduler",
    "MultiStepLR",
    "InverseSquareRootLR",
    "LinearDecayLR",
    "LambdaLR",
    "CyclicalLR",
]
