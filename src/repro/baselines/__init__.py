"""``repro.baselines`` — the comparison systems of the paper's evaluation.

Vanilla full training, static freezing and gradient-norm (AutoFreeze-style)
freezing from transfer learning, the Skip-Conv direct-difference metric,
FreezeOut's schedule-based freezing, and the ByteScheduler communication
scheduler used in the distributed experiments.
"""

from .bytescheduler import DistributedThroughputComparison
from .freezeout import FreezeOutTrainer, freezeout_schedule
from .gradient_freeze import GradientFreezeTrainer, module_gradient_norm
from .skipconv import SkipConvTrainer
from .static_freeze import StaticFreezeTrainer
from .vanilla import VanillaTrainer

__all__ = [
    "VanillaTrainer",
    "StaticFreezeTrainer",
    "GradientFreezeTrainer",
    "module_gradient_norm",
    "SkipConvTrainer",
    "FreezeOutTrainer",
    "freezeout_schedule",
    "DistributedThroughputComparison",
]
