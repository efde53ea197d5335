"""SIM007 fixture: a ``repro.core`` module (its path says so) importing down and up."""

from ..nn.tensor import Tensor
from ..sim.engine import SchedulePolicy
from .modules import parse_layer_modules
from repro import quantization, experiments


def _lazy_baseline() -> object:
    """Positive case: ``core`` sits below ``baselines``, however late the import."""
    from ..baselines import VanillaTrainer
    return VanillaTrainer
