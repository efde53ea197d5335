"""SIM007 fixture: a ``repro.sim`` module (its path says so) importing up the stack.

The upward imports are the five that ``repro.sim`` once made: the training
history at module level and under ``TYPE_CHECKING``, the layer modules under
``TYPE_CHECKING``, and the workload builder inside a function.
"""

from typing import TYPE_CHECKING

from ..metrics.tracking import RunHistory
from . import engine
from .scheduler import SimJob
import repro.sim.cost_model

if TYPE_CHECKING:
    from repro.metrics.tracking import EpochRecord
    from ..core.modules import LayerModule


def _workload_modules(name: str) -> int:
    """Positive case: an import inside a function is a dependency too."""
    from ..core.modules import parse_layer_modules
    from ..experiments.workloads import build_workload
    return len(parse_layer_modules(build_workload(name).make_model()))


#: Every imported name is read, so only SIM007 fires here.
__all__ = ["RunHistory", "engine", "SimJob", "repro", "EpochRecord", "LayerModule"]
