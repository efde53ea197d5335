"""The layer-freezing decision engine (Algorithm 1 of the paper).

The engine tracks the frontmost active layer module, feeds its plasticity
readings into a :class:`~repro.core.plasticity.PlasticityTracker`, counts how
many consecutive evaluations the windowed slope stayed below the tolerance
``T``, and freezes the module once the count reaches ``W``.  Monitoring then
advances to the next module ("Egeria monitors the frontmost active layer
module to avoid a fragmented frozen model").

Unfreezing (§4.2.2): with annealing-style LR schedules, all frozen modules are
unfrozen when the learning rate has dropped by at least a factor of 10 since
the frontmost module froze; the counter and history window ``W`` are halved
for the subsequent re-freezing.  Cyclical schedules instead call a
user-provided ``custom_unfreeze`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .config import EgeriaConfig
from .modules import LayerModule
from .plasticity import PlasticityTracker, sp_loss

__all__ = ["FreezeEvent", "FreezingEngine"]


@dataclass
class FreezeEvent:
    """A freezing/unfreezing decision, recorded for Figure 11-style timelines."""

    iteration: int
    action: str  # "freeze" | "unfreeze" | "refreeze"
    module_name: str
    module_index: int
    active_parameter_fraction: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "iteration": self.iteration,
            "action": self.action,
            "module": self.module_name,
            "module_index": self.module_index,
            "active_parameter_fraction": self.active_parameter_fraction,
        }


class FreezingEngine:
    """Implements Algorithm 1 over an ordered list of layer modules.

    Parameters
    ----------
    layer_modules:
        Front-to-back ordering produced by
        :func:`repro.core.modules.parse_layer_modules`.
    config:
        Hyperparameters (``W``, tolerance coefficient, unfreeze factor, ...).
    metric:
        Plasticity metric; defaults to SP loss.  The Skip-Conv baseline swaps
        in a direct-difference metric here.
    custom_unfreeze:
        Optional callback invoked for cyclical LR schedules instead of the
        LR-drop rule (the paper leaves this policy to the user).
    """

    def __init__(self, layer_modules: Sequence[LayerModule], config: Optional[EgeriaConfig] = None,
                 metric: Callable[[np.ndarray, np.ndarray], float] = sp_loss,
                 custom_unfreeze: Optional[Callable[["FreezingEngine", int], None]] = None):
        self.layer_modules: List[LayerModule] = list(layer_modules)
        if not self.layer_modules:
            raise ValueError("freezing engine needs at least one layer module")
        self.config = config or EgeriaConfig()
        self.metric = metric
        self.custom_unfreeze = custom_unfreeze

        self.window = self.config.freeze_window
        self.frontmost_active = 0
        self.stale_counter = 0
        self.trackers: Dict[int, PlasticityTracker] = {
            module.index: PlasticityTracker(
                window=self.window,
                tolerance_coefficient=self.config.tolerance_coefficient,
                initial_readings=self.config.initial_readings_for_tolerance,
                relative_slope_floor=self.config.relative_slope_floor,
            )
            for module in self.layer_modules
        }
        self.events: List[FreezeEvent] = []
        self._lr_at_first_freeze: Optional[float] = None
        self._unfreeze_count = 0
        self.total_params = sum(m.num_params for m in self.layer_modules)

    # ------------------------------------------------------------------ #
    # State inspection
    # ------------------------------------------------------------------ #
    @property
    def monitored_module(self) -> Optional[LayerModule]:
        """The frontmost active layer module, or ``None`` if all freezable ones froze."""
        if self.frontmost_active >= self.num_freezable_modules:
            return None
        return self.layer_modules[self.frontmost_active]

    @property
    def num_freezable_modules(self) -> int:
        """All but the last ``min_active_modules`` modules may freeze."""
        return max(len(self.layer_modules) - self.config.min_active_modules, 0)

    def frozen_modules(self) -> List[LayerModule]:
        return [m for m in self.layer_modules if m.is_frozen()]

    def num_frozen(self) -> int:
        return len(self.frozen_modules())

    def frozen_parameter_fraction(self) -> float:
        """Fraction of layer-module parameters currently frozen."""
        if self.total_params == 0:
            return 0.0
        return sum(m.num_params for m in self.frozen_modules()) / self.total_params

    def active_parameter_fraction(self) -> float:
        return 1.0 - self.frozen_parameter_fraction()

    def frozen_prefix_length(self) -> int:
        """Number of consecutive frozen modules from the front (cacheable prefix)."""
        count = 0
        for module in self.layer_modules:
            if module.is_frozen():
                count += 1
            else:
                break
        return count

    # ------------------------------------------------------------------ #
    # Algorithm 1: checkPlasticity
    # ------------------------------------------------------------------ #
    def check_plasticity(self, training_activation, reference_activation, iteration: int) -> Optional[float]:
        """One plasticity evaluation of the frontmost active module.

        Returns the smoothed plasticity value (or ``None`` when every
        freezable module is already frozen).  Freezing happens as a side
        effect once the stale counter reaches ``W``.
        """
        module = self.monitored_module
        if module is None:
            return None

        tracker = self.trackers[module.index]
        if self.stale_counter < self.window:
            raw = self.metric(training_activation, reference_activation)
            smoothed = tracker.record(raw, iteration)
            if tracker.is_stationary():
                self.stale_counter += 1
            else:
                self.stale_counter = 0
            if self.stale_counter >= self.window:
                self._freeze_frontmost(iteration)
            return smoothed

        # Counter already reached W (e.g. via an external decision): freeze now.
        self._freeze_frontmost(iteration)
        return tracker.latest()

    def _freeze_frontmost(self, iteration: int) -> None:
        module = self.monitored_module
        if module is None:
            return
        module.freeze()
        if self._lr_at_first_freeze is None:
            self._lr_at_first_freeze = self._current_lr
        action = "refreeze" if self._unfreeze_count > 0 else "freeze"
        self.events.append(FreezeEvent(
            iteration=iteration,
            action=action,
            module_name=module.name,
            module_index=module.index,
            active_parameter_fraction=self.active_parameter_fraction(),
        ))
        self.frontmost_active += 1
        self.stale_counter = 0

    # Placeholder updated by observe_lr(); kept separate so the engine can be
    # driven without any scheduler in unit tests.
    _current_lr: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Unfreezing (LR-based and cyclical)
    # ------------------------------------------------------------------ #
    def observe_lr(self, lr: float, iteration: int, cyclical: bool = False) -> bool:
        """Feed the current learning rate; returns True if an unfreeze happened.

        Implements lines 19–26 of Algorithm 1: for annealing schedules, once
        the LR has decayed by ``unfreeze_lr_drop_factor`` (10x) relative to
        the LR at the time of the first freeze, every frozen module is
        unfrozen, monitoring restarts from the front, and the window/counter
        are halved for faster re-freezing.
        """
        self._current_lr = lr
        if cyclical:
            if self.custom_unfreeze is not None and self.num_frozen() > 0:
                self.custom_unfreeze(self, iteration)
                return True
            return False
        if self._lr_at_first_freeze is None or self.num_frozen() == 0:
            return False
        # Small tolerance so e.g. 0.05 * 0.1 (= 0.005000000000000001) still
        # counts as a 10x drop from 0.05.
        threshold = self._lr_at_first_freeze / self.config.unfreeze_lr_drop_factor
        if lr > threshold * (1.0 + 1e-6):
            return False
        self.unfreeze_all(iteration)
        return True

    def unfreeze_all(self, iteration: int) -> None:
        """Unfreeze every module, reset monitoring to the front, halve ``W``."""
        for module in self.layer_modules:
            if module.is_frozen():
                module.unfreeze()
        self.events.append(FreezeEvent(
            iteration=iteration,
            action="unfreeze",
            module_name="all",
            module_index=-1,
            active_parameter_fraction=1.0,
        ))
        self.frontmost_active = 0
        self.stale_counter = 0
        self._unfreeze_count += 1
        self._lr_at_first_freeze = None
        new_window = max(int(round(self.window * self.config.refreeze_window_factor)), 1)
        self.window = new_window
        for tracker in self.trackers.values():
            tracker.reset_window(new_window)
            tracker.reset_history(keep_tolerance=True)

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, object]:
        """Serializable snapshot of every decision-relevant field.

        Restoring this state (into an engine built over the same layer-module
        decomposition) and replaying the same plasticity readings reproduces
        the exact freeze/unfreeze sequence — the property the checkpoint
        subsystem's bit-exact resume guarantee rests on.
        """
        return {
            "window": int(self.window),
            "frontmost_active": int(self.frontmost_active),
            "stale_counter": int(self.stale_counter),
            "unfreeze_count": int(self._unfreeze_count),
            "lr_at_first_freeze": self._lr_at_first_freeze,
            "current_lr": self._current_lr,
            "frozen": [bool(module.is_frozen()) for module in self.layer_modules],
            "events": [event.as_dict() for event in self.events],
            "trackers": {str(module.index): self.trackers[module.index].state_dict()
                         for module in self.layer_modules},
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        frozen = list(state["frozen"])
        if len(frozen) != len(self.layer_modules):
            raise ValueError(f"state has {len(frozen)} layer modules, engine has "
                             f"{len(self.layer_modules)}")
        for module, is_frozen in zip(self.layer_modules, frozen):
            if is_frozen:
                module.freeze()
            else:
                module.unfreeze()
        self.window = int(state["window"])
        self.frontmost_active = int(state["frontmost_active"])
        self.stale_counter = int(state["stale_counter"])
        self._unfreeze_count = int(state["unfreeze_count"])
        lr_at_first_freeze = state.get("lr_at_first_freeze")
        self._lr_at_first_freeze = None if lr_at_first_freeze is None else float(lr_at_first_freeze)
        current_lr = state.get("current_lr")
        self._current_lr = None if current_lr is None else float(current_lr)
        self.events = [FreezeEvent(
            iteration=int(event["iteration"]),
            action=str(event["action"]),
            module_name=str(event["module"]),
            module_index=int(event["module_index"]),
            active_parameter_fraction=float(event["active_parameter_fraction"]),
        ) for event in state["events"]]
        for module in self.layer_modules:
            self.trackers[module.index].load_state_dict(state["trackers"][str(module.index)])

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def timeline(self) -> List[Dict[str, object]]:
        """Freeze/unfreeze events as dictionaries (Figure 11 input)."""
        return [event.as_dict() for event in self.events]

    def summary(self) -> Dict[str, object]:
        return {
            "num_modules": len(self.layer_modules),
            "num_frozen": self.num_frozen(),
            "frontmost_active": self.frontmost_active,
            "frozen_parameter_fraction": self.frozen_parameter_fraction(),
            "window": self.window,
            "unfreeze_count": self._unfreeze_count,
            "events": len(self.events),
        }
