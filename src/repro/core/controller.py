"""Egeria controller: reference-model execution and freezing decisions.

The logically centralised controller (§4.1.1) "manages the life cycle of the
reference model, including its generation and execution, gathering data for
plasticity evaluation, and making layer freezing/unfreezing decisions for
workers".  It colocates with a training node and runs the reference model's
forward pass on CPUs asynchronously (§4.1.2), only when CPU load permits.

The asynchronous protocol over the IQ/TOQ/ROQ queues:

1. poll IQ for a pending mini-batch, run the reference forward pass, push the
   hooked activation ``A_R`` to ROQ;
2. poll TOQ and ROQ, match by iteration, compute the plasticity of the
   frontmost active layer module and feed it to the freezing engine;
3. the engine freezes the module when Algorithm 1's criterion is met, and the
   decision propagates to the worker(s) through ``apply_decisions``.

In this single-process reproduction the queue hops are preserved (so tests
can assert the protocol and its drop/staleness behaviour) while "CPU load" is
an injectable function, defaulting to an always-idle CPU.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn.module import Module
from .config import EgeriaConfig
from .freezing import FreezingEngine
from .queues import EvaluationChannels
from .reference import ReferenceModel

__all__ = ["EgeriaController"]


class EgeriaController:
    """Controller that evaluates plasticity and drives freezing decisions."""

    def __init__(self, engine: FreezingEngine, reference: ReferenceModel, channels: EvaluationChannels,
                 config: Optional[EgeriaConfig] = None,
                 cpu_load_fn: Optional[Callable[[], float]] = None):
        self.engine = engine
        self.reference = reference
        self.channels = channels
        self.config = config or EgeriaConfig()
        self.cpu_load_fn = cpu_load_fn or (lambda: 0.0)
        self.evaluations_done = 0
        self.evaluations_skipped_cpu = 0
        self.reference_updates = 0
        self._pending_reference: Dict[int, np.ndarray] = {}
        self.plasticity_log: List[Dict[str, float]] = []

    # ------------------------------------------------------------------ #
    # Reference-model lifecycle
    # ------------------------------------------------------------------ #
    def initialize_reference(self, training_model: Module, iteration: int) -> None:
        """Generate the reference model and hook the monitored module path."""
        self.reference.generate(training_model, iteration)
        self._sync_reference_hooks()

    def maybe_update_reference(self, training_model: Module, iteration: int) -> bool:
        """Refresh the reference every ``reference_update_interval`` evaluations."""
        if self.reference.model is None:
            self.initialize_reference(training_model, iteration)
            return True
        interval = max(self.config.reference_update_interval, 1)
        if self.evaluations_done > 0 and self.evaluations_done % interval == 0:
            self.reference.update(training_model, iteration)
            self.reference_updates += 1
            return True
        return False

    def _sync_reference_hooks(self) -> None:
        module = self.engine.monitored_module
        if module is not None:
            self.reference.monitor([module.tail_path])

    # ------------------------------------------------------------------ #
    # Asynchronous evaluation step
    # ------------------------------------------------------------------ #
    def step(self, training_model: Module) -> List[Dict[str, float]]:
        """Process pending queue items; returns the plasticity readings computed.

        Safe to call every iteration; does nothing when no evaluation is
        pending or when the (simulated) CPU is too busy — matching the paper's
        "the controller only executes the forward pass at low CPU load".
        """
        readings: List[Dict[str, float]] = []
        if self.cpu_load_fn() >= self.config.max_cpu_load_for_reference:
            if not self.channels.input_queue.empty():
                self.evaluations_skipped_cpu += 1
                self.channels.input_queue.get()  # drop the stale request
            return readings

        # (2a) Run the reference forward pass for any pending input batch.
        request = self.channels.input_queue.get()
        if request is not None:
            if self.reference.model is None:
                self.initialize_reference(training_model, request["iteration"])
            self._sync_reference_hooks()
            activations = self.reference.forward(*request["inputs"])
            monitored = self.engine.monitored_module
            if monitored is not None and monitored.tail_path in activations:
                self.channels.reference_output_queue.put({
                    "iteration": request["iteration"],
                    "path": monitored.tail_path,
                    "activation": activations[monitored.tail_path],
                })

        # (3) Match training/reference activations and evaluate plasticity.
        while True:
            matched = self._match_outputs()
            if matched is None:
                break
            iteration, path, train_activation, ref_activation = matched
            smoothed = self.engine.check_plasticity(train_activation, ref_activation, iteration)
            self.evaluations_done += 1
            self.maybe_update_reference(training_model, iteration)
            if smoothed is not None:
                monitored_before = path
                reading = {
                    "iteration": iteration,
                    "module": monitored_before,
                    "plasticity": smoothed,
                    "stale_counter": self.engine.stale_counter,
                    "num_frozen": self.engine.num_frozen(),
                }
                self.plasticity_log.append(reading)
                readings.append(reading)
            self._sync_reference_hooks()
        return readings

    def _match_outputs(self) -> Optional[Tuple[int, str, np.ndarray, np.ndarray]]:
        """Pair one training activation with its reference counterpart."""
        train_item = self.channels.training_output_queue.peek()
        if train_item is None:
            return None
        # Gather any reference outputs into the pending map first.
        while True:
            ref_item = self.channels.reference_output_queue.get()
            if ref_item is None:
                break
            self._pending_reference[ref_item["iteration"]] = ref_item["activation"]
        iteration = train_item["iteration"]
        # The peeked activation is consumed either way: when the reference pass
        # for its batch has not run (or was dropped) it is discarded, not waited for.
        self.channels.training_output_queue.get()
        if iteration not in self._pending_reference:
            return None
        reference_activation = self._pending_reference.pop(iteration)
        return iteration, train_item["path"], train_item["activation"], reference_activation

    # ------------------------------------------------------------------ #
    # Learning-rate observation (unfreeze trigger)
    # ------------------------------------------------------------------ #
    def observe_lr(self, lr: float, iteration: int, cyclical: bool = False) -> bool:
        """Forward the current LR to the engine; True when an unfreeze fired."""
        return self.engine.observe_lr(lr, iteration, cyclical=cyclical)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        return {
            "evaluations_done": self.evaluations_done,
            "evaluations_skipped_cpu": self.evaluations_skipped_cpu,
            "reference_updates": self.reference_updates,
            "reference_stats": self.reference.stats.as_dict(),
            "engine": self.engine.summary(),
        }
