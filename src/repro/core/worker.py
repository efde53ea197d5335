"""Egeria worker: the training-side half of the controller–worker framework.

Each training process runs an Egeria worker (§4.1.1).  "In addition to the
original training operations, it performs Egeria tasks, including transmitting
data and handling controller decisions.  The updated ``forward()`` method uses
hooks to obtain the intermediate activation tensors.  The ``freeze()`` and
``unfreeze()`` methods will be called by the controller and apply on target
layers."

Concretely the worker here:

* hooks the tail block of the frontmost active layer module on the training
  model and captures its activation during the normal forward pass;
* pushes ``(mini-batch inputs, A_T)`` onto the IQ/TOQ queues when a plasticity
  evaluation is due, without blocking the training loop;
* applies controller decisions: advancing the monitored module after a
  freeze, switching frozen BatchNorm layers to inference mode (required for
  activation caching, §4.3), and rebuilding the (simulated) gradient
  communication bucket after the set of trainable parameters changes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..nn.layers import BatchNorm2d, Dropout
from ..nn.module import Module
from .freezing import FreezingEngine
from .hooks import ActivationRecorder
from .modules import LayerModule
from .queues import EvaluationChannels

__all__ = ["EgeriaWorker"]


class EgeriaWorker:
    """Training-side agent that feeds the controller and applies its decisions."""

    def __init__(self, model: Module, engine: FreezingEngine, channels: Optional[EvaluationChannels] = None,
                 worker_id: int = 0):
        self.model = model
        self.engine = engine
        self.channels = channels or EvaluationChannels()
        self.worker_id = worker_id
        self.recorder: Optional[ActivationRecorder] = None
        self._monitored_path: Optional[str] = None
        self._comm_rebuilds = 0
        self.retarget()

    # ------------------------------------------------------------------ #
    # Hook management
    # ------------------------------------------------------------------ #
    @property
    def monitored_path(self) -> Optional[str]:
        """Dotted path of the block whose activation is currently captured."""
        return self._monitored_path

    def retarget(self) -> None:
        """Point the forward hook at the frontmost active layer module's tail."""
        module = self.engine.monitored_module
        path = module.tail_path if module is not None else None
        if path == self._monitored_path and self.recorder is not None:
            return
        if self.recorder is not None:
            self.recorder.remove()
            self.recorder = None
        self._monitored_path = path
        if path is not None:
            self.recorder = ActivationRecorder(self.model, [path])

    def captured_activation(self) -> Optional[np.ndarray]:
        """Activation captured by the hook in the most recent forward pass."""
        if self.recorder is None or self._monitored_path is None:
            return None
        return self.recorder.get(self._monitored_path)

    # ------------------------------------------------------------------ #
    # Queue protocol (non-blocking)
    # ------------------------------------------------------------------ #
    def submit_evaluation(self, batch_inputs: Tuple, iteration: int) -> bool:
        """Push the current batch and hooked activation for controller evaluation.

        Returns False (and drops the evaluation) when either queue is full —
        the worker never blocks on the controller.
        """
        activation = self.captured_activation()
        if activation is None or self._monitored_path is None:
            return False
        accepted_input = self.channels.input_queue.put({
            "iteration": iteration,
            "inputs": batch_inputs,
            "worker_id": self.worker_id,
        })
        if not accepted_input:
            return False
        accepted_output = self.channels.training_output_queue.put({
            "iteration": iteration,
            "path": self._monitored_path,
            "activation": activation.copy(),  # captured by reference; the queue keeps its own
            "worker_id": self.worker_id,
        })
        return accepted_output

    # ------------------------------------------------------------------ #
    # Decision application
    # ------------------------------------------------------------------ #
    def apply_decisions(self) -> Dict[str, int]:
        """Synchronise the worker with the engine's current freezing state.

        Called after every controller step; idempotent.  Returns a small
        summary used for logging/tests.
        """
        frozen_modules = self.engine.frozen_modules()
        bn_switched = 0
        for layer_module in frozen_modules:
            bn_switched += self._set_frozen_module_inference(layer_module)
        self.retarget()
        self._comm_rebuilds += 1
        return {
            "frozen_modules": len(frozen_modules),
            "batchnorm_inference": bn_switched,
            "comm_rebuilds": self._comm_rebuilds,
        }

    @staticmethod
    def _set_frozen_module_inference(layer_module: LayerModule) -> int:
        """Switch BatchNorm (and Dropout) submodules of a frozen module to eval mode.

        §4.3: "we set these layers to the inference mode, using the dataset
        statistics to normalize the input rather than the specific batch" so
        that cached activations remain valid.
        """
        switched = 0
        for block in layer_module.owned:
            for submodule in block.modules():
                if isinstance(submodule, (BatchNorm2d, Dropout)) and submodule.training:
                    submodule.eval()
                    switched += 1
        return switched

    def restore_training_mode(self) -> None:
        """Re-enable training mode everywhere (after an unfreeze-all event)."""
        self.model.train()
        self.retarget()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        return {
            "worker_id": self.worker_id,
            "monitored_path": self._monitored_path,
            "pending_evaluations": self.channels.pending_evaluations(),
            "dropped_inputs": self.channels.input_queue.dropped,
        }
