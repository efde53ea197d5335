"""Reference-model lifecycle: generation, execution and periodic updates.

Egeria's reference model (§4.1.3) is "a trained compressed DNN with the same
architecture as the model being trained": the controller snapshots the
training model, quantizes it to int8 (dynamic quantization for NLP models,
static for CNNs) and runs only its forward pass on CPUs to obtain reference
activations for plasticity evaluation.  The reference is refreshed
periodically from newer snapshots because "a stale reference model can
amplify the inherent fluctuations in SGD training".

In this reproduction the "CPU execution" is the same numpy code path, and
every model, CNNs included, gets weight-only fake quantization
(:func:`~repro.quantization.quantize_state_dict`): activations stay float32,
with no static activation calibration (``docs/fidelity.md``).  What is
preserved is (a) the weight-rounding error carried into the reference
activations, (b) the snapshot/update cadence and staleness accounting, and
(c) the cost accounting (generation time, per-forward speedup factor) used by
the overhead analysis in §6.5 and Table 2.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..nn import init
from ..nn.module import Module
from ..nn.tensor import no_grad
from ..quantization import PRECISIONS, QuantizationSpec, quantize_state_dict
from .hooks import ActivationRecorder, StopForward
from .modules import building_blocks

__all__ = ["ReferenceModel", "ReferenceModelStats"]


@dataclass
class ReferenceModelStats:
    """Bookkeeping about reference-model generation and execution."""

    generations: int = 0
    updates: int = 0
    forward_passes: int = 0
    #: Building blocks executed over all forward passes (a deterministic work
    #: counter: the early exit shows here as fewer blocks per pass).
    blocks_executed: int = 0
    total_generation_seconds: float = 0.0
    total_forward_seconds: float = 0.0
    last_snapshot_iteration: int = -1

    def as_dict(self) -> Dict[str, float]:
        return {
            "generations": self.generations,
            "updates": self.updates,
            "forward_passes": self.forward_passes,
            "blocks_executed": self.blocks_executed,
            "total_generation_seconds": self.total_generation_seconds,
            "total_forward_seconds": self.total_forward_seconds,
            "last_snapshot_iteration": self.last_snapshot_iteration,
        }


def _block_counter(owner: "weakref.ref[ReferenceModel]"):
    """A forward hook counting executed building blocks into ``owner``'s current stats.

    The hook lives on the reference model's modules, so it holds its owner
    weakly (a bound method would make model and owner a cycle that only the
    cyclic collector frees), and it looks ``stats`` up on every call because
    :meth:`ReferenceModel.load_state_dict` replaces that object.
    """
    def count_block(_module, _inputs, _output) -> None:
        reference = owner()
        if reference is not None:
            reference.stats.blocks_executed += 1

    return count_block


class ReferenceModel:
    """Quantized snapshot of the training model used for plasticity evaluation.

    Parameters
    ----------
    model_factory:
        Zero-argument callable that builds a model with the same architecture
        as the training model (same class/configuration); its weights are
        overwritten by the quantized snapshot.
    precision:
        One of ``"int8"``, ``"int4"``, ``"float16"``, ``"float32"``
        (Table 2 precisions).
    device:
        ``"cpu"`` (default) or ``"gpu"`` — only affects the simulated-cost
        accounting; §4.1.3 allows GPU execution when CPUs are scarce.
    """

    def __init__(self, model_factory, precision: str = "int8", device: str = "cpu"):
        if precision not in PRECISIONS:
            raise ValueError(f"unknown precision {precision!r}; expected one of {sorted(PRECISIONS)}")
        self.model_factory = model_factory
        self.spec: QuantizationSpec = PRECISIONS[precision]
        self.device = device
        self.model: Optional[Module] = None
        self.recorder: Optional[ActivationRecorder] = None
        self.stats = ReferenceModelStats()
        self._monitored_paths: List[str] = []

    # ------------------------------------------------------------------ #
    # Generation / update
    # ------------------------------------------------------------------ #
    def generate(self, training_model: Module, iteration: int = 0) -> Module:
        """Create (or re-create) the reference model from a training snapshot."""
        start = time.perf_counter()
        snapshot = training_model.state_dict()
        quantized = quantize_state_dict(snapshot, self.spec)
        self._install(quantized)
        elapsed = time.perf_counter() - start
        self.stats.generations += 1
        self.stats.total_generation_seconds += elapsed
        self.stats.last_snapshot_iteration = iteration
        return self.model

    def _install(self, weights: Dict[str, np.ndarray]) -> None:
        """Load ``weights`` into the reference model and (re-)hook it.

        An existing model is reused (an in-place rollback restores into a live
        trainer); the first one is built without drawing initial weights,
        since every parameter is overwritten — which is checked: a snapshot
        that misses one is refused, never run on stale or uninitialised values.
        """
        model = self.model
        if model is None:
            with init.skip_random_init():
                model = self.model_factory()
            model.eval()
            count_block = _block_counter(weakref.ref(self))
            for path in building_blocks(model):
                model.get_submodule(path).register_forward_hook(count_block)
        missing = [name for name, _ in model.named_parameters() if name not in weights]
        if missing:
            raise KeyError(f"reference snapshot lacks parameter(s) {missing}")
        model.load_state_dict(weights)
        self.model = model
        if self.recorder is not None:
            self.recorder.remove()
            self.recorder = None
        self.monitor(self._monitored_paths)

    def update(self, training_model: Module, iteration: int) -> Module:
        """Refresh the reference from the latest snapshot (periodic update)."""
        if self.model is None:
            return self.generate(training_model, iteration)
        start = time.perf_counter()
        quantized = quantize_state_dict(training_model.state_dict(), self.spec)
        self.model.load_state_dict(quantized)
        elapsed = time.perf_counter() - start
        self.stats.updates += 1
        self.stats.total_generation_seconds += elapsed
        self.stats.last_snapshot_iteration = iteration
        return self.model

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, object]:
        """Quantized snapshot weights, monitored paths and statistics.

        The reference weights must be checkpointed verbatim (not regenerated
        from the restored training model) because plasticity readings — and
        hence freezing decisions — depend on exactly this quantized snapshot,
        taken at an earlier iteration than the checkpoint.
        """
        return {
            "model": None if self.model is None else dict(self.model.state_dict()),
            "monitored_paths": list(self._monitored_paths),
            "stats": self.stats.as_dict(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        stats = dict(state.get("stats") or {})
        self.stats = ReferenceModelStats(
            generations=int(stats.get("generations", 0)),
            updates=int(stats.get("updates", 0)),
            forward_passes=int(stats.get("forward_passes", 0)),
            blocks_executed=int(stats.get("blocks_executed", 0)),
            total_generation_seconds=float(stats.get("total_generation_seconds", 0.0)),
            total_forward_seconds=float(stats.get("total_forward_seconds", 0.0)),
            last_snapshot_iteration=int(stats.get("last_snapshot_iteration", -1)),
        )
        self._monitored_paths = list(state.get("monitored_paths") or [])
        snapshot = state.get("model")
        if snapshot is None:
            self.model = self.recorder = None
        else:
            self._install(snapshot)

    def staleness(self, current_iteration: int) -> int:
        """Iterations elapsed since the last snapshot was taken."""
        if self.stats.last_snapshot_iteration < 0:
            return current_iteration
        return current_iteration - self.stats.last_snapshot_iteration

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def monitor(self, module_paths: List[str]) -> None:
        """Hook the given module paths on the reference model."""
        if self.recorder is not None and list(module_paths) == self._monitored_paths:
            return
        self._monitored_paths = list(module_paths)
        if self.recorder is not None:
            self.recorder.remove()
            self.recorder = None
        if self.model is not None and self._monitored_paths:
            self.recorder = ActivationRecorder(self.model, self._monitored_paths, stop_when_complete=True)

    def forward(self, *inputs) -> Dict[str, np.ndarray]:
        """Run a forward pass and return the hooked activations.

        The pass runs under ``no_grad`` — the reference model only ever
        performs inference (that is what makes int8 quantization applicable)
        — and stops as soon as every monitored path has been captured:
        plasticity only reads the frontmost active module's tail, so the
        layers behind it are never executed.
        """
        if self.model is None:
            raise RuntimeError("reference model has not been generated yet")
        if self.recorder is None:
            raise RuntimeError("no monitored module paths; call monitor() first")
        start = time.perf_counter()
        self.recorder.clear()
        with no_grad():
            try:
                self.model(*inputs)
            except StopForward:
                pass
        self.stats.forward_passes += 1
        self.stats.total_forward_seconds += time.perf_counter() - start
        return self.recorder.activations()

    # ------------------------------------------------------------------ #
    # Cost accounting (used by §6.5 / Table 2 benches)
    # ------------------------------------------------------------------ #
    @property
    def cpu_speedup(self) -> float:
        """Relative CPU inference speed versus a float32 reference (Table 2)."""
        return self.spec.cpu_speedup

    @property
    def memory_ratio(self) -> float:
        """Memory footprint relative to the float32 model."""
        return self.spec.memory_ratio

    def estimated_forward_seconds(self, full_precision_forward_seconds: float) -> float:
        """Simulated reference forward time given the fp32 forward time."""
        return full_precision_forward_seconds / self.spec.cpu_speedup
