"""Analytical per-iteration cost model for DNN training.

The paper reports *time* speedups measured on V100/2080 Ti testbeds.  Those
GPUs are unavailable here, so this module provides the substitution described
in DESIGN.md: an analytical cost model that derives forward/backward/
synchronization times from the model's layer-module structure — the same
structure Egeria freezes — so relative speedups (who wins, by roughly what
factor) are preserved even though absolute times are synthetic.

Model
-----
For a layer module with ``p`` parameters processing batch size ``b``:

* forward compute time  = ``fp_seconds_per_param * p * b``
* backward compute time = ``bp_fp_ratio`` x forward time (weight + input
  gradients roughly double the work of the forward pass)
* gradient volume       = ``4 p`` bytes (fp32 gradients)

The default ``fp_fraction`` of an unfrozen iteration is ~0.35, matching the
paper's observation that "the forward pass still takes up to 35% of the time
of an iteration".  Frozen modules drop their backward time and gradient
volume; modules served from the activation cache also drop their forward
time (plus a small prefetch overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

__all__ = ["GPUSpec", "IterationBreakdown", "CostModel"]


class SizedModule(Protocol):
    """All the cost model reads of a layer module: its parameter count.

    A training model's ``repro.core`` layer modules qualify, and so does a
    scenario's plain list of per-module sizes.
    """

    num_params: int


@dataclass(frozen=True)
class GPUSpec:
    """Throughput description of one accelerator.

    ``fp_seconds_per_param`` is the forward-pass time contributed by one
    parameter for one sample; defaults are arbitrary but consistent, since
    only ratios matter for speedups.
    """

    name: str = "V100"
    fp_seconds_per_param: float = 2.0e-9
    bp_fp_ratio: float = 2.0
    memory_gb: float = 32.0


@dataclass
class IterationBreakdown:
    """Per-iteration time decomposition (seconds)."""

    forward: float
    backward: float
    communication: float
    cache_overhead: float = 0.0
    reference_overhead: float = 0.0

    @property
    def compute(self) -> float:
        """Forward + backward compute seconds (communication excluded)."""
        return self.forward + self.backward

    @property
    def total(self) -> float:
        """Total iteration time assuming communication overlapped with backward.

        The exposed communication is whatever could not be hidden behind the
        backward pass (baseline frameworks already overlap per-layer gradient
        transmission with earlier layers' BP).
        """
        exposed_comm = max(self.communication - self.backward, 0.0)
        return self.forward + self.backward + exposed_comm + self.cache_overhead + self.reference_overhead

    def as_dict(self) -> Dict[str, float]:
        """Plain-data view of the breakdown."""
        return {
            "forward": self.forward,
            "backward": self.backward,
            "communication": self.communication,
            "cache_overhead": self.cache_overhead,
            "reference_overhead": self.reference_overhead,
            "total": self.total,
        }


class CostModel:
    """Maps a model's layer modules and freezing state to iteration time.

    Parameters
    ----------
    layer_modules:
        The front-to-back module decomposition of the training model; only
        each module's ``num_params`` is read.
    batch_size:
        Mini-batch size per worker.
    gpu:
        Accelerator throughput description.
    cache_overhead_fraction:
        Prefetching/caching overhead as a fraction of the *saved* forward
        time (loading a cached activation is much cheaper than recomputing it
        but not free).
    reference_overhead_fraction:
        CPU reference-model overhead as a fraction of baseline iteration time
        (the paper measures "up to 1.5%", §6.5).
    """

    def __init__(self, layer_modules: Sequence[SizedModule], batch_size: int = 32,
                 gpu: Optional[GPUSpec] = None, cache_overhead_fraction: float = 0.15,
                 reference_overhead_fraction: float = 0.015):
        """Capture the module decomposition and accelerator description."""
        self.layer_modules = list(layer_modules)
        self.batch_size = batch_size
        self.gpu = gpu or GPUSpec()
        self.cache_overhead_fraction = cache_overhead_fraction
        self.reference_overhead_fraction = reference_overhead_fraction
        self._module_params_key: Optional[Tuple[int, ...]] = None
        self._module_params_src: Optional[List[SizedModule]] = None

    def fingerprint(self) -> Tuple:
        """Hashable digest of every parameter that shapes iteration timing.

        The steady-state fast-forward cache
        (:meth:`~repro.sim.engine.EventDrivenEngine.simulate_iteration`) keys
        memoized iterations on this digest, so two cost models with identical
        structure share cache entries and a *different* model can never alias
        one.  The per-module parameter counts are captured once — a cost
        model is treated as immutable after construction (swap the module
        list and the digest is recomputed; mutate it in place and the engine
        must be told via ``clear_fast_forward_cache``).
        """
        if self._module_params_src is not self.layer_modules:
            self._module_params_key = tuple(m.num_params for m in self.layer_modules)
            self._module_params_src = self.layer_modules
        return (
            self._module_params_key,
            self.batch_size,
            self.gpu.fp_seconds_per_param,
            self.gpu.bp_fp_ratio,
            self.cache_overhead_fraction,
            self.reference_overhead_fraction,
        )

    # ------------------------------------------------------------------ #
    # Per-module primitives
    # ------------------------------------------------------------------ #
    def module_forward_time(self, module: SizedModule) -> float:
        """Seconds of forward compute one module costs per iteration."""
        return self.gpu.fp_seconds_per_param * module.num_params * self.batch_size

    def module_backward_time(self, module: SizedModule) -> float:
        """Seconds of backward compute one module costs per iteration."""
        return self.module_forward_time(module) * self.gpu.bp_fp_ratio

    def module_gradient_bytes(self, module: SizedModule) -> int:
        """Gradient payload of one module (fp32 parameters)."""
        return module.num_params * 4

    @staticmethod
    def transfer_seconds_at(num_bytes: int, bandwidth_gbps: float) -> float:
        """Occupancy seconds of ``num_bytes`` on a ``bandwidth_gbps`` resource.

        The single pricing rule every shared link and storage resource uses
        (see :mod:`repro.sim.resources`), so per-resource occupancy and the
        closed-form communication terms stay dimensionally consistent.
        """
        if num_bytes <= 0:
            return 0.0
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth_gbps must be positive")
        return num_bytes * 8.0 / (bandwidth_gbps * 1e9)

    # ------------------------------------------------------------------ #
    # Checkpoint volume
    # ------------------------------------------------------------------ #
    #: Optimizer state written alongside the fp32 weights: weights plus two
    #: Adam-style moment buffers (SGD's single velocity buffer writes less,
    #: but the ratio only shifts the absolute cost, not the freezing trend).
    CKPT_STATE_MULTIPLIER = 3.0

    def checkpoint_bytes(self, frozen_prefix: int = 0, incremental: bool = True,
                         state_multiplier: Optional[float] = None) -> int:
        """Bytes persisted by one training-state checkpoint.

        With ``incremental`` (the freezing-aware layout) the immutable frozen
        prefix is content-addressed and written once, so only the active
        suffix counts — checkpoint volume falls as the prefix advances, just
        like iteration time.  A full (non-incremental) snapshot — what a
        restore has to read back — always covers every module.
        """
        frozen_prefix = max(0, min(frozen_prefix, len(self.layer_modules)))
        modules = self.layer_modules[frozen_prefix:] if incremental else self.layer_modules
        multiplier = self.CKPT_STATE_MULTIPLIER if state_multiplier is None else state_multiplier
        return int(4 * sum(m.num_params for m in modules) * multiplier)

    # ------------------------------------------------------------------ #
    # Iteration-level accounting
    # ------------------------------------------------------------------ #
    def baseline_iteration(self, include_reference_overhead: bool = False) -> IterationBreakdown:
        """Breakdown for a fully-unfrozen single-GPU iteration."""
        return self.iteration(frozen_prefix=0, cached_fp=False,
                              include_reference_overhead=include_reference_overhead)

    def iteration(self, frozen_prefix: int = 0, cached_fp: bool = False,
                  comm_seconds_per_byte: float = 0.0, include_reference_overhead: bool = True) -> IterationBreakdown:
        """Breakdown for an iteration with the first ``frozen_prefix`` modules frozen.

        Parameters
        ----------
        frozen_prefix:
            Number of consecutive front modules whose backward pass (and
            gradient synchronization) is skipped.
        cached_fp:
            Whether the frozen prefix's forward pass is served from the
            activation cache (skipping its compute, paying a small prefetch
            overhead instead).
        comm_seconds_per_byte:
            Per-byte all-reduce cost; zero for single-GPU training.
        """
        frozen_prefix = max(0, min(frozen_prefix, len(self.layer_modules)))
        forward = 0.0
        backward = 0.0
        comm_bytes = 0
        saved_forward = 0.0
        for index, module in enumerate(self.layer_modules):
            fp = self.module_forward_time(module)
            if index < frozen_prefix:
                if cached_fp:
                    saved_forward += fp
                else:
                    forward += fp
                continue
            forward += fp
            backward += self.module_backward_time(module)
            comm_bytes += self.module_gradient_bytes(module)

        cache_overhead = saved_forward * self.cache_overhead_fraction if cached_fp else 0.0
        communication = comm_bytes * comm_seconds_per_byte
        reference_overhead = 0.0
        if include_reference_overhead:
            baseline_compute = sum(self.module_forward_time(m) * (1 + self.gpu.bp_fp_ratio)
                                   for m in self.layer_modules)
            reference_overhead = baseline_compute * self.reference_overhead_fraction
        return IterationBreakdown(
            forward=forward,
            backward=backward,
            communication=communication,
            cache_overhead=cache_overhead,
            reference_overhead=reference_overhead,
        )

    def epoch_time(self, iterations: int, frozen_prefix: int = 0, cached_fp: bool = False,
                   comm_seconds_per_byte: float = 0.0, include_reference_overhead: bool = True) -> float:
        """Total time of ``iterations`` identical iterations."""
        return self.iteration(frozen_prefix, cached_fp, comm_seconds_per_byte,
                              include_reference_overhead).total * iterations

    # ------------------------------------------------------------------ #
    # Helpers used by the figure benches
    # ------------------------------------------------------------------ #
    def fp_fraction(self) -> float:
        """Forward-pass share of the unfrozen iteration (paper: up to ~35%)."""
        breakdown = self.baseline_iteration()
        return breakdown.forward / breakdown.compute if breakdown.compute else 0.0

    def potential_backward_saving(self, frozen_prefix: int) -> float:
        """Fraction of compute saved by freezing the prefix's backward pass."""
        baseline = self.baseline_iteration().compute
        frozen = self.iteration(frozen_prefix, cached_fp=False, include_reference_overhead=False).compute
        return (baseline - frozen) / baseline if baseline else 0.0
