"""Configuration for Egeria's knowledge-guided training.

The paper uses three hyperparameters (§4.2.2 "Hyperparameters guideline"):

* ``n`` — plasticity-evaluation interval (iterations), also the monitoring
  interval of the bootstrapping stage;
* ``T`` — tolerance on the plasticity slope, set per layer module to 20% of
  the maximal plasticity slope observed in its initial 3 readings;
* ``W`` — number of consecutive low-slope evaluations required to freeze, and
  the history-buffer length used for smoothing.

plus the reference-model update period and the bootstrapping exit criterion
(training-loss changing rate below 10%).  :class:`EgeriaConfig` collects all
of them with the paper's defaults; each workload sets ``n`` by hand
(``docs/fidelity.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["EgeriaConfig"]


@dataclass
class EgeriaConfig:
    """Hyperparameters and feature switches for :class:`repro.core.EgeriaTrainer`.

    Attributes
    ----------
    eval_interval_iters:
        ``n`` — run a plasticity evaluation every this many iterations.
    freeze_window:
        ``W`` — history-buffer length and the number of consecutive
        below-tolerance slope readings needed to freeze a module.
    tolerance_coefficient:
        ``T`` is set per module to this fraction (default 0.2 = 20%) of the
        maximum absolute plasticity slope over the module's initial readings.
    initial_readings_for_tolerance:
        How many initial plasticity readings are used to calibrate ``T``
        (paper: 3).
    bootstrap_loss_change_threshold:
        The bootstrapping stage ends once the relative change of the smoothed
        training loss between consecutive monitoring windows falls below this
        value (paper: 10%).
    bootstrap_min_evaluations:
        Minimum number of loss observations before the bootstrapping stage may
        end (guards against exiting on the very first window).
    reference_update_interval:
        Update the reference model from the latest training snapshot every
        this many plasticity evaluations (the paper updates every ``W``
        iterations worth of evaluations; frequency is insensitive, §4.1.3).
    reference_precision:
        ``"int8"`` (default), ``"int4"``, ``"float16"`` or ``"float32"``.
    unfreeze_lr_drop_factor:
        Unfreeze all frozen modules when the LR has dropped by at least this
        factor since the frontmost module froze (paper: 10x).
    refreeze_window_factor:
        After an unfreeze, ``W`` is multiplied by this factor (paper: halved).
    enable_fp_caching:
        Cache and prefetch frozen layers' activations to skip their forward
        pass (§4.3).
    cache_memory_batches:
        Number of recent mini-batches kept in (simulated GPU) memory by the
        prefetcher (paper: 5).
    cache_dir:
        Directory for the on-disk activation cache; ``None`` uses a
        temporary directory.
    min_cached_modules:
        FP caching is only enabled once at least this many front modules are
        frozen ("at the early training stage, we disable prefetching if the
        forward pass of a few layers is faster").
    freeze_last_module:
        Never true in practice — the final classifier must stay trainable; the
        engine always keeps at least ``min_active_modules`` active.
    """

    eval_interval_iters: int = 20
    freeze_window: int = 5
    tolerance_coefficient: float = 0.2
    relative_slope_floor: float = 0.1
    initial_readings_for_tolerance: int = 3
    bootstrap_loss_change_threshold: float = 0.10
    bootstrap_min_evaluations: int = 3
    reference_update_interval: int = 5
    reference_precision: str = "int8"
    reference_device: str = "cpu"
    unfreeze_lr_drop_factor: float = 10.0
    refreeze_window_factor: float = 0.5
    enable_fp_caching: bool = True
    cache_memory_batches: int = 5
    cache_dir: Optional[str] = None
    min_cached_modules: int = 1
    min_active_modules: int = 1
    max_cpu_load_for_reference: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.eval_interval_iters <= 0:
            raise ValueError("eval_interval_iters must be positive")
        if self.freeze_window <= 0:
            raise ValueError("freeze_window must be positive")
        if not 0.0 < self.tolerance_coefficient < 1.0:
            raise ValueError("tolerance_coefficient must be in (0, 1)")
        if self.unfreeze_lr_drop_factor <= 1.0:
            raise ValueError("unfreeze_lr_drop_factor must exceed 1")
        if self.reference_precision not in ("int8", "int4", "float16", "float32"):
            raise ValueError(f"unknown reference precision {self.reference_precision!r}")
