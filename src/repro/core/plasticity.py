"""Training plasticity: the SP-loss metric and its time-series analysis.

The heart of Egeria (§4.2).  A layer module's *plasticity* at iteration ``i``
is the Similarity-Preserving (SP) loss between the module's intermediate
activation in the training model and in the reference model for the same
mini-batch (Equation 1):

    P_i(l) = SP_loss(A_T(l), A_R(l))

SP loss (Tung & Mori, ICCV 2019) aligns each activation tensor to a ``b x b``
pair-wise similarity matrix over the mini-batch (rows L2-normalised) and takes
the mean squared Frobenius difference between the two matrices — it captures
*semantic* similarity rather than raw value differences, which is why the
paper prefers it over gradient norms or direct tensor subtraction
(Skip-Conv/FitNets style).

The time-series side implements Equation 2 (moving-average smoothing over a
window ``W``) and the windowed least-squares slope fit whose magnitude is
compared against the tolerance ``T`` in Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "sp_loss",
    "similarity_matrix",
    "direct_difference_loss",
    "PlasticityTracker",
    "windowed_slope",
    "moving_average",
]


def _as_array(activation) -> np.ndarray:
    """Accept either a Tensor or an ndarray."""
    data = activation.data if hasattr(activation, "data") else activation
    return np.asarray(data, dtype=np.float32)


def similarity_matrix(activation) -> np.ndarray:
    """Pair-wise similarity matrix G of shape ``(b, b)`` from an activation tensor.

    The activation ``(b, ...)`` is flattened per sample, G = A A^T is computed
    and each row is L2-normalised, following the SP-loss definition.
    """
    array = _as_array(activation)
    batch = array.shape[0]
    flat = array.reshape(batch, -1)
    gram = flat @ flat.T
    norms = np.linalg.norm(gram, axis=1, keepdims=True)
    norms = np.where(norms > 0, norms, 1.0)
    return gram / norms


def sp_loss(training_activation, reference_activation) -> float:
    """Similarity-Preserving loss between two activation tensors (Equation 1).

    Both tensors must share the batch dimension; their trailing shapes may
    differ (e.g. a quantized reference with folded layers), since only the
    ``b x b`` similarity structure is compared.
    """
    g_train = similarity_matrix(training_activation)
    g_ref = similarity_matrix(reference_activation)
    if g_train.shape != g_ref.shape:
        raise ValueError(f"batch sizes differ: {g_train.shape[0]} vs {g_ref.shape[0]}")
    batch = g_train.shape[0]
    diff = g_train - g_ref
    return float(np.sum(diff * diff) / (batch * batch))


def direct_difference_loss(training_activation, reference_activation) -> float:
    """Mean squared direct difference between activations.

    This is the Skip-Conv / FitNets-style metric the paper compares against
    (§6.2 "Compared to freezing alternatives"); it is provided so the
    baselines can reuse the same plumbing with a different metric.
    """
    a = _as_array(training_activation)
    b = _as_array(reference_activation)
    if a.shape != b.shape:
        raise ValueError(f"activation shapes differ: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.mean(diff * diff))


def moving_average(values: Sequence[float], window: int) -> float:
    """Equation 2: mean of the last ``window`` values (all values if fewer)."""
    if not values:
        raise ValueError("moving_average of empty history")
    recent = list(values)[-window:] if window > 0 else list(values)
    return float(np.mean(recent))


def windowed_slope(values: Sequence[float], window: int) -> float:
    """Least-squares slope of the last ``window`` smoothed plasticity values.

    Returns 0.0 when fewer than two points are available (no trend yet).
    """
    points = list(values)[-window:] if window > 0 else list(values)
    if len(points) < 2:
        return 0.0
    x = np.arange(len(points), dtype=np.float64)
    y = np.asarray(points, dtype=np.float64)
    x_centered = x - x.mean()
    denom = float(np.sum(x_centered * x_centered))
    if denom == 0.0:
        return 0.0
    return float(np.sum(x_centered * (y - y.mean())) / denom)


@dataclass
class PlasticityTracker:
    """Per-layer-module plasticity history with smoothing and slope analysis.

    One tracker exists per layer module; the freezing engine feeds it raw
    SP-loss readings and queries the smoothed value, the windowed slope and
    the auto-calibrated tolerance ``T``.

    Parameters
    ----------
    window:
        ``W`` — both the smoothing window of Equation 2 and the slope-fit
        window of Algorithm 1.
    tolerance_coefficient:
        ``T`` is set to this fraction of the maximum absolute slope observed
        over the first ``initial_readings`` raw readings (per-module
        calibration, §4.2.2).
    """

    window: int = 10
    tolerance_coefficient: float = 0.2
    initial_readings: int = 3
    #: A layer also counts as stationary when the slope magnitude is below
    #: this fraction of the current plasticity level.  This keeps the
    #: criterion meaningful when a layer is already near-converged at the
    #: time monitoring starts (its initial slope — and hence ``T`` — is then
    #: pure noise of the same magnitude as later readings).
    relative_slope_floor: float = 0.1
    raw_history: List[float] = field(default_factory=list)
    smoothed_history: List[float] = field(default_factory=list)
    iteration_history: List[int] = field(default_factory=list)
    _tolerance: Optional[float] = None

    def record(self, plasticity: float, iteration: int) -> float:
        """Add a raw reading; returns the smoothed value (Equation 2)."""
        if not np.isfinite(plasticity):
            raise ValueError(f"non-finite plasticity reading: {plasticity}")
        self.raw_history.append(float(plasticity))
        self.iteration_history.append(int(iteration))
        smoothed = moving_average(self.raw_history, self.window)
        self.smoothed_history.append(smoothed)
        self._maybe_calibrate_tolerance()
        return smoothed

    def _maybe_calibrate_tolerance(self) -> None:
        """Set ``T`` once enough initial readings exist (20% of the max initial slope)."""
        if self._tolerance is not None:
            return
        if len(self.smoothed_history) < max(self.initial_readings, 2):
            return
        initial = self.smoothed_history[: self.initial_readings]
        slopes = [abs(initial[i + 1] - initial[i]) for i in range(len(initial) - 1)]
        max_slope = max(slopes) if slopes else 0.0
        if max_slope == 0.0:
            # Degenerate flat start — fall back to a small absolute tolerance.
            max_slope = max(abs(self.smoothed_history[0]), 1e-6)
        self._tolerance = self.tolerance_coefficient * max_slope

    @property
    def tolerance(self) -> Optional[float]:
        """The calibrated tolerance ``T``; ``None`` until calibration completes."""
        return self._tolerance

    def slope(self) -> float:
        """Windowed least-squares slope of the smoothed plasticity curve."""
        return windowed_slope(self.smoothed_history, self.window)

    def is_stationary(self) -> bool:
        """True when the plasticity trend is within tolerance.

        The layer is considered stationary when the windowed slope magnitude
        is below the calibrated tolerance ``T`` *or* below
        ``relative_slope_floor`` x the current smoothed plasticity level
        (which covers layers that were already converged when monitoring
        began).
        """
        if self._tolerance is None or len(self.smoothed_history) < 2:
            return False
        slope_magnitude = abs(self.slope())
        if slope_magnitude < self._tolerance:
            return True
        latest = abs(self.smoothed_history[-1])
        return slope_magnitude < self.relative_slope_floor * latest

    def latest(self) -> Optional[float]:
        """Most recent smoothed plasticity value."""
        return self.smoothed_history[-1] if self.smoothed_history else None

    def state_dict(self) -> dict:
        """Serializable history/calibration snapshot (checkpointing)."""
        return {
            "window": int(self.window),
            "tolerance": None if self._tolerance is None else float(self._tolerance),
            "raw_history": [float(v) for v in self.raw_history],
            "smoothed_history": [float(v) for v in self.smoothed_history],
            "iteration_history": [int(v) for v in self.iteration_history],
        }

    def load_state_dict(self, state: dict) -> None:
        self.window = int(state["window"])
        tolerance = state.get("tolerance")
        self._tolerance = None if tolerance is None else float(tolerance)
        self.raw_history = [float(v) for v in state["raw_history"]]
        self.smoothed_history = [float(v) for v in state["smoothed_history"]]
        self.iteration_history = [int(v) for v in state["iteration_history"]]

    def reset_window(self, new_window: int) -> None:
        """Shrink/extend the window (used when unfreezing halves ``W``)."""
        if new_window <= 0:
            raise ValueError("window must be positive")
        self.window = new_window

    def reset_history(self, keep_tolerance: bool = True) -> None:
        """Clear histories, e.g. after an unfreeze, optionally keeping ``T``."""
        self.raw_history.clear()
        self.smoothed_history.clear()
        self.iteration_history.clear()
        if not keep_tolerance:
            self._tolerance = None

    def __len__(self) -> int:
        return len(self.raw_history)
