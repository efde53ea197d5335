"""Post-training quantization used to generate Egeria's reference model.

The paper (§4.1.3, §5) generates the reference model by moving a snapshot of
the training model to the CPU and applying PyTorch's built-in int8
quantization — dynamic quantization for NLP models and static quantization for
convolutional networks.  int8 "reduces the reference memory footprint by 3–4x
and accelerates the forward pass by ~2x on CPUs", and Table 2 shows it is the
sweet spot between speed and reference fidelity.

This reproduction quantizes weights only, the same way for every model:
activations stay float32, so no model gets the paper's activation-calibrated
static quantization (``docs/fidelity.md``).  This module provides:

* :func:`quantize_array` / :func:`dequantize_array` — symmetric per-tensor
  affine quantization of a float array to ``int8``/``int4``/``float16``;
* :class:`QuantizationSpec` — precision configuration with footprint and
  speedup factors mirroring the paper's Table 2;
* :func:`quantize_state_dict` — quantize–dequantize (fake-quantize) every
  entry of a model snapshot, which the reference model loads: its
  activations carry the rounding error of int8 weights while the arithmetic
  stays in numpy float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "QuantizationSpec",
    "INT8",
    "INT4",
    "FLOAT16",
    "FLOAT32",
    "quantize_array",
    "dequantize_array",
    "fake_quantize",
    "quantize_state_dict",
    "PRECISIONS",
]


@dataclass(frozen=True)
class QuantizationSpec:
    """Configuration of one quantization precision.

    ``cpu_speedup`` and ``memory_ratio`` reproduce the relative numbers the
    paper reports (Table 2 and §4.1.3): int8 runs ~3.6x faster than fp32 on
    CPU and uses ~4x less memory; int4 does *not* run faster than int8 because
    of the CPU instruction set (§4.1.3), it only saves memory.
    """

    name: str
    bits: int
    cpu_speedup: float
    memory_ratio: float
    is_float: bool = False

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1


INT8 = QuantizationSpec(name="int8", bits=8, cpu_speedup=3.59, memory_ratio=0.25)
INT4 = QuantizationSpec(name="int4", bits=4, cpu_speedup=3.59, memory_ratio=0.125)
FLOAT16 = QuantizationSpec(name="float16", bits=16, cpu_speedup=1.69, memory_ratio=0.5, is_float=True)
FLOAT32 = QuantizationSpec(name="float32", bits=32, cpu_speedup=1.0, memory_ratio=1.0, is_float=True)

PRECISIONS: Dict[str, QuantizationSpec] = {s.name: s for s in (INT8, INT4, FLOAT16, FLOAT32)}


def quantize_array(array: np.ndarray, spec: QuantizationSpec = INT8) -> Tuple[np.ndarray, float]:
    """Quantize a float array to the given precision.

    Returns ``(quantized_values, scale)``.  Integer precisions use symmetric
    per-tensor quantization (zero point fixed at 0, like PyTorch's default for
    weights); float precisions return the cast array with scale 1.

    Non-finite entries (a diverged snapshot) never reach the integer cast:
    the scale comes from the finite entries alone (1 when there are none),
    NaN quantizes to 0 and ±inf to ±``qmax``.
    """
    if spec.is_float:
        if spec.bits == 32:
            return array.astype(np.float32), 1.0
        return array.astype(np.float16), 1.0
    max_abs = float(np.max(np.abs(array))) if array.size else 0.0
    all_finite = np.isfinite(max_abs)
    if not all_finite:
        finite_entries = np.abs(array[np.isfinite(array)])
        max_abs = float(np.max(finite_entries)) if finite_entries.size else 0.0
    scale = max_abs / spec.qmax if max_abs > 0 else 1.0
    if array.dtype.kind == "f" and array.dtype.type(scale) == 0:
        # max_abs is a few subnormal steps, fewer than qmax: count the steps exactly.
        scale = float(np.finfo(array.dtype).smallest_subnormal)
    if not all_finite:
        limit = spec.qmax * scale
        array = np.nan_to_num(array, nan=0.0, posinf=limit, neginf=-limit)
    quantized = np.clip(np.round(array / scale), -spec.qmax - 1, spec.qmax).astype(np.int8 if spec.bits <= 8 else np.int16)
    return quantized, scale


def dequantize_array(quantized: np.ndarray, scale: float, spec: QuantizationSpec = INT8) -> np.ndarray:
    """Recover a float32 array from quantized values."""
    if spec.is_float:
        return quantized.astype(np.float32)
    return (quantized.astype(np.float32)) * scale


def fake_quantize(array: np.ndarray, spec: QuantizationSpec = INT8) -> np.ndarray:
    """Quantize then dequantize — injects the precision's rounding error."""
    quantized, scale = quantize_array(array, spec)
    return dequantize_array(quantized, scale, spec)


def quantize_state_dict(state: Dict[str, np.ndarray], spec: QuantizationSpec = INT8,
                        skip_keys: Optional[Tuple[str, ...]] = ("running_mean", "running_var")) -> Dict[str, np.ndarray]:
    """Fake-quantize every entry of a ``state_dict`` snapshot.

    BatchNorm running statistics are skipped by default (PyTorch's static
    quantization folds them rather than quantizing them; quantizing them can
    destabilise normalisation for small models).
    """
    skip_keys = skip_keys or ()
    quantized: Dict[str, np.ndarray] = {}
    for key, value in state.items():
        if any(key.endswith(suffix) for suffix in skip_keys):
            quantized[key] = np.array(value, copy=True)
        else:
            quantized[key] = fake_quantize(np.asarray(value, dtype=np.float32), spec)
    return quantized

