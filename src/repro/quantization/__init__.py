"""``repro.quantization`` — post-training quantization for the reference model.

Implements the int8/int4/fp16 precisions of the paper's Table 2 and
weight-only fake quantization of model snapshots, which every reference
model uses (CNNs included: no activation calibration).
"""

from .quantize import (
    FLOAT16,
    FLOAT32,
    INT4,
    INT8,
    PRECISIONS,
    QuantizationSpec,
    dequantize_array,
    fake_quantize,
    quantize_array,
    quantize_state_dict,
)

__all__ = [
    "QuantizationSpec",
    "INT8",
    "INT4",
    "FLOAT16",
    "FLOAT32",
    "PRECISIONS",
    "quantize_array",
    "dequantize_array",
    "fake_quantize",
    "quantize_state_dict",
]
