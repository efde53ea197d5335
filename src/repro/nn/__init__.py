"""``repro.nn`` — a compact numpy-backed neural network substrate.

The Egeria reproduction cannot rely on PyTorch (offline environment), so this
package re-implements the slice of a deep-learning framework that the paper's
mechanisms need: an autograd tensor, modules with forward hooks and
``requires_grad`` freezing, the common layers/blocks, and training losses.
"""

from . import functional, init
from .blocks import (
    BasicBlock,
    Bottleneck,
    ConvBNReLU,
    InvertedResidual,
    MultiHeadAttention,
    PositionalEncoding,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
)
from .layers import (
    AdaptiveAvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GELU,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
)
from .losses import SpanExtractionLoss, cross_entropy
from .module import Module, ModuleList, Sequential
from .tensor import Tensor, concatenate, no_grad, zeros

__all__ = [
    "functional",
    "init",
    "Tensor",
    "zeros",
    "concatenate",
    "no_grad",
    "Module",
    "ModuleList",
    "Sequential",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "ReLU",
    "GELU",
    "MaxPool2d",
    "AdaptiveAvgPool2d",
    "Flatten",
    "ConvBNReLU",
    "BasicBlock",
    "Bottleneck",
    "InvertedResidual",
    "MultiHeadAttention",
    "TransformerEncoderLayer",
    "TransformerDecoderLayer",
    "PositionalEncoding",
    "SpanExtractionLoss",
    "cross_entropy",
]
