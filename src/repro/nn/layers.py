"""Primitive neural-network layers built on the autograd engine.

These are the building blocks shared by every model in :mod:`repro.models`:
``Linear``, ``Conv2d``, normalisation layers, ``Embedding``, activations,
pooling and ``Dropout``.  Their semantics intentionally track the PyTorch
layers the Egeria paper uses so the freezing/caching logic (inference-mode
BatchNorm for cached frozen layers, ``requires_grad`` freezing, hook capture)
maps one-to-one onto the paper's description.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "ReLU",
    "ReLU6",
    "GELU",
    "MaxPool2d",
    "AdaptiveAvgPool2d",
    "Flatten",
]


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng=rng, gain=math.sqrt(2.0)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Conv2d(Module):
    """2-D convolution with optional grouping (for depthwise convolutions)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, stride: int = 1,
                 padding: int = 0, groups: int = 1, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if in_channels % groups != 0 or out_channels % groups != 0:
            raise ValueError("in_channels and out_channels must both be divisible by groups")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        weight_shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(weight_shape, rng=rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding, groups=self.groups)

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
                f"s={self.stride}, p={self.padding}, g={self.groups})")


class BatchNorm2d(Module):
    """Batch normalisation over the channel dimension of ``(N, C, H, W)``.

    When a frozen layer's activations are served from the cache, Egeria sets
    BatchNorm layers to inference mode so they normalise with dataset
    statistics instead of the current batch (§4.3 of the paper); that is
    exactly what :meth:`eval` mode (``self.training == False``) does here.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        # The running buffers are updated in place, so the registered buffer and attribute stay one array.
        return F.batch_norm(x, self.weight, self.bias, self.eps, self.running_mean, self.running_var,
                            self.training, self.momentum)

    def __repr__(self) -> str:
        return f"BatchNorm2d({self.num_features})"


class LayerNorm(Module):
    """Layer normalisation over the last dimension (Transformer/BERT blocks)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)))
        self.bias = Parameter(init.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, self.eps)

    def __repr__(self) -> str:
        return f"LayerNorm({self.normalized_shape})"


class Embedding(Module):
    """Token embedding lookup table."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), std=0.02, rng=rng))

    def forward(self, indices) -> Tensor:
        idx = indices.data if isinstance(indices, Tensor) else indices
        return F.embedding(idx, self.weight)

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class Dropout(Module):
    """Inverted dropout; a per-layer seeded generator keeps masks replayable."""

    def __init__(self, p: float = 0.1, seed: Optional[int] = None):
        super().__init__()
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"dropout probability must be in [0, 1], got {p}")
        self.p = p
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)

    def reseed(self, seed: int) -> None:
        """Reset the mask generator — used for stateless/replayable dropout."""
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class ReLU6(Module):
    """ReLU capped at 6 (MobileNetV2)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.clip(0.0, 6.0)


class GELU(Module):
    """Gaussian error linear unit (tanh approximation, as used by BERT)."""

    def forward(self, x: Tensor) -> Tensor:
        inner = (x + x * x * x * 0.044715) * math.sqrt(2.0 / math.pi)
        return x * 0.5 * (inner.tanh() + 1.0)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AdaptiveAvgPool2d(Module):
    def __init__(self, output_size: int = 1):
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_avg_pool2d(x, self.output_size)


class Flatten(Module):
    """Flatten all dimensions except the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)
