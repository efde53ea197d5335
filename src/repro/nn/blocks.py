"""Composite building blocks: residual blocks, inverted residuals, attention.

The Egeria paper freezes *layer modules* — groups of consecutive layers
"defined together" (§4.2.1), such as ResNet residual blocks, MobileNetV2
inverted-residual blocks, and Transformer encoder/decoder layers.  The classes
in this module are exactly those units; :mod:`repro.core.modules` later parses
a model into a sequence of them to drive freezing decisions.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import functional as F
from .layers import BatchNorm2d, Conv2d, Dropout, LayerNorm, Linear, ReLU, ReLU6
from .module import Identity, Module, Sequential
from .tensor import Tensor

__all__ = [
    "ConvBNReLU",
    "BasicBlock",
    "Bottleneck",
    "InvertedResidual",
    "MultiHeadAttention",
    "FeedForward",
    "TransformerEncoderLayer",
    "TransformerDecoderLayer",
    "PositionalEncoding",
]


class ConvBNReLU(Module):
    """Convolution + BatchNorm + ReLU(6) — the standard CNN stem unit."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3, stride: int = 1,
                 groups: int = 1, relu6: bool = False, rng: Optional[np.random.Generator] = None):
        super().__init__()
        padding = (kernel_size - 1) // 2
        self.conv = Conv2d(in_channels, out_channels, kernel_size, stride=stride, padding=padding,
                           groups=groups, bias=False, rng=rng)
        self.bn = BatchNorm2d(out_channels)
        self.act = ReLU6() if relu6 else ReLU()

    def forward(self, x: Tensor) -> Tensor:
        return self.act(self.bn(self.conv(x)))


class BasicBlock(Module):
    """ResNet basic residual block (two 3x3 convolutions)."""

    expansion = 1

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        self.relu = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        out = out + self.shortcut(x)
        return self.relu(out)


class Bottleneck(Module):
    """ResNet bottleneck block (1x1 reduce, 3x3, 1x1 expand) used by ResNet-50."""

    expansion = 4

    def __init__(self, in_channels: int, width: int, stride: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        out_channels = width * self.expansion
        self.conv1 = Conv2d(in_channels, width, 1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(width)
        self.conv2 = Conv2d(width, width, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(width)
        self.conv3 = Conv2d(width, out_channels, 1, bias=False, rng=rng)
        self.bn3 = BatchNorm2d(out_channels)
        self.relu = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.relu(self.bn2(self.conv2(out)))
        out = self.bn3(self.conv3(out))
        out = out + self.shortcut(x)
        return self.relu(out)


class InvertedResidual(Module):
    """MobileNetV2 inverted residual with linear bottleneck."""

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1, expand_ratio: int = 2,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        hidden = int(round(in_channels * expand_ratio))
        self.use_residual = stride == 1 and in_channels == out_channels
        layers = []
        if expand_ratio != 1:
            layers.append(ConvBNReLU(in_channels, hidden, kernel_size=1, relu6=True, rng=rng))
        layers.append(ConvBNReLU(hidden, hidden, kernel_size=3, stride=stride, groups=hidden, relu6=True, rng=rng))
        layers.append(Conv2d(hidden, out_channels, 1, bias=False, rng=rng))
        layers.append(BatchNorm2d(out_channels))
        self.block = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        out = self.block(x)
        if self.use_residual:
            out = out + x
        return out


class MultiHeadAttention(Module):
    """Scaled dot-product multi-head attention."""

    def __init__(self, d_model: int, num_heads: int, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        self.d_model = d_model
        self.num_heads = num_heads
        self.q_proj = Linear(d_model, d_model, rng=rng)
        self.k_proj = Linear(d_model, d_model, rng=rng)
        self.v_proj = Linear(d_model, d_model, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)
        self.dropout = Dropout(dropout)

    def forward(self, query: Tensor, key: Optional[Tensor] = None, value: Optional[Tensor] = None,
                mask: Optional[np.ndarray] = None) -> Tensor:
        """Attend from ``query`` over ``key`` (default ``query``) with ``value`` (default ``key``)."""
        key = key if key is not None else query
        value = value if value is not None else key
        context = F.attention(self.q_proj(query), self.k_proj(key), self.v_proj(value), self.num_heads, mask,
                              self.dropout)
        return self.out_proj(context)


class FeedForward(Module):
    """Position-wise feed-forward network of a Transformer block."""

    def __init__(self, d_model: int, d_ff: int, dropout: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.fc1 = Linear(d_model, d_ff, rng=rng)
        self.fc2 = Linear(d_ff, d_model, rng=rng)
        self.relu = ReLU()
        self.dropout = Dropout(dropout)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.dropout(self.relu(self.fc1(x))))


class TransformerEncoderLayer(Module):
    """Pre-norm Transformer encoder layer (self-attention + FFN)."""

    def __init__(self, d_model: int, num_heads: int, d_ff: int, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.self_attn = MultiHeadAttention(d_model, num_heads, dropout=dropout, rng=rng)
        self.ffn = FeedForward(d_model, d_ff, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.dropout = Dropout(dropout)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        x = x + self.dropout(self.self_attn(self.norm1(x), mask=mask))
        x = x + self.dropout(self.ffn(self.norm2(x)))
        return x


class TransformerDecoderLayer(Module):
    """Pre-norm Transformer decoder layer (masked self-attn, cross-attn, FFN)."""

    def __init__(self, d_model: int, num_heads: int, d_ff: int, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.self_attn = MultiHeadAttention(d_model, num_heads, dropout=dropout, rng=rng)
        self.cross_attn = MultiHeadAttention(d_model, num_heads, dropout=dropout, rng=rng)
        self.ffn = FeedForward(d_model, d_ff, dropout=dropout, rng=rng)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.norm3 = LayerNorm(d_model)
        self.dropout = Dropout(dropout)

    def forward(self, x: Tensor, memory: Tensor, self_mask: Optional[np.ndarray] = None,
                cross_mask: Optional[np.ndarray] = None) -> Tensor:
        x = x + self.dropout(self.self_attn(self.norm1(x), mask=self_mask))
        x = x + self.dropout(self.cross_attn(self.norm2(x), key=memory, value=memory, mask=cross_mask))
        x = x + self.dropout(self.ffn(self.norm3(x)))
        return x


class PositionalEncoding(Module):
    """Fixed sinusoidal positional encoding added to token embeddings."""

    def __init__(self, d_model: int, max_len: int = 512):
        super().__init__()
        position = np.arange(max_len)[:, None].astype(np.float32)
        div_term = np.exp(np.arange(0, d_model, 2) * (-math.log(10000.0) / d_model)).astype(np.float32)
        encoding = np.zeros((max_len, d_model), dtype=np.float32)
        encoding[:, 0::2] = np.sin(position * div_term)
        encoding[:, 1::2] = np.cos(position * div_term)
        self.register_buffer("encoding", encoding)

    def forward(self, x: Tensor) -> Tensor:
        seq_len = x.shape[1]
        return x + Tensor(self.encoding[:seq_len])
