"""The ``nn`` substrate's reference formulations: slow, obviously correct, moved verbatim from ``repro.nn``.

``conv2d`` here is the im2col + ``np.einsum(optimize=True)`` formulation,
``max_pool2d`` the pooling op over the same helpers and
``accumulate`` the copy-always gradient accumulation (only the backward
closures' signature follows the acyclic-graph rule: they receive the node's
gradient instead of reading ``out.grad``).  ``linear``, ``softmax``,
``layer_norm``, ``batch_norm`` and ``attention`` are the composites of
primitive ``Tensor`` ops that ``repro.nn`` computes as one graph node each:
``linear``/``softmax`` as ``repro.nn.functional`` had them,
``layer_norm``/``batch_norm`` as ``LayerNorm.forward``/``BatchNorm2d.forward``
wrote them (``batch_norm`` with ``BatchNorm2d``'s ``np.mean`` / ``np.var``
update of the running statistics), ``attention`` (with
``split_heads``/``merge_heads``) as ``MultiHeadAttention.forward`` computed
it between its input and output projections.
``tests/test_nn_bit_identity.py`` requires the production code to reproduce
their values *and memory layouts* exactly, because training is chaotic in a
single ulp and because downstream reductions (BatchNorm statistics, the slab
cache's rows) run in stride order.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.functional import conv_output_size
from repro.nn.tensor import Tensor, is_grad_enabled


def accumulate(self: Tensor, grad: Optional[np.ndarray], fresh: bool = False) -> None:
    """Copy-always accumulation: ``fresh`` is accepted and ignored."""
    if grad is None:
        return
    if self.grad is None:
        self.grad = grad.astype(np.float32, copy=True)
    else:
        self.grad += grad


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
    """Rearrange ``(N, C, H, W)`` patches into ``(N, C * kernel * kernel, out_h * out_w)`` columns."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for ki in range(kernel):
        i_end = ki + stride * out_h
        for kj in range(kernel):
            j_end = kj + stride * out_w
            cols[:, :, ki, kj, :, :] = x[:, :, ki:i_end:stride, kj:j_end:stride]
    return cols.reshape(n, c * kernel * kernel, out_h * out_w), out_h, out_w


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kernel: int, stride: int, padding: int) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter columns back, accumulating overlaps."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    cols = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for ki in range(kernel):
        i_end = ki + stride * out_h
        for kj in range(kernel):
            j_end = kj + stride * out_w
            padded[:, :, ki:i_end:stride, kj:j_end:stride] += cols[:, :, ki, kj, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride: int = 1, padding: int = 0,
           groups: int = 1) -> Tensor:
    """2-D convolution using an im2col + einsum formulation."""
    n, c_in, h, w = x.shape
    c_out, c_in_per_group, kernel, _ = weight.shape
    assert c_in % groups == 0 and c_out % groups == 0, "channels must divide groups"
    assert c_in // groups == c_in_per_group, (
        f"weight expects {c_in_per_group} in-channels per group, input has {c_in // groups}"
    )

    cols, out_h, out_w = im2col(x.data, kernel, stride, padding)
    if groups == 1:
        w_mat = weight.data.reshape(c_out, -1)
        out_data = np.einsum("of,nfp->nop", w_mat, cols, optimize=True)
    else:
        group_in = c_in // groups
        group_out = c_out // groups
        cols_g = cols.reshape(n, groups, group_in * kernel * kernel, out_h * out_w)
        w_g = weight.data.reshape(groups, group_out, group_in * kernel * kernel)
        out_data = np.einsum("gof,ngfp->ngop", w_g, cols_g, optimize=True).reshape(n, c_out, out_h * out_w)
    out_data = out_data.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    prev = (x, weight) if bias is None else (x, weight, bias)
    requires = is_grad_enabled() and any(p.requires_grad for p in prev)
    out = Tensor(out_data, requires_grad=requires, _prev=prev if requires else (), _op="conv2d")

    def _backward(out_grad):
        grad = out_grad.reshape(n, c_out, out_h * out_w)
        if bias is not None and bias.requires_grad:
            accumulate(bias, grad.sum(axis=(0, 2)))
        if groups == 1:
            w_mat_local = weight.data.reshape(c_out, -1)
            if weight.requires_grad:
                grad_w = np.einsum("nop,nfp->of", grad, cols, optimize=True)
                accumulate(weight, grad_w.reshape(weight.shape))
            if x.requires_grad:
                grad_cols = np.einsum("of,nop->nfp", w_mat_local, grad, optimize=True)
                accumulate(x, col2im(grad_cols, x.shape, kernel, stride, padding))
        else:
            group_in = c_in // groups
            group_out = c_out // groups
            grad_g = grad.reshape(n, groups, group_out, out_h * out_w)
            cols_g = cols.reshape(n, groups, group_in * kernel * kernel, out_h * out_w)
            w_g = weight.data.reshape(groups, group_out, group_in * kernel * kernel)
            if weight.requires_grad:
                grad_w = np.einsum("ngop,ngfp->gof", grad_g, cols_g, optimize=True)
                accumulate(weight, grad_w.reshape(weight.shape))
            if x.requires_grad:
                grad_cols = np.einsum("gof,ngop->ngfp", w_g, grad_g, optimize=True)
                grad_cols = grad_cols.reshape(n, c_in * kernel * kernel, out_h * out_w)
                accumulate(x, col2im(grad_cols, x.shape, kernel, stride, padding))

    if requires:
        out._backward = _backward
    return out


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over im2col windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    cols, _, _ = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, 0)
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    argmax = cols.argmax(axis=2)
    out_data = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).reshape(n, c, out_h, out_w)

    requires = is_grad_enabled() and x.requires_grad
    out = Tensor(out_data, requires_grad=requires, _prev=(x,) if requires else (), _op="max_pool2d")

    def _backward(out_grad):
        if not x.requires_grad:
            return
        grad_cols = np.zeros((n, c, kernel * kernel, out_h * out_w), dtype=np.float32)
        np.put_along_axis(grad_cols, argmax[:, :, None, :], out_grad.reshape(n, c, 1, out_h * out_w), axis=2)
        grad_cols = grad_cols.reshape(n * c, kernel * kernel, out_h * out_w)
        grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, stride, 0)
        accumulate(x, grad_x.reshape(n, c, h, w))

    if requires:
        out._backward = _backward
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` for 2-D or 3-D inputs."""
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Layer normalisation over the last axis."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    x_hat = (x - mean) / (var + eps) ** 0.5
    return x_hat * weight + bias


def batch_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float, running_mean: Optional[np.ndarray] = None,
               running_var: Optional[np.ndarray] = None, training: bool = False, momentum: float = 0.1) -> Tensor:
    """Batch normalisation over the channel axis: batch statistics in training, else the running ones.

    In training the running buffers (when given) move towards ``np.mean`` /
    ``np.var`` of the batch first, as ``BatchNorm2d.forward`` updated them.
    """
    if training:
        if running_mean is not None:
            batch_mean = x.data.mean(axis=(0, 2, 3))
            batch_var = x.data.var(axis=(0, 2, 3))
            running_mean *= (1.0 - momentum)
            running_mean += momentum * batch_mean
            running_var *= (1.0 - momentum)
            running_var += momentum * batch_var
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
    else:
        mean = Tensor(running_mean.reshape(1, -1, 1, 1))
        var = Tensor(running_var.reshape(1, -1, 1, 1))
    x_hat = (x - mean) / (var + eps) ** 0.5
    num_features = weight.shape[0]
    weight = weight.reshape(1, num_features, 1, 1)
    bias = bias.reshape(1, num_features, 1, 1)
    return x_hat * weight + bias


def split_heads(x: Tensor, num_heads: int) -> Tensor:
    """``(batch, seq, d_model)`` -> ``(batch, heads, seq, head_dim)``: a reshape node, then a transpose node."""
    batch, seq, d_model = x.shape
    return x.reshape(batch, seq, num_heads, d_model // num_heads).transpose(0, 2, 1, 3)


def merge_heads(x: Tensor) -> Tensor:
    """Inverse of :func:`split_heads`."""
    batch, heads, seq, dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * dim)


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int, mask: Optional[np.ndarray] = None,
              dropout=None) -> Tensor:
    """Scaled dot-product attention over the projected ``q``, ``k``, ``v``; ``F.softmax`` is looked up per call."""
    q = split_heads(q, num_heads)
    k = split_heads(k, num_heads)
    v = split_heads(v, num_heads)

    scores = q.matmul(k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        scores = scores + Tensor(np.where(mask, 0.0, -1e9).astype(np.float32))
    attn = F.softmax(scores, axis=-1)
    if dropout is not None:
        attn = dropout(attn)
    context = attn.matmul(v)
    return merge_heads(context)
