"""Functional neural-network operations built on the autograd :class:`Tensor`.

These are the numerical workhorses used by the layer classes in
:mod:`repro.nn.layers`: linear layers, convolution as GEMMs over a patch
matrix, pooling via im2col, softmax, layer and batch normalisation, embedding
lookup, and nearest-neighbour upsampling (needed by the DeepLabv3-lite head).

Each function returns a :class:`~repro.nn.tensor.Tensor` wired into the
autograd graph, with a hand-written backward closure where the op cannot be
expressed as a composition of primitive tensor ops.  ``linear``, ``softmax``,
``layer_norm``, ``batch_norm`` and ``attention`` could be; each is one graph
node that replays the numpy calls of its composite
(``tests/oracles/nn_reference.py``), because per-node bookkeeping, not
arithmetic, dominates their cost.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor, _make, _unbroadcast

__all__ = [
    "linear",
    "conv2d",
    "max_pool2d",
    "adaptive_avg_pool2d",
    "softmax",
    "log_softmax",
    "attention",
    "layer_norm",
    "batch_norm",
    "embedding",
    "upsample_nearest",
    "dropout",
    "one_hot",
    "im2col",
    "col2im",
    "conv_output_size",
]

#: ``Tensor(-1.0)``, the factor ``x - y`` applies to ``y`` as ``x + y * -1.0``.
_NEG_ONE = np.float32(-1.0)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    cols:
        Array of shape ``(N, C * kernel * kernel, out_h * out_w)``.
    out_h, out_w:
        Spatial output dimensions.
    """
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


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` for 2-D or 3-D inputs, as one graph node.

    Replays the composite ``x.matmul(weight.transpose()) + bias`` (rule 4 in
    ``docs/performance.md``, "Training substrate"): the add node's copy of
    the gradient is the matmul's operand, and ``weight.grad`` is the
    transpose node's pass-through copy, first axis fastest.
    """
    weight_t = weight.data.T
    product = x.data @ weight_t
    out = _make(product if bias is None else product + bias.data,
                (x, weight) if bias is None else (x, weight, bias), "linear")
    if not out.requires_grad:
        return out

    def _backward(grad):
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.shape))
        if not (x.requires_grad or weight.requires_grad):
            return
        if bias is not None:
            grad = grad.astype(np.float32)
        if x.requires_grad:
            x._accumulate(_unbroadcast(grad @ weight_t.T, x.shape), fresh=True)
        if weight.requires_grad:
            weight_t_grad = _unbroadcast(np.swapaxes(x.data, -1, -2) @ grad, weight_t.shape)
            weight._accumulate(weight_t_grad.T)

    out._backward = _backward
    return out


def _windows(xp: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int) -> np.ndarray:
    """Read-only ``(c, kernel, kernel, n, out_h, out_w)`` view of the convolution windows of ``xp``."""
    n, c = xp.shape[:2]
    s_n, s_c, s_h, s_w = xp.strides
    return as_strided(xp, (c, kernel, kernel, n, out_h, out_w),
                      (s_c, s_h, s_w, s_n, s_h * stride, s_w * stride), writeable=False)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride: int = 1, padding: int = 0,
           groups: int = 1) -> Tensor:
    """2-D convolution as one GEMM per pass over a patch-major matrix.

    With ``p`` the ``n * out_h * out_w`` output positions and ``f`` the
    ``c_in * kernel * kernel`` features of a patch: forward is
    ``cols[p, f] @ w_mat[c_out, f].T``, returned as a channels-last *view* of
    shape ``(n, c_out, out_h, out_w)``; ``grad_w = cols_t[f, p] @ grad[p,
    c_out]``, transposed; ``grad_cols = grad[p, c_out] @ w_mat``, scattered
    back in ``(ki, kj)`` order into a channels-last buffer that is converted
    to NCHW once (the same adds per element as an NCHW scatter, over rows
    ``c_in`` floats long instead of ``out_w``).  Operand contiguity and
    output layouts are those of the reference formulation
    (``tests/oracles/nn_reference.py``) and part of the contract
    (``docs/performance.md``, "Training substrate"): they fix the bits BLAS
    returns and the order downstream reductions run in.

    Grouped convolution (``groups > 1``, MobileNetV2's depthwise layers) has
    its own formulation, see :func:`_grouped_conv2d`.
    """
    if groups != 1:
        return _grouped_conv2d(x, weight, bias, stride, padding, groups)
    n, c_in, h, w = x.shape
    c_out, c_in_weight, kernel, _ = weight.shape
    assert c_in == c_in_weight, f"weight expects {c_in_weight} in-channels, input has {c_in}"
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    positions = n * out_h * out_w
    features = c_in * kernel * kernel

    xp = x.data
    padded_shape = (n, c_in, h + 2 * padding, w + 2 * padding)
    if padding > 0:
        xp = np.zeros(padded_shape, dtype=np.float32)
        xp[:, :, padding:-padding, padding:-padding] = x.data
    # Gathered feature-major (long contiguous runs), then transposed: both
    # matrices are C-contiguous, as the GEMMs need them.
    cols_t = np.ascontiguousarray(_windows(xp, kernel, stride, out_h, out_w).reshape(features, positions))
    cols = np.ascontiguousarray(cols_t.T)
    out_data = (cols @ weight.data.reshape(c_out, -1).T).reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    out = _make(out_data, (x, weight) if bias is None else (x, weight, bias), "conv2d")
    if not out.requires_grad:
        return out

    def _backward(grad):
        grad = grad.reshape(n, c_out, out_h * out_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)), fresh=True)
        grad_mat = grad.transpose(0, 2, 1).reshape(positions, c_out)
        if weight.requires_grad:
            weight._accumulate((cols_t @ grad_mat).T.reshape(weight.shape), fresh=True)
        if x.requires_grad:
            grad_cols = (grad_mat @ weight.data.reshape(c_out, -1)).reshape(n, out_h, out_w, c_in, kernel, kernel)
            # Scattered channels-last, so each add runs over long rows: every
            # element receives the same adds in the same order, from +0.0.
            src = grad_cols.transpose(4, 5, 0, 1, 2, 3)
            buf = np.zeros((n, h + 2 * padding, w + 2 * padding, c_in), dtype=np.float32)
            for ki in range(kernel):
                i_end = ki + stride * out_h
                for kj in range(kernel):
                    j_end = kj + stride * out_w
                    buf[:, ki:i_end:stride, kj:j_end:stride] += src[ki, kj]
            grad_x = np.ascontiguousarray(buf[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2))
            x._accumulate(grad_x, fresh=True)

    out._backward = _backward
    return out


def _grouped_conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor], stride: int, padding: int,
                    groups: int) -> Tensor:
    """Grouped convolution: im2col + one batched einsum contraction per pass.

    Not lowered to explicit GEMMs like :func:`conv2d`: on the 1x1 feature maps
    of the tiny MobileNetV2 einsum drops the size-1 indices and hands BLAS
    strided views whose results the plain recipe does not reproduce bit for
    bit (``tests/test_nn_bit_identity.py``).
    """
    n, c_in, h, w = x.shape
    c_out, c_in_per_group, kernel, _ = weight.shape
    assert c_in % groups == 0 and c_out % groups == 0, "channels must divide groups"
    assert c_in // groups == c_in_per_group, (
        f"weight expects {c_in_per_group} in-channels per group, input has {c_in // groups}"
    )
    group_out = c_out // groups
    features = c_in_per_group * kernel * kernel

    cols, out_h, out_w = im2col(x.data, kernel, stride, padding)
    cols_g = cols.reshape(n, groups, features, out_h * out_w)
    w_g = weight.data.reshape(groups, group_out, features)
    out_data = np.einsum("gof,ngfp->ngop", w_g, cols_g, optimize=True).reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    out = _make(out_data, (x, weight) if bias is None else (x, weight, bias), "conv2d")
    if not out.requires_grad:
        return out

    def _backward(grad):
        grad = grad.reshape(n, c_out, out_h * out_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)), fresh=True)
        grad_g = grad.reshape(n, groups, group_out, out_h * out_w)
        w_g = weight.data.reshape(groups, group_out, features)
        if weight.requires_grad:
            grad_w = np.einsum("ngop,ngfp->gof", grad_g, cols_g, optimize=True)
            weight._accumulate(grad_w.reshape(weight.shape))
        if x.requires_grad:
            grad_cols = np.einsum("gof,ngop->ngfp", w_g, grad_g, optimize=True)
            grad_cols = grad_cols.reshape(n, c_in * kernel * kernel, out_h * out_w)
            x._accumulate(col2im(grad_cols, x.shape, kernel, stride, padding))

    out._backward = _backward
    return out


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping or strided windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    cols, _, _ = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, 0)
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    argmax = cols.argmax(axis=2)
    out_data = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).reshape(n, c, out_h, out_w)

    out = _make(out_data, (x,), "max_pool2d")
    if out.requires_grad:
        def _backward(grad):
            if not x.requires_grad:
                return
            grad_cols = np.zeros((n, c, kernel * kernel, out_h * out_w), dtype=np.float32)
            np.put_along_axis(grad_cols, argmax[:, :, None, :], grad.reshape(n, c, 1, out_h * out_w), axis=2)
            grad_cols = grad_cols.reshape(n * c, kernel * kernel, out_h * out_w)
            grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, stride, 0)
            x._accumulate(grad_x.reshape(n, c, h, w), fresh=True)

        out._backward = _backward
    return out


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Global average pooling: the only ``output_size`` a model uses is 1."""
    if output_size != 1:
        raise ValueError(f"adaptive_avg_pool2d supports output_size=1 only, got {output_size}")
    return x.mean(axis=(2, 3), keepdims=True)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``, as one graph node.

    Replays the composite ``exp(x - max) / sum(exp(x - max))`` (rule 4 in
    ``docs/performance.md``): the division is ``exp * total ** -1.0`` and the
    sum's broadcast is added into the exponential's gradient.
    """
    exp, total, inv_total = _softmax_parts(x.data, axis)
    out = _make(exp * inv_total, (x,), "softmax")
    if not out.requires_grad:
        return out

    def _backward(grad):
        x._accumulate(_softmax_input_grad(grad, exp, total, inv_total))

    out._backward = _backward
    return out


def _softmax_parts(data: np.ndarray, axis: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``exp(data - max)``, its sum over ``axis`` and the sum's ``** -1.0``; the softmax is ``exp * inv_total``."""
    exp = np.exp(data + data.max(axis=axis, keepdims=True) * _NEG_ONE)
    total = exp.sum(axis=axis, keepdims=True)
    return exp, total, total ** -1.0


def _softmax_input_grad(grad: np.ndarray, exp: np.ndarray, total: np.ndarray, inv_total: np.ndarray) -> np.ndarray:
    """The softmax input's gradient for the output gradient ``grad``, from :func:`_softmax_parts`."""
    exp_grad = grad * inv_total
    inv_total_grad = _unbroadcast(grad * exp, inv_total.shape)
    exp_grad += -1.0 * total ** -2.0 * inv_total_grad
    return exp * exp_grad


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int, mask: Optional[np.ndarray] = None,
              dropout=None) -> Tensor:
    """Scaled dot-product attention over ``num_heads`` heads, as one graph node.

    ``q`` is ``(batch, s_q, d_model)`` and ``k``, ``v`` are ``(batch, s_k,
    d_model)``, already projected; the result is the heads' context merged
    back to ``(batch, s_q, d_model)``.  ``mask`` (broadcast to ``(batch,
    heads, s_q, s_k)``) is true where a query may attend; ``dropout`` is the
    ``nn.Dropout`` applied to the attention weights, whose mask is drawn from
    its generator when it is training with ``p > 0``.

    Replays ``MultiHeadAttention``'s composite (rule 7 in
    ``docs/performance.md``): the heads are ``reshape`` + ``transpose`` views,
    the products the same batched ``@`` on the same strided operands, the
    softmax :func:`softmax`'s expressions.  Backward runs the composite's
    closures in its reverse-topological order, pass-through ``astype`` copies
    included, and hands ``q``, ``k``, ``v`` their gradients in that order,
    so a tensor passed twice, or an input all three are projected from,
    sums them as the composite did.
    """
    batch, s_q, d_model = q.shape
    s_k = k.shape[1]
    dim = d_model // num_heads
    qt = q.data.reshape((batch, s_q, num_heads, dim)).transpose((0, 2, 1, 3))
    kt = k.data.reshape((batch, s_k, num_heads, dim)).transpose((0, 2, 1, 3))
    vt = v.data.reshape((batch, s_k, num_heads, dim)).transpose((0, 2, 1, 3))
    kt_t = kt.transpose((0, 1, 3, 2))
    scale = np.asarray(1.0 / math.sqrt(dim), dtype=np.float32)  # the composite's Tensor(1 / sqrt(d))
    scores = (qt @ kt_t) * scale
    if mask is not None:
        scores = scores + np.where(mask, 0.0, -1e9).astype(np.float32)
    exp, total, inv_total = _softmax_parts(scores, -1)
    weights = exp * inv_total
    keep = None
    if dropout is not None and dropout.training and dropout.p > 0.0:
        keep = _dropout_mask(weights.shape, dropout.p, dropout._rng)
        weights = weights * keep
    context = weights @ vt
    out = _make(context.transpose((0, 2, 1, 3)).reshape((batch, s_q, num_heads * dim)), (q, k, v), "attention")
    if not out.requires_grad:
        return out

    def _backward(grad):
        # The merge's reshape and transpose nodes: pass-through copies, order K.
        grad = grad.reshape((batch, s_q, num_heads, dim)).astype(np.float32)
        grad = grad.transpose((0, 2, 1, 3)).astype(np.float32)
        if v.requires_grad:
            v_grad = np.swapaxes(weights, -1, -2) @ grad
        if q.requires_grad or k.requires_grad:
            weights_grad = grad @ np.swapaxes(vt, -1, -2)
            if keep is not None:
                weights_grad = weights_grad * keep
            # Softmax's copy into its input's gradient, then the mask add's copy.
            scores_grad = _softmax_input_grad(weights_grad, exp, total, inv_total).astype(np.float32)
            if mask is not None:
                scores_grad = scores_grad.astype(np.float32)
            scores_grad = scores_grad * scale
            if q.requires_grad:
                q_grad = scores_grad @ np.swapaxes(kt_t, -1, -2)
                q._accumulate(q_grad.transpose((0, 2, 1, 3)).astype(np.float32).reshape(q.shape))
            if k.requires_grad:
                k_grad = (np.swapaxes(qt, -1, -2) @ scores_grad).transpose((0, 1, 3, 2)).astype(np.float32)
                k._accumulate(k_grad.transpose((0, 2, 1, 3)).astype(np.float32).reshape(k.shape))
        if v.requires_grad:
            v._accumulate(v_grad.transpose((0, 2, 1, 3)).astype(np.float32).reshape(v.shape))

    out._backward = _backward
    return out


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Layer normalisation over the last axis, scaled by ``weight`` and shifted by ``bias``."""
    return _normalize(x, weight, bias, eps, -1, weight.shape, None, "layer_norm")


def batch_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float, running_mean: Optional[np.ndarray] = None,
               running_var: Optional[np.ndarray] = None, training: bool = False, momentum: float = 0.1) -> Tensor:
    """Batch normalisation over the channel axis of ``(N, C, H, W)``, as ``torch.nn.functional.batch_norm``.

    ``training`` normalises with the batch's statistics and, when the
    running buffers are given, moves them in place towards the batch's
    ``np.mean`` / ``np.var`` by ``momentum``; otherwise the running
    statistics normalise (inference mode).
    """
    shape = (1, weight.shape[0], 1, 1)
    if training:
        update = None if running_mean is None else (running_mean, running_var, momentum)
        return _normalize(x, weight, bias, eps, (0, 2, 3), shape, None, "batch_norm", update)
    if running_mean is None or running_var is None:
        raise ValueError("batch_norm in inference mode needs running_mean and running_var")
    return _normalize(x, weight, bias, eps, (0, 2, 3), shape, (running_mean, running_var), "batch_norm")


def _update_running(data: np.ndarray, total: np.ndarray, axis, running_mean: np.ndarray, running_var: np.ndarray,
                    momentum: float) -> None:
    """Move the running statistics towards the batch's ``np.mean`` / ``np.var`` over ``axis``.

    ``total`` is ``data``'s sum over ``axis`` (kept dims), the sum that both
    numpy reductions begin with: the mean divides it by the ``np.intp`` count
    into float32, the variance sums the in-place squares of ``data - mean``
    and divides that the same way.
    """
    count = np.intp(data.size // total.size)
    mean = np.true_divide(total, count, out=np.empty_like(total), casting="unsafe")
    deviation = np.subtract(data, mean)
    np.square(deviation, out=deviation)
    var = deviation.sum(axis=axis)
    np.true_divide(var, count, out=var, casting="unsafe")
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean.reshape(running_mean.shape)
    running_var *= 1.0 - momentum
    running_var += momentum * var


def _normalize(x: Tensor, weight: Tensor, bias: Tensor, eps: float, axis, shape: Tuple[int, ...],
               running: Optional[Tuple[np.ndarray, np.ndarray]], op: str,
               update: Optional[Tuple[np.ndarray, np.ndarray, float]] = None) -> Tensor:
    """``(x - mean) / (var + eps) ** 0.5 * weight + bias`` as one graph node.

    ``weight`` and ``bias`` are viewed as ``shape``; ``mean`` and ``var`` are
    ``x``'s over ``axis`` (``Tensor.mean`` / ``Tensor.var``) unless the
    ``running`` statistics are given.  ``update`` is ``(running_mean,
    running_var, momentum)`` for :func:`_update_running`, which reuses the
    batch sum.  Forward and backward replay the composite (rule 4 in
    ``docs/performance.md``): the same numpy calls in the composite's
    reverse-topological order, its pass-through copies included; a per-channel
    term is added in place as a broadcast, never materialised (rule 8).  With
    batch statistics ``x`` receives four gradients, in this order: from ``x -
    mean``, from ``mean``'s sum, from ``var``'s ``x - mu``, from ``mu``'s sum
    (``mu`` is the mean ``var`` recomputes, equal to ``mean``).
    """
    data = x.data
    if running is None:
        total = data.sum(axis=axis, keepdims=True)
        if update is not None:
            _update_running(data, total, axis, *update)
        scale = np.float32(1.0 / (data.size // total.size))
        centered = data + total * scale * _NEG_ONE
        var = (centered * centered).sum(axis=axis, keepdims=True) * scale
    else:
        centered = data + running[0].reshape(shape) * _NEG_ONE
        var = running[1].reshape(shape)
    shifted = var + np.float32(eps)
    std = shifted ** 0.5
    inv_std = std ** -1.0
    x_hat = centered * inv_std
    weight_data = weight.data.reshape(shape)
    out = _make(x_hat * weight_data + bias.data.reshape(shape), (x, weight, bias), op)
    if not out.requires_grad:
        return out

    def _backward(grad):
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, shape).reshape(bias.shape))
        if not (x.requires_grad or weight.requires_grad):
            return
        grad = grad.astype(np.float32, copy=False)
        if weight.requires_grad:
            weight._accumulate(_unbroadcast(grad * x_hat, shape).reshape(weight.shape), fresh=True)
        if not x.requires_grad:
            return
        hat_grad = grad * weight_data
        centered_grad = hat_grad * inv_std
        if running is not None:
            x._accumulate(centered_grad, fresh=True)
            return
        mean_grad = _unbroadcast(centered_grad, var.shape).astype(np.float32) * _NEG_ONE
        x._accumulate(centered_grad, fresh=True)
        # x.grad exists from here on: each further gradient is added in place.
        x.grad += mean_grad * scale
        inv_std_grad = _unbroadcast(hat_grad * centered, inv_std.shape)
        std_grad = -1.0 * std ** -2.0 * inv_std_grad
        var_grad = (0.5 * shifted ** -0.5 * std_grad).astype(np.float32)
        # Materialised on purpose: a broadcast view changes the product's
        # layout, and with it the order the ``mu`` sum below adds in.
        square_grad = np.broadcast_to(var_grad * scale, data.shape).astype(np.float32)
        centered_grad = square_grad * centered
        centered_grad += centered_grad
        x.grad += centered_grad
        mu_grad = _unbroadcast(centered_grad, var.shape).astype(np.float32) * _NEG_ONE
        x.grad += mu_grad * scale

    out._backward = _backward
    return out


def embedding(indices: np.ndarray, weight: Tensor) -> Tensor:
    """Look up rows of ``weight`` for integer ``indices`` (any shape)."""
    idx = np.asarray(indices, dtype=np.int64)
    out_data = weight.data[idx]
    out = _make(out_data, (weight,), "embedding")
    if out.requires_grad:
        def _backward(grad):
            if not weight.requires_grad:
                return
            scattered = np.zeros_like(weight.data)
            np.add.at(scattered, idx.reshape(-1), grad.reshape(-1, weight.shape[1]))
            weight._accumulate(scattered, fresh=True)

        out._backward = _backward
    return out


def upsample_nearest(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour spatial upsampling by an integer factor."""
    n, c, h, w = x.shape
    out_data = x.data.repeat(scale, axis=2).repeat(scale, axis=3)
    out = _make(out_data, (x,), "upsample")
    if out.requires_grad:
        def _backward(grad):
            if x.requires_grad:
                x._accumulate(grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5)), fresh=True)

        out._backward = _backward
    return out


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout.  A seeded ``rng`` makes the mask stateless/replayable,
    which the activation cache relies on for deterministic augmentation.

    ``p == 1`` drops everything: the mask is all zeros (it draws as any other
    ``p`` does, so the generator's stream does not depend on ``p``).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dropout probability must be in [0, 1], got {p}")
    if not training or p == 0.0:
        return x
    return x * Tensor(_dropout_mask(x.shape, p, rng if rng is not None else np.random.default_rng()))


def _dropout_mask(shape: Tuple[int, ...], p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted dropout's multiplier: ``0`` where dropped, ``1 / (1 - p)`` where kept."""
    keep = (rng.random(shape) >= p).astype(np.float32)
    return keep / (1.0 - p) if p < 1.0 else keep


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer array into ``(..., num_classes)``."""
    idx = np.asarray(indices, dtype=np.int64)
    out = np.zeros(idx.shape + (num_classes,), dtype=np.float32)
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return out
