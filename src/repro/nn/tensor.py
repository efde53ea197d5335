"""A small reverse-mode automatic differentiation engine backed by numpy.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` substrate.  It mirrors the subset of the PyTorch tensor/autograd
semantics that the Egeria reproduction relies on:

* reverse-mode autodiff over a dynamically built DAG,
* ``requires_grad`` flags on leaves so frozen parameters (and everything that
  depends only on frozen parameters) are excluded from the backward pass,
* broadcasting-aware gradients,
* a :func:`no_grad` context manager used by the reference model and by the
  activation cache.

All heavy math is delegated to numpy.  Three rules keep the bookkeeping around
it out of the way (``docs/performance.md``, "Training substrate"):

* **Acyclic graph.**  A backward closure receives its node's gradient as an
  argument and never captures its own output tensor (an op that needs the
  output *value* captures the array), so a graph is a DAG that reference
  counting frees the moment the loss is dropped; tensors that do not require
  grad carry no closure at all.
* **Adopt fresh gradients, copy pass-through ones.**  ``_accumulate(grad,
  fresh=True)`` takes ownership of a float32 temporary the op just computed;
  a gradient that is (a view of) another tensor's ``.grad`` is copied, so no
  two ``.grad`` arrays ever share memory.
* **Same bits, same layouts.**  Training is chaotic in a single ulp and numpy
  reduces in stride order, so every op reproduces the values *and memory
  layouts* of its reference formulation (``tests/oracles/nn_reference.py``).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "zeros"]

Number = Union[int, float]
ArrayLike = Union[Number, Sequence, np.ndarray, "Tensor"]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether gradient tracking is currently enabled."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking.

    Used for the reference-model forward pass, plasticity evaluation and
    cached-activation replay, none of which need gradients.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _as_array(data: ArrayLike, dtype=np.float32) -> np.ndarray:
    if isinstance(data, Tensor):
        return data.data
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after a broadcasted op."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A multi-dimensional array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array (scalar, list, ndarray, Tensor).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.  Only floating point tensors may require grad.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op")
    __array_priority__ = 200  # numpy should defer to Tensor's operators

    def __init__(self, data: ArrayLike, requires_grad: bool = False, _prev: Tuple["Tensor", ...] = (), _op: str = ""):
        if type(data) is not np.ndarray or data.dtype != np.float32:
            data = _as_array(data)
        self.data: np.ndarray = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        # ``_backward(grad)`` pushes this node's gradient to ``_prev``.  It must
        # not capture this tensor (module docstring, "Acyclic graph").
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev: Tuple[Tensor, ...] = _prev if self.requires_grad else ()
        self._op: str = _op

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        """Return a copy of this tensor participating in the graph."""
        out = _make(self.data.copy(), (self,), "clone")
        if out.requires_grad:
            out._backward = self._accumulate
        return out

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``fresh`` promises that ``grad`` is a temporary the caller just
        computed and nobody else references, so a first gradient is adopted
        instead of copied.  A pass-through gradient (another tensor's
        ``.grad``, or a view of it) must come with ``fresh=False``.
        """
        if self.grad is None:
            self.grad = grad if fresh and grad.dtype == np.float32 else grad.astype(np.float32)
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = _make(self.data + other.data, (self, other), "add")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(grad, other.shape))

            out._backward = _backward
        return out

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = _make(self.data * other.data, (self, other), "mul")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad * other.data, self.shape), fresh=True)
                if other.requires_grad:
                    other._accumulate(_unbroadcast(grad * self.data, other.shape), fresh=True)

            out._backward = _backward
        return out

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) + (-self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self * other ** -1.0

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) * self ** -1.0

    def __pow__(self, power: Number) -> "Tensor":
        assert isinstance(power, (int, float)), "only scalar powers are supported"
        out = _make(self.data ** power, (self,), f"pow{power}")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    self._accumulate(power * self.data ** (power - 1) * grad, fresh=True)

            out._backward = _backward
        return out

    __radd__ = __add__
    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product supporting batched operands (numpy @ semantics)."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = _make(self.data @ other.data, (self, other), "matmul")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    if other.data.ndim == 1:
                        self_grad = np.outer(grad, other.data) if self.data.ndim == 2 else grad[..., None] * other.data
                    else:
                        self_grad = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(self_grad, self.shape), fresh=True)
                if other.requires_grad:
                    if self.data.ndim == 1:
                        other_grad = np.outer(self.data, grad)
                    else:
                        other_grad = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(_unbroadcast(other_grad, other.shape), fresh=True)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    if axis is not None and not keepdims:
                        grad = np.expand_dims(grad, axis=axis)
                    self._accumulate(np.broadcast_to(grad, self.shape).astype(np.float32), fresh=True)

            out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = _make(out_data, (self,), "max")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    expanded = out_data
                    if axis is not None and not keepdims:
                        grad = np.expand_dims(grad, axis=axis)
                        expanded = np.expand_dims(out_data, axis=axis)
                    mask = (self.data == expanded).astype(np.float32)
                    mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
                    self._accumulate(mask * grad, fresh=True)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        out = _make(out_data, (self,), "exp")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    self._accumulate(out_data * grad, fresh=True)

            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = _make(np.log(self.data + 1e-12), (self,), "log")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    self._accumulate(grad / (self.data + 1e-12), fresh=True)

            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        out = _make(np.maximum(self.data, 0.0), (self,), "relu")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    self._accumulate((self.data > 0).astype(np.float32) * grad, fresh=True)

            out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        t = np.tanh(self.data)
        out = _make(t, (self,), "tanh")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    self._accumulate((1.0 - t * t) * grad, fresh=True)

            out._backward = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        out = _make(np.clip(self.data, low, high), (self,), "clip")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    mask = ((self.data >= low) & (self.data <= high)).astype(np.float32)
                    self._accumulate(mask * grad, fresh=True)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Shape manipulation (pass-through gradients: views of ``grad``, copied)
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _make(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    self._accumulate(grad.reshape(self.shape))

            out._backward = _backward
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 0:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = _make(self.data.transpose(axes), (self,), "transpose")
        if out.requires_grad:
            inverse = np.argsort(axes)

            def _backward(grad):
                if self.requires_grad:
                    self._accumulate(grad.transpose(inverse))

            out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = _make(self.data[index], (self,), "getitem")
        if out.requires_grad:
            def _backward(grad):
                if self.requires_grad:
                    scattered = np.zeros_like(self.data)
                    np.add.at(scattered, index, grad)
                    self._accumulate(scattered, fresh=True)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> int:
        """Run reverse-mode autodiff from this tensor; returns the number of graph nodes visited.

        Nodes whose subtree contains no ``requires_grad`` leaf are never
        visited, which is precisely how frozen layer modules drop out of the
        backward pass: once Egeria sets ``requires_grad=False`` on their
        parameters, their portion of the graph is pruned here.  The node
        count is the deterministic measure of that pruning.

        Nothing is torn down afterwards: calling ``backward()`` again on the
        same graph accumulates into the same ``.grad`` arrays, and the graph
        (a DAG, see the module docstring) is freed by reference counting when
        the last tensor pointing into it is dropped.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=np.float32)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
        return len(topo)

    def zero_grad(self) -> None:
        """Clear any accumulated gradient."""
        self.grad = None


def _make(data: np.ndarray, prev: Sequence[Tensor], op: str) -> Tensor:
    """A graph node over ``prev``: requires grad iff tracking is on and a parent does."""
    if _GRAD_ENABLED:
        for parent in prev:
            if parent.requires_grad:
                return Tensor(data, True, tuple(prev), op)
    return Tensor(data, False, (), op)


# ---------------------------------------------------------------------- #
# Free-standing graph op that combines multiple tensors
# ---------------------------------------------------------------------- #
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = _make(data, tensors, "concat")
    if out.requires_grad:
        def _backward(grad):
            start = 0
            for t in tensors:
                size = t.shape[axis]
                idx = [slice(None)] * data.ndim
                idx[axis] = slice(start, start + size)
                if t.requires_grad:
                    t._accumulate(grad[tuple(idx)])
                start += size

        out._backward = _backward
    return out


# ---------------------------------------------------------------------- #
# Constructors
# ---------------------------------------------------------------------- #
def zeros(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)
