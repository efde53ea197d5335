"""Reference optimizers: one Python-level update per parameter tensor.

These are the per-tensor ``SGD``, ``Adam`` and ``AdamW`` that
``repro.optim`` replaced with one update per run of consecutive parameters.
Their ``step`` bodies and buffer hooks are kept verbatim; state lives in
dicts keyed by ``id(param)`` and is created on a parameter's first update.
``tests/test_optim_flat.py`` holds the production optimizers to them bit for
bit, and ``tests/test_nn_bit_identity.py`` trains every registry workload with
them patched in.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.nn.module import Parameter
from repro.optim.optimizer import Optimizer

__all__ = ["SGD", "Adam", "AdamW"]


class SGD(Optimizer):
    """SGD with (Nesterov) momentum and L2 weight decay, one tensor at a time."""

    def __init__(self, params: Iterable[Parameter], lr: float = 0.1, momentum: float = 0.9,
                 weight_decay: float = 0.0, nesterov: bool = False):
        super().__init__(params, lr=lr)
        if momentum < 0.0:
            raise ValueError("momentum must be non-negative")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for param in self.params:
            if not param.requires_grad or param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                buf = self._velocity.get(id(param))
                if buf is None:
                    buf = np.zeros_like(param.data)
                    self._velocity[id(param)] = buf
                buf *= self.momentum
                buf += grad
                grad = grad + self.momentum * buf if self.nesterov else buf
            param.data = param.data - self.lr * grad
        self._step_count += 1

    def _buffer_state(self) -> Dict[str, object]:
        velocity = {}
        for position, param in enumerate(self.params):
            buf = self._velocity.get(id(param))
            if buf is not None:
                velocity[str(position)] = buf.copy()
        return {"velocity": velocity}

    def _load_buffer_state(self, buffers: Dict[str, object]) -> None:
        self._velocity = {}
        for position, buf in dict(buffers.get("velocity") or {}).items():
            param = self.params[int(position)]
            self._velocity[id(param)] = np.array(buf, dtype=param.data.dtype, copy=True)

    def state_summary(self) -> Dict[str, float]:
        velocities: List[float] = [float(np.abs(v).mean()) for v in self._velocity.values()]
        return {
            "lr": self.lr,
            "num_velocity_buffers": float(len(self._velocity)),
            "mean_velocity_magnitude": float(np.mean(velocities)) if velocities else 0.0,
        }


class Adam(Optimizer):
    """Adam with bias-corrected moments, one tensor at a time."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3, betas: Tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr=lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t: Dict[int, int] = {}

    def _update_moments(self, param: Parameter, grad: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
        beta1, beta2 = self.betas
        key = id(param)
        m = self._m.get(key)
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
            self._m[key], self._v[key], self._t[key] = m, v, 0
        v = self._v[key]
        self._t[key] += 1
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        return m, v, self._t[key]

    def _buffer_state(self) -> Dict[str, object]:
        moments: Dict[str, object] = {"m": {}, "v": {}, "t": {}}
        for position, param in enumerate(self.params):
            key = id(param)
            if key in self._m:
                moments["m"][str(position)] = self._m[key].copy()
                moments["v"][str(position)] = self._v[key].copy()
                moments["t"][str(position)] = int(self._t[key])
        return moments

    def _load_buffer_state(self, buffers: Dict[str, object]) -> None:
        self._m, self._v, self._t = {}, {}, {}
        for position, m in dict(buffers.get("m") or {}).items():
            param = self.params[int(position)]
            key = id(param)
            self._m[key] = np.array(m, dtype=param.data.dtype, copy=True)
            self._v[key] = np.array(buffers["v"][position], dtype=param.data.dtype, copy=True)
            self._t[key] = int(buffers["t"][position])

    def step(self) -> None:
        beta1, beta2 = self.betas
        for param in self.params:
            if not param.requires_grad or param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m, v, t = self._update_moments(param, grad)
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        self._step_count += 1


class AdamW(Adam):
    """Adam with decoupled weight decay, one tensor at a time."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3, betas: Tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        super().__init__(params, lr=lr, betas=betas, eps=eps, weight_decay=0.0)
        self.decoupled_weight_decay = weight_decay

    def step(self) -> None:
        beta1, beta2 = self.betas
        for param in self.params:
            if not param.requires_grad or param.grad is None:
                continue
            grad = param.grad
            m, v, t = self._update_moments(param, grad)
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            update = m_hat / (np.sqrt(v_hat) + self.eps) + self.decoupled_weight_decay * param.data
            param.data = param.data - self.lr * update
        self._step_count += 1
