"""Adam and AdamW optimizers.

Adam is used for the Transformer translation model (fairseq defaults) and
AdamW for BERT fine-tuning, matching §6.1 of the paper.  The moment
estimates are two flat float32 arrays over the optimizer's index space and
the step count ``t`` is kept per parameter *position*, not per parameter
identity, so freezing/unfreezing (which only flips ``requires_grad``)
preserves them and a frozen parameter's ``t`` stops advancing.  A step
updates runs of consecutive parameters that share ``t`` (see
:mod:`repro.optim.optimizer`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..nn.module import Parameter
from .optimizer import Optimizer

__all__ = ["Adam", "AdamW"]


class Adam(Optimizer):
    """Adam optimizer with bias-corrected first/second moment estimates."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3, betas: Tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr=lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = np.zeros(self._offsets[-1], dtype=np.float32)
        self._v = np.zeros(self._offsets[-1], dtype=np.float32)
        # Steps taken per position; 0 means no moments yet (they read zero).
        self._t: List[int] = [0] * len(self.params)

    def _run_keys(self) -> List[int]:
        return self._t

    def _update_run(self, start: int, stop: int, data: np.ndarray, grad: np.ndarray, scratch: np.ndarray) -> None:
        beta1, beta2 = self.betas
        t = self._t[start] + 1
        self._t[start:stop] = [t] * (stop - start)
        if self.weight_decay:
            grad += np.multiply(data, self.weight_decay, out=scratch)
        span = self._span(start, stop)
        m, v = self._m[span], self._v[span]
        m *= beta1
        m += np.multiply(grad, 1.0 - beta1, out=scratch)
        v *= beta2
        np.multiply(grad, 1.0 - beta2, out=scratch)
        v += np.multiply(scratch, grad, out=scratch)
        # scratch = sqrt(v_hat) + eps, then grad = m_hat.
        np.divide(v, 1.0 - beta2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        np.divide(m, 1.0 - beta1 ** t, out=grad)
        self._descend(data, grad, scratch)

    def _descend(self, data: np.ndarray, m_hat: np.ndarray, denominator: np.ndarray) -> None:
        """``data - lr * m_hat / denominator``, written into ``m_hat``."""
        m_hat *= self.lr
        m_hat /= denominator
        np.subtract(data, m_hat, out=m_hat)

    def _buffer_state(self) -> Dict[str, object]:
        moments: Dict[str, object] = {"m": {}, "v": {}, "t": {}}
        for position, t in enumerate(self._t):
            if t:
                span, shape = self._span(position), self._shapes[position]
                moments["m"][str(position)] = self._m[span].reshape(shape).copy()
                moments["v"][str(position)] = self._v[span].reshape(shape).copy()
                moments["t"][str(position)] = t
        return moments

    def _load_buffer_state(self, buffers: Dict[str, object]) -> None:
        saved_v, saved_t = dict(buffers.get("v") or {}), dict(buffers.get("t") or {})
        entries = []
        for key, m in dict(buffers.get("m") or {}).items():
            position, m = self._saved_buffer("m", key, m)
            if key not in saved_v or key not in saved_t:
                raise ValueError(f"optimizer state for position {position} has m but lacks v or t")
            _, v = self._saved_buffer("v", key, saved_v[key])
            t = int(saved_t[key])
            if t < 1:
                raise ValueError(f"optimizer state t[{position}] is {t}; moments exist only after a step")
            entries.append((position, m, v, t))
        self._m = np.zeros_like(self._m)
        self._v = np.zeros_like(self._v)
        self._t = [0] * len(self.params)
        for position, m, v, t in entries:
            span = self._span(position)
            self._m[span], self._v[span], self._t[position] = m, v, t


class AdamW(Adam):
    """Adam with decoupled weight decay (used to fine-tune BERT)."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3, betas: Tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        super().__init__(params, lr=lr, betas=betas, eps=eps, weight_decay=0.0)
        self.decoupled_weight_decay = weight_decay

    def _descend(self, data: np.ndarray, m_hat: np.ndarray, denominator: np.ndarray) -> None:
        """``data - lr * (m_hat / denominator + wd * data)``, written into ``m_hat``; clobbers ``denominator``."""
        m_hat /= denominator
        m_hat += np.multiply(data, self.decoupled_weight_decay, out=denominator)
        m_hat *= self.lr
        np.subtract(data, m_hat, out=m_hat)
