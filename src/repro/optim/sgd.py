"""Stochastic gradient descent with momentum and weight decay.

SGD is the optimizer used by the paper for all CNN workloads (ResNet-50/56,
MobileNetV2, DeepLabv3).  The momentum buffers are one flat float32 array
over the optimizer's index space, with a has-velocity flag per parameter
*position* rather than per parameter identity, so freezing/unfreezing a
layer (which only flips ``requires_grad``) never loses optimizer state.  A
step updates runs of consecutive parameters (see
:mod:`repro.optim.optimizer`); a buffer that does not exist yet reads zero,
which is what a fresh buffer held.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from ..nn.module import Parameter
from .optimizer import Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    """SGD with (Nesterov) momentum and decoupled L2 weight decay.

    Parameters
    ----------
    params:
        Iterable of parameters to optimise.
    lr:
        Learning rate.
    momentum:
        Momentum coefficient; 0 disables the velocity buffer.
    weight_decay:
        L2 penalty added to the gradient.
    nesterov:
        Use Nesterov's accelerated gradient when momentum is enabled.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 0.1, momentum: float = 0.9,
                 weight_decay: float = 0.0, nesterov: bool = False):
        super().__init__(params, lr=lr)
        if momentum < 0.0:
            raise ValueError("momentum must be non-negative")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity = np.zeros(self._offsets[-1], dtype=np.float32)
        self._has_velocity: List[bool] = [False] * len(self.params)

    def _update_run(self, start: int, stop: int, data: np.ndarray, grad: np.ndarray, scratch: np.ndarray) -> None:
        if self.weight_decay:
            grad += np.multiply(data, self.weight_decay, out=scratch)
        direction = grad
        if self.momentum:
            buf = self._velocity[self._span(start, stop)]
            self._has_velocity[start:stop] = [True] * (stop - start)
            buf *= self.momentum
            buf += grad
            if self.nesterov:
                grad += np.multiply(buf, self.momentum, out=scratch)
            else:
                direction = buf
        np.subtract(data, np.multiply(direction, self.lr, out=scratch), out=grad)

    def _buffer_state(self) -> Dict[str, object]:
        velocity = {str(position): self._velocity[self._span(position)].reshape(self._shapes[position]).copy()
                    for position, has in enumerate(self._has_velocity) if has}
        return {"velocity": velocity}

    def _load_buffer_state(self, buffers: Dict[str, object]) -> None:
        entries = [self._saved_buffer("velocity", key, buf)
                   for key, buf in dict(buffers.get("velocity") or {}).items()]
        self._velocity = np.zeros_like(self._velocity)
        self._has_velocity = [False] * len(self.params)
        for position, buf in entries:
            self._velocity[self._span(position)] = buf
            self._has_velocity[position] = True

    def state_summary(self) -> Dict[str, float]:
        """Small diagnostic summary (used in tests and logging)."""
        velocities = [float(np.abs(self._velocity[self._span(position)]).mean())
                      for position, has in enumerate(self._has_velocity) if has]
        return {
            "lr": self.lr,
            "num_velocity_buffers": float(len(velocities)),
            "mean_velocity_magnitude": float(np.mean(velocities)) if velocities else 0.0,
        }
