"""Base optimizer: the parameter list, its flat index space and the run-wise step.

A step updates *runs*, not tensors.  Every parameter owns a fixed slice
``[offsets[i], offsets[i + 1])`` of one flat index space, so per-parameter
state (Adam's moments, SGD's velocity) is a few flat float32 arrays indexed
by position.  A run is a maximal stretch of consecutive positions that this
step updates (``requires_grad`` and a gradient) and that agree on
:meth:`Optimizer._run_keys` (Adam's step count ``t``).  For each run the step
gathers the gradients into one array, applies the subclass's float32
expressions once over the whole run, and points every parameter of the run
at a C-contiguous view of one fresh result array.  The cost is O(runs) numpy
calls where a per-tensor loop paid O(tensors).

Contract, held by ``tests/test_optim_flat.py`` against the per-tensor
optimizers in ``tests/oracles/optim_reference.py``:

* **same bits** — each subclass evaluates the per-tensor expressions in the
  same order with the same Python-float scalars (weak under NEP 50, so each
  rounds to float32 as before); an ``out=`` form only where it is the same
  IEEE operation;
* **out of place** — a step never writes into a parameter array it handed
  out earlier; only the moment/velocity state is updated in place;
* **release** — a parameter the step stops updating (frozen, or no gradient)
  gets an array of its own again, so a frozen prefix never pins a run array;
* **adoption** — a parameter whose ``.data`` was replaced since the last step
  (``Module.load_state_dict`` adopts the arrays it is given) is gathered from
  its new array.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.module import Parameter

__all__ = ["Optimizer"]


class Optimizer:
    """Base class: holds the parameter list, learning rate and step counter.

    The learning rate is a plain attribute mutated by the LR schedulers in
    :mod:`repro.optim.lr_scheduler`; Egeria's unfreezing rule watches it
    through :attr:`lr`.  Subclasses implement :meth:`_update_run`.
    """

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        first_position: Dict[int, int] = {}
        repeats = [f"{position} (same as {first_position[id(param)]})"
                   for position, param in enumerate(self.params)
                   if first_position.setdefault(id(param), position) != position]
        if repeats:
            raise ValueError(f"optimizer received a parameter more than once: position {', '.join(repeats)}")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)
        self._step_count = 0
        self._shapes: List[Tuple[int, ...]] = [param.shape for param in self.params]
        self._offsets: List[int] = list(accumulate((param.size for param in self.params), initial=0))
        # The view each position was handed by the last step that updated it,
        # and ``(run array, offset of its first element)`` it is a view of.
        self._views: List[Optional[np.ndarray]] = [None] * len(self.params)
        self._homes: List[Optional[Tuple[np.ndarray, int]]] = [None] * len(self.params)

    @property
    def step_count(self) -> int:
        """Number of optimisation steps applied so far."""
        return self._step_count

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.params:
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # The run-wise step
    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """Apply one update to every parameter that has a gradient.

        Frozen parameters (``requires_grad == False``) never receive
        gradients, so they are skipped automatically — exactly the paper's
        "exclude the subgraph from gradient computation" behaviour.
        """
        for start, stop in self._runs():
            grad = np.concatenate([param.grad for param in self.params[start:stop]], axis=None, dtype=np.float32)
            scratch = np.empty_like(grad)
            self._update_run(start, stop, self._run_data(start, stop), grad, scratch)
            self._hand_out(start, stop, grad)
        self._step_count += 1

    def _run_keys(self) -> Optional[Sequence[int]]:
        """Per-position value a run must share (Adam's ``t``); ``None``: no constraint."""
        return None

    def _update_run(self, start: int, stop: int, data: np.ndarray, grad: np.ndarray, scratch: np.ndarray) -> None:
        """Subclass hook: update positions ``[start, stop)``.

        ``data`` is the run's current values (read only), ``grad`` its
        gathered gradient and ``scratch`` an uninitialised array of the same
        size, all flat float32.  On return ``grad`` holds the new values.
        """
        raise NotImplementedError

    def _runs(self) -> List[Tuple[int, int]]:
        """The ``[start, stop)`` runs this step updates; releases every parameter it does not."""
        keys = self._run_keys()
        runs: List[Tuple[int, int]] = []
        start: Optional[int] = None
        for position, param in enumerate(self.params):
            active = param.requires_grad and param.grad is not None
            if start is not None and (not active or (keys is not None and keys[position] != keys[start])):
                runs.append((start, position))
                start = None
            if active:
                if start is None:
                    start = position
            elif self._views[position] is not None:
                if param.data is self._views[position]:
                    param.data = param.data.copy()
                self._views[position] = self._homes[position] = None
        if start is not None:
            runs.append((start, len(self.params)))
        return runs

    def _run_data(self, start: int, stop: int) -> np.ndarray:
        """The current values of positions ``[start, stop)`` as one flat array.

        A slice of the previous step's run array when every parameter still
        holds the view that step handed it, else a gathered copy.
        """
        home = self._homes[start]
        if home is not None and all(self._homes[position] is home and param.data is self._views[position]
                                    for position, param in enumerate(self.params[start:stop], start)):
            array, origin = home
            return array[self._offsets[start] - origin:self._offsets[stop] - origin]
        return np.concatenate([param.data for param in self.params[start:stop]], axis=None, dtype=np.float32)

    def _hand_out(self, start: int, stop: int, values: np.ndarray) -> None:
        """Point each parameter of a run at its C-contiguous view of ``values``."""
        origin = self._offsets[start]
        home = (values, origin)
        for position in range(start, stop):
            view = values[self._offsets[position] - origin:self._offsets[position + 1] - origin]
            view = view.reshape(self._shapes[position])
            self.params[position].data = self._views[position] = view
            self._homes[position] = home

    def _span(self, start: int, stop: Optional[int] = None) -> slice:
        """The slice of the flat index space that positions ``[start, stop)`` own (``stop``: one position)."""
        return slice(self._offsets[start], self._offsets[start + 1 if stop is None else stop])

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, object]:
        """Serializable snapshot: LR, step counter and per-parameter buffers.

        Buffers are keyed by the parameter's *position* in ``self.params``
        (identity keys like ``id(param)`` do not survive a process restart),
        one array of the parameter's shape per position that has state;
        restoring into an optimizer built over the same parameter list in the
        same order reproduces the exact update sequence.
        """
        return {
            "lr": float(self.lr),
            "step_count": int(self._step_count),
            "buffers": self._buffer_state(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict`; a buffer that does not fit raises and changes nothing."""
        lr, step_count = float(state["lr"]), int(state["step_count"])
        self._load_buffer_state(dict(state.get("buffers") or {}))
        self.lr, self._step_count = lr, step_count

    def _buffer_state(self) -> Dict[str, object]:
        """Subclass hook: per-parameter buffers keyed by parameter position."""
        return {}

    def _load_buffer_state(self, buffers: Dict[str, object]) -> None:
        """Subclass hook: inverse of :meth:`_buffer_state`; validates every entry before changing state."""

    def _saved_buffer(self, name: str, key: object, value: object) -> Tuple[int, np.ndarray]:
        """The position and flat float32 values of one saved buffer ``name[key]``.

        Raises ``ValueError`` naming the position (and both shapes) when the
        key is no position of this optimizer or the array does not have its
        parameter's shape — a snapshot of another parameter list.
        """
        try:
            position = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"optimizer state {name}[{key!r}] is not keyed by a parameter position") from None
        if not 0 <= position < len(self.params):
            raise ValueError(f"optimizer state {name}[{key!r}] names position {position}, "
                             f"but the optimizer holds {len(self.params)} parameters")
        array = np.asarray(value, dtype=np.float32)
        if array.shape != self._shapes[position]:
            raise ValueError(f"optimizer state {name}[{position}] has shape {array.shape}, "
                             f"but parameter {position} has shape {self._shapes[position]}")
        return position, array.reshape(-1)
