"""Forward-hook utilities for capturing intermediate activations.

Egeria's worker "uses hooks to obtain the intermediate activation tensors"
(§4.1.1) from both the training model and the reference model — the same hook
set is added to both so their activations can be compared layer by layer
(§5).  :class:`ActivationRecorder` wraps that pattern: attach it to a set of
module paths, run a forward pass, read the captured activations, detach when
done.

Activations are captured *by reference*: no op of :mod:`repro.nn` mutates a
tensor's ``.data`` in place, so the recorded array stays valid, and whoever
keeps it beyond the iteration (the evaluation queue, the activation cache)
makes the copy.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..nn.module import Module

__all__ = ["ActivationRecorder", "StopForward"]


class StopForward(Exception):
    """Raised from a recorder hook once every monitored path has been captured."""


class ActivationRecorder:
    """Capture the outputs of named submodules during forward passes.

    Parameters
    ----------
    model:
        The model whose submodules should be hooked.
    module_paths:
        Dotted paths (as accepted by ``Module.get_submodule``) of the blocks
        whose output activations should be recorded.  For Egeria these are the
        *tail* blocks of the layer modules being monitored.
    stop_when_complete:
        Raise :class:`StopForward` from the hook that captures the last
        missing path, so a caller that only wants these activations (the
        reference model) can abandon the rest of the forward pass.
    """

    def __init__(self, model: Module, module_paths: Iterable[str], stop_when_complete: bool = False):
        self.model = model
        self.module_paths: List[str] = list(module_paths)
        self.stop_when_complete = stop_when_complete
        self._activations: Dict[str, np.ndarray] = {}
        self._handles = []
        self._attach()

    def _attach(self) -> None:
        # The hooks live on the model, which this recorder references: they
        # hold the recorder weakly so the two are not a cycle that only the
        # cyclic collector frees.
        owner = weakref.ref(self)
        for path in self.module_paths:
            module = self.model.get_submodule(path)

            def hook(_module, _inputs, output, _path=path):
                recorder = owner()
                if recorder is None:
                    return
                recorder._activations[_path] = output.data if hasattr(output, "data") else np.asarray(output)
                if recorder.stop_when_complete and len(recorder._activations) == len(recorder.module_paths):
                    raise StopForward

            self._handles.append(module.register_forward_hook(hook))

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def get(self, path: str) -> Optional[np.ndarray]:
        """Activation captured for ``path`` in the most recent forward pass."""
        return self._activations.get(path)

    def activations(self) -> Dict[str, np.ndarray]:
        """All captured activations keyed by module path."""
        return dict(self._activations)

    def clear(self) -> None:
        """Drop captured activations (keeps hooks attached)."""
        self._activations.clear()

    def remove(self) -> None:
        """Detach all hooks."""
        for handle in self._handles:
            handle.remove()
        self._handles.clear()

    def retarget(self, module_paths: Iterable[str]) -> None:
        """Re-attach the recorder to a different set of module paths.

        Used when the frontmost active layer module advances: Egeria only
        needs the activation of the module currently being monitored.
        """
        self.remove()
        self.clear()
        self.module_paths = list(module_paths)
        self._attach()

    def __enter__(self) -> "ActivationRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()
