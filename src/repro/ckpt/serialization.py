"""Serialization helpers for the checkpoint subsystem.

A training-state snapshot (see :meth:`repro.core.trainer.BaseTrainer.state_dict`)
is a nested structure of dicts/lists whose leaves are either JSON-compatible
scalars or numpy arrays.  The checkpoint layer splits that structure into

* a **manifest tree** — the same structure with every array replaced by a
  ``{"__tensor__": <digest>}`` placeholder, serializable as plain JSON; and
* a **tensor table** — ``digest -> ndarray`` for the arrays, content-addressed
  by a SHA-1 over dtype, shape and raw bytes.

Content addressing is what makes checkpoints *freezing-aware*: the tensors of
a frozen layer-module prefix are bit-identical between consecutive snapshots,
hash to the same digest, and are therefore written to the backend exactly
once.  As Egeria's frozen prefix advances, the per-checkpoint write volume
shrinks to the active suffix (plus small bookkeeping), mirroring how
iteration time shrinks in the paper's Figure 9 breakdown.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Tuple

import numpy as np

__all__ = ["TENSOR_KEY", "tensor_digest", "split_state", "join_state", "jsonify_scalars"]

#: Placeholder key marking a tensor reference inside a manifest tree.
TENSOR_KEY = "__tensor__"


def tensor_digest(array: np.ndarray) -> str:
    """Content digest of an array (dtype + shape + raw bytes).

    Digests are object names in a store, so this is a format: the SHA-1 of
    ``dtype.str``, ``repr(shape)`` and the C-order bytes of
    ``np.ascontiguousarray(array)`` (which makes a 0-d array shape ``(1,)``).
    The bytes are hashed in place through the buffer protocol, not copied out.
    """
    array = np.ascontiguousarray(array)
    digest = hashlib.sha1((array.dtype.str + repr(array.shape)).encode("ascii"))
    digest.update(array)
    return digest.hexdigest()


def jsonify_scalars(value: Any) -> Any:
    """Convert numpy scalars/bools nested in plain data to Python natives."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): jsonify_scalars(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify_scalars(v) for v in value]
    return value


def split_state(state: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Split a nested state into a JSON-able manifest tree and a tensor table.

    Returns ``(tree, tensors)`` where every ndarray leaf of ``state`` appears
    in ``tree`` as ``{"__tensor__": digest}`` and in ``tensors`` under that
    digest.  Identical arrays (same content) share one table entry.  The
    table holds the arrays of ``state`` themselves, not copies: whoever keeps
    one (a backend's ``write_object``) copies or serialises it.  ``tree`` is
    JSON-native as returned — string keys, lists, Python scalars.
    """
    tensors: Dict[str, np.ndarray] = {}
    return _walk(state, tensors), tensors


def _walk(value: Any, tensors: Dict[str, np.ndarray]) -> Any:
    # A module-level function, not a closure: a closure that calls itself is a
    # reference cycle, which would keep ``tensors`` (the state's arrays) alive
    # until the cyclic collector runs.
    if isinstance(value, np.ndarray):
        digest = tensor_digest(value)
        tensors.setdefault(digest, value)
        return {TENSOR_KEY: digest}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _walk(v, tensors) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_walk(v, tensors) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"state leaf of type {type(value).__name__} is not checkpointable")


def join_state(tree: Any, read_tensor) -> Any:
    """Inverse of :func:`split_state`: resolve placeholders via ``read_tensor``."""
    if isinstance(tree, dict):
        if len(tree) == 1 and TENSOR_KEY in tree:
            return read_tensor(tree[TENSOR_KEY])
        return {k: join_state(v, read_tensor) for k, v in tree.items()}
    if isinstance(tree, list):
        return [join_state(v, read_tensor) for v in tree]
    return tree
