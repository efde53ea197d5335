"""The checkpoint save path as it was before PR 23: four passes over the tree, four copies per tensor.

``reference_tensor_digest`` hashes a ``tobytes()`` copy, ``reference_split_state``
copies every array into its table, and ``ReferenceCheckpointManager.save``
splits the whole state, writes the table, walks the placeholder tree a second
time for the per-section byte counts (``_section_bytes`` / ``collect``) and a
third time through ``jsonify_scalars`` before the backend serialises it — all
moved verbatim from ``repro.ckpt``.  Slow and obviously right;
``tests/test_ckpt.py`` requires the production manager to leave the same
manifest text and the same objects in a store, and ``tensor_digest`` to name
every array as this digest does (digests are object names on disk).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.ckpt.manager import FORMAT_VERSION, CheckpointInfo, CheckpointManager
from repro.ckpt.serialization import TENSOR_KEY, jsonify_scalars


def reference_tensor_digest(array: np.ndarray) -> str:
    """Content digest of an array (dtype + shape + a copy of its raw bytes)."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha1()
    digest.update(array.dtype.str.encode("ascii"))
    digest.update(repr(array.shape).encode("ascii"))
    digest.update(array.tobytes())
    return digest.hexdigest()


def reference_split_state(state: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """``split_state`` with a copied tensor table and the copying digest."""
    tensors: Dict[str, np.ndarray] = {}

    def walk(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            digest = reference_tensor_digest(value)
            if digest not in tensors:
                tensors[digest] = np.array(value, copy=True)
            return {TENSOR_KEY: digest}
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, dict):
            return {str(k): walk(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [walk(v) for v in value]
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        raise TypeError(f"state leaf of type {type(value).__name__} is not checkpointable")

    return walk(state), tensors


class ReferenceCheckpointManager(CheckpointManager):
    """``CheckpointManager`` whose ``save`` is the split → write → re-walk → jsonify sequence."""

    def save(self, state: Any, step: int, meta: Optional[Dict[str, Any]] = None) -> CheckpointInfo:
        checkpoint_id = f"ckpt-{int(step):010d}"
        tree, tensors = reference_split_state(state)
        bytes_written = 0
        num_new = 0
        new_digests = set()
        for digest, array in tensors.items():
            written = self.backend.write_object(digest, array)
            if written:
                num_new += 1
                bytes_written += written
                new_digests.add(digest)
        payload_bytes = sum(int(array.nbytes) for array in tensors.values())
        section_bytes = self._section_bytes(tree, tensors, new_digests)
        info = CheckpointInfo(
            checkpoint_id=checkpoint_id,
            step=int(step),
            num_tensors=len(tensors),
            num_new_tensors=num_new,
            payload_bytes=payload_bytes,
            bytes_written=bytes_written,
            meta=jsonify_scalars(dict(meta or {})),
        )
        manifest = {
            "format_version": FORMAT_VERSION,
            "checkpoint_id": checkpoint_id,
            "step": int(step),
            "meta": info.meta,
            "stats": {
                "num_tensors": info.num_tensors,
                "num_new_tensors": info.num_new_tensors,
                "payload_bytes": info.payload_bytes,
                "bytes_written": info.bytes_written,
                "bytes_written_by_section": section_bytes,
            },
            "state": jsonify_scalars(tree),
        }
        self.backend.write_manifest(checkpoint_id, manifest)
        return info

    @staticmethod
    def _section_bytes(tree: Any, tensors: Dict[str, Any], new_digests) -> Dict[str, int]:
        """New bytes attributed to each top-level key of a dict-shaped state.

        A digest shared between sections is counted in each.
        """
        if not isinstance(tree, dict):
            return {}

        def collect(node: Any, into: set) -> None:
            if isinstance(node, dict):
                if set(node.keys()) == {TENSOR_KEY}:
                    into.add(node[TENSOR_KEY])
                    return
                for value in node.values():
                    collect(value, into)
            elif isinstance(node, list):
                for value in node:
                    collect(value, into)

        section_bytes: Dict[str, int] = {}
        for key, value in tree.items():
            digests: set = set()
            collect(value, digests)
            section_bytes[str(key)] = sum(
                int(tensors[digest].nbytes) for digest in digests if digest in new_digests)
        return section_bytes
