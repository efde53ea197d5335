"""Checkpoint storage backends: in-memory and atomic-write directory store.

Both backends expose the same tiny object-store interface the
:class:`~repro.ckpt.manager.CheckpointManager` writes against:

* a **content-addressed object store** (``has_object``/``write_object``/
  ``read_object``) holding immutable tensors keyed by digest — writing an
  existing digest is a no-op, which is how frozen-prefix tensors are
  persisted exactly once across a run's checkpoints;
* a **manifest store** (``write_manifest``/``read_manifest``/
  ``list_checkpoints``) holding one JSON document per checkpoint.

The directory backend is crash-safe: every file (object and manifest) is
written to a temporary sibling and atomically renamed into place, so a
checkpoint either exists completely or not at all — a reader never observes
a torn manifest or truncated tensor.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, List

import numpy as np

__all__ = ["CheckpointBackend", "MemoryBackend", "DirectoryBackend"]


class CheckpointBackend:
    """Abstract object + manifest store used by :class:`CheckpointManager`."""

    def has_object(self, digest: str) -> bool:
        raise NotImplementedError

    def write_object(self, digest: str, array: np.ndarray) -> int:
        """Persist one tensor; returns the bytes written (0 when deduplicated).

        ``array`` stays the caller's (``split_state`` hands out the arrays of
        the state it was given): copy or serialise it, do not keep it.
        """
        raise NotImplementedError

    def read_object(self, digest: str) -> np.ndarray:
        """The stored tensor as a fresh array the caller owns (a model adopts it without copying)."""
        raise NotImplementedError

    def write_manifest(self, checkpoint_id: str, manifest: Dict) -> None:
        raise NotImplementedError

    def read_manifest(self, checkpoint_id: str) -> Dict:
        raise NotImplementedError

    def list_checkpoints(self) -> List[str]:
        """Checkpoint ids in lexicographic (== step) order."""
        raise NotImplementedError


class MemoryBackend(CheckpointBackend):
    """Process-local store; manifests round-trip through JSON so the two
    backends accept exactly the same payloads."""

    def __init__(self) -> None:
        self._objects: Dict[str, np.ndarray] = {}
        self._manifests: Dict[str, str] = {}

    def has_object(self, digest: str) -> bool:
        return digest in self._objects

    def write_object(self, digest: str, array: np.ndarray) -> int:
        if digest in self._objects:
            return 0
        self._objects[digest] = np.array(array, copy=True)
        return int(array.nbytes)

    def read_object(self, digest: str) -> np.ndarray:
        if digest not in self._objects:
            raise KeyError(f"unknown object {digest!r}")
        return np.array(self._objects[digest], copy=True)

    def write_manifest(self, checkpoint_id: str, manifest: Dict) -> None:
        self._manifests[checkpoint_id] = json.dumps(manifest)

    def read_manifest(self, checkpoint_id: str) -> Dict:
        if checkpoint_id not in self._manifests:
            raise KeyError(f"unknown checkpoint {checkpoint_id!r}")
        return json.loads(self._manifests[checkpoint_id])

    def list_checkpoints(self) -> List[str]:
        return sorted(self._manifests)


class DirectoryBackend(CheckpointBackend):
    """Atomic-write directory store.

    Layout::

        <root>/objects/<digest>.npy        content-addressed tensors
        <root>/checkpoints/<id>.json       one manifest per checkpoint
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.objects_dir = os.path.join(root, "objects")
        self.manifests_dir = os.path.join(root, "checkpoints")
        os.makedirs(self.objects_dir, exist_ok=True)
        os.makedirs(self.manifests_dir, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Atomic file helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _atomic_write(path: str, writer) -> None:
        directory = os.path.dirname(path)
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp_")
        try:
            with os.fdopen(fd, "wb") as handle:
                writer(handle)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise

    def _object_path(self, digest: str) -> str:
        return os.path.join(self.objects_dir, f"{digest}.npy")

    def _manifest_path(self, checkpoint_id: str) -> str:
        return os.path.join(self.manifests_dir, f"{checkpoint_id}.json")

    # ------------------------------------------------------------------ #
    # Object store
    # ------------------------------------------------------------------ #
    def has_object(self, digest: str) -> bool:
        return os.path.exists(self._object_path(digest))

    def write_object(self, digest: str, array: np.ndarray) -> int:
        path = self._object_path(digest)
        if os.path.exists(path):
            return 0
        self._atomic_write(path, lambda handle: np.save(handle, np.ascontiguousarray(array)))
        return int(array.nbytes)

    def read_object(self, digest: str) -> np.ndarray:
        path = self._object_path(digest)
        if not os.path.exists(path):
            raise KeyError(f"unknown object {digest!r}")
        return np.load(path)

    # ------------------------------------------------------------------ #
    # Manifest store
    # ------------------------------------------------------------------ #
    def write_manifest(self, checkpoint_id: str, manifest: Dict) -> None:
        payload = json.dumps(manifest, indent=2).encode("utf-8")
        self._atomic_write(self._manifest_path(checkpoint_id), lambda handle: handle.write(payload))

    def read_manifest(self, checkpoint_id: str) -> Dict:
        path = self._manifest_path(checkpoint_id)
        if not os.path.exists(path):
            raise KeyError(f"unknown checkpoint {checkpoint_id!r}")
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def list_checkpoints(self) -> List[str]:
        names = [name[:-5] for name in os.listdir(self.manifests_dir)
                 if name.endswith(".json") and not name.startswith(".tmp_")]
        return sorted(names)
