"""The checkpoint manager: freezing-aware incremental training-state snapshots.

:class:`CheckpointManager` persists complete, deterministic training states
(model weights, optimizer moments, LR-scheduler step, RNG streams, the
``FreezingEngine`` state and the ``ActivationCache`` manifest — assembled by
``BaseTrainer.state_dict``) against a pluggable
:class:`~repro.ckpt.backends.CheckpointBackend`.

Every tensor is content-addressed, so a checkpoint only writes the objects
that changed since any earlier checkpoint.  Egeria's frozen prefix is
immutable between freeze events, which means its weights, optimizer buffers
and BatchNorm statistics deduplicate to zero new bytes: the per-checkpoint
write volume falls monotonically as the frozen prefix advances — the storage
analogue of the paper's shrinking iteration time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .backends import CheckpointBackend
from .serialization import jsonify_scalars, join_state, split_state

__all__ = ["CheckpointInfo", "CheckpointManager"]

#: Manifest schema version (bumped on incompatible layout changes).
FORMAT_VERSION = 1


@dataclass(frozen=True)
class CheckpointInfo:
    """Summary of one saved checkpoint.

    ``payload_bytes`` is the full logical size of the snapshot's tensors;
    ``bytes_written`` is what actually hit the backend after content-addressed
    deduplication (the incremental cost this checkpoint paid).
    """

    checkpoint_id: str
    step: int
    num_tensors: int
    num_new_tensors: int
    payload_bytes: int
    bytes_written: int
    meta: Dict[str, Any]


class CheckpointManager:
    """Saves/restores nested training states with incremental tensor storage."""

    def __init__(self, backend: CheckpointBackend):
        self.backend = backend

    # ------------------------------------------------------------------ #
    # Save
    # ------------------------------------------------------------------ #
    def save(self, state: Any, step: int, meta: Optional[Dict[str, Any]] = None) -> CheckpointInfo:
        """Persist one training state; returns its :class:`CheckpointInfo`.

        ``step`` orders checkpoints (the trainer passes its iteration count)
        and must be unique per manager; ``meta`` is free-form JSON-able data
        surfaced by :meth:`inspect` (e.g. epoch, frozen prefix length).
        """
        checkpoint_id = f"ckpt-{int(step):010d}"
        # A dict-shaped state is split one top-level section at a time, so the
        # walk that builds the manifest tree also says which tensors each
        # section holds; any other state is one nameless part.
        sectioned = isinstance(state, dict)
        parts = ({str(key): split_state(value) for key, value in state.items()} if sectioned
                 else {"": split_state(state)})
        # New bytes per section are what the overhead curve plots: ``model``
        # and ``optimizer`` shrink exactly with the frozen prefix, the
        # quantized reference snapshot rewrites on its own update cadence.  A
        # digest shared between sections is stored once and counted in each.
        new_nbytes: Dict[str, int] = {}  # distinct digest -> its size if this save stored it, else 0
        section_bytes = dict.fromkeys(parts, 0)
        payload_bytes = bytes_written = num_new = 0
        for key, (_, tensors) in parts.items():
            for digest, array in tensors.items():
                if digest not in new_nbytes:
                    nbytes = int(array.nbytes)
                    payload_bytes += nbytes
                    written = self.backend.write_object(digest, array)
                    new_nbytes[digest] = nbytes if written else 0
                    if written:
                        num_new += 1
                        bytes_written += written
                section_bytes[key] += new_nbytes[digest]
        info = CheckpointInfo(
            checkpoint_id=checkpoint_id,
            step=int(step),
            num_tensors=len(new_nbytes),
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
                "bytes_written_by_section": section_bytes if sectioned else {},
            },
            # JSON-native as split_state returns it.
            "state": {key: tree for key, (tree, _) in parts.items()} if sectioned else parts[""][0],
        }
        self.backend.write_manifest(checkpoint_id, manifest)
        return info

    # ------------------------------------------------------------------ #
    # Restore / inspect
    # ------------------------------------------------------------------ #
    def list_checkpoints(self) -> List[str]:
        return self.backend.list_checkpoints()

    def latest(self) -> Optional[str]:
        checkpoints = self.list_checkpoints()
        return checkpoints[-1] if checkpoints else None

    def restore(self, checkpoint_id: Optional[str] = None) -> Any:
        """Load a checkpoint's full state (latest when ``checkpoint_id`` is None)."""
        checkpoint_id = checkpoint_id or self.latest()
        if checkpoint_id is None:
            raise KeyError("no checkpoints have been saved")
        manifest = self.backend.read_manifest(checkpoint_id)
        return join_state(manifest["state"], self.backend.read_object)

    def inspect(self, checkpoint_id: Optional[str] = None) -> Dict[str, Any]:
        """Manifest summary (step, byte counts, meta) without loading tensors."""
        checkpoint_id = checkpoint_id or self.latest()
        if checkpoint_id is None:
            raise KeyError("no checkpoints have been saved")
        manifest = self.backend.read_manifest(checkpoint_id)
        return {
            "checkpoint_id": manifest["checkpoint_id"],
            "step": manifest["step"],
            "meta": manifest.get("meta", {}),
            **manifest.get("stats", {}),
        }

    def history(self) -> List[Dict[str, Any]]:
        """Per-checkpoint summaries in step order (the overhead-curve input)."""
        return [self.inspect(checkpoint_id) for checkpoint_id in self.list_checkpoints()]
