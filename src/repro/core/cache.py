"""Activation cache with prefetching to skip the frozen layers' forward pass.

§4.3 of the paper: once the front layer modules are frozen they produce the
same output for the same (deterministically augmented) input, so Egeria saves
the frozen prefix's output activations to disk, keyed by sample ID, and
prefetches those of upcoming mini-batches into GPU memory — the data loader
"knows the future" sample indices.  Only the most recent few mini-batches are
kept in memory (the paper keeps five); the bulk lives on disk.
:class:`ActivationCache` is that disk store plus the bounded in-memory table,
with the hit/miss/byte accounting of the §6.5 overhead analysis;
:class:`Prefetcher` warms the table with the next mini-batches' activations.

The disk store is one memory-mapped **slab** per cache generation: a
``float32`` file ``slab_g<generation>.f32`` whose row ``i`` is sample ``i``'s
activation, plus a presence bitmap saying which rows were written.  A
mini-batch is therefore one scattered write (:meth:`store_batch`) or one
gather (:meth:`load_batch`, :meth:`warm`) whatever its size; the file is
sparse, so only written rows take disk space.  Rows keep the memory order the
model produced them in (a convolution's output is channels-last) and are
handed back in it, so downstream reductions sum in the same order and a
cache-served iteration is bit-identical to a recomputed one.  Everything is
invalidated whenever the frozen prefix changes (freeze or unfreeze) because a
cached tensor is the output of one specific prefix of layers.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CacheStats", "ActivationCache", "Prefetcher"]


@dataclass
class CacheStats:
    """Hit/miss and storage accounting for the activation cache."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    bytes_written: int = 0
    prefetches: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {**self.__dict__, "hit_rate": self.hit_rate}


class ActivationCache:
    """Disk-backed store of frozen-prefix activations keyed by sample ID.

    Parameters
    ----------
    cache_dir:
        Directory for the slab file; a temporary one (removed on :meth:`close`) when omitted.
    memory_batches:
        Number of recent/prefetched mini-batches' activations kept in the
        in-memory table (the simulated GPU-memory hash table of Figure 7).
    batch_size:
        Used only to size the in-memory table (``memory_batches * batch_size``
        rows; the oldest rows are overwritten first).
    max_disk_bytes:
        Optional storage budget; stores beyond it are rejected (and miss later) —
        the paper lets users cap activation storage at up to one epoch's worth.
    """

    def __init__(self, cache_dir: Optional[str] = None, memory_batches: int = 5, batch_size: int = 16,
                 max_disk_bytes: Optional[int] = None):
        self._owns_dir = cache_dir is None
        self.cache_dir = cache_dir or tempfile.mkdtemp(prefix="egeria_cache_")
        os.makedirs(self.cache_dir, exist_ok=True)
        self.memory_capacity = max(memory_batches * batch_size, 1)
        self.max_disk_bytes = max_disk_bytes
        self.stats = CacheStats()
        #: Length of the frozen prefix the cached activations belong to
        #: (descriptive only; validity is keyed by ``generation``).
        self.prefix_version = 0
        #: Monotonically increasing; every prefix change — freeze *or* unfreeze
        #: — bumps it, so a prefix length that recurs after an unfreeze can
        #: never alias entries from an earlier era.
        self.generation = 0
        #: The generation's slab ``(rows, *row_shape)``, mapped on first store, and the
        #: axis order (see :meth:`store_batch`) that turns an activation batch into its rows.
        self._slab: Optional[np.memmap] = None
        self._order: Tuple[int, ...] = ()
        #: A row was written since the slab file was last flushed (see :meth:`manifest`).
        self._unflushed = False
        #: Per sample id (grown with the ids seen): row written this generation / table slot or -1.
        self._present = np.zeros(0, dtype=bool)
        self._slot = np.zeros(0, dtype=np.int64)
        #: The in-memory table: a ring of rows and the sample id each slot holds (-1: empty).
        self._table: Optional[np.ndarray] = None
        self._table_ids = np.full(self.memory_capacity, -1, dtype=np.int64)
        self._cursor = 0

    # ------------------------------------------------------------------ #
    # Keying / versioning
    # ------------------------------------------------------------------ #
    def set_prefix_version(self, version: int) -> None:
        """Invalidate everything when the frozen prefix changes."""
        if version != self.prefix_version:
            self.prefix_version = version
            self.new_generation()

    def new_generation(self) -> int:
        """Unconditionally start a fresh cache generation (drops everything).

        Unlike :meth:`set_prefix_version` this invalidates even when the prefix
        length is unchanged — after unfreeze → refreeze the *length* may repeat
        while the frozen weights (and hence the cached activations) differ.
        """
        self.invalidate()
        self.generation += 1
        return self.generation

    def invalidate(self) -> None:
        """Drop all cached activations (memory and disk)."""
        self._forget()
        with suppress(OSError):  # no file: nothing was stored this generation
            os.remove(self._slab_path())
        self.stats.invalidations += 1

    def _forget(self) -> None:
        self._slab = self._table = None
        self._unflushed = False
        self._present[:], self._slot[:], self._table_ids[:] = False, -1, -1

    def _slab_path(self) -> str:
        return os.path.join(self.cache_dir, f"slab_g{self.generation}.f32")

    def _ids(self, sample_ids: Sequence[int]) -> np.ndarray:
        """``sample_ids`` as an index array, with the per-id tables grown to cover it."""
        ids = np.asarray(sample_ids, dtype=np.int64).reshape(-1)
        grow = (int(ids.max()) + 1 if ids.size else 0) - len(self._present)
        if grow > 0:
            grow = max(grow, len(self._present))  # at least double: amortised growth
            self._present = np.concatenate([self._present, np.zeros(grow, dtype=bool)])
            self._slot = np.concatenate([self._slot, np.full(grow, -1, dtype=np.int64)])
        return ids

    def _map_slab(self, row_shape: Sequence[int], order: Sequence[int]) -> None:
        """Map the slab with a row for every known id, creating or extending the (sparse) file."""
        path, shape = self._slab_path(), (len(self._present), *row_shape)
        self._slab, self._order = None, tuple(order)
        with open(path, "ab") as handle:  # never shrinks: another mapping of the file may be live
            if handle.tell() < int(np.prod(shape)) * 4:
                handle.truncate(int(np.prod(shape)) * 4)
        self._slab = np.memmap(path, dtype=np.float32, mode="r+", shape=shape)
        if self._table is None:
            self._table = np.empty((self.memory_capacity, *row_shape), dtype=np.float32)

    # ------------------------------------------------------------------ #
    # Store / load
    # ------------------------------------------------------------------ #
    def store_batch(self, sample_ids: Sequence[int], activations: np.ndarray) -> int:
        """Persist a mini-batch (one slab write); returns how many samples were stored.

        Re-storing a present sample id overwrites its row, so only *new* rows
        count against ``max_disk_bytes``.  Rows beyond the budget, or of
        another shape or memory order than the generation's slab, are rejected
        and simply miss (and are recomputed) later.
        """
        ids = self._ids(sample_ids)
        rows = np.asarray(activations, dtype=np.float32)
        # Slab rows are in memory order: the row axes by decreasing stride.
        order = (0, *(1 + np.argsort([-stride for stride in rows.strides[1:]], kind="stable")).tolist())
        rows = rows.transpose(order)
        if not ids.size or (self._slab is not None and (rows.shape[1:], order) != (self._slab.shape[1:], self._order)):
            return 0
        if self.max_disk_bytes is not None:
            fresh = ~self._present[ids]
            room = (self.max_disk_bytes - self.disk_bytes) // rows[0].nbytes
            keep = ~fresh | (np.cumsum(fresh) <= room)
            ids, rows = ids[keep], rows[keep]
            if not ids.size:
                return 0
        if self._slab is None or len(self._slab) < len(self._present):
            self._map_slab(rows.shape[1:], order)
        self._slab[ids] = rows
        self._unflushed = True
        self._present[ids] = True
        resident = self._slot[ids] >= 0
        self._table[self._slot[ids[resident]]] = rows[resident]  # keep the table coherent
        self.stats.stores += len(ids)
        self.stats.bytes_written += rows.nbytes
        return len(ids)

    def load_batch(self, sample_ids: Sequence[int]) -> Optional[np.ndarray]:
        """Load a full mini-batch (one gather); ``None`` unless *every* sample hits.

        Per-sample accounting: a full batch is one hit each, a batch that misses
        counts the samples before its first absent one, then a single miss.
        """
        ids = self._ids(sample_ids)
        present = self._present[ids]
        if not present.all():
            self.stats.hits += int(np.argmin(present))
            self.stats.misses += 1
            return None
        self.stats.hits += len(ids)
        slots = self._slot[ids]
        if (slots >= 0).all():
            rows = self._table[slots]
        else:
            rows = np.asarray(self._slab[ids])
            self._remember(ids, rows)
        return rows.transpose(np.argsort(self._order))

    def warm(self, sample_ids: Sequence[int]) -> int:
        """Pull the persisted, not yet resident rows of ``sample_ids`` into memory (one gather)."""
        ids = np.unique(self._ids(sample_ids))
        ids = ids[self._present[ids] & (self._slot[ids] < 0)]
        if ids.size:
            self._remember(ids, np.asarray(self._slab[ids]))
        self.stats.prefetches += len(ids)
        return len(ids)

    def _remember(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Write ``rows`` (distinct ``ids``) over the oldest slots of the in-memory table."""
        ids, rows = ids[-self.memory_capacity:], rows[-self.memory_capacity:]
        old = self._slot[ids]
        self._table_ids[old[old >= 0]] = -1
        slots = (self._cursor + np.arange(len(ids))) % self.memory_capacity
        evicted = self._table_ids[slots]
        self._slot[evicted[evicted >= 0]] = -1
        self._table_ids[slots], self._slot[ids], self._table[slots] = ids, slots, rows
        self._cursor = int(slots[-1] + 1) % self.memory_capacity

    def store(self, sample_id: int, activation: np.ndarray) -> bool:
        """Persist one sample's frozen-prefix activation (a one-row batch)."""
        return self.store_batch([sample_id], np.asarray(activation)[None]) == 1

    def load(self, sample_id: int) -> Optional[np.ndarray]:
        """Load one sample's activation (a one-row batch)."""
        batch = self.load_batch([sample_id])
        return None if batch is None else batch[0]

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def manifest(self) -> Dict[str, object]:
        """Serializable description of the cache contents (not the tensors).

        The activations live on disk and are *reconstructable* (a miss just
        recomputes the frozen prefix), so a checkpoint records only this:
        versioning counters, statistics and, under ``entries``, the slab's row
        shape and order and which rows are present (flushed first if a row was
        written since the last flush, so a listed row is on disk).  Restoring
        into a cache on the same ``cache_dir`` re-attaches those rows if the
        slab file survived.
        """
        if self._unflushed:
            self._slab.flush()
            self._unflushed = False
        return {
            "generation": int(self.generation),
            "prefix_version": int(self.prefix_version),
            "stats": {key: int(value) for key, value in self.stats.__dict__.items()},
            "entries": {} if self._slab is None else {"row_shape": list(self._slab.shape[1:]),
                                                      "row_order": [int(axis) for axis in self._order],
                                                      "samples": np.flatnonzero(self._present).tolist()},
        }

    def load_manifest(self, manifest: Dict[str, object]) -> int:
        """Restore versioning/statistics and re-attach the surviving slab rows.

        Returns the number of rows re-attached; rows a missing or shorter slab
        file lacks (e.g. restored on another machine) are recomputed as misses.
        """
        self._forget()
        self.generation = int(manifest["generation"])
        self.prefix_version = int(manifest["prefix_version"])
        self.stats = CacheStats(**{key: int(value) for key, value in dict(manifest.get("stats") or {}).items()})
        entries = dict(manifest.get("entries") or {})
        path = self._slab_path()
        if "row_shape" not in entries or not os.path.exists(path):
            return 0
        row_shape = tuple(int(n) for n in entries["row_shape"])
        rows_on_disk = os.path.getsize(path) // (int(np.prod(row_shape)) * 4)
        ids = self._ids([i for i in entries["samples"] if int(i) < rows_on_disk])
        if ids.size:
            self._map_slab(row_shape, entries["row_order"])
            self._present[ids] = True
        return len(ids)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def disk_bytes(self) -> int:
        """Bytes of activations currently stored on disk (present rows only)."""
        return 0 if self._slab is None else int(self._present.sum()) * self._slab[0].nbytes

    @property
    def memory_entries(self) -> int:
        return int((self._table_ids >= 0).sum())

    def storage_ratio(self, input_bytes_per_sample: int) -> float:
        """Activation bytes per cached sample relative to the raw input size (§6.5)."""
        cached = self.disk_bytes > 0 and input_bytes_per_sample > 0
        return self._slab[0].nbytes / input_bytes_per_sample if cached else 0.0

    def close(self) -> None:
        """Unmap the slab and remove the temporary cache directory if this cache owns it."""
        self._slab, self._unflushed = None, False
        if self._owns_dir and os.path.isdir(self.cache_dir):
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def __enter__(self) -> "ActivationCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Prefetcher:
    """Warms the cache's in-memory table with upcoming mini-batches' activations.

    ``prefetch`` takes the index lists of ``DataLoader.peek_future_indices``
    and pulls every already-persisted activation into memory in one gather, so
    the training loop's ``load_batch`` is a pure memory lookup — modelling the
    paper's overlap of disk access with GPU compute.
    """

    def __init__(self, cache: ActivationCache, lookahead_batches: int = 2):
        self.cache = cache
        self.lookahead_batches = max(lookahead_batches, 1)

    def prefetch(self, future_index_batches: Iterable[Sequence[int]]) -> int:
        """Prefetch the given future batches; returns the number of samples loaded."""
        batches = [np.asarray(batch, dtype=np.int64) for batch in future_index_batches][: self.lookahead_batches]
        return self.cache.warm(np.concatenate(batches)) if batches else 0
