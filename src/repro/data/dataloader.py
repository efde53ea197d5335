"""Data loader with look-ahead sampling for activation prefetching.

Egeria's forward-pass cache relies on a training-workflow property the paper
highlights in §4.3: "Before an iteration, the data loader samples future
mini-batches in advance, so unlike typical cache systems we actually know the
future (the incoming data indices)".  :class:`DataLoader` therefore exposes
:meth:`peek_future_indices`, which the prefetcher uses to pull the relevant
cached activations before the iteration that needs them.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from .datasets import Batch

__all__ = ["DataLoader"]


class DataLoader:
    """Mini-batch iterator over a synthetic dataset.

    Parameters
    ----------
    dataset:
        Any object with ``__len__`` and ``get_batch(indices) -> Batch``.
    batch_size:
        Samples per mini-batch; the final partial batch is dropped when
        ``drop_last`` is True (the default, matching the paper's setup where
        iteration counts are derived from full batches).
    shuffle:
        Reshuffle sample order at the start of every epoch.
    seed:
        Base seed; epoch ``e`` uses ``seed + e`` so the sample order is a
        deterministic function of the epoch — which also makes cached
        activations replayable across runs.
    """

    def __init__(self, dataset, batch_size: int = 16, shuffle: bool = True, seed: int = 0,
                 drop_last: bool = True):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.seed = seed
        self.drop_last = drop_last
        self.epoch = 0
        self._order: Optional[np.ndarray] = None
        self._position = 0

    # ------------------------------------------------------------------ #
    # Epoch order management
    # ------------------------------------------------------------------ #
    def _epoch_order(self, epoch: int) -> np.ndarray:
        indices = np.arange(len(self.dataset))
        if self.shuffle:
            rng = np.random.default_rng(self.seed + epoch)
            rng.shuffle(indices)
        return indices

    def set_epoch(self, epoch: int) -> None:
        """Select the epoch whose (deterministic) order the loader will follow."""
        self.epoch = epoch
        self._order = self._epoch_order(epoch)
        self._position = 0

    def __len__(self) -> int:
        full, rem = divmod(len(self.dataset), self.batch_size)
        return full if self.drop_last or rem == 0 else full + 1

    @property
    def num_batches(self) -> int:
        return len(self)

    # ------------------------------------------------------------------ #
    # Iteration
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Batch]:
        self.set_epoch(self.epoch)
        while True:
            batch = self.next_batch()
            if batch is None:
                break
            yield batch
        self.epoch += 1

    def next_batch(self) -> Optional[Batch]:
        """Return the next mini-batch of the current epoch, or ``None`` at the end."""
        if self._order is None:
            self.set_epoch(self.epoch)
        start = self._position
        end = start + self.batch_size
        if start >= len(self._order):
            return None
        if end > len(self._order) and self.drop_last:
            return None
        indices = self._order[start:end]
        self._position = end
        return self.dataset.get_batch(indices)

    # ------------------------------------------------------------------ #
    # Look-ahead for the activation prefetcher
    # ------------------------------------------------------------------ #
    def peek_future_indices(self, num_batches: int = 1, epoch: Optional[int] = None,
                            position: Optional[int] = None) -> List[np.ndarray]:
        """Return the sample indices of the next ``num_batches`` mini-batches.

        Does not advance the iterator, and follows exactly the rule of
        :meth:`next_batch` — including the short tail batch when
        ``drop_last`` is False.  When the remaining batches of the current
        epoch are fewer than requested, indices from the beginning of the
        *next* epoch (with its own deterministic order) are appended, so the
        prefetcher can warm the cache across the epoch boundary.  A loader
        whose epochs hold no batch at all (``batch_size > len(dataset)`` with
        ``drop_last``) has no future: the result is empty.
        """
        if len(self) == 0:
            return []
        epoch = self.epoch if epoch is None else epoch
        position = self._position if position is None else position
        order = self._order if (epoch == self.epoch and self._order is not None) else self._epoch_order(epoch)

        batches: List[np.ndarray] = []
        while len(batches) < num_batches:
            end = position + self.batch_size
            if position >= len(order) or (end > len(order) and self.drop_last):
                epoch += 1
                order = self._epoch_order(epoch)
                position = 0
                continue
            batches.append(order[position:end].copy())
            position = end
        return batches
