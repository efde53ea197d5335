"""Synthetic datasets standing in for CIFAR-10, ImageNet, VOC, WMT16 and SQuAD.

The real datasets are unavailable offline, and Egeria's mechanisms (plasticity
evaluation, freezing, caching) consume activations and losses rather than
real-world semantics, so each dataset here is a *learnable* synthetic
surrogate with the same tensor shapes and task structure:

* classification images are class-conditional Gaussian blobs with spatial
  structure, so front convolution layers learn generic statistics quickly
  while the classifier keeps improving — reproducing the "front layers
  converge first" dynamics the paper exploits;
* segmentation images carry per-pixel labels generated from geometric masks;
* translation pairs are generated by a fixed token permutation plus offset,
  so the mapping is learnable by a small Transformer;
* QA examples embed the answer span's position in the token content.

All datasets are deterministic functions of their seed.  The token datasets
are generated whole in ``__init__``; the image datasets build a sample from
its own seeded generator (``get_sample``) the first time a batch asks for it
and keep it, so an epoch after the first copies rows out of a store instead
of re-drawing every image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "Batch",
    "SubsetDataset",
    "SyntheticImageClassification",
    "SyntheticSegmentation",
    "SyntheticTranslation",
    "SyntheticQuestionAnswering",
    "make_dataset",
]


@dataclass
class Batch:
    """One mini-batch: model inputs, targets, and the sample indices.

    ``indices`` is what the activation cache keys on — the paper's cache maps
    sample IDs to frozen-layer activations (§4.3, Figure 7).
    """

    inputs: np.ndarray
    targets: np.ndarray
    indices: np.ndarray
    extras: Optional[Dict[str, np.ndarray]] = None

    def __len__(self) -> int:
        return len(self.indices)


class _SyntheticDataset:
    """Common indexing/len plumbing for the synthetic datasets."""

    def __init__(self, num_samples: int, seed: int):
        self.num_samples = num_samples
        self.seed = seed

    def __len__(self) -> int:
        return self.num_samples

    def get_batch(self, indices: np.ndarray) -> Batch:  # pragma: no cover - abstract
        raise NotImplementedError

    def split(self, eval_fraction: float = 0.2) -> Tuple["SubsetDataset", "SubsetDataset"]:
        """Split into (train, eval) views that share the underlying distribution.

        The split is by sample index, so both views use the same class
        templates / token mapping — the evaluation set measures generalisation
        to unseen samples of the *same* task, exactly like a held-out
        validation set of the real datasets.
        """
        if not 0.0 < eval_fraction < 1.0:
            raise ValueError("eval_fraction must be in (0, 1)")
        num_eval = max(int(round(self.num_samples * eval_fraction)), 1)
        num_train = self.num_samples - num_eval
        if num_train <= 0:
            raise ValueError("dataset too small to split")
        train_view = SubsetDataset(self, np.arange(0, num_train))
        eval_view = SubsetDataset(self, np.arange(num_train, self.num_samples))
        return train_view, eval_view


class SubsetDataset:
    """A view over a subset of a parent dataset's sample indices.

    Local indices ``0..len-1`` map onto the parent's global indices so the
    activation cache (which keys on global sample IDs) still works.
    """

    def __init__(self, parent, indices: np.ndarray):
        self.parent = parent
        self.indices = np.asarray(indices)

    def __len__(self) -> int:
        return len(self.indices)

    def get_batch(self, indices: np.ndarray) -> Batch:
        global_indices = self.indices[np.asarray(indices)]
        batch = self.parent.get_batch(global_indices)
        return batch

    def input_nbytes_per_sample(self) -> int:
        return self.parent.input_nbytes_per_sample()

    def __getattr__(self, name):
        # Delegate dataset metadata (num_classes, vocab_size, ...) to the parent.
        return getattr(self.parent, name)


class _StoredImageDataset(_SyntheticDataset):
    """Images built one sample at a time by ``get_sample`` and kept once built.

    ``get_sample`` is a pure function of the index, so each sample is
    materialised once, on the first batch that asks for it, into one
    ``(num_samples, C, H, W)`` float32 store plus an int64 target store.  A
    batch is a fancy-index copy of the stores: a caller that mutates it
    cannot change a later batch.  Train and eval views of one dataset share
    its stores.
    """

    def _allocate_store(self, target_shape: Tuple[int, ...]) -> None:
        size = self.image_size
        self._images = np.empty((self.num_samples, self.channels, size, size), dtype=np.float32)
        self._targets = np.empty((self.num_samples,) + target_shape, dtype=np.int64)
        self._filled = np.zeros(self.num_samples, dtype=bool)

    def get_batch(self, indices: np.ndarray) -> Batch:
        rows = np.asarray(indices, dtype=np.intp)
        # Not np.unique: its first call imports numpy.ma (+1.1 MB peak RSS).
        for index in rows[~self._filled[rows]]:
            if not self._filled[index]:  # an index repeated in this batch
                self._images[index], self._targets[index] = self.get_sample(int(index))
                self._filled[index] = True
        return Batch(inputs=self._images[rows], targets=self._targets[rows], indices=np.asarray(indices))

    def input_nbytes_per_sample(self) -> int:
        """Raw input size in bytes (used for the cache-overhead analysis)."""
        return self.channels * self.image_size * self.image_size * 4


class SyntheticImageClassification(_StoredImageDataset):
    """Class-conditional images: per-class template + structured noise.

    Each class has a fixed low-frequency template; a sample is the template
    plus Gaussian noise, so nearby pixels are correlated the way natural
    images are and a small CNN separates the classes within a few epochs.
    """

    def __init__(self, num_samples: int = 256, num_classes: int = 10, image_size: int = 16,
                 channels: int = 3, noise: float = 0.6, seed: int = 0):
        super().__init__(num_samples, seed)
        self.num_classes = num_classes
        self.image_size = image_size
        self.channels = channels
        self.noise = noise
        rng = np.random.default_rng(seed)
        # Low-frequency class templates: random coarse grids upsampled.
        coarse = rng.standard_normal((num_classes, channels, 4, 4)).astype(np.float32)
        reps = image_size // 4
        self.templates = coarse.repeat(reps, axis=2).repeat(reps, axis=3)
        self.labels = rng.integers(0, num_classes, size=num_samples)
        self._noise_seeds = rng.integers(0, 2 ** 31 - 1, size=num_samples)
        self._allocate_store(())

    def get_sample(self, index: int) -> Tuple[np.ndarray, int]:
        """Deterministically materialise sample ``index``."""
        label = int(self.labels[index])
        rng = np.random.default_rng(int(self._noise_seeds[index]))
        noise = rng.standard_normal((self.channels, self.image_size, self.image_size)).astype(np.float32)
        image = self.templates[label] + self.noise * noise
        return image, label


class SyntheticSegmentation(_StoredImageDataset):
    """Images with per-pixel labels derived from geometric foreground masks."""

    def __init__(self, num_samples: int = 128, num_classes: int = 8, image_size: int = 16,
                 channels: int = 3, noise: float = 0.5, seed: int = 0):
        super().__init__(num_samples, seed)
        self.num_classes = num_classes
        self.image_size = image_size
        self.channels = channels
        self.noise = noise
        rng = np.random.default_rng(seed)
        self.class_colors = rng.standard_normal((num_classes, channels)).astype(np.float32)
        self._sample_seeds = rng.integers(0, 2 ** 31 - 1, size=num_samples)
        self._allocate_store((image_size, image_size))

    def get_sample(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(int(self._sample_seeds[index]))
        size = self.image_size
        mask = np.zeros((size, size), dtype=np.int64)
        # Paint 2–4 random rectangles with random classes over background 0.
        for _ in range(rng.integers(2, 5)):
            cls = int(rng.integers(1, self.num_classes))
            top, left = rng.integers(0, size - 4, size=2)
            height, width = rng.integers(3, max(size // 2, 4), size=2)
            mask[top:top + height, left:left + width] = cls
        image = self.class_colors[mask].transpose(2, 0, 1).astype(np.float32)
        image += self.noise * rng.standard_normal(image.shape).astype(np.float32)
        return image, mask


class SyntheticTranslation(_SyntheticDataset):
    """Sequence-to-sequence pairs generated by a fixed token permutation.

    The target sequence is ``perm[source] shifted by +1 (mod vocab)``, a
    mapping a small encoder–decoder Transformer can learn, giving a steadily
    decreasing perplexity like the WMT16 curves in Figure 8c.
    """

    PAD = 0

    def __init__(self, num_samples: int = 256, vocab_size: int = 64, seq_len: int = 12, seed: int = 0):
        super().__init__(num_samples, seed)
        self.vocab_size = vocab_size
        self.seq_len = seq_len
        rng = np.random.default_rng(seed)
        self.permutation = rng.permutation(vocab_size)
        self.sources = rng.integers(1, vocab_size, size=(num_samples, seq_len))
        self.targets = (self.permutation[self.sources] + 1) % vocab_size
        # Keep padding id stable: remap accidental 0s in targets to 1.
        self.targets[self.targets == self.PAD] = 1

    def get_batch(self, indices: np.ndarray) -> Batch:
        idx = np.asarray(indices)
        return Batch(
            inputs=self.sources[idx],
            targets=self.targets[idx],
            indices=idx,
            extras={"decoder_inputs": np.roll(self.targets[idx], 1, axis=1)},
        )

    def input_nbytes_per_sample(self) -> int:
        return self.seq_len * 8


class SyntheticQuestionAnswering(_SyntheticDataset):
    """Span-extraction examples: the answer span location is encoded in tokens.

    Token value ``marker_token`` appears exactly at the start and end of the
    answer span, so a small encoder can learn to point at it — enough signal
    for the F1 metric to climb during fine-tuning, as in Figure 8d.
    """

    def __init__(self, num_samples: int = 256, vocab_size: int = 128, seq_len: int = 16,
                 marker_token: int = 5, seed: int = 0):
        super().__init__(num_samples, seed)
        self.vocab_size = vocab_size
        self.seq_len = seq_len
        self.marker_token = marker_token
        rng = np.random.default_rng(seed)
        tokens = rng.integers(10, vocab_size, size=(num_samples, seq_len))
        starts = rng.integers(0, seq_len - 3, size=num_samples)
        lengths = rng.integers(1, 3, size=num_samples)
        ends = np.minimum(starts + lengths, seq_len - 1)
        for i in range(num_samples):
            tokens[i, starts[i]] = marker_token
            tokens[i, ends[i]] = marker_token + 1
        self.tokens = tokens
        self.starts = starts
        self.ends = ends

    def get_batch(self, indices: np.ndarray) -> Batch:
        idx = np.asarray(indices)
        targets = np.stack([self.starts[idx], self.ends[idx]], axis=1)
        return Batch(inputs=self.tokens[idx], targets=targets, indices=idx)

    def input_nbytes_per_sample(self) -> int:
        return self.seq_len * 8


_DATASET_FACTORIES = {
    "synthetic_cifar10": (SyntheticImageClassification, {"num_classes": 10, "image_size": 16}),
    "synthetic_imagenet": (SyntheticImageClassification, {"num_classes": 20, "image_size": 16}),
    "synthetic_voc": (SyntheticSegmentation, {"num_classes": 8, "image_size": 16}),
    "synthetic_wmt16": (SyntheticTranslation, {}),
    "synthetic_squad": (SyntheticQuestionAnswering, {}),
}


def make_dataset(name: str, **kwargs):
    """Instantiate a synthetic dataset by registry name.

    Keyword arguments override the per-name defaults (e.g.
    ``make_dataset("synthetic_voc", num_classes=4)``).
    """
    if name not in _DATASET_FACTORIES:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(_DATASET_FACTORIES)}")
    cls, defaults = _DATASET_FACTORIES[name]
    params = dict(defaults)
    params.update(kwargs)
    return cls(**params)
