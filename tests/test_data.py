"""Tests for synthetic datasets and the look-ahead data loader."""

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    SyntheticImageClassification,
    SyntheticQuestionAnswering,
    SyntheticSegmentation,
    SyntheticTranslation,
    make_dataset,
)


class TestDatasets:
    def test_classification_shapes_and_determinism(self):
        ds = SyntheticImageClassification(num_samples=20, num_classes=5, image_size=8, seed=3)
        batch = ds.get_batch(np.arange(4))
        assert batch.inputs.shape == (4, 3, 8, 8)
        assert batch.targets.shape == (4,)
        again = ds.get_batch(np.arange(4))
        assert np.allclose(batch.inputs, again.inputs)

    def test_classification_same_seed_same_data(self):
        a = SyntheticImageClassification(num_samples=10, seed=1).get_batch(np.arange(3))
        b = SyntheticImageClassification(num_samples=10, seed=1).get_batch(np.arange(3))
        assert np.allclose(a.inputs, b.inputs)

    def test_classification_classes_are_separable(self):
        """Same-class samples are closer than different-class samples on average."""
        ds = SyntheticImageClassification(num_samples=60, num_classes=3, image_size=8, noise=0.3, seed=0)
        batch = ds.get_batch(np.arange(60))
        flat = batch.inputs.reshape(60, -1)
        same, diff = [], []
        for i in range(30):
            for j in range(i + 1, 30):
                dist = np.linalg.norm(flat[i] - flat[j])
                (same if batch.targets[i] == batch.targets[j] else diff).append(dist)
        assert np.mean(same) < np.mean(diff)

    def test_segmentation_targets_are_valid_classes(self):
        ds = SyntheticSegmentation(num_samples=6, num_classes=5, image_size=16, seed=0)
        batch = ds.get_batch(np.arange(6))
        assert batch.inputs.shape == (6, 3, 16, 16)
        assert batch.targets.min() >= 0 and batch.targets.max() < 5

    def test_translation_mapping_consistent(self):
        ds = SyntheticTranslation(num_samples=10, vocab_size=16, seq_len=6, seed=0)
        batch = ds.get_batch(np.arange(10))
        expected = (ds.permutation[batch.inputs] + 1) % 16
        expected[expected == 0] = 1
        assert np.array_equal(batch.targets, expected)
        assert "decoder_inputs" in batch.extras

    def test_qa_spans_within_sequence(self):
        ds = SyntheticQuestionAnswering(num_samples=20, seq_len=12, seed=0)
        batch = ds.get_batch(np.arange(20))
        starts, ends = batch.targets[:, 0], batch.targets[:, 1]
        assert (starts <= ends).all()
        assert (ends < 12).all()

    def test_make_dataset_factory_and_overrides(self):
        ds = make_dataset("synthetic_voc", num_samples=4, num_classes=3)
        assert ds.num_classes == 3
        with pytest.raises(KeyError):
            make_dataset("not_a_dataset")

    def test_split_shares_distribution(self):
        full = make_dataset("synthetic_cifar10", num_samples=50, num_classes=4, seed=0)
        train, evaluation = full.split(eval_fraction=0.2)
        assert len(train) == 40 and len(evaluation) == 10
        # Eval indices map onto the tail of the parent dataset.
        batch = evaluation.get_batch(np.array([0]))
        parent_batch = full.get_batch(np.array([40]))
        assert np.allclose(batch.inputs, parent_batch.inputs)
        # Metadata is delegated to the parent.
        assert train.num_classes == 4

    def test_split_invalid_fraction(self):
        full = make_dataset("synthetic_cifar10", num_samples=10)
        with pytest.raises(ValueError):
            full.split(eval_fraction=1.5)

    def test_input_nbytes(self):
        ds = SyntheticImageClassification(num_samples=2, image_size=8)
        assert ds.input_nbytes_per_sample() == 3 * 8 * 8 * 4


def _counting_get_sample(monkeypatch, cls):
    """Wrap ``cls.get_sample`` to count its calls; returns the one-element counter list."""
    calls = [0]
    original = cls.get_sample

    def counting(self, index):
        calls[0] += 1
        return original(self, index)

    monkeypatch.setattr(cls, "get_sample", counting)
    return calls


IMAGE_DATASETS = [
    pytest.param(lambda: SyntheticImageClassification(num_samples=12, num_classes=4, image_size=8, seed=2),
                 id="classification"),
    pytest.param(lambda: SyntheticSegmentation(num_samples=12, num_classes=4, image_size=8, seed=2),
                 id="segmentation"),
]


class TestSampleStore:
    """The image datasets build each sample once; a batch is a copy out of the store."""

    @pytest.mark.parametrize("make", IMAGE_DATASETS)
    @pytest.mark.parametrize("indices", [
        np.array([7, 2, 11, 0, 5]),
        np.array([3, 3, 9, 3, 9]),
        np.array([-1, 11, -12, 0]),
        np.array([], dtype=np.int64),
        [],
    ], ids=["shuffled", "repeated", "negative", "empty", "empty-list"])
    def test_batch_bytes_equal_the_stacked_samples(self, make, indices):
        ds = make()
        for _ in range(2):  # filling, then served from the store
            batch = ds.get_batch(indices)
            samples = [ds.get_sample(int(index)) for index in indices]
            shape = (ds.channels, ds.image_size, ds.image_size)
            images = np.stack([image for image, _ in samples]) if samples else np.empty((0,) + shape, np.float32)
            targets = np.array([target for _, target in samples], dtype=np.int64)
            assert batch.inputs.dtype == np.float32 and batch.inputs.tobytes() == images.tobytes()
            assert batch.inputs.shape == (len(indices),) + shape
            assert batch.targets.dtype == np.int64 and batch.targets.tobytes() == targets.tobytes()
            assert np.array_equal(batch.indices, np.asarray(indices))

    @pytest.mark.parametrize("make", IMAGE_DATASETS)
    def test_train_and_eval_views_fill_one_store(self, make, monkeypatch):
        ds = make()
        calls = _counting_get_sample(monkeypatch, type(ds))
        train, evaluation = ds.split(eval_fraction=0.25)
        for _ in range(3):
            train.get_batch(np.arange(len(train))[::-1])
            evaluation.get_batch(np.arange(len(evaluation)))
        assert calls[0] == ds.num_samples
        ds.get_batch(np.arange(ds.num_samples))
        assert calls[0] == ds.num_samples

    @pytest.mark.parametrize("make", IMAGE_DATASETS)
    def test_mutating_a_batch_leaves_later_batches_unchanged(self, make):
        ds = make()
        first = ds.get_batch(np.array([4, 1]))
        expected_inputs, expected_targets = first.inputs.copy(), first.targets.copy()
        first.inputs[...] = np.nan
        first.targets[...] = -7
        again = ds.get_batch(np.array([4, 1]))
        assert again.inputs.tobytes() == expected_inputs.tobytes()
        assert np.array_equal(again.targets, expected_targets)

    @pytest.mark.parametrize("make", IMAGE_DATASETS)
    @pytest.mark.parametrize("bad", [12, 40, -13])
    def test_out_of_range_indices_raise(self, make, bad):
        ds = make()
        with pytest.raises(IndexError):
            ds.get_batch(np.array([0, bad]))

    @pytest.mark.parametrize("system", ["egeria", "vanilla"])
    def test_an_18_epoch_fit_materialises_each_sample_once(self, system, monkeypatch, tmp_path):
        """Exact work counter: tiny ``resnet56_cifar10`` trains on 112 samples and
        evaluates on the first 16 of its 28 every epoch (one unshuffled full
        batch).  Re-materialising every batch made 18 x 128 = 2 304
        ``get_sample`` calls."""
        from repro.experiments import build_trainer, build_workload

        calls = _counting_get_sample(monkeypatch, SyntheticImageClassification)
        overrides = {"cache_dir": str(tmp_path)} if system == "egeria" else {}
        trainer = build_trainer(system, build_workload("resnet56_cifar10", scale="tiny", seed=0), **overrides)
        trainer.fit(18)
        if system == "egeria":
            trainer.close()
        assert calls[0] == 128


class TestDataLoader:
    def test_batches_cover_dataset_without_replacement(self):
        ds = make_dataset("synthetic_cifar10", num_samples=32, seed=0)
        loader = DataLoader(ds, batch_size=8, seed=0)
        seen = []
        for batch in loader:
            seen.extend(batch.indices.tolist())
        assert sorted(seen) == list(range(32))

    def test_drop_last(self):
        ds = make_dataset("synthetic_cifar10", num_samples=30, seed=0)
        assert len(DataLoader(ds, batch_size=8, drop_last=True)) == 3
        assert len(DataLoader(ds, batch_size=8, drop_last=False)) == 4

    def test_epoch_order_deterministic_per_epoch(self):
        ds = make_dataset("synthetic_cifar10", num_samples=32, seed=0)
        loader_a = DataLoader(ds, batch_size=8, seed=5)
        loader_b = DataLoader(ds, batch_size=8, seed=5)
        loader_a.set_epoch(3)
        loader_b.set_epoch(3)
        assert np.array_equal(loader_a.next_batch().indices, loader_b.next_batch().indices)

    def test_different_epochs_shuffle_differently(self):
        ds = make_dataset("synthetic_cifar10", num_samples=64, seed=0)
        loader = DataLoader(ds, batch_size=64, seed=0)
        loader.set_epoch(0)
        first = loader.next_batch().indices.copy()
        loader.set_epoch(1)
        second = loader.next_batch().indices.copy()
        assert not np.array_equal(first, second)

    def test_peek_future_matches_actual_iteration(self):
        ds = make_dataset("synthetic_cifar10", num_samples=48, seed=0)
        loader = DataLoader(ds, batch_size=8, seed=0)
        loader.set_epoch(0)
        future = loader.peek_future_indices(num_batches=3)
        actual = [loader.next_batch().indices for _ in range(3)]
        for f, a in zip(future, actual):
            assert np.array_equal(f, a)

    def test_peek_crosses_epoch_boundary(self):
        ds = make_dataset("synthetic_cifar10", num_samples=16, seed=0)
        loader = DataLoader(ds, batch_size=8, seed=0)
        loader.set_epoch(0)
        loader.next_batch()
        future = loader.peek_future_indices(num_batches=3)
        assert len(future) == 3  # 1 left in epoch 0 + 2 from epoch 1

    def test_peek_without_any_full_batch_returns_nothing(self):
        # Regression: batch_size > len(dataset) with drop_last used to loop forever.
        ds = make_dataset("synthetic_cifar10", num_samples=10, seed=0)
        loader = DataLoader(ds, batch_size=16, seed=0)
        assert len(loader) == 0 and loader.next_batch() is None
        assert loader.peek_future_indices(num_batches=3) == []
        # Without drop_last the single short batch is every epoch's future.
        loader = DataLoader(ds, batch_size=16, seed=0, drop_last=False)
        future = loader.peek_future_indices(num_batches=2)
        assert [len(f) for f in future] == [10, 10]

    def test_peek_includes_the_short_tail_batch(self):
        # Regression: with drop_last=False peek skipped the tail next_batch yields.
        ds = make_dataset("synthetic_cifar10", num_samples=10, seed=0)
        loader = DataLoader(ds, batch_size=4, seed=0, drop_last=False)
        future = loader.peek_future_indices(num_batches=5)
        actual = [batch.indices for _ in range(2) for batch in loader][:5]
        assert [len(f) for f in future] == [4, 4, 2, 4, 4]
        for f, a in zip(future, actual):
            assert np.array_equal(f, a)
        # Mid-epoch, from the tail onwards.
        loader.set_epoch(0)
        loader.next_batch(), loader.next_batch()
        future = loader.peek_future_indices(num_batches=2)
        assert np.array_equal(future[0], loader.next_batch().indices) and len(future[1]) == 4

    def test_invalid_batch_size(self):
        ds = make_dataset("synthetic_cifar10", num_samples=8)
        with pytest.raises(ValueError):
            DataLoader(ds, batch_size=0)

    def test_no_shuffle_keeps_order(self):
        ds = make_dataset("synthetic_cifar10", num_samples=16, seed=0)
        loader = DataLoader(ds, batch_size=4, shuffle=False)
        loader.set_epoch(0)
        assert np.array_equal(loader.next_batch().indices, [0, 1, 2, 3])
