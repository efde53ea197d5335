"""Tests for the reference model, SPSC queues, activation cache and prefetcher."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import models, nn
from repro.core import ActivationCache, Prefetcher, ReferenceModel
from repro.core.queues import EvaluationChannels, SPSCQueue
from repro.core.hooks import ActivationRecorder
from repro.data import DataLoader, make_dataset


class TestActivationRecorder:
    def test_captures_named_module_output(self, tiny_model, rng):
        recorder = ActivationRecorder(tiny_model, ["layer1.0"])
        tiny_model(nn.Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32)))
        activation = recorder.get("layer1.0")
        assert activation is not None and activation.shape[0] == 2
        recorder.remove()

    def test_retarget(self, tiny_model, rng):
        recorder = ActivationRecorder(tiny_model, ["layer1.0"])
        recorder.retarget(["layer2.0"])
        tiny_model(nn.Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32)))
        assert recorder.get("layer1.0") is None
        assert recorder.get("layer2.0") is not None
        recorder.remove()

    def test_context_manager_removes_hooks(self, tiny_model, rng):
        with ActivationRecorder(tiny_model, ["conv1"]) as recorder:
            tiny_model(nn.Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32)))
            assert recorder.get("conv1") is not None
        assert not tiny_model.get_submodule("conv1")._forward_hooks


class TestReferenceModel:
    def _factory(self):
        return models.resnet8(num_classes=4, width=0.5, seed=0)

    def test_generate_copies_weights_with_quantization_error(self, tiny_model):
        reference = ReferenceModel(self._factory, precision="int8")
        reference.generate(tiny_model, iteration=5)
        assert reference.model is not None
        original = tiny_model.conv1.weight.data
        quantized = reference.model.conv1.weight.data
        assert np.allclose(original, quantized, atol=0.1)
        assert reference.stats.generations == 1
        assert reference.stats.last_snapshot_iteration == 5

    def test_update_and_staleness(self, tiny_model):
        reference = ReferenceModel(self._factory)
        reference.generate(tiny_model, iteration=0)
        tiny_model.conv1.weight.data += 1.0
        reference.update(tiny_model, iteration=10)
        assert reference.stats.updates == 1
        assert reference.staleness(15) == 5
        assert np.allclose(reference.model.conv1.weight.data, tiny_model.conv1.weight.data, atol=0.2)

    def test_forward_returns_hooked_activation(self, tiny_model, rng):
        reference = ReferenceModel(self._factory)
        reference.monitor(["layer1.0"])
        reference.generate(tiny_model)
        activations = reference.forward(nn.Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32)))
        assert "layer1.0" in activations
        assert reference.stats.forward_passes == 1

    def test_forward_without_generate_raises(self):
        reference = ReferenceModel(self._factory)
        with pytest.raises(RuntimeError):
            reference.forward(nn.Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)))

    def test_precision_metadata(self):
        assert ReferenceModel(self._factory, precision="int8").cpu_speedup > \
            ReferenceModel(self._factory, precision="float32").cpu_speedup
        assert ReferenceModel(self._factory, precision="int8").memory_ratio < 1.0
        with pytest.raises(ValueError):
            ReferenceModel(self._factory, precision="int2")

    def test_estimated_forward_seconds(self):
        reference = ReferenceModel(self._factory, precision="int8")
        assert reference.estimated_forward_seconds(3.59) == pytest.approx(1.0)


class TestSPSCQueue:
    def test_fifo_order(self):
        queue = SPSCQueue(maxsize=4)
        for i in range(3):
            assert queue.put(i)
        assert [queue.get(), queue.get(), queue.get()] == [0, 1, 2]
        assert queue.get() is None

    def test_drop_when_full(self):
        queue = SPSCQueue(maxsize=2)
        assert queue.put(1) and queue.put(2)
        assert not queue.put(3)
        assert queue.dropped == 1
        assert len(queue) == 2

    def test_peek_and_clear(self):
        queue = SPSCQueue(maxsize=2)
        queue.put("a")
        assert queue.peek() == "a" and len(queue) == 1
        queue.clear()
        assert queue.empty()

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            SPSCQueue(maxsize=0)

    def test_evaluation_channels(self):
        channels = EvaluationChannels()
        channels.training_output_queue.put({"iteration": 1})
        assert channels.pending_evaluations() == 1
        channels.clear()
        assert channels.pending_evaluations() == 0


class TestActivationCache:
    def test_store_and_load_roundtrip(self, tmp_path, rng):
        cache = ActivationCache(cache_dir=str(tmp_path), memory_batches=2, batch_size=4)
        activation = rng.standard_normal((8, 4)).astype(np.float32)
        assert cache.store(3, activation)
        loaded = cache.load(3)
        assert np.allclose(loaded, activation)
        assert cache.stats.hits == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ActivationCache(cache_dir=str(tmp_path))
        assert cache.load(99) is None
        assert cache.stats.misses == 1

    def test_load_batch_all_or_nothing(self, tmp_path, rng):
        cache = ActivationCache(cache_dir=str(tmp_path))
        acts = rng.standard_normal((4, 6)).astype(np.float32)
        cache.store_batch([0, 1, 2, 3], acts)
        batch = cache.load_batch([0, 1, 2, 3])
        assert batch.shape == (4, 6)
        assert cache.load_batch([0, 1, 99]) is None

    def test_memory_eviction_lru(self, tmp_path, rng):
        cache = ActivationCache(cache_dir=str(tmp_path), memory_batches=1, batch_size=2)
        for i in range(5):
            cache.store(i, rng.standard_normal(3).astype(np.float32))
            cache.load(i)
        assert cache.memory_entries <= 2
        # Evicted entries are still served from disk.
        assert cache.load(0) is not None

    def test_invalidate_on_prefix_version_change(self, tmp_path, rng):
        cache = ActivationCache(cache_dir=str(tmp_path))
        cache.store(1, rng.standard_normal(3).astype(np.float32))
        cache.set_prefix_version(2)
        assert cache.load(1) is None
        assert cache.stats.invalidations == 1
        assert cache.disk_bytes == 0

    def test_disk_budget_respected(self, tmp_path, rng):
        activation = rng.standard_normal(100).astype(np.float32)
        cache = ActivationCache(cache_dir=str(tmp_path), max_disk_bytes=activation.nbytes)
        assert cache.store(0, activation)
        assert not cache.store(1, activation)

    def test_restore_same_sample_does_not_double_count_disk_bytes(self, tmp_path, rng):
        cache = ActivationCache(cache_dir=str(tmp_path))
        activation = rng.standard_normal(50).astype(np.float32)
        assert cache.store(0, activation)
        assert cache.store(0, activation + 1.0)  # overwrite, same version
        assert cache.disk_bytes == activation.nbytes
        assert cache.storage_ratio(input_bytes_per_sample=activation.nbytes) == pytest.approx(1.0)
        # The overwritten content is what loads serve.
        assert np.allclose(cache.load(0), activation + 1.0)

    def test_restore_within_budget_replaces_instead_of_rejecting(self, tmp_path, rng):
        activation = rng.standard_normal(100).astype(np.float32)
        cache = ActivationCache(cache_dir=str(tmp_path), max_disk_bytes=activation.nbytes)
        assert cache.store(0, activation)
        # Re-storing the same sample replaces its bytes: still within budget.
        assert cache.store(0, activation * 2.0)
        assert cache.disk_bytes == activation.nbytes
        # A genuinely larger replacement that would blow the budget is rejected.
        assert not cache.store(0, rng.standard_normal(200).astype(np.float32))

    def test_restore_refreshes_in_memory_copy(self, tmp_path, rng):
        cache = ActivationCache(cache_dir=str(tmp_path))
        first = rng.standard_normal(8).astype(np.float32)
        cache.store(0, first)
        cache.load(0)  # pulls the entry into the in-memory table
        updated = first * 3.0
        cache.store(0, updated)
        assert np.allclose(cache.load(0), updated)

    def test_generation_monotonic_and_unconditional(self, tmp_path, rng):
        cache = ActivationCache(cache_dir=str(tmp_path))
        g0 = cache.generation
        cache.set_prefix_version(2)
        assert cache.generation == g0 + 1
        cache.set_prefix_version(2)  # unchanged prefix: no new generation
        assert cache.generation == g0 + 1
        g = cache.new_generation()   # unfreeze path: bumps even without a prefix change
        assert g == g0 + 2
        assert cache.generation == g0 + 2

    def test_refreeze_to_same_prefix_never_aliases(self, tmp_path, rng):
        """Freeze -> unfreeze -> refreeze to the same length must miss.

        Reproduces the aliasing hazard: entries written while the prefix
        version is numerically identical to a later ``frozen_prefix_length``
        must not survive the unfreeze in between.
        """
        cache = ActivationCache(cache_dir=str(tmp_path))
        cache.set_prefix_version(1)
        cache.set_prefix_version(2)          # prefix grows to 2
        stale = rng.standard_normal(6).astype(np.float32)
        cache.store(7, stale)
        cache.prefix_version = 0
        cache.new_generation()               # unfreeze: unconditional invalidation
        cache.store(7, stale + 1.0)          # entries written while unfrozen-era
        cache.set_prefix_version(2)          # refreeze straight back to length 2
        assert cache.load(7) is None         # nothing stale served
        assert cache.disk_bytes == 0

    def test_storage_ratio(self, tmp_path, rng):
        cache = ActivationCache(cache_dir=str(tmp_path))
        cache.store(0, rng.standard_normal((8, 8)).astype(np.float32))
        ratio = cache.storage_ratio(input_bytes_per_sample=64)
        assert ratio == pytest.approx((8 * 8 * 4) / 64)

    def test_temporary_dir_cleanup(self, rng):
        cache = ActivationCache()
        path = cache.cache_dir
        cache.store(0, rng.standard_normal(3).astype(np.float32))
        cache.close()
        assert not os.path.isdir(path)

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=30, unique=True))
    @settings(max_examples=15, deadline=None)
    def test_property_every_stored_sample_is_loadable(self, sample_ids):
        rng = np.random.default_rng(0)
        with ActivationCache(memory_batches=2, batch_size=4) as cache:
            for sample_id in sample_ids:
                cache.store(sample_id, rng.standard_normal(5).astype(np.float32))
            for sample_id in sample_ids:
                assert cache.load(sample_id) is not None


class TestSlabCache:
    """Batch-granular properties of the memory-mapped slab layout."""

    @given(st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=24, unique=True),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_property_batch_round_trip(self, sample_ids, memory_batches):
        rng = np.random.default_rng(len(sample_ids))
        rows = rng.standard_normal((len(sample_ids), 3, 2)).astype(np.float32)
        with ActivationCache(memory_batches=memory_batches, batch_size=4) as cache:
            assert cache.store_batch(sample_ids, rows) == len(sample_ids)
            assert os.listdir(cache.cache_dir) == [f"slab_g{cache.generation}.f32"]  # one file, not one per sample
            for _ in range(2):  # from the slab, then (what fits) from the in-memory table
                assert np.array_equal(cache.load_batch(sample_ids), rows)
            assert np.array_equal(cache.load_batch(sample_ids[::-1]), rows[::-1])
            assert cache.memory_entries <= cache.memory_capacity
            assert cache.stats.hits == 3 * len(sample_ids) and cache.stats.misses == 0
            assert cache.load_batch(sample_ids + [301]) is None
            assert cache.stats.hits == 4 * len(sample_ids) and cache.stats.misses == 1

    def test_overwrite_counts_only_the_delta_against_the_budget(self, tmp_path, rng):
        rows = rng.standard_normal((4, 10)).astype(np.float32)
        cache = ActivationCache(cache_dir=str(tmp_path), max_disk_bytes=6 * rows[0].nbytes)
        assert cache.store_batch([0, 1, 2, 3], rows) == 4
        assert cache.store_batch([0, 1, 2, 3], rows + 1.0) == 4      # all overwrites: no new bytes
        assert cache.disk_bytes == 4 * rows[0].nbytes
        # Two overwrites and two of the three new rows fit; the rejected one misses later.
        assert cache.store_batch([2, 3, 7, 8, 9], np.concatenate([rows, rows[:1]]) + 2.0) == 4
        assert cache.disk_bytes == 6 * rows[0].nbytes == cache.max_disk_bytes
        assert np.array_equal(cache.load_batch([0, 2, 7, 8]), np.stack([rows[0] + 1, rows[0] + 2, rows[2] + 2, rows[3] + 2]))
        assert cache.load(9) is None
        assert cache.stats.bytes_written == 12 * rows[0].nbytes

    def test_new_generation_never_serves_an_earlier_row(self, tmp_path, rng):
        cache = ActivationCache(cache_dir=str(tmp_path), memory_batches=2, batch_size=4)
        stale = rng.standard_normal((4, 5)).astype(np.float32)
        cache.store_batch([0, 1, 2, 3], stale)
        cache.load_batch([0, 1, 2, 3])           # resident in the in-memory table too
        old_slab = os.path.join(str(tmp_path), f"slab_g{cache.generation}.f32")
        cache.new_generation()
        assert not os.path.exists(old_slab)
        assert cache.load_batch([0, 1, 2, 3]) is None and cache.memory_entries == 0
        assert cache.warm([0, 1, 2, 3]) == 0
        cache.store_batch([1], stale[:1] + 1.0)   # the new generation may use another row shape, too
        assert cache.load_batch([0, 1]) is None
        assert np.array_equal(cache.load(1), stale[0] + 1.0)

    def test_manifest_round_trip_reattaches_surviving_rows(self, tmp_path, rng):
        rows = rng.standard_normal((6, 2, 3)).astype(np.float32)
        cache = ActivationCache(cache_dir=str(tmp_path / "a"))
        cache.set_prefix_version(2)
        cache.store_batch([5, 1, 9, 0, 40, 3], rows)
        cache.load_batch([5, 1])
        manifest = cache.manifest()
        assert manifest["entries"] == {"row_shape": [2, 3], "row_order": [0, 1, 2], "samples": [0, 1, 3, 5, 9, 40]}

        same_dir = ActivationCache(cache_dir=str(tmp_path / "a"))
        assert same_dir.load_manifest(manifest) == 6
        assert (same_dir.generation, same_dir.prefix_version) == (cache.generation, 2)
        assert same_dir.stats == cache.stats and same_dir.disk_bytes == cache.disk_bytes
        assert np.array_equal(same_dir.load_batch([5, 1, 9, 0, 40, 3]), rows)
        assert same_dir.manifest()["entries"] == manifest["entries"]

        elsewhere = ActivationCache(cache_dir=str(tmp_path / "b"))   # e.g. restored on another machine
        assert elsewhere.load_manifest(manifest) == 0
        assert elsewhere.load_batch([5, 1]) is None and elsewhere.generation == cache.generation
        assert elsewhere.store_batch([5], rows[:1]) == 1             # and it caches again from there

    def test_rows_come_back_in_the_memory_order_they_were_stored_in(self, tmp_path, rng):
        """A convolution's output is a channels-last view; a reduction over a C-ordered copy rounds differently."""
        batch = rng.standard_normal((4, 5, 5, 3)).astype(np.float32).transpose(0, 3, 1, 2)
        cache = ActivationCache(cache_dir=str(tmp_path / "a"), memory_batches=1, batch_size=2)
        cache.store_batch([3, 0, 2, 1], batch)
        assert cache.store_batch([4], np.ascontiguousarray(batch[:1])) == 0  # another order: rejected, recomputed later
        restored = ActivationCache(cache_dir=str(tmp_path / "a"))
        restored.load_manifest(cache.manifest())
        for source in (cache, cache, restored):  # from the slab, from the table, after a restore
            loaded = source.load_batch([3, 0, 2, 1])
            assert np.array_equal(loaded, batch) and loaded.strides == batch.strides
            assert np.array_equal(loaded.sum(axis=(0, 2, 3)), batch.sum(axis=(0, 2, 3)))
        assert source.load(2).strides == batch[2].strides

    def test_slab_grows_when_a_larger_sample_id_arrives(self, tmp_path, rng):
        cache = ActivationCache(cache_dir=str(tmp_path), memory_batches=1, batch_size=2)
        rows = rng.standard_normal((3, 4)).astype(np.float32)
        cache.store_batch([0, 1, 2], rows)
        cache.load_batch([1, 2])
        assert cache.load(5000) is None                     # a lookup past the end is a plain miss
        assert cache.store(5000, rows[0] * 2.0)
        assert np.array_equal(cache.load_batch([5000, 0, 1, 2]), np.concatenate([rows[:1] * 2.0, rows]))
        assert cache.disk_bytes == 4 * rows[0].nbytes        # the file is sparse: holes are not "stored"
        assert cache.memory_entries == cache.memory_capacity == 2


class TestPrefetcher:
    def test_prefetch_pulls_future_batches_into_memory(self, tmp_path, rng):
        dataset = make_dataset("synthetic_cifar10", num_samples=32, seed=0)
        loader = DataLoader(dataset, batch_size=8, seed=0)
        loader.set_epoch(0)
        cache = ActivationCache(cache_dir=str(tmp_path), memory_batches=4, batch_size=8)
        for i in range(32):
            cache.store(i, rng.standard_normal(4).astype(np.float32))
        assert cache.memory_entries == 0  # storing alone makes nothing resident
        prefetcher = Prefetcher(cache, lookahead_batches=2)
        loaded = prefetcher.prefetch(loader.peek_future_indices(num_batches=2))
        assert loaded == 16
        assert cache.stats.prefetches == 16
        # The prefetched samples hit in memory without another disk read.
        future = loader.peek_future_indices(num_batches=1)[0]
        assert cache.memory_entries == 16
        assert cache.load_batch(future) is not None and cache.memory_entries == 16  # nothing new was read

    def test_prefetch_skips_missing_entries(self, tmp_path):
        cache = ActivationCache(cache_dir=str(tmp_path))
        prefetcher = Prefetcher(cache, lookahead_batches=1)
        assert prefetcher.prefetch([[1, 2, 3]]) == 0
