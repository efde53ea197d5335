"""Tests for the freezing-aware checkpoint & fault-tolerance subsystem."""

import gc
import json
import os
import sys
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles.ckpt_reference import ReferenceCheckpointManager, reference_tensor_digest

from repro.ckpt import (
    CheckpointManager,
    DirectoryBackend,
    MemoryBackend,
    join_state,
    split_state,
    tensor_digest,
)
from repro.core import ActivationCache, ReferenceModel
from repro.core.modules import parse_layer_modules
from repro.experiments import build_trainer, build_workload
from repro.models import resnet8
from repro.optim import SGD, Adam, AdamW, MultiStepLR
from repro.sim import ClusterScheduler, CostModel, SimJob, paper_testbed_cluster


# --------------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------------- #
class TestSerialization:
    def test_digest_depends_on_content_shape_dtype(self):
        a = np.arange(6, dtype=np.float32)
        assert tensor_digest(a) == tensor_digest(a.copy())
        assert tensor_digest(a) != tensor_digest(a.reshape(2, 3))
        assert tensor_digest(a) != tensor_digest(a.astype(np.float64))
        assert tensor_digest(a) != tensor_digest(a + 1)

    def test_split_join_roundtrip(self):
        state = {
            "model": {"w": np.ones((2, 3), dtype=np.float32), "b": np.zeros(3, dtype=np.float32)},
            "nested": {"list": [1, 2.5, "x", None, np.arange(4)]},
            "scalar": np.float64(3.25),
        }
        tree, tensors = split_state(state)
        # The tree is JSON-serializable and the scalar became a Python float.
        json.dumps(tree)
        assert tree["scalar"] == 3.25
        restored = join_state(tree, lambda digest: tensors[digest])
        assert np.array_equal(restored["model"]["w"], state["model"]["w"])
        assert np.array_equal(restored["nested"]["list"][4], np.arange(4))

    def test_identical_tensors_share_one_object(self):
        shared = np.full((4, 4), 7.0, dtype=np.float32)
        _tree, tensors = split_state({"a": shared, "b": shared.copy()})
        assert len(tensors) == 1

    def test_unsupported_leaf_raises(self):
        with pytest.raises(TypeError):
            split_state({"bad": object()})


# --------------------------------------------------------------------------- #
# Backends
# --------------------------------------------------------------------------- #
@pytest.fixture(params=["memory", "directory"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return DirectoryBackend(str(tmp_path / "store"))


class TestBackends:
    def test_object_dedup_and_roundtrip(self, backend):
        array = np.random.default_rng(0).standard_normal((5, 5)).astype(np.float32)
        digest = tensor_digest(array)
        assert not backend.has_object(digest)
        assert backend.write_object(digest, array) == array.nbytes
        assert backend.has_object(digest)
        # Re-writing the same digest is free (content-addressed dedup).
        assert backend.write_object(digest, array) == 0
        assert np.array_equal(backend.read_object(digest), array)

    def test_manifest_roundtrip_and_order(self, backend):
        backend.write_manifest("ckpt-0000000002", {"step": 2})
        backend.write_manifest("ckpt-0000000001", {"step": 1})
        assert backend.list_checkpoints() == ["ckpt-0000000001", "ckpt-0000000002"]
        assert backend.read_manifest("ckpt-0000000002")["step"] == 2

    def test_missing_keys_raise(self, backend):
        with pytest.raises(KeyError):
            backend.read_object("deadbeef")
        with pytest.raises(KeyError):
            backend.read_manifest("ckpt-nope")


class TestDirectoryBackendAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        backend = DirectoryBackend(str(tmp_path / "store"))
        backend.write_object("abc", np.arange(10, dtype=np.float32))
        backend.write_manifest("ckpt-0000000001", {"step": 1})
        leftovers = [name for root, _dirs, files in os.walk(str(tmp_path))
                     for name in files if name.startswith(".tmp_")]
        assert leftovers == []

    def test_a_write_that_raises_midway_leaves_nothing_behind(self, tmp_path, monkeypatch):
        backend = DirectoryBackend(str(tmp_path / "store"))
        backend.write_object("kept", np.arange(4, dtype=np.float32))
        backend.write_manifest("ckpt-0000000001", {"step": 1})
        store = (backend.objects_dir, backend.manifests_dir)
        before = [sorted(os.listdir(directory)) for directory in store]
        listed = backend.list_checkpoints()

        def half_an_array(handle, array):
            handle.write(b"\x93NUMPY")
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", half_an_array)
        with pytest.raises(OSError, match="disk full"):
            backend.write_object("broken", np.arange(4, dtype=np.float32))

        def half_a_manifest(handle):
            handle.write(b'{"step": 2')
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            backend._atomic_write(backend._manifest_path("ckpt-0000000002"), half_a_manifest)

        assert [sorted(os.listdir(directory)) for directory in store] == before
        assert not backend.has_object("broken")
        assert backend.list_checkpoints() == listed == ["ckpt-0000000001"]

    def test_survives_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        manager = CheckpointManager(DirectoryBackend(root))
        manager.save({"w": np.ones(3, dtype=np.float32), "step_count": 5}, step=1)
        reopened = CheckpointManager(DirectoryBackend(root))
        state = reopened.restore()
        assert state["step_count"] == 5
        assert np.array_equal(state["w"], np.ones(3, dtype=np.float32))


# --------------------------------------------------------------------------- #
# Manager
# --------------------------------------------------------------------------- #
class TestCheckpointManager:
    def test_incremental_bytes_only_cover_changed_tensors(self):
        manager = CheckpointManager(MemoryBackend())
        frozen = np.ones((100,), dtype=np.float32)
        active = np.zeros((50,), dtype=np.float32)
        first = manager.save({"frozen": frozen, "active": active}, step=1)
        assert first.bytes_written == frozen.nbytes + active.nbytes
        # Only the active tensor changed: the frozen one deduplicates.
        second = manager.save({"frozen": frozen, "active": active + 1}, step=2)
        assert second.bytes_written == active.nbytes
        assert second.payload_bytes == first.payload_bytes
        assert second.num_new_tensors == 1

    def test_restore_latest_and_named(self):
        manager = CheckpointManager(MemoryBackend())
        manager.save({"x": np.array([1.0], dtype=np.float32)}, step=1)
        info = manager.save({"x": np.array([2.0], dtype=np.float32)}, step=2)
        assert manager.latest() == info.checkpoint_id
        assert manager.restore()["x"][0] == 2.0
        assert manager.restore(manager.list_checkpoints()[0])["x"][0] == 1.0

    def test_inspect_carries_meta_and_sections(self):
        manager = CheckpointManager(MemoryBackend())
        manager.save({"model": {"w": np.ones(4, dtype=np.float32)}, "iteration": 3},
                     step=3, meta={"frozen_prefix": 2})
        row = manager.inspect()
        assert row["meta"]["frozen_prefix"] == 2
        assert row["bytes_written_by_section"]["model"] == 16
        assert manager.history() == [row]

    def test_restore_empty_raises(self):
        with pytest.raises(KeyError):
            CheckpointManager(MemoryBackend()).restore()


# --------------------------------------------------------------------------- #
# Optimizer / scheduler state round-trips
# --------------------------------------------------------------------------- #
def _train_steps(model, optimizer, steps=3, seed=0):
    rng = np.random.default_rng(seed)
    from repro.nn import Tensor

    for _ in range(steps):
        x = Tensor(rng.standard_normal((4, 3, 8, 8)).astype(np.float32))
        out = model(x)
        out.sum().backward()
        optimizer.step()
        optimizer.zero_grad()


@pytest.mark.parametrize("make_optimizer", [
    lambda params: SGD(params, lr=0.05, momentum=0.9, weight_decay=1e-4),
    lambda params: Adam(params, lr=1e-3),
    lambda params: AdamW(params, lr=1e-3, weight_decay=0.01),
])
def test_optimizer_state_roundtrip_preserves_updates(make_optimizer):
    model_a = resnet8(num_classes=4, width=0.5, seed=0)
    opt_a = make_optimizer(model_a.parameters())
    _train_steps(model_a, opt_a, steps=3)

    # Clone into a fresh model/optimizer pair via the state dicts.
    model_b = resnet8(num_classes=4, width=0.5, seed=1)
    model_b.load_state_dict(model_a.state_dict())
    opt_b = make_optimizer(model_b.parameters())
    opt_b.load_state_dict(opt_a.state_dict())
    assert opt_b.step_count == opt_a.step_count

    # The next updates must coincide exactly (same moments, same velocity).
    _train_steps(model_a, opt_a, steps=2, seed=7)
    _train_steps(model_b, opt_b, steps=2, seed=7)
    for (key, value_a), value_b in zip(model_a.state_dict().items(), model_b.state_dict().values()):
        assert np.array_equal(value_a, value_b), key


def test_lr_scheduler_state_roundtrip():
    model = resnet8(num_classes=4, width=0.5, seed=0)
    optimizer = SGD(model.parameters(), lr=0.4)
    scheduler = MultiStepLR(optimizer, milestones=[2, 4], gamma=0.1)
    for epoch in range(5):
        scheduler.step(epoch)
    state = scheduler.state_dict()

    optimizer2 = SGD(model.parameters(), lr=0.4)
    scheduler2 = MultiStepLR(optimizer2, milestones=[2, 4], gamma=0.1)
    scheduler2.load_state_dict(state)
    assert scheduler2.last_epoch == scheduler.last_epoch
    assert optimizer2.lr == optimizer.lr


# --------------------------------------------------------------------------- #
# Trainer checkpoint -> restore -> train bit-exactness
# --------------------------------------------------------------------------- #
def _history_rows(history):
    return [(r.epoch, r.train_loss, r.metric, r.simulated_time, r.learning_rate,
             r.frozen_fraction, r.cached_fp) for r in history.records]


def _enable_dropout(trainer, p=0.1):
    """The registry models build their Dropout layers with p = 0 (no draw) and unseeded; switch them on."""
    from repro import nn

    layers = [module for module in trainer.model.modules() if isinstance(module, nn.Dropout)]
    for index, layer in enumerate(layers):
        layer.p = p
        layer.reseed(1000 + index)
    return layers


@pytest.mark.parametrize("workload_name,system,total_epochs,resume_epoch,in_place", [
    pytest.param("resnet56_cifar10", "vanilla", 6, 3, False, id="vanilla-6-3"),
    pytest.param("resnet56_cifar10", "egeria", 8, 4, False, id="egeria-8-4"),
    pytest.param("transformer_tiny_wmt16", "egeria", 8, 4, False, id="egeria-dropout-8-4"),
    pytest.param("resnet56_cifar10", "egeria", 12, 6, True, id="egeria-in-place-12-6"),
    pytest.param("transformer_tiny_wmt16", "egeria", 8, 4, True, id="egeria-dropout-in-place-8-4"),
])
def test_trainer_resume_is_bit_exact(workload_name, system, total_epochs, resume_epoch, in_place):
    """Restoring mid-run reproduces the uninterrupted run's exact trajectory.

    ``egeria-8-4`` checkpoints *before* the first freeze fires, so the
    restored run must also reproduce the same freezing decisions afterwards.
    The transformer runs with its Dropout layers switched on: the per-layer
    generators resume mid-stream, and installing the restored reference model
    must not disturb them.  ``in_place`` is the ``TrainerJob`` rollback: the
    trainer that saved trains two epochs further, restores into itself (its
    reference model, if it has one by then, is reused) and goes on.
    """
    workload = build_workload(workload_name, scale="tiny", seed=0)
    dropout = workload_name == "transformer_tiny_wmt16"

    def build():
        trainer = build_trainer(system, workload)
        if dropout:
            assert _enable_dropout(trainer)
        return trainer

    uninterrupted = build()
    full_history = uninterrupted.fit(total_epochs)
    full_timeline = (uninterrupted.freezing_timeline()
                     if hasattr(uninterrupted, "freezing_timeline") else [])
    if hasattr(uninterrupted, "close"):
        uninterrupted.close()

    manager = CheckpointManager(MemoryBackend())
    first_leg = build()
    first_leg.configure_checkpointing(manager, checkpoint_every=resume_epoch)
    first_leg.fit(resume_epoch)
    checkpoint_id = manager.latest()
    assert checkpoint_id is not None

    if in_place:
        first_leg.fit(resume_epoch + 2)
        assert first_leg.reference.model is not None, "scenario needs a live reference model to roll back"
        reference_model = first_leg.reference.model
        resumed = first_leg.restore(checkpoint_id)
        assert resumed.reference.model in (reference_model, None)
    else:
        if hasattr(first_leg, "close"):
            first_leg.close()
        resumed = build()
        resumed.configure_checkpointing(manager)
        resumed.restore()
    resumed_history = resumed.fit(total_epochs)
    resumed_timeline = (resumed.freezing_timeline()
                        if hasattr(resumed, "freezing_timeline") else [])
    if hasattr(resumed, "close"):
        resumed.close()

    assert _history_rows(resumed_history) == _history_rows(full_history)
    assert resumed_timeline == full_timeline


def test_egeria_trainer_is_freed_without_the_cyclic_collector_and_counts_on_after_an_in_place_restore():
    """The reference model's block counter and the activation recorders hold
    their owners weakly: a bound-method hook made the reference model and its
    ``ReferenceModel`` a cycle, and the recorder's hook closure did the same
    with the training model, so a discarded trainer's two models lived until a
    cyclic collection.  The counter still counts into the stats object an
    in-place ``restore()`` installs (a hook holding the old one read 11 blocks
    instead of 38 at epoch 8)."""
    keys = ("reference_blocks_executed", "training_forwards")
    workload = build_workload("resnet56_cifar10", scale="tiny", seed=0)
    uninterrupted = build_trainer("egeria", workload)
    uninterrupted.fit(8)
    expected = {key: uninterrupted.summary()[key] for key in keys}
    uninterrupted.close()

    manager = CheckpointManager(MemoryBackend())
    trainer = build_trainer("egeria", workload)
    trainer.configure_checkpointing(manager, checkpoint_every=4)
    trainer.fit(4)
    saved = {key: trainer.summary()[key] for key in keys}
    trainer.fit(6)
    assert trainer.reference.model is not None
    assert trainer.restore(manager.latest()) is trainer
    assert {key: trainer.summary()[key] for key in keys} == saved
    trainer.fit(8)
    assert {key: trainer.summary()[key] for key in keys} == expected
    trainer.close()

    gc.disable()
    try:
        alive = [weakref.ref(trainer.model), weakref.ref(trainer.reference.model)]
        del trainer
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


def test_egeria_resume_after_freeze_keeps_frozen_state():
    """Checkpointing *after* modules froze restores the frozen prefix, the
    BatchNorm inference mode and the monitored-module cursor."""
    workload = build_workload("resnet56_cifar10", scale="tiny", seed=0)
    manager = CheckpointManager(MemoryBackend())
    trainer = build_trainer("egeria", workload)
    trainer.configure_checkpointing(manager, checkpoint_every=6)
    trainer.fit(6)
    frozen_before = trainer.engine.num_frozen()
    frontmost_before = trainer.engine.frontmost_active
    trainer.close()
    assert frozen_before > 0, "scenario needs at least one frozen module by epoch 6"

    resumed = build_trainer("egeria", workload)
    resumed.configure_checkpointing(manager)
    resumed.restore()
    assert resumed.engine.num_frozen() == frozen_before
    assert resumed.engine.frontmost_active == frontmost_before
    assert resumed.frozen_prefix() == frozen_before
    # Frozen modules' BatchNorm layers run in inference mode (cache validity).
    from repro.nn.layers import BatchNorm2d

    for layer_module in resumed.engine.frozen_modules():
        for block in layer_module.blocks:
            for submodule in block.modules():
                if isinstance(submodule, BatchNorm2d):
                    assert not submodule.training
    resumed.close()


def test_dropout_rng_streams_are_checkpointed():
    """Per-layer Dropout generators resume mid-stream, not from their seed."""
    from repro import nn
    from repro.core.trainer import _capture_module_rng_states, _restore_module_rng_states

    class Net(nn.Module):
        def __init__(self):
            super().__init__()
            self.drop_a = nn.Dropout(p=0.5, seed=1)
            self.drop_b = nn.Dropout(p=0.5, seed=2)

        def forward(self, x):
            return self.drop_b(self.drop_a(x))

    model = Net()
    x = np.ones((4, 8), dtype=np.float32)
    # Advance both streams past their seed position.
    model.drop_a._rng.random(17)
    model.drop_b._rng.random(3)
    states = _capture_module_rng_states(model)
    assert set(states) == {"drop_a", "drop_b"}
    expected_a = model.drop_a._rng.random(5).tolist()
    expected_b = model.drop_b._rng.random(5).tolist()

    # A fresh model restarts from the seeds; restoring must resume mid-stream.
    twin = Net()
    assert twin.drop_a._rng.random(5).tolist() != expected_a
    twin = Net()
    _restore_module_rng_states(twin, states)
    assert twin.drop_a._rng.random(5).tolist() == expected_a
    assert twin.drop_b._rng.random(5).tolist() == expected_b
    del x


def test_trainer_state_dict_includes_module_rng():
    workload = build_workload("bert_squad", scale="tiny", seed=0)
    trainer = build_trainer("vanilla", workload)
    state = trainer.state_dict()
    # BERT's encoder layers carry Dropout modules with per-layer generators.
    assert state["module_rng"], "expected per-module RNG streams in the snapshot"


def test_checkpoint_bytes_shrink_as_prefix_advances():
    """Model+optimizer checkpoint bytes fall monotonically with the prefix."""
    workload = build_workload("resnet56_cifar10", scale="tiny", seed=0)
    manager = CheckpointManager(MemoryBackend())
    trainer = build_trainer("egeria", workload)
    trainer.configure_checkpointing(manager, checkpoint_every=1)
    trainer.fit(workload.num_epochs)
    trainer.close()

    best_by_prefix = {}
    for info in manager.history():
        sections = info["bytes_written_by_section"]
        core = sections.get("model", 0) + sections.get("optimizer", 0)
        prefix = info["meta"]["frozen_prefix"]
        best_by_prefix[prefix] = min(best_by_prefix.get(prefix, core), core)
    prefixes = sorted(best_by_prefix)
    assert len(prefixes) >= 2, "scenario needs the prefix to advance"
    for smaller, larger in zip(prefixes, prefixes[1:]):
        assert best_by_prefix[larger] < best_by_prefix[smaller]


# --------------------------------------------------------------------------- #
# The save path against its oracle (tests/oracles/ckpt_reference.py)
# --------------------------------------------------------------------------- #
def _store_contents(backend):
    """``(manifest text by checkpoint id, object bytes by digest)`` of either backend."""
    if isinstance(backend, MemoryBackend):
        return (dict(backend._manifests),
                {digest: (array.dtype.str, array.shape, array.tobytes())
                 for digest, array in backend._objects.items()})

    def read(directory):
        contents = {}
        for name in os.listdir(directory):
            with open(os.path.join(directory, name), "rb") as handle:
                contents[name] = handle.read()
        return contents

    return read(backend.manifests_dir), read(backend.objects_dir)


def _egeria_life_cycle(epochs=18):
    """Yield a seed-0 ``EgeriaTrainer`` after each epoch of the benchmark's CNN run.

    18 tiny-scale epochs pass through bootstrapping, the first freeze, both
    LR-drop unfreezes with their refreezes, and several reference updates.
    """
    workload = build_workload("resnet56_cifar10", scale="tiny", seed=0)
    trainer = build_trainer("egeria", workload)
    try:
        for epoch in range(1, epochs + 1):
            trainer.fit(epoch)
            yield trainer
        actions = Counter(event["action"] for event in trainer.freezing_timeline())
        assert actions["freeze"] + actions["refreeze"] >= 2 and actions["unfreeze"] >= 1
        assert trainer.controller.reference_updates >= 1
    finally:
        trainer.close()


def test_save_leaves_the_store_the_oracle_leaves(tmp_path):
    """Manifest text, object names and object bytes equal the four-pass oracle's, on both backends."""
    pairs = [(CheckpointManager(MemoryBackend()), ReferenceCheckpointManager(MemoryBackend())),
             (CheckpointManager(DirectoryBackend(str(tmp_path / "new"))),
              ReferenceCheckpointManager(DirectoryBackend(str(tmp_path / "oracle"))))]
    saved = []
    for trainer in _egeria_life_cycle():
        state = trainer.state_dict()
        meta = {"epoch": len(saved), "frozen_prefix": trainer.frozen_prefix(),
                "frozen_fraction": np.float64(trainer.frozen_fraction())}
        infos = [manager.save(state, step=trainer.iteration, meta=meta)
                 for pair in pairs for manager in pair]
        assert all(info == infos[0] for info in infos)
        saved.append(split_state(state)[0])
    assert 0 < infos[0].num_new_tensors < infos[0].num_tensors  # the last save wrote some tensors, not all

    for manager, oracle in pairs:
        manifests, objects = _store_contents(manager.backend)
        oracle_manifests, oracle_objects = _store_contents(oracle.backend)
        assert manifests == oracle_manifests
        assert objects.keys() == oracle_objects.keys()
        assert objects == oracle_objects
        # Either side's store restores under the other: same ids, same states.
        crossed = CheckpointManager(oracle.backend), ReferenceCheckpointManager(manager.backend)
        for reader in crossed:
            assert reader.list_checkpoints() == manager.list_checkpoints()
            for checkpoint_id, tree in zip(reader.list_checkpoints(), saved):
                assert split_state(reader.restore(checkpoint_id))[0] == tree


def test_save_of_a_non_dict_state_matches_the_oracle():
    state = [np.arange(4, dtype=np.float32), {"x": np.float32(2.5), "y": (1, np.arange(4, dtype=np.float32))}]
    manager, oracle = CheckpointManager(MemoryBackend()), ReferenceCheckpointManager(MemoryBackend())
    assert manager.save(state, step=3) == oracle.save(state, step=3)
    assert _store_contents(manager.backend) == _store_contents(oracle.backend)
    assert manager.inspect()["bytes_written_by_section"] == {}


_LAYOUTS = {
    "c": np.ascontiguousarray,
    "f": np.asfortranarray,
    "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2] if a.ndim else a,
    "reversed": lambda a: a[..., ::-1] if a.ndim else a,
}


@settings(max_examples=200, deadline=None)
@given(array=hnp.arrays(dtype=st.one_of(hnp.boolean_dtypes(), hnp.integer_dtypes(), hnp.unsigned_integer_dtypes(),
                                        hnp.floating_dtypes(), hnp.complex_number_dtypes(),
                                        hnp.datetime64_dtypes()),
                        shape=hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5)),
       layout=st.sampled_from(sorted(_LAYOUTS)))
def test_tensor_digest_names_every_array_as_the_oracle_does(array, layout):
    """Digests are object names on disk: dtype x shape (0-d and 0-size too) x memory layout."""
    array = _LAYOUTS[layout](array)
    assert tensor_digest(array) == reference_tensor_digest(array)


def test_zero_dim_array_digests_as_shape_one():
    assert tensor_digest(np.array(3.0, dtype=np.float32)) == tensor_digest(np.full((1,), 3.0, dtype=np.float32))


# --------------------------------------------------------------------------- #
# Exact work counters of a round trip (no wall clock)
# --------------------------------------------------------------------------- #
def _count_nodes(value):
    """``(nodes, array leaves)`` of a nested state."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        counts = [_count_nodes(child) for child in value]
        return 1 + sum(c[0] for c in counts), sum(c[1] for c in counts)
    return 1, int(isinstance(value, np.ndarray))


def _ckpt_calls(fn, *args, **kwargs):
    """Run ``fn`` counting the Python calls into ``repro/ckpt/{manager,serialization}.py`` by name."""
    calls = Counter()
    files = tuple(os.path.join("repro", "ckpt", name) for name in ("manager.py", "serialization.py"))

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.endswith(files):
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profiler)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return result, calls


def test_save_walks_the_state_once_and_digests_each_array_once():
    workload = build_workload("resnet56_cifar10", scale="tiny", seed=0)
    trainer = build_trainer("egeria", workload)
    trainer.fit(6)  # past the first freeze: reference snapshot and cache entries are in the state
    state = trainer.state_dict()
    trainer.close()
    meta = {"epoch": 5, "frozen_fraction": np.float64(0.25), "nested": {"a": [1, 2]}}
    nodes, arrays = _count_nodes(state)
    assert arrays > 100

    info, calls = _ckpt_calls(CheckpointManager(MemoryBackend()).save, state, 42, meta)
    comprehensions = {name for name in calls if name.startswith("<")}  # inlined from Python 3.12 on
    assert set(calls) - comprehensions == {"save", "split_state", "_walk", "tensor_digest", "jsonify_scalars"}
    assert calls["save"] == 1
    assert calls["split_state"] == len(state)             # one per top-level section
    assert calls["_walk"] == nodes - 1                    # every node below the top-level dict, once
    assert calls["tensor_digest"] == arrays
    assert calls["jsonify_scalars"] == _count_nodes(meta)[0]  # the meta only, never the state tree
    assert info.num_tensors <= arrays
    assert not hasattr(CheckpointManager, "_section_bytes")


def test_restore_walks_the_tree_once_and_reads_each_placeholder_once():
    state = {"a": {"w": np.ones(3, dtype=np.float32), "v": np.ones(3, dtype=np.float32)}, "b": [1, 2.0, None]}
    manager = CheckpointManager(MemoryBackend())
    manager.save(state, step=1)
    reads = []
    read_object = manager.backend.read_object
    manager.backend.read_object = lambda digest: reads.append(digest) or read_object(digest)
    restored, calls = _ckpt_calls(manager.restore)
    assert calls["join_state"] == _count_nodes(state)[0]
    assert len(reads) == 2 and len(set(reads)) == 1  # one stored object, two independent copies
    assert restored["a"]["w"] is not restored["a"]["v"]
    restored["a"]["w"][:] = 7.0
    assert np.array_equal(manager.restore()["a"]["w"], np.ones(3, dtype=np.float32))


def test_split_state_leaves_no_reference_cycle():
    """A self-calling closure kept every table it built (the state's arrays)
    alive until a cyclic collection: once the collector ran a tenth as often,
    ``ckpt_cycle`` peaked at 78.7 MB instead of 71.3 MB."""
    gc.collect()
    gc.disable()
    try:
        split_state({"a": {"w": np.ones(3, dtype=np.float32)}, "b": [np.zeros(2), 1.0]})
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_split_state_table_holds_the_callers_arrays_and_backends_copy():
    array = np.arange(6, dtype=np.float32)
    _, tensors = split_state({"w": array})
    assert next(iter(tensors.values())) is array
    manager = CheckpointManager(MemoryBackend())
    manager.save({"w": array}, step=1)
    array[:] = -1.0  # the caller's array is its own again after save()
    assert np.array_equal(manager.restore()["w"], np.arange(6, dtype=np.float32))


def _slab_rows(cache_dir, manifest):
    """The listed rows of the manifest's slab file, read through a fresh mapping."""
    entries = manifest["entries"]
    path = os.path.join(cache_dir, f"slab_g{manifest['generation']}.f32")
    row_shape = tuple(entries["row_shape"])
    rows_on_disk = os.path.getsize(path) // (int(np.prod(row_shape)) * 4)
    slab = np.memmap(path, dtype=np.float32, mode="r", shape=(rows_on_disk, *row_shape))
    return {sample: np.array(slab[sample]) for sample in entries["samples"]}


def test_clean_slab_is_not_flushed_and_listed_rows_are_on_disk(monkeypatch):
    """Over the seed-0 run ``mmap.flush`` runs on the saves that stored a still-listed row, no other."""
    flushes = []
    flush = np.memmap.flush
    monkeypatch.setattr(np.memmap, "flush", lambda self: flushes.append(1) or flush(self))
    stored = {}      # sample id -> its slab row as stored, this cache generation
    pending = set()  # of those, the ones stored since the last manifest()
    store_batch, invalidate = ActivationCache.store_batch, ActivationCache.invalidate

    def recording_store_batch(self, sample_ids, activations):
        count = store_batch(self, sample_ids, activations)
        if count:
            rows = np.asarray(activations, dtype=np.float32).transpose(self._order)
            stored.update(zip(np.asarray(sample_ids).tolist(), np.array(rows)))
            pending.update(np.asarray(sample_ids).tolist())
        return count

    def recording_invalidate(self):
        stored.clear()
        pending.clear()
        invalidate(self)

    monkeypatch.setattr(ActivationCache, "store_batch", recording_store_batch)
    monkeypatch.setattr(ActivationCache, "invalidate", recording_invalidate)

    flushed_saves, listed_saves = [], []
    for epoch, trainer in enumerate(_egeria_life_cycle(), start=1):
        before = len(flushes)
        manifest = trainer.cache.manifest()
        assert len(flushes) - before == bool(pending), epoch
        if pending:
            flushed_saves.append(epoch)
        pending.clear()
        before = len(flushes)
        if manifest["entries"]:
            listed_saves.append(epoch)
            on_disk = _slab_rows(trainer.cache.cache_dir, manifest)
            assert sorted(on_disk) == sorted(stored)
            assert all(np.array_equal(row, stored[sample]) for sample, row in on_disk.items()), epoch
        # A second manifest() right away finds the slab clean and says the same.
        assert trainer.cache.manifest() == manifest and len(flushes) == before
    assert flushed_saves == [5, 6, 11, 13, 15, 16, 17]
    # Flushing whenever a slab is mapped (before PR 23) flushed on all of these:
    assert len(listed_saves) == 13


def test_unflushed_rows_survive_a_remap_and_are_flushed_by_the_next_manifest(tmp_path, monkeypatch):
    flushes = []
    flush = np.memmap.flush
    monkeypatch.setattr(np.memmap, "flush", lambda self: flushes.append(1) or flush(self))
    rng = np.random.default_rng(0)
    with ActivationCache(cache_dir=str(tmp_path), batch_size=4) as cache:
        assert cache.manifest()["entries"] == {} and not flushes
        first = rng.standard_normal((4, 3, 2)).astype(np.float32)
        cache.store_batch([0, 1, 2, 3], first)
        later = rng.standard_normal((4, 3, 2)).astype(np.float32)
        cache.store_batch([40, 41, 42, 43], later)  # grows the id tables: the slab is re-mapped
        manifest = cache.manifest()
        assert len(flushes) == 1
        on_disk = _slab_rows(str(tmp_path), manifest)
        assert sorted(on_disk) == [0, 1, 2, 3, 40, 41, 42, 43]
        assert np.array_equal(np.stack([on_disk[i] for i in (0, 1, 2, 3)]), first)
        assert np.array_equal(np.stack([on_disk[i] for i in (40, 41, 42, 43)]), later)
        cache.manifest()
        assert len(flushes) == 1
        cache.store_batch([1], first[:1])
        cache.new_generation()  # the dirty slab is dropped with its file: nothing left to flush
        assert cache.manifest()["entries"] == {} and len(flushes) == 1
        cache.store_batch([5], first[:1])
        cache.load_manifest(manifest)  # forgets the unflushed row with its mapping
        cache.manifest()
        assert len(flushes) == 1


# --------------------------------------------------------------------------- #
# Installing the reference model from a snapshot
# --------------------------------------------------------------------------- #
class _CountingGenerator:
    """Stands in for ``np.random.default_rng(seed)``: counts every method call, then delegates."""

    draws = Counter()

    def __init__(self, *args, **kwargs):
        self._generator = _DEFAULT_RNG(*args, **kwargs)

    def __getattr__(self, name):
        attribute = getattr(self._generator, name)
        if not callable(attribute):
            return attribute

        def counted(*args, **kwargs):
            _CountingGenerator.draws[name] += 1
            return attribute(*args, **kwargs)
        return counted


_DEFAULT_RNG = np.random.default_rng


def test_restore_into_a_fresh_trainer_draws_no_initial_weights(monkeypatch):
    """``_install`` builds the reference without a random draw and leaves every RNG stream alone."""
    workload = build_workload("transformer_tiny_wmt16", scale="tiny", seed=0)
    manager = CheckpointManager(MemoryBackend())
    trainer = build_trainer("egeria", workload)
    _enable_dropout(trainer)
    trainer.configure_checkpointing(manager, checkpoint_every=4)
    trainer.fit(4)
    snapshot = trainer.reference.state_dict()["model"]
    assert snapshot is not None, "scenario needs a reference model by epoch 4"
    trainer.close()

    fresh = build_trainer("egeria", workload)
    dropouts = _enable_dropout(fresh)
    observed = {}
    install = ReferenceModel._install

    def observing_install(self, weights):
        streams = lambda: (np.random.get_state(), [layer._rng.bit_generator.state for layer in dropouts])
        before = streams()
        _CountingGenerator.draws.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", _CountingGenerator)
            install(self, weights)
        observed["draws"] = dict(_CountingGenerator.draws)
        after = streams()
        observed["global_untouched"] = all(np.array_equal(a, b) for a, b in zip(before[0], after[0]))
        observed["layers_untouched"] = before[1] == after[1]

    monkeypatch.setattr(ReferenceModel, "_install", observing_install)
    fresh.configure_checkpointing(manager)
    fresh.restore()
    assert observed == {"draws": {}, "global_untouched": True, "layers_untouched": True}
    # The installed reference is the snapshot, bit for bit, in the snapshot's key order.
    installed = fresh.reference.model.state_dict()
    assert list(installed) == list(snapshot)
    assert all(np.array_equal(installed[key], snapshot[key]) and installed[key].dtype == snapshot[key].dtype
               for key in snapshot)
    fresh.close()

    # The counter does count: the same factory outside _install draws its initial weights.
    monkeypatch.setattr(np.random, "default_rng", _CountingGenerator)
    _CountingGenerator.draws.clear()
    workload.model_factory()
    assert _CountingGenerator.draws["uniform"] + _CountingGenerator.draws["standard_normal"] > 0


def test_reference_refuses_a_snapshot_that_lacks_a_parameter():
    factory = lambda: resnet8(num_classes=4, width=0.5, seed=0)
    snapshot = factory().state_dict()
    missing = "layer1.0.conv1.weight"
    assert missing in snapshot
    partial = {key: value for key, value in snapshot.items() if key != missing}

    reference = ReferenceModel(factory, precision="float32")
    with pytest.raises(KeyError, match=missing):
        reference.load_state_dict({"model": partial, "monitored_paths": [], "stats": {}})
    assert reference.model is None  # nothing half-built is left to run

    class Truncated:  # a training model of another architecture: its snapshot lacks the stem
        def state_dict(self):
            return partial

    with pytest.raises(KeyError, match=missing):
        reference.generate(Truncated())
    assert reference.model is None

    reference.load_state_dict({"model": snapshot, "monitored_paths": [], "stats": {}})
    installed = reference.model
    with pytest.raises(KeyError, match=missing):  # reusing the live model: refused before anything is loaded
        reference.load_state_dict({"model": {**partial, "conv1.weight": snapshot["conv1.weight"] + 1.0},
                                   "monitored_paths": [], "stats": {}})
    assert reference.model is installed
    assert all(np.array_equal(value, snapshot[key]) for key, value in installed.state_dict().items())


def test_skip_random_init_only_inside_the_context():
    from repro.nn import init

    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with init.skip_random_init():
        for initialiser in (init.kaiming_uniform, init.normal):
            out = initialiser((3, 4), rng=rng)
            assert out.shape == (3, 4) and out.dtype == np.float32
        assert np.array_equal(init.zeros((2,)), np.zeros(2)) and np.array_equal(init.ones((2,)), np.ones(2))
    assert rng.bit_generator.state == state
    drawn = init.kaiming_uniform((3, 4), rng=rng)
    assert rng.bit_generator.state != state
    assert np.array_equal(drawn, init.kaiming_uniform((3, 4), rng=np.random.default_rng(0)))
    with pytest.raises(RuntimeError):
        with init.skip_random_init():
            raise RuntimeError
    assert init.kaiming_uniform((2, 2), rng=np.random.default_rng(1)).std() > 0  # switched back on


# --------------------------------------------------------------------------- #
# Scheduler fault tolerance
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def sim_cost_model():
    workload = build_workload("resnet50_imagenet", scale="tiny", seed=0)
    modules = parse_layer_modules(workload.make_model())
    return CostModel(modules, batch_size=workload.batch_size)


class TestSchedulerValidation:
    def test_unknown_gpu_rejected_at_call_time(self, sim_cost_model):
        scheduler = ClusterScheduler(paper_testbed_cluster())
        with pytest.raises(KeyError):
            scheduler.set_gpu_speed("node9:gpu9", 0.5)
        with pytest.raises(KeyError):
            scheduler.inject_failure("node9:gpu9", at_time=1.0)

    def test_unknown_job_rejected_at_call_time(self, sim_cost_model):
        scheduler = ClusterScheduler(paper_testbed_cluster())
        with pytest.raises(KeyError):
            scheduler.resize_job("ghost", -1, at_time=1.0)
        with pytest.raises(KeyError):
            scheduler.preempt_job("ghost", at_time=1.0)
        with pytest.raises(KeyError):
            scheduler.resume_job("ghost", at_time=1.0)

    def test_bad_checkpoint_interval_rejected(self, sim_cost_model):
        with pytest.raises(ValueError):
            SimJob("bad", sim_cost_model, checkpoint_every=0)


class TestFailureInjection:
    def _nominal_iteration(self, scheduler, sim_cost_model, machines=2, gpus=2):
        cluster = scheduler.cluster
        return scheduler.engine.simulate_iteration(
            sim_cost_model, workers=cluster.workers(machines, gpus)).total

    def _run(self, sim_cost_model, checkpoint_every, iterations=20):
        scheduler = ClusterScheduler(paper_testbed_cluster(), placement="fifo")
        scheduler.submit(SimJob("job", sim_cost_model, num_workers=4, iterations=iterations,
                                checkpoint_every=checkpoint_every))
        nominal = self._nominal_iteration(scheduler, sim_cost_model)
        scheduler.inject_failure("node0:gpu0", at_time=nominal * iterations * 0.7)
        return scheduler.run()

    def test_resume_from_checkpoint_beats_scratch(self, sim_cost_model):
        with_ckpt = self._run(sim_cost_model, checkpoint_every=4)
        scratch = self._run(sim_cost_model, checkpoint_every=None)
        assert with_ckpt.jobs["job"].iterations_done == 20
        assert scratch.jobs["job"].iterations_done == 20
        assert with_ckpt.jobs["job"].failures == scratch.jobs["job"].failures == 1
        assert with_ckpt.jobs["job"].checkpoints_taken > 0
        assert with_ckpt.jobs["job"].restores == 1
        assert with_ckpt.jobs["job"].restore_seconds > 0.0
        assert scratch.jobs["job"].restores == 0
        assert with_ckpt.makespan < scratch.makespan

    def test_failure_is_deterministic(self, sim_cost_model):
        first = self._run(sim_cost_model, checkpoint_every=4)
        second = self._run(sim_cost_model, checkpoint_every=4)
        assert first.as_dict() == second.as_dict()

    def test_failed_gpu_not_reallocated_until_recovery(self, sim_cost_model):
        scheduler = ClusterScheduler(paper_testbed_cluster(), placement="fifo")
        scheduler.submit(SimJob("job", sim_cost_model, num_workers=4, iterations=10,
                                checkpoint_every=3))
        nominal = self._nominal_iteration(scheduler, sim_cost_model)
        scheduler.inject_failure("node0:gpu0", at_time=nominal * 5,
                                 recover_at=nominal * 8)
        result = scheduler.run()
        record = result.jobs["job"]
        assert record.failures == 1
        assert record.iterations_done == 10
        assert "node0:gpu0" not in record.worker_names or record.finish_time >= nominal * 8

    def test_recover_before_fail_rejected(self, sim_cost_model):
        scheduler = ClusterScheduler(paper_testbed_cluster())
        with pytest.raises(ValueError):
            scheduler.inject_failure("node0:gpu0", at_time=2.0, recover_at=1.0)

    def test_failure_after_resize_requeues_at_resized_width(self, sim_cost_model):
        """A job shrunk by an elastic resize must not regrow on re-placement,
        and the from-scratch restart must reset its sample credit exactly."""
        batch = sim_cost_model.batch_size
        iterations = 20
        scheduler = ClusterScheduler(paper_testbed_cluster(), placement="fifo")
        scheduler.submit(SimJob("job", sim_cost_model, num_workers=4, iterations=iterations))
        nominal = self._nominal_iteration(scheduler, sim_cost_model)
        scheduler.resize_job("job", -3, at_time=nominal * 2.5)      # 4 -> 1 worker
        single = scheduler.engine.simulate_iteration(
            sim_cost_model, workers=scheduler.cluster.workers(1, 1)).total
        scheduler.inject_failure("node0:gpu0", at_time=nominal * 2.5 + single * 8.2)
        record = scheduler.run().jobs["job"]
        assert record.failures == 1
        assert record.iterations_done == iterations
        # Re-placed at the resized width (1 worker), not the submitted 4.
        assert len(record.worker_names) == 1
        # Without checkpoints the restart is from scratch: every final honored
        # iteration ran at width 1, so the credit is exactly batch * 1 * N —
        # no phantom samples left over from the pre-failure width-4 epoch.
        assert record.samples_processed == batch * 1 * iterations


class TestPreemption:
    def test_preempt_resume_completes_and_excludes_paused_interval(self, sim_cost_model):
        scheduler = ClusterScheduler(paper_testbed_cluster())
        scheduler.submit(SimJob("p", sim_cost_model, num_workers=2, iterations=10,
                                checkpoint_every=3))
        nominal = scheduler.engine.simulate_iteration(
            sim_cost_model, workers=scheduler.cluster.workers(1, 2)).total
        scheduler.preempt_job("p", at_time=nominal * 4.5)
        scheduler.resume_job("p", at_time=nominal * 9)
        record = scheduler.run().jobs["p"]
        assert record.iterations_done == 10
        assert record.preemptions == 1
        assert record.restores == 1
        # Throughput counts only placed intervals, not the paused gap.
        span = record.finish_time - record.start_time
        assert record.placed_seconds < span
        assert record.throughput() == pytest.approx(record.samples_processed / record.placed_seconds)

    def test_rollback_restores_exact_sample_watermark(self, sim_cost_model):
        """Rolling back to a checkpoint restores the samples_processed
        watermark; re-running the lost iterations re-credits them once."""
        batch = sim_cost_model.batch_size
        scheduler = ClusterScheduler(paper_testbed_cluster())
        scheduler.submit(SimJob("p", sim_cost_model, num_workers=2, iterations=9,
                                checkpoint_every=3))
        nominal = scheduler.engine.simulate_iteration(
            sim_cost_model, workers=scheduler.cluster.workers(1, 2)).total
        scheduler.preempt_job("p", at_time=nominal * 5.2)
        scheduler.resume_job("p", at_time=nominal * 6)
        record = scheduler.run().jobs["p"]
        assert record.iterations_done == 9
        assert record.samples_processed == batch * 2 * 9

    def test_rollback_to_last_checkpoint(self, sim_cost_model):
        scheduler = ClusterScheduler(paper_testbed_cluster())
        scheduler.submit(SimJob("p", sim_cost_model, num_workers=2, iterations=9,
                                checkpoint_every=3))
        nominal = scheduler.engine.simulate_iteration(
            sim_cost_model, workers=scheduler.cluster.workers(1, 2)).total
        # Preempt between checkpoints (after ~iteration 5, checkpoints at 3/6/9)
        scheduler.preempt_job("p", at_time=nominal * 5.2)
        scheduler.resume_job("p", at_time=nominal * 6)
        record = scheduler.run().jobs["p"]
        assert record.iterations_done == 9
        # The rollback re-ran iterations 4-5: more than 9 iteration completions.
        assert len(record.iteration_seconds) > 9


class TestMigration:
    def test_resize_charges_checkpoint_and_restore(self, sim_cost_model):
        scheduler = ClusterScheduler(paper_testbed_cluster())
        scheduler.submit(SimJob("m", sim_cost_model, num_workers=4, iterations=10,
                                checkpoint_every=100))  # periodic ckpt never fires
        nominal = scheduler.engine.simulate_iteration(
            sim_cost_model, workers=scheduler.cluster.workers(2, 2)).total
        scheduler.resize_job("m", -2, at_time=nominal * 4.5)
        record = scheduler.run().jobs["m"]
        assert record.iterations_done == 10
        # Migration wrote a synchronized checkpoint and restored on 2 workers.
        assert record.checkpoints_taken == 1
        assert record.restores == 1
        assert record.checkpoint_seconds > 0.0 and record.restore_seconds > 0.0

    def test_uncheckpointed_resize_stays_free(self, sim_cost_model):
        scheduler = ClusterScheduler(paper_testbed_cluster())
        scheduler.submit(SimJob("m", sim_cost_model, num_workers=4, iterations=10))
        nominal = scheduler.engine.simulate_iteration(
            sim_cost_model, workers=scheduler.cluster.workers(2, 2)).total
        scheduler.resize_job("m", -2, at_time=nominal * 4.5)
        record = scheduler.run().jobs["m"]
        assert record.checkpoints_taken == 0 and record.restores == 0
