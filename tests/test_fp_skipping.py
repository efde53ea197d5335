"""Freezing pays on the host: ownership, real FP/BP skipping, work counters.

Covers the invariants the frozen-prefix skipping rests on:

* every parameter that runs before a layer module's tail belongs to that
  module or an earlier one, so a frozen prefix builds no autograd graph;
* frozen modules' BatchNorm/Dropout stay in inference mode (§4.3), across
  evaluations and across ``restore()``;
* serving the prefix from the activation cache is arithmetic-neutral: the run
  is bit-identical to the same run recomputing it (``enable_fp_caching=False``);
* the deterministic work counters agree with the freezing state.
"""

import numpy as np
import pytest

from repro import models, nn
from repro.ckpt import CheckpointManager, MemoryBackend
from repro.core import ReferenceModel, parse_layer_modules
from repro.core.hooks import ActivationRecorder
from repro.core.modules import building_blocks
from repro.core.tasks import TranslationTask
from repro.experiments import available_workloads, build_trainer, build_workload
from repro.nn.layers import BatchNorm2d, Dropout


def _model_and_inputs(name):
    """A workload's tiny-scale model, its task, and one evaluation batch's model inputs."""
    workload = build_workload(name, scale="tiny")
    batch = next(iter(workload.eval_loader()))
    return workload.make_model(), workload.task, workload.task.input_tensors(batch)


def _scalar(outputs) -> nn.Tensor:
    outputs = outputs if isinstance(outputs, tuple) else (outputs,)
    return sum((out * out).sum() for out in outputs)


def _tail_output(model, tail_path, inputs):
    """``(output of block tail_path, model outputs)`` of one forward pass."""
    captured = []
    handle = model.get_submodule(tail_path).register_forward_hook(lambda _m, _i, out: captured.append(out))
    outputs = model(*inputs)
    handle.remove()
    return captured[0], outputs


# ---------------------------------------------------------------------- #
# Ownership invariant
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", available_workloads())
def test_layer_modules_own_everything_upstream_of_their_tails(name):
    model, _task, inputs = _model_and_inputs(name)
    layer_modules = parse_layer_modules(model)

    # No orphans: every parameter the forward pass uses belongs to a layer
    # module or to the last building block (the head that never freezes).
    _scalar(model(*inputs)).backward()
    owned = {id(p) for lm in layer_modules for module in lm.owned for p in module.parameters()}
    head = {id(p) for p in model.get_submodule(building_blocks(model)[-1]).parameters()}
    orphans = [key for key, p in model.named_parameters()
               if p.grad is not None and id(p) not in owned | head]
    assert orphans == []

    # A frozen prefix of any length has no trainable tensor upstream of its tail.
    for k, layer_module in enumerate(layer_modules, start=1):
        layer_module.freeze()
        tail, _ = _tail_output(model, layer_module.tail_path, inputs)
        assert tail.requires_grad is False, f"{name}: prefix {k} still builds a graph"


@pytest.mark.parametrize("name", available_workloads())
def test_forward_from_resumes_bit_identically_and_prunes_backward(name):
    """``forward_from`` == the full forward; backward visits only the suffix's nodes."""
    model, task, inputs = _model_and_inputs(name)
    resumable = 0
    for layer_module in parse_layer_modules(model):
        layer_module.freeze()
        tail_path = layer_module.tail_path
        if not model.can_resume_from(tail_path):
            continue
        resumable += 1
        tail, outputs = _tail_output(model, tail_path, inputs)
        full_nodes = _scalar(outputs).backward()
        resumed = model.forward_from(tail_path, nn.Tensor(tail.data), *inputs)
        for a, b in zip(outputs if isinstance(outputs, tuple) else (outputs,),
                        resumed if isinstance(resumed, tuple) else (resumed,)):
            assert np.array_equal(a.data, b.data)
        # The resumed model *is* the model truncated to the suffix: same node count.
        assert _scalar(resumed).backward() == full_nodes
    assert resumable >= 1
    if isinstance(task, TranslationTask):
        assert not model.can_resume_from("decoder.0")  # its output alone lacks the memory


# ---------------------------------------------------------------------- #
# BN-inference rule (regression: evaluate() used to end with model.train())
# ---------------------------------------------------------------------- #
def _frozen_norm_layers(trainer):
    return [sub for lm in trainer.engine.frozen_modules() for module in lm.owned
            for sub in module.modules() if isinstance(sub, (BatchNorm2d, Dropout))]


def test_frozen_batchnorm_stays_in_inference_mode_across_epochs_and_restore():
    workload = build_workload("resnet56_cifar10", scale="tiny", seed=0)
    trainer = build_trainer("egeria", workload)
    trainer.configure_checkpointing(CheckpointManager(MemoryBackend()), checkpoint_every=1)
    seen_frozen = 0
    for epoch in range(1, 15):  # the prefix first reaches a BatchNorm (module 1) in epoch 12
        trainer.fit(epoch)  # each epoch ends with an evaluation
        layers = _frozen_norm_layers(trainer)
        seen_frozen += len(layers)
        assert all(not layer.training for layer in layers), f"epoch {epoch}"
        running = [layer.running_mean.copy() for layer in layers if isinstance(layer, BatchNorm2d)]
        trainer.task.evaluate(trainer.model, iter(trainer.eval_loader))
        assert all(not layer.training for layer in layers)
        assert all(np.array_equal(before, layer.running_mean) for before, layer in
                   zip(running, (l for l in layers if isinstance(l, BatchNorm2d))))
        # The active part is back in training mode.
        assert trainer.model.training and trainer.model.fc.training
    assert seen_frozen > 0, "scenario froze nothing"

    resumed = build_trainer("egeria", workload)
    resumed.configure_checkpointing(trainer.checkpoint_manager)
    resumed.restore()
    layers = _frozen_norm_layers(resumed)
    assert layers and all(not layer.training for layer in layers)
    trainer.close()
    resumed.close()


# ---------------------------------------------------------------------- #
# Skipping is arithmetic-neutral
# ---------------------------------------------------------------------- #
def _run(name, seed, epochs, **overrides):
    trainer = build_trainer("egeria", build_workload(name, scale="tiny", seed=seed), **overrides)
    history = trainer.fit(epochs)
    outcome = (history.losses(), history.metrics(), trainer.freezing_timeline(), trainer.backward_nodes)
    summary = trainer.summary()
    trainer.close()
    return outcome, summary


@pytest.mark.parametrize("name,seed,epochs", [
    ("resnet56_cifar10", 0, 12), ("resnet56_cifar10", 1, 12), ("resnet56_cifar10", 2, 12),
    ("deeplabv3_voc", 0, 8),
])
def test_cache_served_run_is_bit_identical_to_recompute(name, seed, epochs):
    served, summary = _run(name, seed, epochs)
    recomputed, oracle = _run(name, seed, epochs, enable_fp_caching=False)
    assert summary["fp_skipped_iterations"] > 0, "scenario never served a batch from the cache"
    assert oracle["fp_skipped_iterations"] == 0 and oracle["cache"]["stores"] == 0
    assert served == recomputed
    # Work counters: every iteration either ran a training forward or skipped the prefix.
    for s in (summary, oracle):
        assert s["training_forwards"] == s["iteration"] - s["fp_skipped_iterations"]
    assert summary["reference_blocks_executed"] == oracle["reference_blocks_executed"] > 0


def test_counters_survive_restore():
    workload = build_workload("resnet56_cifar10", scale="tiny", seed=0)
    trainer = build_trainer("egeria", workload)
    trainer.configure_checkpointing(CheckpointManager(MemoryBackend()), checkpoint_every=8)
    trainer.fit(8)
    resumed = build_trainer("egeria", workload)
    resumed.configure_checkpointing(trainer.checkpoint_manager)
    resumed.restore()
    for key in ("training_forwards", "backward_nodes", "fp_skipped_iterations", "reference_blocks_executed"):
        assert resumed.summary()[key] == trainer.summary()[key] > 0

    # A checkpoint written before the counters existed restores, with them at zero.
    state = trainer.state_dict()
    del state["backward_nodes"], state["egeria"]["training_forwards"]
    resumed.load_state_dict(state)
    assert (resumed.backward_nodes, resumed.training_forwards) == (0, 0)
    assert resumed.iteration == trainer.iteration
    trainer.close()
    resumed.close()


# ---------------------------------------------------------------------- #
# Capture by reference / early-exit reference pass
# ---------------------------------------------------------------------- #
def test_ops_never_mutate_activations_in_place(tiny_model, rng):
    """The recorder keeps references, so nothing may write into a tensor's ``.data``."""
    paths = building_blocks(tiny_model)[:-1]
    x = nn.Tensor(rng.standard_normal((4, 3, 8, 8)).astype(np.float32))
    params = list(tiny_model.parameters())
    with ActivationRecorder(tiny_model, paths) as recorder:
        logits = tiny_model(x)
        captured = recorder.activations()
        assert all(captured[path] is not None for path in paths)
        snapshots = {path: array.copy() for path, array in captured.items()}
        nn.cross_entropy(logits, np.array([0, 1, 2, 3])).backward()
        for param in params:  # an SGD step, in place on the parameters
            param.data -= 0.1 * param.grad
    tiny_model(x)  # nor may a later forward pass write into them
    for path in paths:
        assert np.array_equal(captured[path], snapshots[path]), path


def test_reference_forward_stops_at_the_monitored_tail(tiny_model, rng):
    blocks = building_blocks(tiny_model)
    x = nn.Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
    reference = ReferenceModel(lambda: models.resnet8(num_classes=4, width=0.5, seed=0), precision="float32")
    reference.generate(tiny_model)
    tiny_model.eval()  # the float32 reference is then the same function as the model
    for position, path in enumerate(blocks[:-1], start=1):
        reference.monitor([path])
        before = reference.stats.blocks_executed
        activation = reference.forward(x)[path]
        assert reference.stats.blocks_executed - before == position  # nothing behind the tail ran
        with ActivationRecorder(tiny_model, [path]) as full, nn.no_grad():
            tiny_model(x)
            assert np.array_equal(activation, full.get(path))
