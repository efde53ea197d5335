"""The layer table: which public call of the program is which layer's span.

Layer = module name.  ``<layer>.busy_s`` is the span name's self time and
``<layer>.calls`` its entry count, both per unit of work; BENCHMARK.json
lists the ones reported and README.md says which end-to-end metric each
should move, on which workload.
"""

from __future__ import annotations

from repro import experiments
from repro.ckpt import CheckpointBackend, CheckpointManager
from repro.core import (ActivationCache, BaseTrainer, EgeriaController, EgeriaWorker,
                        FreezingEngine, Prefetcher, ReferenceModel, TaskAdapter)
from repro.data import DataLoader
from repro.nn import Tensor
from repro.optim import Optimizer
from repro.sim import ClusterScheduler, CostModel, EventDrivenEngine, scenario
from repro.sim.resources import FairShareTimeline, ResourcePool, ResourceTimeline

#: Span grouping a trainer's iterations by epoch (for ``late_early_ratio``);
#: its self time is the training loop's own glue.
TRAIN_EPOCH = "core.trainer.train_epoch"

#: ``(owner, attribute, span name)``; a class owner covers its subclasses.
TARGETS = [
    (experiments, "build_workload", "experiments.build"),
    (experiments, "build_trainer", "experiments.build"),
    (DataLoader, "next_batch", "data.next_batch"),
    (TaskAdapter, "forward", "nn.forward"),
    (TaskAdapter, "loss", "nn.loss"),
    (Tensor, "backward", "nn.backward"),
    (Optimizer, "step", "optim.step"),
    (Optimizer, "zero_grad", "optim.zero_grad"),
    (TaskAdapter, "evaluate", "core.tasks.evaluate"),
    (BaseTrainer, "train_epoch", TRAIN_EPOCH),
    (ReferenceModel, "forward", "core.reference.forward"),
    (ReferenceModel, "update", "core.reference.update"),
    (ReferenceModel, "generate", "core.reference.generate"),
    (EgeriaController, "step", "core.controller.step"),
    (EgeriaWorker, "submit_evaluation", "core.worker.submit_evaluation"),
    (EgeriaWorker, "apply_decisions", "core.worker.apply_decisions"),
    (FreezingEngine, "check_plasticity", "core.freezing.check_plasticity"),
    (ActivationCache, "load_batch", "core.cache.load_batch"),
    (ActivationCache, "store_batch", "core.cache.store_batch"),
    (Prefetcher, "prefetch", "core.cache.prefetch"),
    (BaseTrainer, "state_dict", "ckpt.state_dict"),
    (BaseTrainer, "load_state_dict", "ckpt.load_state_dict"),
    (CheckpointManager, "save", "ckpt.save"),
    (CheckpointManager, "restore", "ckpt.restore"),
    (CheckpointBackend, "write_object", "ckpt.backend.write_object"),
    (CheckpointBackend, "read_object", "ckpt.backend.read_object"),
    (EventDrivenEngine, "simulate_iteration", "sim.engine.simulate_iteration"),
    (EventDrivenEngine, "can_fast_forward", "sim.engine.can_fast_forward"),
    (EventDrivenEngine, "fast_forward_batch", "sim.engine.fast_forward_batch"),
    (EventDrivenEngine, "storage_transfer", "sim.engine.storage_transfer"),
    (ResourceTimeline, "reserve", "sim.resources.reserve"),
    (FairShareTimeline, "reserve", "sim.resources.reserve"),
    (ResourceTimeline, "cancel", "sim.resources.cancel"),
    (FairShareTimeline, "cancel", "sim.resources.cancel"),
    (ResourcePool, "cancel_job", "sim.resources.cancel"),
    (ResourceTimeline, "set_capacity", "sim.resources.set_capacity"),
    (FairShareTimeline, "set_capacity", "sim.resources.set_capacity"),
    (ClusterScheduler, "run", "sim.scheduler.run"),
    (scenario, "parse_faults", "sim.faults.plan"),
    (scenario, "apply_fault_plan", "sim.faults.plan"),
    (scenario, "build_scenario", "sim.scenario.build"),
    (CostModel, "iteration", "sim.cost_model.iteration"),
]
