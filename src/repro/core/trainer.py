"""Training loops: the generic baseline trainer and the Egeria trainer.

:class:`BaseTrainer` runs a standard epoch/iteration loop over a task adapter
(forward, loss, backward, optimizer step, LR schedule, periodic evaluation)
while accounting both wall-clock time and *simulated* time through the
:class:`repro.sim.CostModel` — the simulated times are what the paper-style
TTA/speedup numbers are computed from (see DESIGN.md's substitution table).

:class:`EgeriaTrainer` extends it with the two-stage life cycle of Figure 3:

1. **Bootstrapping stage** — monitor the training-loss changing rate; no layer
   is eligible for freezing during the critical period (§3).
2. **Knowledge-guided stage** — generate the quantized reference model,
   periodically evaluate the frontmost active layer module's plasticity
   through the controller/worker queues, freeze converged modules, cache and
   prefetch frozen-prefix activations, and unfreeze on large LR drops.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..data.dataloader import DataLoader
from ..metrics.tracking import EpochRecord, RunHistory
from ..nn.module import Module
from ..nn.tensor import Tensor
from ..optim.lr_scheduler import LRScheduler
from ..optim.optimizer import Optimizer
from ..sim.cost_model import CostModel
from ..sim.engine import EventDrivenEngine
from .cache import ActivationCache, Prefetcher
from .config import EgeriaConfig
from .controller import EgeriaController
from .freezing import FreezingEngine
from .hooks import ActivationRecorder
from .modules import LayerModule, parse_layer_modules
from .queues import EvaluationChannels
from .reference import ReferenceModel
from .tasks import TaskAdapter
from .worker import EgeriaWorker

__all__ = ["BaseTrainer", "EgeriaTrainer"]


def _capture_rng_state() -> Dict[str, object]:
    """Snapshot numpy's global RNG stream (part of the deterministic state)."""
    name, keys, pos, has_gauss, cached_gaussian = np.random.get_state()
    return {
        "name": str(name),
        "keys": np.array(keys, copy=True),
        "pos": int(pos),
        "has_gauss": int(has_gauss),
        "cached_gaussian": float(cached_gaussian),
    }


def _restore_rng_state(state: Dict[str, object]) -> None:
    np.random.set_state((
        str(state["name"]),
        np.asarray(state["keys"], dtype=np.uint32),
        int(state["pos"]),
        int(state["has_gauss"]),
        float(state["cached_gaussian"]),
    ))


def _capture_module_rng_states(model: Module) -> Dict[str, Dict]:
    """Per-layer RNG streams (e.g. Dropout mask generators), keyed by path.

    ``Generator.bit_generator.state`` is a plain nested dict of ints/strings,
    so it serializes as checkpoint metadata; without it, a restored run's
    dropout masks would restart from the layer seed instead of the mid-run
    stream position, breaking the bit-exact resume guarantee.
    """
    states: Dict[str, Dict] = {}
    for path, module in model.named_modules():
        rng = getattr(module, "_rng", None)
        if isinstance(rng, np.random.Generator):
            states[path] = rng.bit_generator.state
    return states


def _restore_module_rng_states(model: Module, states: Dict[str, Dict]) -> None:
    for path, module in model.named_modules():
        rng = getattr(module, "_rng", None)
        if isinstance(rng, np.random.Generator) and path in states:
            rng.bit_generator.state = states[path]


class BaseTrainer:
    """Plain training loop with simulated-time accounting.

    Parameters
    ----------
    model, task, train_loader, eval_loader, optimizer:
        The usual training ingredients; ``task`` supplies per-task forward,
        loss and evaluation logic.
    scheduler:
        Optional LR scheduler stepped once per epoch.
    name:
        Label recorded in the run history.

    Simulated time prices each iteration on one GPU, from a
    :class:`~repro.sim.CostModel` over the model's layer modules.  A
    multi-worker run on a cluster wraps the trainer in a
    :class:`~repro.core.trainer_job.TrainerJob` instead.
    """

    def __init__(self, model: Module, task: TaskAdapter, train_loader: DataLoader,
                 eval_loader: Optional[DataLoader] = None, optimizer: Optional[Optimizer] = None,
                 scheduler: Optional[LRScheduler] = None, name: str = "baseline"):
        if optimizer is None:
            raise ValueError("an optimizer is required")
        self.model = model
        self.task = task
        self.train_loader = train_loader
        self.eval_loader = eval_loader
        self.optimizer = optimizer
        self.scheduler = scheduler
        self.layer_modules: List[LayerModule] = parse_layer_modules(model)
        self.cost_model = CostModel(self.layer_modules, batch_size=train_loader.batch_size)
        self.name = name

        #: Simulated time comes from the discrete-event engine.
        self.sim_engine: EventDrivenEngine = EventDrivenEngine()

        self.iteration = 0
        self.simulated_time = 0.0
        #: Autograd nodes visited by every ``backward()`` so far — a
        #: deterministic work counter: frozen layers show as fewer nodes.
        self.backward_nodes = 0
        self.history = RunHistory(name=name, metric_name=task.metric_name,
                                  higher_is_better=task.higher_is_better)
        self._wall_start: Optional[float] = None
        self._epoch_losses: List[float] = []

        #: Checkpointing hooks (see :meth:`configure_checkpointing`): when a
        #: manager is attached, a snapshot is saved every
        #: ``checkpoint_every`` completed epochs and :meth:`restore` resumes
        #: bit-exactly from the latest (or a named) checkpoint.
        self.checkpoint_manager = None
        self.checkpoint_every = 1
        self._next_epoch = 0

    # ------------------------------------------------------------------ #
    # Hooks overridden by subclasses
    # ------------------------------------------------------------------ #
    def on_epoch_start(self, epoch: int, lr: float) -> None:
        """Called after the LR schedule step, before the epoch's iterations."""

    def on_iteration_end(self, batch, loss_value: float) -> None:
        """Called after the optimizer step of every iteration."""

    def frozen_prefix(self) -> int:
        """Number of consecutive frozen front modules (0 for the baseline)."""
        return 0

    def uses_cached_fp(self) -> bool:
        """Whether the frozen prefix's forward pass is served from cache."""
        return False

    def frozen_fraction(self) -> float:
        """Fraction of layer-module parameters currently frozen."""
        total = sum(m.num_params for m in self.layer_modules)
        frozen = sum(m.num_params for m in self.layer_modules if m.is_frozen())
        return frozen / total if total else 0.0

    def include_reference_overhead(self) -> bool:
        return False

    # ------------------------------------------------------------------ #
    # Core loop
    # ------------------------------------------------------------------ #
    def forward_batch(self, batch):
        """The model outputs for one training mini-batch."""
        return self.task.forward(self.model, batch)

    def train_one_iteration(self, batch) -> float:
        """Forward, loss, backward and optimizer step for one mini-batch."""
        outputs = self.forward_batch(batch)
        loss = self.task.loss(outputs, batch)
        self.optimizer.zero_grad()
        self.backward_nodes += loss.backward()
        self.optimizer.step()
        return float(loss.item())

    def _account_iteration_time(self) -> None:
        # One GPU, so no gradient synchronization: a zero per-byte cost.
        result = self.sim_engine.simulate_iteration(
            self.cost_model,
            frozen_prefix=self.frozen_prefix(),
            cached_fp=self.uses_cached_fp(),
            include_reference_overhead=self.include_reference_overhead(),
            comm_seconds_per_byte=0.0,
        )
        self.simulated_time += result.total

    def train_epoch(self, epoch: int) -> float:
        """Run one epoch; returns the mean training loss."""
        lr = self.scheduler.step(epoch) if self.scheduler is not None else self.optimizer.lr
        self.on_epoch_start(epoch, lr)
        self._epoch_losses = []
        self.train_loader.set_epoch(epoch)
        while True:
            batch = self.train_loader.next_batch()
            if batch is None:
                break
            self.iteration += 1
            loss_value = self.train_one_iteration(batch)
            self._epoch_losses.append(loss_value)
            self._account_iteration_time()
            self.on_iteration_end(batch, loss_value)
        return float(np.mean(self._epoch_losses)) if self._epoch_losses else 0.0

    def evaluate(self) -> float:
        """Task metric on the evaluation loader (NaN when absent)."""
        if self.eval_loader is None:
            return float("nan")
        return self.task.evaluate(self.model, iter(self.eval_loader))

    def fit(self, num_epochs: int, eval_every: int = 1, target_metric: Optional[float] = None,
            stop_at_target: bool = False) -> RunHistory:
        """Train for ``num_epochs`` epochs, recording per-epoch history.

        When ``target_metric`` is given and ``stop_at_target`` is True the run
        stops at the first epoch that reaches the target (TTA measurement).
        After a :meth:`restore`, training resumes at the checkpointed epoch
        and continues up to ``num_epochs``.
        """
        self._wall_start = time.perf_counter()
        last_metric = self.history.records[-1].metric if self.history.records else float("nan")
        for epoch in range(self._next_epoch, num_epochs):
            mean_loss = self.train_epoch(epoch)
            if self.eval_loader is not None and (epoch % eval_every == 0 or epoch == num_epochs - 1):
                last_metric = self.evaluate()
            self.history.add(EpochRecord(
                epoch=epoch,
                train_loss=mean_loss,
                metric=last_metric,
                simulated_time=self.simulated_time,
                wall_time=time.perf_counter() - self._wall_start,
                learning_rate=self.optimizer.lr,
                frozen_fraction=self.frozen_fraction(),
                cached_fp=self.uses_cached_fp(),
            ))
            self._next_epoch = epoch + 1
            if self.checkpoint_manager is not None and (epoch + 1) % self.checkpoint_every == 0:
                self.save_checkpoint()
            if target_metric is not None and stop_at_target and not np.isnan(last_metric):
                if self.task.better(last_metric, target_metric) or last_metric == target_metric:
                    break
        return self.history

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def configure_checkpointing(self, manager, checkpoint_every: int = 1) -> None:
        """Attach a :class:`~repro.ckpt.CheckpointManager`.

        A full training-state snapshot is saved every ``checkpoint_every``
        completed epochs during :meth:`fit`; checkpoints are taken at epoch
        boundaries, where the controller/worker queues are drained, so a
        restored run is bit-exact.
        """
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        self.checkpoint_manager = manager
        self.checkpoint_every = int(checkpoint_every)

    def save_checkpoint(self):
        """Snapshot the complete training state; returns the CheckpointInfo."""
        if self.checkpoint_manager is None:
            raise RuntimeError("no checkpoint manager configured; call configure_checkpointing")
        return self.checkpoint_manager.save(
            self.state_dict(), step=self.iteration,
            meta={
                "name": self.name,
                "epoch": self._next_epoch - 1,
                "iteration": self.iteration,
                "frozen_prefix": self.frozen_prefix(),
                "frozen_fraction": self.frozen_fraction(),
            })

    def restore(self, checkpoint_id: Optional[str] = None) -> "BaseTrainer":
        """Load a checkpoint (latest by default) and resume from it."""
        if self.checkpoint_manager is None:
            raise RuntimeError("no checkpoint manager configured; call configure_checkpointing")
        self.load_state_dict(self.checkpoint_manager.restore(checkpoint_id))
        return self

    def state_dict(self) -> Dict[str, object]:
        """Complete, deterministic training state (see docs/checkpointing.md).

        Covers model weights/buffers, optimizer moments, LR-scheduler
        position, the numpy RNG stream, loop counters and the recorded
        history; :class:`EgeriaTrainer` extends it with the freezing-engine,
        reference-model and activation-cache state.
        """
        return {
            "format": "repro.trainer/1",
            "name": self.name,
            "iteration": int(self.iteration),
            "simulated_time": float(self.simulated_time),
            "backward_nodes": int(self.backward_nodes),
            "next_epoch": int(self._next_epoch),
            "model": dict(self.model.state_dict()),
            "optimizer": self.optimizer.state_dict(),
            "scheduler": None if self.scheduler is None else self.scheduler.state_dict(),
            "rng": _capture_rng_state(),
            "module_rng": _capture_module_rng_states(self.model),
            "history": [record.as_dict() for record in self.history.records],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.model.load_state_dict(state["model"])
        self.optimizer.load_state_dict(state["optimizer"])
        if self.scheduler is not None and state.get("scheduler") is not None:
            self.scheduler.load_state_dict(state["scheduler"])
        self.iteration = int(state["iteration"])
        self.simulated_time = float(state["simulated_time"])
        self.backward_nodes = int(state.get("backward_nodes", 0))  # work counter: absent before it existed
        self._next_epoch = int(state["next_epoch"])
        _restore_rng_state(state["rng"])
        _restore_module_rng_states(self.model, dict(state.get("module_rng") or {}))
        self.history.records = [EpochRecord(
            epoch=int(record["epoch"]),
            train_loss=float(record["train_loss"]),
            metric=float(record["metric"]),
            simulated_time=float(record["simulated_time"]),
            wall_time=float(record["wall_time"]),
            learning_rate=float(record["learning_rate"]),
            frozen_fraction=float(record["frozen_fraction"]),
            cached_fp=bool(record["cached_fp"]),
        ) for record in state["history"]]


class EgeriaTrainer(BaseTrainer):
    """Knowledge-guided training with layer freezing, as described in §3–§4.

    Additional parameters
    ---------------------
    model_factory:
        Callable building a model with the same architecture, used to host the
        quantized reference snapshot.
    config:
        :class:`EgeriaConfig` hyperparameters.
    """

    BOOTSTRAPPING = "bootstrapping"
    KNOWLEDGE_GUIDED = "knowledge_guided"

    def __init__(self, model: Module, model_factory, task: TaskAdapter, train_loader: DataLoader,
                 eval_loader: Optional[DataLoader] = None, optimizer: Optional[Optimizer] = None,
                 scheduler: Optional[LRScheduler] = None, config: Optional[EgeriaConfig] = None,
                 name: str = "egeria"):
        super().__init__(model, task, train_loader, eval_loader, optimizer, scheduler, name=name)
        self.config = config or EgeriaConfig()
        self.engine = FreezingEngine(self.layer_modules, self.config)
        self.channels = EvaluationChannels()
        self.reference = ReferenceModel(model_factory, precision=self.config.reference_precision,
                                        device=self.config.reference_device)
        self.controller = EgeriaController(self.engine, self.reference, self.channels, self.config)
        self.worker = EgeriaWorker(model, self.engine, self.channels)
        self.cache = ActivationCache(cache_dir=self.config.cache_dir,
                                     memory_batches=self.config.cache_memory_batches,
                                     batch_size=train_loader.batch_size)
        self.prefetcher = Prefetcher(self.cache, lookahead_batches=2)
        self._cache_recorder: Optional[ActivationRecorder] = None

        self.stage = self.BOOTSTRAPPING
        self._bootstrap_losses: List[float] = []
        self._bootstrap_window_means: List[float] = []
        self._num_frozen_seen = 0
        #: Iterations whose frozen-prefix forward pass was served from the
        #: cache, and full training forward passes actually run; they add up
        #: to ``iteration``.
        self.fp_skipped_iterations = 0
        self.training_forwards = 0
        self.stage_transitions: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #
    # Overridden accounting hooks
    # ------------------------------------------------------------------ #
    def frozen_prefix(self) -> int:
        return self.engine.frozen_prefix_length()

    def uses_cached_fp(self) -> bool:
        return self._resume_path() is not None

    def _resume_path(self) -> Optional[str]:
        """Tail of the frozen prefix when its forward pass can be served from the cache.

        ``None`` while FP caching is off, the prefix is shorter than
        ``min_cached_modules``, or the model cannot resume past that tail
        (no ``forward_from``, or e.g. a Transformer prefix reaching into the
        decoder) — then the prefix is recomputed and the simulated account
        charges it, like the host.
        """
        prefix = self.frozen_prefix()
        if not self.config.enable_fp_caching or prefix < max(self.config.min_cached_modules, 1):
            return None
        tail_path = self.layer_modules[prefix - 1].tail_path
        can_resume = getattr(self.model, "can_resume_from", None)
        return tail_path if can_resume is not None and can_resume(tail_path) else None

    def frozen_fraction(self) -> float:
        return self.engine.frozen_parameter_fraction()

    def include_reference_overhead(self) -> bool:
        return self.stage == self.KNOWLEDGE_GUIDED

    # ------------------------------------------------------------------ #
    # Stage management
    # ------------------------------------------------------------------ #
    def _bootstrap_step(self, loss_value: float) -> None:
        """Track the loss changing rate; leave the critical period when stable."""
        self._bootstrap_losses.append(loss_value)
        interval = self.config.eval_interval_iters
        if len(self._bootstrap_losses) % interval != 0:
            return
        window_mean = float(np.mean(self._bootstrap_losses[-interval:]))
        self._bootstrap_window_means.append(window_mean)
        if len(self._bootstrap_window_means) < self.config.bootstrap_min_evaluations:
            return
        previous, current = self._bootstrap_window_means[-2], self._bootstrap_window_means[-1]
        if previous <= 0:
            return
        change_rate = abs(previous - current) / abs(previous)
        if change_rate < self.config.bootstrap_loss_change_threshold:
            self._enter_knowledge_guided_stage()

    def _enter_knowledge_guided_stage(self) -> None:
        self.stage = self.KNOWLEDGE_GUIDED
        self.controller.initialize_reference(self.model, self.iteration)
        self.stage_transitions.append({
            "iteration": self.iteration,
            "stage": self.KNOWLEDGE_GUIDED,
        })

    # ------------------------------------------------------------------ #
    # Epoch / iteration hooks
    # ------------------------------------------------------------------ #
    def on_epoch_start(self, epoch: int, lr: float) -> None:
        cyclical = bool(self.scheduler is not None and self.scheduler.cyclical)
        unfroze = self.controller.observe_lr(lr, self.iteration, cyclical=cyclical)
        if unfroze:
            self.worker.restore_training_mode()
            # A fresh generation (not prefix_version + 1, which could later
            # collide with a legitimate frozen_prefix_length and alias stale
            # pre-unfreeze activations as hits) unconditionally invalidates.
            self.cache.prefix_version = 0
            self.cache.new_generation()
            # Stop recording/serving the old prefix tail: its modules are
            # training again, so cached outputs would be stale immediately.
            self._retarget_cache_recorder()
            self._num_frozen_seen = 0

    def on_iteration_end(self, batch, loss_value: float) -> None:
        if self.stage == self.BOOTSTRAPPING:
            self._bootstrap_step(loss_value)
            return

        # Knowledge-guided stage: periodic plasticity evaluation.
        if self.iteration % self.config.eval_interval_iters == 0 and self.engine.monitored_module is not None:
            inputs = self.task.input_tensors(batch)
            self.worker.submit_evaluation(inputs, self.iteration)
        self.controller.step(self.model)

        num_frozen = self.engine.num_frozen()
        if num_frozen != self._num_frozen_seen:
            self.worker.apply_decisions()
            self.cache.set_prefix_version(self.engine.frozen_prefix_length())
            self._retarget_cache_recorder()
            self._num_frozen_seen = num_frozen

        if self._cache_recorder is not None:
            self._store_and_prefetch(batch)

    # ------------------------------------------------------------------ #
    # Activation caching / prefetching
    # ------------------------------------------------------------------ #
    def _retarget_cache_recorder(self) -> None:
        """Hook the tail of the frozen prefix so its output can be cached."""
        tail_path = self._resume_path()
        if tail_path is None:
            if self._cache_recorder is not None:
                self._cache_recorder.remove()
                self._cache_recorder = None
        elif self._cache_recorder is None:
            self._cache_recorder = ActivationRecorder(self.model, [tail_path])
        else:
            self._cache_recorder.retarget([tail_path])

    def forward_batch(self, batch):
        """Forward pass that skips the frozen prefix when the cache holds its output.

        The batch is looked up *before* the forward pass.  On a full-batch
        hit the model resumes from the cached tail activation
        (``model.forward_from``), so the prefix costs neither forward nor
        graph construction; on a miss the whole model runs and the recorder
        keeps the tail activation for :meth:`_store_and_prefetch`.
        """
        if self._cache_recorder is not None:
            cached = self.cache.load_batch(batch.indices)
            if cached is not None:
                self.fp_skipped_iterations += 1
                self._cache_recorder.clear()  # a served batch leaves nothing to store
                return self.model.forward_from(self._cache_recorder.module_paths[0], Tensor(cached),
                                               *self.task.input_tensors(batch))
        self.training_forwards += 1
        return self.task.forward(self.model, batch)

    def _store_and_prefetch(self, batch) -> None:
        """After the iteration's decisions: persist a missed batch's tail, warm the next batches."""
        # None after a hit, and after a prefix change this iteration (the
        # recorder was retargeted): that activation belongs to the old prefix.
        activation = self._cache_recorder.get(self._cache_recorder.module_paths[0])
        if activation is not None:
            self.cache.store_batch(batch.indices, activation)
        self.prefetcher.prefetch(
            self.train_loader.peek_future_indices(num_batches=self.prefetcher.lookahead_batches))

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        state["egeria"] = {
            "stage": self.stage,
            "bootstrap_losses": [float(v) for v in self._bootstrap_losses],
            "bootstrap_window_means": [float(v) for v in self._bootstrap_window_means],
            "num_frozen_seen": int(self._num_frozen_seen),
            "fp_skipped_iterations": int(self.fp_skipped_iterations),
            "training_forwards": int(self.training_forwards),
            "stage_transitions": [dict(t) for t in self.stage_transitions],
            "engine": self.engine.state_dict(),
            "controller": {
                "evaluations_done": int(self.controller.evaluations_done),
                "evaluations_skipped_cpu": int(self.controller.evaluations_skipped_cpu),
                "reference_updates": int(self.controller.reference_updates),
            },
            "reference": self.reference.state_dict(),
            "cache": self.cache.manifest(),
        }
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        super().load_state_dict(state)
        egeria = state["egeria"]
        self.stage = str(egeria["stage"])
        self._bootstrap_losses = [float(v) for v in egeria["bootstrap_losses"]]
        self._bootstrap_window_means = [float(v) for v in egeria["bootstrap_window_means"]]
        self.fp_skipped_iterations = int(egeria["fp_skipped_iterations"])
        self.training_forwards = int(egeria.get("training_forwards", 0))
        self.stage_transitions = [dict(t) for t in egeria["stage_transitions"]]

        # Engine first (it sets the requires_grad flags the worker reads) ...
        self.engine.load_state_dict(egeria["engine"])
        # ... then the reference snapshot, exactly as quantized at save time
        # (regenerating from the restored weights would change plasticity
        # readings and hence future freezing decisions).
        self.reference.load_state_dict(egeria["reference"])
        controller_state = dict(egeria["controller"])
        self.controller.evaluations_done = int(controller_state["evaluations_done"])
        self.controller.evaluations_skipped_cpu = int(controller_state["evaluations_skipped_cpu"])
        self.controller.reference_updates = int(controller_state["reference_updates"])
        self.controller._pending_reference.clear()
        self.channels.clear()

        # Re-derive the runtime side: BatchNorm/Dropout inference mode on
        # frozen modules, worker hook on the monitored module, cache recorder
        # on the frozen prefix tail.
        self.model.train()
        self.worker.apply_decisions()
        if self.reference.model is not None:
            self.controller._sync_reference_hooks()
        self._num_frozen_seen = int(egeria["num_frozen_seen"])
        self.cache.load_manifest(egeria["cache"])
        self._retarget_cache_recorder()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def freezing_timeline(self) -> List[Dict[str, object]]:
        """Freeze/unfreeze events (Figure 11 input)."""
        return self.engine.timeline()

    def summary(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "iteration": self.iteration,
            "frozen_prefix": self.frozen_prefix(),
            "frozen_fraction": self.frozen_fraction(),
            "fp_skipped_iterations": self.fp_skipped_iterations,
            "training_forwards": self.training_forwards,
            "backward_nodes": self.backward_nodes,
            "reference_blocks_executed": self.reference.stats.blocks_executed,
            "controller": self.controller.summary(),
            "cache": self.cache.stats.as_dict(),
            "stage_transitions": self.stage_transitions,
        }

    def close(self) -> None:
        """Release the on-disk activation cache."""
        self.cache.close()
