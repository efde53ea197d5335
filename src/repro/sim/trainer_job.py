"""Trainer-backed cluster jobs: a real trainer driving a simulated job.

Everything else in :mod:`repro.sim` prices *synthetic* jobs — a frozen-prefix
schedule and a byte estimate stand in for real training.  :class:`TrainerJob`
closes the loop: it wraps a live :class:`~repro.core.trainer.BaseTrainer` /
:class:`~repro.core.trainer.EgeriaTrainer` and advances it one *real*
iteration per simulated iteration, so

* the trainer's live freezing decisions (bootstrapping stage, plasticity
  evaluations, LR-drop unfreezes) set the frozen prefix and cached-FP mode
  the engine prices each simulated iteration with;
* checkpoints are *actual* :class:`~repro.ckpt.CheckpointManager` snapshots:
  the bytes charged to the shared storage resource are the content-addressed
  incremental ``bytes_written`` the manager really persisted — not the
  ``CKPT_STATE_MULTIPLIER`` estimate — and a restore reads back the
  snapshot's true ``payload_bytes``;
* a rollback after failure/preemption restores the trainer bit-exactly from
  the matching checkpoint and re-seeks the data loader, so the re-executed
  iterations replay the original run.

The adapter stays deterministic: it consumes only the trainer's own seeded
randomness (model init, data order, per-layer dropout streams), so two
scheduler runs built from identically-configured trainers produce identical
results — the property the trainer-backed benchmark asserts.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..metrics.tracking import EpochRecord, RunHistory
from .engine import SchedulePolicy
from .scheduler import SimJob

__all__ = ["TrainerJob"]


class TrainerJob(SimJob):
    """A :class:`SimJob` whose behaviour comes from a live trainer.

    Parameters
    ----------
    name, num_workers, iterations, policy, arrival_time, checkpoint_every,
    storage, link, async_checkpoint, weight:
        As for :class:`SimJob`.  ``iterations`` counts real training
        iterations (mini-batches); the data loader wraps to the next epoch —
        stepping the LR schedule and firing the trainer's epoch hooks — when
        it runs out of batches.
    trainer:
        The trainer to drive.  Attach a checkpoint manager
        (``trainer.configure_checkpointing``) before submitting when
        ``checkpoint_every`` is set, so snapshots are real and rollbacks are
        bit-exact; without one the job falls back to the cost-model byte
        estimate and cannot roll the live trainer back.
    """

    def __init__(self, name: str, trainer: Any, iterations: int, num_workers: int = 1,
                 policy: str = SchedulePolicy.VANILLA, arrival_time: float = 0.0,
                 checkpoint_every: Optional[int] = None, storage: Optional[str] = None,
                 link: Optional[str] = None, async_checkpoint: bool = False,
                 weight: float = 1.0):
        """Wrap ``trainer`` as a schedulable job priced by its own cost model."""
        SimJob.__init__(self, name=name, cost_model=trainer.cost_model,
                        num_workers=num_workers, iterations=int(iterations), policy=policy,
                        frozen_prefix=0, cached_fp=False, include_reference_overhead=False,
                        arrival_time=arrival_time, checkpoint_every=checkpoint_every,
                        storage=storage, link=link, async_checkpoint=async_checkpoint,
                        weight=weight)
        self.trainer = trainer
        #: :class:`~repro.ckpt.manager.CheckpointInfo` of every snapshot the
        #: scheduler triggered, in order (the byte audit trail).
        self.checkpoint_infos: List = []
        #: Frozen prefix in force during each executed iteration.
        self.prefix_series: List[int] = []
        #: Per-iteration training history (one record per *executed*
        #: iteration: loss, LR, frozen fraction, the simulated time the
        #: iteration was scheduled at).  Attached to the scheduler's
        #: :class:`~repro.sim.scheduler.JobRecord` via :meth:`run_history`
        #: and rolled back alongside ``prefix_series``.
        self.iteration_history = RunHistory(name=name, metric_name="train_loss",
                                            higher_is_better=False)
        self._epoch = -1
        self._profile: Tuple[int, bool, bool] = (0, False, False)

    # ------------------------------------------------------------------ #
    # Inline training loop (one batch per simulated iteration)
    # ------------------------------------------------------------------ #
    def _start_epoch(self, epoch: int) -> None:
        trainer = self.trainer
        self._epoch = epoch
        lr = trainer.scheduler.step(epoch) if trainer.scheduler is not None else trainer.optimizer.lr
        trainer.on_epoch_start(epoch, lr)
        trainer.train_loader.set_epoch(epoch)

    def _next_batch(self):
        trainer = self.trainer
        if self._epoch < 0:
            self._start_epoch(0)
        batch = trainer.train_loader.next_batch()
        while batch is None:
            self._start_epoch(self._epoch + 1)
            batch = trainer.train_loader.next_batch()
        return batch

    def begin_iteration(self, iteration: int, sim_time: float = 0.0) -> None:
        """Run one real training iteration and capture its pricing profile.

        The profile (frozen prefix, cached-FP mode, reference overhead) is
        read *before* the step: freezing decisions taken at the end of the
        step only affect subsequent iterations, matching the trainers' own
        accounting.  A re-schedule of an already-executed iteration (no-op
        resize restarts) does not re-train.  ``sim_time`` (the simulated
        clock at scheduling) is stamped into the iteration's history record.
        """
        trainer = self.trainer
        if trainer.iteration > iteration:
            return  # already executed; keep the captured profile
        self._profile = (trainer.frozen_prefix(), trainer.uses_cached_fp(),
                         trainer.include_reference_overhead())
        self.prefix_series.append(self._profile[0])
        batch = self._next_batch()
        trainer.iteration += 1
        loss_value = trainer.train_one_iteration(batch)
        trainer._epoch_losses.append(loss_value)
        trainer.on_iteration_end(batch, loss_value)
        num_modules = len(self.cost_model.layer_modules)
        self.iteration_history.add(EpochRecord(
            epoch=int(iteration), train_loss=float(loss_value), metric=float(loss_value),
            simulated_time=float(sim_time), wall_time=0.0,
            learning_rate=float(trainer.optimizer.lr),
            frozen_fraction=(self._profile[0] / num_modules) if num_modules else 0.0,
            cached_fp=bool(self._profile[1])))

    def run_history(self) -> Optional[RunHistory]:
        """The live per-iteration history (attached to the job's record)."""
        return self.iteration_history

    def iteration_profile(self, iteration: int) -> Tuple[int, bool, bool]:
        """The pricing profile captured by :meth:`begin_iteration`."""
        return self._profile

    def steady_profile(self) -> bool:
        """Never batchable: each profile emerges from a real training step."""
        return False

    # ------------------------------------------------------------------ #
    # Real checkpoint volume
    # ------------------------------------------------------------------ #
    def checkpoint_write_bytes(self, iteration: int, frozen_prefix: int) -> int:
        """Take a *real* snapshot; returns its content-addressed increment.

        Falls back to the cost-model estimate when no checkpoint manager is
        configured on the trainer.
        """
        trainer = self.trainer
        if trainer.checkpoint_manager is None:
            return super().checkpoint_write_bytes(iteration, frozen_prefix)
        info = trainer.save_checkpoint()
        self.checkpoint_infos.append(info)
        return int(info.bytes_written)

    def _snapshot_for(self, iteration: int):
        """Newest saved snapshot at or before ``iteration`` (None if none).

        An async write can be saved but later dropped as a rollback target
        (descheduled mid-drain), so the scheduler's watermark may point at an
        older snapshot than the newest save — match by step, not recency.
        """
        candidates = [info for info in self.checkpoint_infos if info.step <= iteration]
        return candidates[-1] if candidates else None

    def restore_read_bytes(self, iteration: int, frozen_prefix: int) -> int:
        """Bytes a restore to ``iteration`` reads (the snapshot's full payload)."""
        snapshot = self._snapshot_for(iteration)
        if snapshot is None:
            return super().restore_read_bytes(iteration, frozen_prefix)
        # A restore reads the snapshot's full logical payload, not just the
        # increment the write deduplicated down to.
        return int(snapshot.payload_bytes)

    # ------------------------------------------------------------------ #
    # Rollback: restore the live trainer and re-seek the data loader
    # ------------------------------------------------------------------ #
    def _seek(self, iteration: int) -> None:
        """Position the data loader right after ``iteration`` executed batches.

        Only the loader's own epoch-seeded order is consumed, so seeking does
        not disturb the trainer's restored RNG streams.
        """
        trainer = self.trainer
        per_epoch = len(trainer.train_loader)
        full_epochs, within = divmod(int(iteration), per_epoch)
        if within == 0 and full_epochs > 0:
            # Exactly at an epoch boundary: the boundary's epoch-start hooks
            # have not fired yet from the restored state's point of view, so
            # leave the loader exhausted at the previous epoch — the next
            # _next_batch crosses the boundary through the normal path.
            epoch, draws = full_epochs - 1, per_epoch
        else:
            epoch, draws = full_epochs, within
        trainer.train_loader.set_epoch(epoch)
        for _ in range(draws):
            trainer.train_loader.next_batch()
        self._epoch = epoch

    def rollback(self, to_iteration: int) -> None:
        """Restore the live trainer to ``to_iteration`` and re-seek the loader."""
        trainer = self.trainer
        if trainer.checkpoint_manager is None or to_iteration <= 0:
            # No durable snapshot to return to: the scheduler restarts the
            # job's *accounting* from zero, but the live trainer cannot be
            # rewound — begin_iteration will skip re-training the iterations
            # it already executed.
            return
        snapshot = self._snapshot_for(to_iteration)
        if snapshot is None:
            # Never restore a snapshot from *after* the rollback target: that
            # would leave the live trainer ahead of the scheduler's counter.
            return
        trainer.restore(snapshot.checkpoint_id)
        self._seek(int(trainer.iteration))
        self.prefix_series = self.prefix_series[: int(trainer.iteration)]
        # The rolled-back iterations will re-execute and re-record; trim
        # their history exactly like the prefix series.
        self.iteration_history.records = self.iteration_history.records[
            : int(trainer.iteration)]
        self._profile = (trainer.frozen_prefix(), trainer.uses_cached_fp(),
                         trainer.include_reference_overhead())
