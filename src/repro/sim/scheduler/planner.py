"""The iteration and batch planner: route a placed job, price its next
iteration (or a run of memo-cached ones as one heap event) and its
snapshots."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..cluster import Cluster, GPUDevice
from .jobs import JobRecord, SimJob


class _Planner:
    """The iteration planner of :class:`~.loop.ClusterScheduler` (a mixin: the
    state it reads is declared in ``ClusterScheduler.__init__``)."""

    @staticmethod
    def _storage_for(job: SimJob) -> str:
        """The storage resource the job's checkpoint traffic queues on."""
        return job.storage if job.storage is not None else Cluster.CKPT_STORAGE

    def _links_for(self, job: SimJob, workers: Sequence[GPUDevice]) -> Optional[List[str]]:
        """The shared link(s) the job's all-reduce crosses (None if intra-machine).

        An explicit ``SimJob.link`` always wins.  Otherwise, on clusters
        declaring per-ToR fabric resources, the links are derived from the
        placement (:meth:`Cluster.links_crossed`: the workers' ToR uplinks
        plus, cross-rack, the core); on flat clusters every multi-machine
        job shares the default :data:`Cluster.FABRIC`.
        """
        if len({gpu.machine for gpu in workers}) <= 1:
            return None  # intra-machine rings never touch the shared fabric
        if job.link is not None:
            return [job.link]
        crossed = self.cluster.links_crossed(list(workers))
        if crossed:
            return crossed
        return [Cluster.FABRIC]

    def _route(self, job: SimJob, workers: Optional[Sequence[GPUDevice]] = None) -> None:
        """Book the shared resources ``job`` loads from ``workers`` (``None``: off its GPUs).

        Called wherever a placement changes (place, resize, deschedule,
        finish), so :attr:`_users` always counts the placed jobs whose
        all-reduce or checkpoint traffic can reach each resource.
        """
        _links, loads = self._routes.pop(job.name, (None, ()))
        for name in loads:
            self._users[name] -= 1
        if workers is None:
            return
        links = self._links_for(job, workers)
        loads = dict.fromkeys(links or ())
        loads[self._storage_for(job)] = None
        self._routes[job.name] = (links, tuple(loads))
        for name in loads:
            self._users[name] = self._users.get(name, 0) + 1

    def _storage_seconds(self, job: SimJob, num_bytes: int, start_time: float,
                         workers: Sequence[GPUDevice], kind: str) -> float:
        """Queue a checkpoint/restore transfer; returns its total duration
        (queueing wait included) from ``start_time``."""
        _start, end = self.engine.storage_transfer(num_bytes, start_time, self._storage_for(job),
                                                   workers, job=job.name, kind=kind,
                                                   weight=job.weight)
        return end - start_time

    def _write_snapshot(self, job: SimJob, prefix: int, start_time: float,
                        workers: Sequence[GPUDevice]) -> Tuple[int, float]:
        """Queue the freezing-aware incremental snapshot of the job's booked
        progress (the active suffix only); returns ``(bytes, seconds)``."""
        num_bytes = int(job.checkpoint_write_bytes(self.records[job.name].iterations_done, prefix))
        return num_bytes, self._storage_seconds(job, num_bytes, start_time, workers,
                                                kind="checkpoint")

    def _read_snapshot(self, job: SimJob, start_time: float,
                       workers: Sequence[GPUDevice]) -> Tuple[int, float]:
        """Read the *full* state (frozen prefix included) back before training
        continues, queueing behind other jobs' transfers, and book the
        restore on the job's record; returns ``(bytes, seconds)``."""
        record = self.records[job.name]
        num_bytes = int(job.restore_read_bytes(record.iterations_done,
                                               job.prefix_at(record.iterations_done)))
        seconds = self._storage_seconds(job, num_bytes, start_time, workers, kind="restore")
        record.restores += 1
        record.restore_seconds += seconds
        record.restore_bytes_read += num_bytes
        return num_bytes, seconds

    @staticmethod
    def _commit_checkpoint(record: JobRecord, iteration: int, samples: float,
                           seconds: float, num_bytes: int) -> None:
        """Book a written snapshot: it is the job's rollback target from here."""
        record.checkpoints_taken += 1
        record.checkpoint_seconds += seconds
        record.checkpoint_bytes_written += int(num_bytes)
        record.checkpoint_iteration = int(iteration)
        record.samples_at_checkpoint = float(samples)

    def _schedule_iteration(self, job: SimJob, now: float, allow_batch: bool = False) -> None:
        record = self.records[job.name]
        workers = self._allocations[job.name]
        iteration_index = record.iterations_done
        links = self._routes[job.name][0]
        if (allow_batch and job.steady_profile()
                and self._schedule_iteration_batch(job, workers, links,
                                                   iteration_index, now)):
            return
        # Trainer-backed jobs run one *real* training iteration here; its
        # freezing decisions then price the simulated iteration.
        job.begin_iteration(iteration_index, sim_time=now)
        prefix, cached_fp, include_reference = job.iteration_profile(iteration_index)
        result = self.engine.simulate_iteration(
            job.cost_model, workers=workers, frozen_prefix=prefix,
            cached_fp=cached_fp, policy=job.policy,
            include_reference_overhead=include_reference, start_time=now,
            link_resource=links, job_name=job.name, job_weight=job.weight)
        duration = result.total
        # Periodic checkpoint: the iteration that completes a checkpoint
        # interval also writes the freezing-aware incremental snapshot (the
        # active suffix only) onto the shared storage resource, queueing
        # behind any concurrent checkpointer.
        epoch = self._placement_epoch[job.name]
        ckpt_due = bool(job.checkpoint_every
                        and (iteration_index + 1) % job.checkpoint_every == 0)
        if not ckpt_due:
            self._push(now + duration, "iteration_done",
                       (job.name, epoch, (duration,), 0.0, 0, False), job.name)
            return
        ckpt_bytes, ckpt_seconds = self._write_snapshot(job, prefix, now + duration, workers)
        if job.async_checkpoint:
            # Overlapped write: compute is released at the iteration boundary
            # while the snapshot drains on the storage resource; it becomes a
            # rollback target only when the drain completes.  The
            # iteration_done is pushed first so, on a time tie, progress is
            # booked before the checkpoint watermark advances.
            self._push(now + duration, "iteration_done",
                       (job.name, epoch, (duration,), 0.0, 0, False), job.name)
            samples_after = record.samples_processed + job.cost_model.batch_size * len(workers)
            self._push(now + duration + ckpt_seconds, "ckpt_done",
                       (job.name, epoch, iteration_index + 1, samples_after,
                        ckpt_seconds, ckpt_bytes),
                       job.name)
        else:
            duration += ckpt_seconds
            self._push(now + duration, "iteration_done",
                       (job.name, epoch, (duration,), ckpt_seconds, ckpt_bytes, True), job.name)

    def _schedule_iteration_batch(self, job: SimJob, workers: List[GPUDevice],
                                  links: Optional[List[str]], iteration_index: int,
                                  now: float) -> bool:
        """Commit a run of memo-cached iterations as **one** heap event.

        Plans the longest run ``K >= 2`` of upcoming iterations that (a)
        share one constant pricing profile, (b) end strictly before both the
        next checkpoint-writing iteration and the *horizon*, and (c) start
        from a quiet fast-forward cache hit.  The engine replays the K
        cached iterations back to back (``fast_forward_batch``) and a
        single ``iteration_done`` event credits all K.

        A job whose route crosses no link takes as its horizon the earliest
        pending *barrier* (any event other than an iteration completion) that
        reaches it, per its ``_KINDS`` row: one naming the job or one of its
        GPUs.  Whatever else happens meanwhile — foreign faults, link
        changes, admissions, completions, checkpoint drains — leaves its
        GPUs, speeds, memo key and links alone.

        A link-crossing job takes the earliest pending barrier of any kind.
        Another job's completion inside the window is not a barrier when it
        cannot reach this job: the admission queue is empty, so a finishing
        job places nobody, and no other placed job loads a link this job
        crosses, so nothing it schedules lands on them (both can only change
        at a barrier).  Otherwise its horizon is the next heap event of any
        kind.

        If a fair-share revision or re-flow moves a crossed transfer's end
        past a later iteration's start, the engine truncates the batch there:
        the committed prefix's completion is re-quoted at its true end and
        the remaining iterations are re-planned when that event pops (live
        if the links stay busy).  Only called from the event-loop
        continuation, where the pending heap is the complete future — a
        placement sweep admitting several jobs at once must not batch, since
        later admissions' traffic is not in the heap yet.

        Returns ``False`` (committing nothing) when no batch of at least two
        iterations is possible; the caller falls back to the
        one-event-per-iteration path.
        """
        if links is None:
            horizon = math.inf
            for key in (("job", job.name), *[("gpu", gpu.name) for gpu in workers]):
                times = self._reach.get(key)
                if times and times[0] < horizon:
                    horizon = times[0]
        elif not self._pending and all(self._users[name] == 1 for name in links):
            horizon = self._barriers[0] if self._barriers else math.inf
        else:
            horizon = self._heap[0][0] if self._heap else math.inf
        if not now < horizon:
            return False
        limit = job.iterations - iteration_index
        if job.checkpoint_every:
            # The checkpoint-writing iteration keeps the single-iteration
            # path: it prices and queues the snapshot write.
            limit = min(limit, job.checkpoint_every - 1
                        - (iteration_index % job.checkpoint_every))
        if limit < 2:
            return False
        prefix, cached_fp, include_reference = job.iteration_profile(iteration_index)
        entry = self.engine.can_fast_forward(
            job.cost_model, workers=workers, frozen_prefix=prefix,
            cached_fp=cached_fp, policy=job.policy,
            include_reference_overhead=include_reference, start_time=now,
            link_resource=links)
        if entry is None:
            return False
        count = 0
        start = now
        while count < limit:
            end = start + entry.rel_end
            start = start + (end - start)
            if not start < horizon:
                break
            count += 1
        if count >= 2:
            count = job.profile_span(iteration_index, count)
        if count < 2:
            return False
        durations = self.engine.fast_forward_batch(
            job.cost_model, count, workers=workers, frozen_prefix=prefix,
            cached_fp=cached_fp, policy=job.policy,
            include_reference_overhead=include_reference, start_time=now,
            link_resource=links, job_name=job.name, job_weight=job.weight)
        if not durations:
            return False
        # The hook runs for what the engine committed, never for the plan,
        # and only when the job has one.
        hook = type(job).begin_iteration is not SimJob.begin_iteration
        end = now
        for offset, duration in enumerate(durations):
            if hook:
                job.begin_iteration(iteration_index + offset, sim_time=end)
            end = end + duration
        if self.engine.sanitizer is not None and len(durations) > 1:
            self._batch_spans[job.name] = (now, end)
        self._push(end, "iteration_done",
                   (job.name, self._placement_epoch[job.name], tuple(durations), 0.0, 0, False),
                   job.name)
        return True