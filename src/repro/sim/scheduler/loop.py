"""The event loop: :class:`ClusterScheduler`, its heap, one row per heap kind
(``_KINDS``) and the handlers the rows name."""

from __future__ import annotations

import heapq
import inspect
from functools import reduce
from operator import add
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..cluster import Cluster, GPUDevice
from ..engine import EventDrivenEngine
from ..sanitizer import CausalityViolation
from ..simtime import times_close
from .api import _API
from .jobs import JobRecord, SchedulerResult, SimJob
from .placement import _Placement
from .planner import _Planner

#: The one event kind that only books a job's own progress.  Every other kind
#: is a *barrier*: it may change placements, link traffic or speeds, so no
#: batch of fast-forwarded iterations may run past one that reaches its job.
_COMPLETION = "iteration_done"

#: The reach key space each reach field names: a job, or one or more GPUs.
_SPACES = {"job_name": "job", "gpu_name": "gpu", "gpus": "gpu"}


class _Kind:
    """One heap kind: the handler :meth:`ClusterScheduler.run` calls as
    ``handler(self, *payload, now)``, and its *reach*.

    ``reach`` names the payload field saying which link-free jobs the kind
    can change: ``"job_name"`` the job, ``"gpu_name"`` / ``"gpus"`` the jobs
    holding those GPUs, ``None`` none of them (only link-crossing jobs feel
    a capacity change, and they stop at every barrier).  Nothing else a
    barrier does (placing a queued job, failing another machine, writing
    another job's checkpoint) can change a link-free job's GPUs, speeds,
    memo key or links.  The payload's fields (the handler's parameters
    between ``self`` and ``now``), the reach's payload index and its key
    space are derived here, once: a reach the handler lacks fails when the
    table is built.
    """

    __slots__ = ("handler", "reach", "fields", "index", "space")

    def __init__(self, handler: Callable[..., Optional[bool]], reach: Optional[str]):
        self.handler = handler
        self.reach = reach
        self.fields: Tuple[str, ...] = tuple(inspect.signature(handler).parameters)[1:-1]
        if reach is not None and (reach not in self.fields or reach not in _SPACES):
            raise ValueError(f"reach {reach!r} of {handler.__name__} is none of its "
                             f"job or GPU fields {self.fields}")
        self.index = None if reach is None else self.fields.index(reach)
        self.space = _SPACES.get(reach)


class _Cause(NamedTuple):
    """How one cause of GPU-capacity loss reads in the decision log."""

    down: str            #: decision logged when the GPUs go down ...
    up: str              #: ... and when they come back
    victim: str          #: decision logged per descheduled job
    counter: str         #: the :class:`JobRecord` field each victim increments
    victim_key: Optional[str]  #: payload key naming the fault on the victim's entry
    #: One GPU (logged as ``gpu=``, and bringing up a GPU that is not down is
    #: logged as ``gpu_recover_ignored``) or a domain (``label/cause/gpus``).
    single_gpu: bool


#: Every way GPUs leave and rejoin the pool: one row per cause, read by the one
#: take-down (:meth:`ClusterScheduler._apply_gpus_down`) and the one bring-up.
_CAUSES: Dict[str, _Cause] = {
    "gpu": _Cause("gpu_failure", "gpu_recovered", "job_failed", "failures", None, True),
    "spot": _Cause("spot_evicted", "gpu_recovered", "job_evicted", "evictions", "gpu", True),
    "machine": _Cause("domain_failure", "domain_recovered", "job_failed", "failures",
                      "cause", False),
    "rack": _Cause("domain_failure", "domain_recovered", "job_failed", "failures",
                   "cause", False),
}


class ClusterScheduler(_API, _Placement, _Planner):
    """Places jobs on a cluster and advances them through the event engine.

    Parameters
    ----------
    cluster:
        The shared cluster whose GPUs and links the jobs compete for.
    engine:
        Event-driven engine; one is built over ``cluster`` when omitted.
    placement:
        ``"fifo"`` packs workers onto the first free GPUs in machine order;
        ``"round_robin"`` takes one free GPU per machine, cycling;
        ``"tor_pack"`` packs workers into the fewest racks (preferring the
        tightest single rack that fits), keeping rack-local jobs off the
        core fabric in per-ToR topology mode.  Job admission is strictly
        FIFO in every case.
    """

    def __init__(self, cluster: Cluster, engine: Optional[EventDrivenEngine] = None,
                 placement: str = "fifo"):
        """Wire the scheduler to a cluster and (optionally) a shared engine."""
        if placement not in self.PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}; expected one of {self.PLACEMENTS}")
        self.cluster = cluster
        self.engine = engine or EventDrivenEngine(cluster)
        self.placement = placement

        self._all_gpus: List[GPUDevice] = cluster.all_gpus()
        self._gpus: Dict[str, GPUDevice] = {gpu.name: gpu for gpu in self._all_gpus}
        self._free: Dict[str, GPUDevice] = dict(self._gpus)
        self._jobs: Dict[str, SimJob] = {}
        #: 1-based submission order: the same-instant order of per-job events.
        self._rank: Dict[str, int] = {}
        self._allocations: Dict[str, List[GPUDevice]] = {}
        self._pending: List[str] = []
        #: ``(time, rank, seq, kind, payload)``; see :meth:`_push` for the order.
        self._heap: List[Tuple[float, int, int, str, Tuple]] = []
        self._seq = 0
        #: Times of the pending barrier events (a heap), pushed and popped
        #: alongside ``_heap`` so the earliest barrier is an O(1) read.
        self._barriers: List[float] = []
        #: The same times, one heap per reach key (see :class:`_Kind`), so the
        #: earliest barrier that can reach a link-free job is an O(1) read too.
        self._reach: Dict[Tuple[str, str], List[float]] = {}
        #: Under SimSan, each job's last committed batch ``(start, end)``.
        self._batch_spans: Dict[str, Tuple[float, float]] = {}
        #: Per placed job ``(crossed links, shared resources it loads)``, and
        #: how many placed jobs load each resource — what tells a batch
        #: whether another job could put traffic on a link it crosses.
        self._routes: Dict[str, Tuple[Optional[List[str]], Tuple[str, ...]]] = {}
        self._users: Dict[str, int] = {}
        #: Fault-tolerance state: GPUs currently down, preempted jobs
        #: awaiting resume, and jobs that must pay a checkpoint-restore read
        #: before their next iteration.  Insertion-ordered dicts used as
        #: ordered sets (value always None) so any future iteration over
        #: them is deterministic regardless of PYTHONHASHSEED (SIM003).
        self._failed_gpus: Dict[str, None] = {}
        self._paused: Dict[str, None] = {}
        self._needs_restore: Dict[str, None] = {}
        #: Per-job placement generation, bumped whenever the job is taken off
        #: its GPUs or resized.  ``iteration_done`` and ``ckpt_done`` carry the
        #: epoch they were scheduled under and are honoured only while it is
        #: current, which drops the in-flight iteration and any draining async
        #: checkpoint of a placement a resize/failure/preemption ended.
        self._placement_epoch: Dict[str, int] = {}
        #: Spot-capacity state: preemptible GPUs (name -> eviction-notice
        #: seconds), consecutive-failure counters for the capped-exponential
        #: restart backoff, and the last proactive-checkpoint instant per job
        #: (dedupes simultaneous notices hitting the same job).
        self._preemptible: Dict[str, float] = {}
        self._restart_count: Dict[str, int] = {}
        self._last_proactive: Dict[str, float] = {}
        #: ``(base_seconds, cap_seconds)`` capped-exponential restart backoff
        #: for failed/evicted jobs; ``None`` (the default) re-queues
        #: immediately, the historical behaviour.
        self.restart_backoff: Optional[Tuple[float, float]] = None
        self.records: Dict[str, JobRecord] = {}
        self.gpu_busy_seconds: Dict[str, float] = {gpu.name: 0.0 for gpu in self._all_gpus}
        self.trace: List[Dict[str, object]] = []
        if self.engine.observer is not None:
            self.engine.observer.note_cluster(len(self._all_gpus))

    # ------------------------------------------------------------------ #
    # The heap and the event loop
    # ------------------------------------------------------------------ #
    def _push(self, time: float, kind: str, payload: Tuple = (),
              job: Optional[str] = None) -> None:
        """Queue an event; ``job`` names the owner of a job's own event.

        Events at one instant run cluster-level first (``job`` is ``None``;
        push order), then per job in submission order.  A batch completion is
        pushed many iterations before the per-iteration event it stands for,
        so push order alone would let batching reorder two jobs that finish
        an iteration at the same instant; submission order cannot.
        """
        time = float(time)
        rank = 0 if job is None else self._rank[job]
        heapq.heappush(self._heap, (time, rank, self._seq, kind, payload))
        if kind != _COMPLETION:
            heapq.heappush(self._barriers, time)
            for key in self._reach_keys(kind, payload):
                heapq.heappush(self._reach.setdefault(key, []), time)
        self._seq += 1

    def _reach_keys(self, kind: str, payload: Tuple) -> Tuple[Tuple[str, str], ...]:
        """The reach keys of one barrier, read from its payload per its
        :data:`_KINDS` row (none for a kind without a row: :meth:`run` raises)."""
        row = self._KINDS.get(kind)
        if row is None or row.reach is None:
            return ()
        names = payload[row.index]
        if isinstance(names, str):
            return ((row.space, names),)
        return tuple([(row.space, name) for name in names])

    def _trace(self, time: float, kind: str, **payload: object) -> None:
        """Append one decision to :attr:`trace`, the run's only decision log.

        The single instrumentation point: nothing else writes the log, and
        the SimScope observer reads each entry from here.
        """
        entry: Dict[str, object] = {"time": time, "kind": kind}
        entry.update(payload)
        self.trace.append(entry)
        observer = self.engine.observer
        if observer is not None:
            observer.scheduler_event(time, kind, entry)

    def run(self) -> SchedulerResult:
        """Drain all events; returns per-job records, utilization and trace.

        With the engine's sanitizer attached, every dequeued event is
        causality-checked against the scheduler's absolute clock and the
        resource pool is audited (bytes, windows, fair-share rates) once the
        heap drains.
        """
        makespan = 0.0
        sanitizer = self.engine.sanitizer
        while self._heap:
            now, _rank, _seq, kind, payload = heapq.heappop(self._heap)
            if kind != _COMPLETION:
                heapq.heappop(self._barriers)  # the earliest barrier is this event
                for key in self._reach_keys(kind, payload):
                    heapq.heappop(self._reach[key])
            if sanitizer is not None:
                sanitizer.check_event("scheduler", now, kind)
                if kind != _COMPLETION:
                    self._check_no_batch_across(now, kind, payload)
            # Only events that commit real work extend the makespan.  Knob
            # events (set_speed/resize/faults) may be timestamped past the
            # last completed work, and a *stale* completion — an iteration
            # invalidated by a failure/preemption/eviction — may carry a
            # quoted end far beyond the real end of work (e.g. an iteration
            # priced across a dead ToR uplink), so each completion handler
            # checks its validity guard and reports whether it committed.
            if self._KINDS[kind].handler(self, *payload, now):
                makespan = max(makespan, now)
        if sanitizer is not None:
            sanitizer.verify_pool(self.engine.resources)
        if self.engine.observer is not None:
            # Render committed occupancy (spans + byte counters) from the
            # fully re-flowed timelines; idempotent, so callers that
            # finalize again (e.g. run_scenario) are safe.
            self.engine.observer.finalize(self.engine.resources)
        return SchedulerResult(makespan=makespan, jobs=dict(self.records),
                               gpu_busy_seconds=dict(self.gpu_busy_seconds), trace=list(self.trace),
                               resources=self.engine.resources.summary(),
                               perf=self.engine.perf_counters())

    def _check_no_batch_across(self, now: float, kind: str, payload: Tuple) -> None:
        """SimSan: no job this barrier reaches holds a batch it cuts through.

        Reach is read from the handler's own payload fields, never from its
        row's reach, so a wrong row cannot vouch for itself: the barrier
        reaches the job its ``job_name`` names, every job holding a GPU its
        ``gpu_name`` or ``gpus`` names and every job crossing its
        ``resource``; a payload that names no job, GPU or resource reaches
        every job.  Labels, causes and decisions name no job, so a job called
        ``spot`` or ``node1`` is not reached through them.  Raises
        :class:`CausalityViolation` when such a job's last committed batch
        (K >= 2) started before ``now`` and ends at or after it.
        """
        fields = dict(zip(self._KINDS[kind].fields, payload))
        gpus = (fields["gpu_name"],) if "gpu_name" in fields else fields.get("gpus", ())
        targeted = any(name in fields for name in ("job_name", "gpu_name", "gpus", "resource"))
        for job_name, (start, end) in self._batch_spans.items():
            if not start < now <= end:
                continue
            links = self._routes.get(job_name, (None, ()))[0] or []
            held = self._allocations.get(job_name, [])
            if (targeted and job_name != fields.get("job_name")
                    and not any(gpu.name in gpus for gpu in held)
                    and fields.get("resource") not in links):
                continue
            raise CausalityViolation(
                f"scheduler: barrier {kind!r} at t={now!r} reaches job {job_name!r}, "
                f"whose batch of iterations runs from t={start!r} to t={end!r}",
                self.engine.sanitizer.provenance())

    def _apply_arrival(self, job_name: str, now: float) -> bool:
        self._pending.append(job_name)
        self._trace(now, "arrival", job=job_name)
        self._try_place(now)
        return True

    def _apply_iteration_done(self, job_name: str, epoch: int, durations: Tuple[float, ...],
                              ckpt_seconds: float, ckpt_bytes: int, ckpt_taken: bool,
                              now: float) -> bool:
        """Book one live iteration or a committed run of fast-forwarded ones.

        Each is credited in the same accumulation order, so how the K
        iterations were stepped never shows in the sums.  Returns ``False``
        for a stale event from before a resize/failure/preemption/finish.
        """
        if epoch != self._placement_epoch[job_name]:
            return False
        job = self._jobs[job_name]
        record = self.records[job_name]
        names = [gpu.name for gpu in self._allocations[job_name]]
        samples = job.cost_model.batch_size * len(names)
        record.iterations_done += len(durations)
        record.iteration_seconds.extend(durations)
        record.samples_processed += samples * len(durations)
        for name in names:
            self.gpu_busy_seconds[name] = reduce(add, durations, self.gpu_busy_seconds[name])
        if ckpt_taken:
            self._commit_checkpoint(record, record.iterations_done, record.samples_processed,
                                    ckpt_seconds, ckpt_bytes)
            self._trace(now, "checkpoint", job=job_name, iteration=record.iterations_done,
                        seconds=ckpt_seconds, num_bytes=int(ckpt_bytes))
        self._finish_or_continue(job, record, now)
        return True

    def _apply_set_speed(self, gpu_name: str, factor: float, now: float) -> None:
        self.engine.set_gpu_speed(gpu_name, factor)
        self._trace(now, "set_speed", gpu=gpu_name, factor=factor)

    def _finish_or_continue(self, job: SimJob, record: JobRecord, now: float) -> None:
        """After booked progress: release a finished job, else schedule on."""
        if self._restart_count:
            # Completed progress resets the restart backoff (the guard keeps
            # the common no-faults path dict-op free).
            self._restart_count.pop(job.name, None)
        if record.iterations_done < job.iterations:
            self._schedule_iteration(job, now, allow_batch=True)
            return
        record.finish_time = now
        self._vacate(job, now)
        self._trace(now, "job_finish", job=job.name)
        self._try_place(now)

    def _apply_ckpt_done(self, job_name: str, epoch: int, iteration_index: int,
                         samples_after: float, seconds: float, num_bytes: int,
                         now: float) -> bool:
        """Commit an async checkpoint once its storage write has drained.

        Returns whether the write committed (dropped writes must not extend
        the makespan)."""
        record = self.records[job_name]
        if epoch != self._placement_epoch[job_name] \
                or record.iterations_done < iteration_index \
                or iteration_index <= record.checkpoint_iteration:
            # The job was descheduled/resized (stale epoch), rolled back past
            # this iteration, or a newer snapshot already committed — the
            # write never becomes a rollback target and must not regress the
            # watermark or double-count.
            self._trace(now, "checkpoint_dropped", job=job_name, iteration=iteration_index)
            return False
        self._commit_checkpoint(record, iteration_index, samples_after, seconds, num_bytes)
        self._trace(now, "checkpoint", job=job_name, iteration=int(iteration_index),
                    seconds=seconds, num_bytes=int(num_bytes), overlapped=True)
        return True

    def _apply_resize(self, job_name: str, delta: int, now: float) -> None:
        if job_name not in self._allocations:
            self._trace(now, "resize_ignored", job=job_name, delta=delta)
            return
        record = self.records[job_name]
        job = self._jobs[job_name]
        workers = self._allocations[job_name]
        old_workers = list(workers)
        if delta < 0:
            releasable = min(-delta, len(workers) - 1)  # keep at least one worker
            moved = [workers.pop() for _ in range(releasable)]
            if moved:
                self._release(job_name, moved, now)
            self._trace(now, "resize", job=job_name, delta=-releasable,
                        workers=[gpu.name for gpu in workers])
            if moved:
                self._try_place(now)
        else:
            moved = self._pick_gpus(min(delta, len(self._free)))
            if moved:
                self._claim(job_name, moved)
            self._trace(now, "resize", job=job_name, delta=len(moved),
                        workers=[gpu.name for gpu in workers])
        if not moved:
            return  # no-op resize: leave the in-flight iteration untouched
        # The resized worker set is the job's size from here on — a later
        # failure/preemption re-queues it at this size, not the submitted one.
        job.num_workers = len(workers)
        self._route(job, workers)
        record.worker_names = [gpu.name for gpu in workers]
        # The invalidated in-flight iteration's pending transfers never
        # happen, and any async checkpoint still draining is superseded by
        # the migration checkpoint below — bump the placement epoch so its
        # ckpt_done is recognised as stale (no double commit).
        self.engine.resources.cancel_job(job_name, now)
        self._placement_epoch[job_name] += 1
        # The in-flight iteration (scheduled with the old worker set) is
        # invalidated with the old epoch; restart it under the new
        # configuration.
        #
        # For checkpointed jobs a resize is a *migration*: the old worker set
        # writes a synchronized incremental checkpoint and the new set reads
        # the full state back before continuing — no iterations are lost, but
        # both transfers are charged as link-bytes.
        delay = 0.0
        if job.checkpoint_every:
            write_bytes, write_seconds = self._write_snapshot(
                job, job.prefix_at(record.iterations_done), now, old_workers)
            _read_bytes, read_seconds = self._read_snapshot(job, now + write_seconds, workers)
            delay = write_seconds + read_seconds
            self._commit_checkpoint(record, record.iterations_done, record.samples_processed,
                                    write_seconds, write_bytes)
            self._trace(now, "migrate", job=job_name, seconds=delay)
        self._schedule_iteration(job, now + delay)

    # ------------------------------------------------------------------ #
    # Fault tolerance: failures, recovery, preemption
    # ------------------------------------------------------------------ #
    def _apply_requeue(self, job_name: str, now: float) -> None:
        """Admit a backoff-delayed job.

        Only this event re-admits a job a fault descheduled: until it fires
        the job is neither placed, pending nor paused, so no fault can reach
        it again, and each fault pushes exactly one ``requeue``.
        """
        self._pending.append(job_name)
        self._trace(now, "job_requeued", job=job_name)
        self._try_place(now)

    def _apply_gpus_down(self, label: str, cause: str, gpus: Tuple[str, ...],
                         now: float) -> None:
        """Take GPUs out of the pool — one GPU, a spot reclaim or a whole domain.

        All GPUs are marked down *before* any victim is descheduled, so a
        job spanning several of them is descheduled exactly once and none
        of its surviving workers leak back into the free pool mid-event.
        Victims roll back, count the fault on their record and re-queue.
        """
        spec = _CAUSES[cause]
        for gpu_name in gpus:
            self._failed_gpus[gpu_name] = None
            self._free.pop(gpu_name, None)
        if spec.single_gpu:
            self._trace(now, spec.down, gpu=label)
        else:
            self._trace(now, spec.down, label=label, cause=cause, gpus=list(gpus))
        down = frozenset(gpus)
        victims = [name for name, alloc in self._allocations.items()
                   if any(gpu.name in down for gpu in alloc)]
        named = {} if spec.victim_key is None else {spec.victim_key: label}
        for job_name in victims:
            record = self.records[job_name]
            setattr(record, spec.counter, getattr(record, spec.counter) + 1)
            self._deschedule(job_name, now)
            self._trace(now, spec.victim, job=job_name,
                        restart_iteration=record.iterations_done, **named)
            self._requeue_after_failure(job_name, now)
        if victims:
            self._try_place(now)

    def _apply_gpus_up(self, label: str, cause: str, gpus: Tuple[str, ...],
                       now: float) -> None:
        """Return downed GPUs to the pool (skipping any already back)."""
        spec = _CAUSES[cause]
        restored = [gpu_name for gpu_name in gpus if gpu_name in self._failed_gpus]
        for gpu_name in restored:
            del self._failed_gpus[gpu_name]
            self._free[gpu_name] = self._gpus[gpu_name]
        if not spec.single_gpu:
            self._trace(now, spec.up, label=label, cause=cause, gpus=restored)
        elif restored:
            self._trace(now, spec.up, gpu=label)
        else:
            self._trace(now, "gpu_recover_ignored", gpu=label)
        if restored:
            self._try_place(now)

    def _apply_link_capacity(self, resource: str, gbps: float, decision: str,
                             now: float) -> None:
        """Apply a mid-run capacity change to a shared resource's timeline.

        The timeline resweeps its open busy period byte-conservingly
        (:meth:`~repro.sim.resources.BaseResourceTimeline.set_capacity`);
        iteration completions already committed to the heap keep their
        quoted durations, and every iteration priced after this instant sees
        the new rate (the engine's memo-cache key includes per-link
        capacity, so stale steady-state entries cannot replay).
        """
        self.engine.resource_timeline(resource).set_capacity(now, gbps)
        self._trace(now, decision, resource=resource, gbps=gbps)

    def _apply_spot_notice(self, gpu_name: str, evict_at: float, now: float) -> None:
        """React to an eviction notice with a proactive checkpoint.

        The resident job snapshots its *completed* progress through the
        storage timeline immediately; once the write drains (before the
        eviction, if the notice window allows) it commits through the
        ordinary ``ckpt_done`` path and becomes the rollback target, so the
        resume loses only the notice-to-eviction window.  A notice landing
        on a job with nothing new since its last snapshot is a no-op.
        """
        victim = next((name for name, alloc in self._allocations.items()
                       if any(gpu.name == gpu_name for gpu in alloc)), None)
        self._trace(now, "spot_notice", gpu=gpu_name, evict_at=evict_at, job=victim)
        if victim is None:
            return
        job = self._jobs[victim]
        record = self.records[victim]
        if record.iterations_done <= record.checkpoint_iteration:
            return  # nothing new to snapshot
        last = self._last_proactive.get(victim)
        if last is not None and times_close(last, now):
            return  # another notice already snapshotted the job this instant
        self._last_proactive[victim] = now
        ckpt_bytes, seconds = self._write_snapshot(job, job.prefix_at(record.iterations_done),
                                                   now, self._allocations[victim])
        self._push(now + seconds, "ckpt_done",
                   (victim, self._placement_epoch[victim],
                    record.iterations_done, record.samples_processed,
                    seconds, ckpt_bytes), victim)
        self._trace(now, "proactive_checkpoint", job=victim,
                    iteration=record.iterations_done, seconds=seconds,
                    num_bytes=ckpt_bytes)

    def _apply_preemption(self, job_name: str, now: float) -> None:
        if job_name not in self._allocations:
            self._trace(now, "preempt_ignored", job=job_name)
            return
        record = self.records[job_name]
        record.preemptions += 1
        self._deschedule(job_name, now)
        self._paused[job_name] = None
        self._trace(now, "job_preempted", job=job_name,
                    restart_iteration=record.iterations_done)
        self._try_place(now)

    def _apply_resume(self, job_name: str, now: float) -> None:
        if job_name not in self._paused:
            self._trace(now, "resume_ignored", job=job_name)
            return
        self._paused.pop(job_name, None)
        self._pending.append(job_name)
        self._trace(now, "job_resumed", job=job_name)
        self._try_place(now)

    #: The event table: one :class:`_Kind` row per heap kind :meth:`_push`
    #: may be given.  A handler returns true when it committed work (see
    #: :meth:`run`).  Plain functions, not bound methods: a per-instance table
    #: would tie every scheduler into a reference cycle only the cyclic
    #: collector frees.
    _KINDS: Dict[str, _Kind] = {
        "arrival": _Kind(_apply_arrival, "job_name"),
        _COMPLETION: _Kind(_apply_iteration_done, "job_name"),
        "ckpt_done": _Kind(_apply_ckpt_done, "job_name"),
        "set_speed": _Kind(_apply_set_speed, "gpu_name"),
        "resize": _Kind(_apply_resize, "job_name"),
        "gpus_down": _Kind(_apply_gpus_down, "gpus"),
        "gpus_up": _Kind(_apply_gpus_up, "gpus"),
        "preempt": _Kind(_apply_preemption, "job_name"),
        "resume": _Kind(_apply_resume, "job_name"),
        "link_set_capacity": _Kind(_apply_link_capacity, None),
        "spot_notice": _Kind(_apply_spot_notice, "gpu_name"),
        "requeue": _Kind(_apply_requeue, "job_name"),
    }
