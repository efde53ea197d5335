"""Discrete-event simulation of training iterations on a cluster.

The closed-form :class:`~repro.sim.cost_model.CostModel` collapses an
iteration into ``forward + backward + max(comm - backward, 0)``.  That is fast
and adequate for a single homogeneous job, but it cannot express the
cluster-level effects the paper's distributed results depend on: stragglers
gating the all-reduce, heterogeneous GPU speeds, per-link serialization of
gradient buckets, or ByteScheduler's overlap of leftover communication with
the *next* iteration's forward pass.

This module provides :class:`EventDrivenEngine`, a discrete-event simulator
over :class:`~repro.sim.cluster.Cluster` resources:

* **per-GPU compute events** — every layer module's forward/backward pass is
  a timed segment on its worker's GPU; each GPU carries a speed factor so
  stragglers and heterogeneous accelerators simply run their segments slower;
* **per-link communication events** — each unfrozen module's gradient bucket
  becomes ready when *all* workers finished that module's backward pass (the
  slowest worker gates the collective), and buckets are serialized on the
  ring whose cost comes from :class:`~repro.sim.allreduce.AllReduceModel`;
* **overlap** — communication naturally overlaps the remaining backward
  compute (buckets are transmitted while earlier layers still run BP,
  ByteScheduler-style front-first priority optionally reorders them), and in
  multi-iteration runs leftover communication can hide behind the next
  iteration's forward pass under the ByteScheduler policies;
* **shared-resource queues** — with ``link_resource`` set, every gradient
  bucket additionally occupies the named shared resource's timeline
  (:mod:`repro.sim.resources`; first-fit FIFO or processor-sharing,
  per-resource ``policy``), so concurrent jobs' buckets genuinely delay
  each other on the fabric instead of being scaled by a fudge factor; the
  same timelines price checkpoint/restore traffic on shared storage targets
  (:meth:`EventDrivenEngine.storage_transfer`).  ``link_resource`` also
  accepts a *sequence* of resource names — the per-ToR topology mode, where
  a bucket reserves capacity on every fabric link its placement crosses
  (its ToR uplinks and, cross-rack, the core) and completes when the
  slowest crossed link delivers it;
* **steady-state fast-forward** — training is thousands of *identical*
  iterations, so the engine memoizes the fully-resolved relative timing of
  every iteration it simulates, keyed by the complete dynamics state
  (cost-model fingerprint, frozen prefix, cached-FP mode, policy, worker
  set, per-worker speed factors, communication pricing and the crossed
  links).  A later call with the same key replays the cached timing in
  O(1) — re-committing the same occupancy windows on the crossed links, so
  byte accounting and cross-job contention stay exact — instead of
  re-running the bucket heap.  Any state transition invalidates the replay:
  a freeze/unfreeze, resize or speed change alters the key, and traffic
  from another job on a crossed link (arrival, departure, cancel/re-flow)
  fails the quiet-link precondition, forcing a full re-simulation.  See
  ``docs/performance.md`` for the key and invalidation rules.

The engine is deterministic: event ties are broken by insertion sequence and
no randomness is used, so two runs with identical inputs produce identical
timelines.  The event loop runs in *relative* time (anchored at 0) and
translates to absolute time only at the edges — shared-resource reservations
and the returned result — which makes a fast-forwarded iteration
bit-identical to the event-by-event simulation it replays.  The engine is
the only production timer: the closed-form :meth:`CostModel.iteration` is
kept as the reference it must stay within 5 % of on single-job
configurations (:meth:`EventDrivenEngine.closed_form_deviation`), and the
memo-less event-by-event loop the replay must equal is an oracle subclass
in ``tests/oracles/sim_reference.py``.
"""

from __future__ import annotations

import copy
import heapq
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union, TYPE_CHECKING

from .allreduce import AllReduceModel
from .cluster import Cluster, GPUDevice
from .cost_model import CostModel
from .resources import BaseResourceTimeline, ResourcePool
from .sanitizer import SimSanitizer, sanitize_from_env

if TYPE_CHECKING:  # pragma: no cover - observers are attached, never imported here
    from .observe.observer import SimObserver

__all__ = ["SchedulePolicy", "SimEvent", "EventQueue", "EngineIterationResult",
           "EventDrivenEngine"]


class SchedulePolicy:
    """Names of the computation/communication schedules Figure 10 compares.

    ``vanilla`` issues each layer's all-reduce as its backward pass finishes;
    the ByteScheduler policies send front-module buckets first and may hide
    leftover communication behind the next iteration's forward pass; the
    Egeria policies exclude frozen layers from backward compute and
    gradient synchronization.
    """

    VANILLA = "vanilla"
    BYTESCHEDULER = "bytescheduler"
    EGERIA = "egeria"
    EGERIA_BYTESCHEDULER = "egeria+bytescheduler"

    ALL = (VANILLA, BYTESCHEDULER, EGERIA, EGERIA_BYTESCHEDULER)


@dataclass(frozen=True)
class SimEvent:
    """One timestamped occurrence inside the simulation."""

    time: float
    seq: int
    kind: str
    payload: Tuple

    def as_dict(self) -> Dict[str, object]:
        """Plain-data view of the event."""
        return {"time": self.time, "seq": self.seq, "kind": self.kind, "payload": self.payload}


class EventQueue:
    """Min-heap of events ordered by (time, insertion sequence).

    The insertion sequence makes simultaneous events pop in a deterministic
    order, which in turn makes every simulation reproducible bit-for-bit.
    """

    def __init__(self) -> None:
        """Start with an empty heap and a zeroed insertion sequence."""
        self._heap: List[Tuple[float, int, str, Tuple]] = []
        self._seq = 0

    def push(self, time: float, kind: str, payload: Tuple = ()) -> None:
        """Schedule an event at ``time`` (ties break by insertion order)."""
        heapq.heappush(self._heap, (float(time), self._seq, kind, payload))
        self._seq += 1

    def pop(self) -> SimEvent:
        """Remove and return the earliest pending event."""
        time, seq, kind, payload = heapq.heappop(self._heap)
        return SimEvent(time, seq, kind, payload)

    def __bool__(self) -> bool:
        """Whether any event is still pending."""
        return bool(self._heap)


@dataclass
class EngineIterationResult:
    """Timing decomposition of one simulated iteration.

    ``forward``/``backward`` are the *nominal* (speed-factor-free) compute
    sums, matching the closed-form breakdown; the wall-clock effect of slow
    GPUs shows up in ``end_time`` and ``per_worker_compute_end``.
    """

    forward: float
    backward: float
    communication: float
    exposed_communication: float
    cache_overhead: float
    reference_overhead: float
    start_time: float
    end_time: float
    num_events: int
    per_worker_compute_end: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Wall-clock span of the iteration."""
        return self.end_time - self.start_time

    def as_dict(self) -> Dict[str, float]:
        """Plain-data timing breakdown (what the trainers record)."""
        return {
            "forward": self.forward,
            "backward": self.backward,
            "communication": self.communication,
            "exposed_communication": self.exposed_communication,
            "cache_overhead": self.cache_overhead,
            "reference_overhead": self.reference_overhead,
            "total": self.total,
        }


@dataclass(frozen=True)
class _FastForwardEntry:
    """Fully-resolved *relative* timing of one simulated iteration.

    Everything is anchored at iteration start = 0, so a replay at any
    ``start_time`` reconstructs the absolute result as ``start_time + rel``
    — the exact arithmetic the live loop performs, hence bit-identical.
    ``reservations`` are the occupancy windows the iteration placed on its
    crossed links: ``(link index, relative request time, duration, bytes)``,
    re-committed on every replay so byte audits and cross-job contention
    stay exact.  ``cacheable`` is False when any reservation was delayed or
    stretched by another job's traffic (a contended iteration is never a
    steady state worth caching).
    """

    forward: float
    backward: float
    communication: float
    exposed_communication: float
    cache_overhead: float
    reference_overhead: float
    rel_end: float
    num_events: int
    worker_rel_end: Tuple[float, ...]
    reservations: Tuple[Tuple[int, float, float, int], ...]
    cacheable: bool


@dataclass(frozen=True)
class _IterationPlan:
    """Everything about one iteration that other jobs cannot change.

    A pure function of the dynamics key (:meth:`EventDrivenEngine._cache_key`):
    the compute segments, what each worker's GPU makes of them and the order
    of their events, and what each gradient bucket costs on the ring and on
    every crossed link at its current capacity.  The live loop adds only what
    depends on the links' other traffic — reservations, the ``cacheable``
    test and where the buckets fall among the compute events.
    """

    #: ``(phase, module_index, nominal seconds)`` in execution order.
    segments: Tuple[Tuple[str, int, float], ...]
    #: ``durations[worker][segment]``: nominal seconds / the worker's speed factor.
    durations: Tuple[Tuple[float, ...], ...]
    #: Module index -> ``(transmit seconds, gradient bytes, occupancy seconds
    #: per crossed link)``; the last is empty when the bucket reserves nothing.
    buckets: Dict[int, Tuple[float, int, Tuple[float, ...]]]
    #: ByteScheduler order (front modules first) instead of readiness order.
    front_first: bool
    forward: float
    backward: float
    cache_overhead: float
    reference_overhead: float
    #: The compute half, shared by every plan with these segments and durations.
    schedule: _Schedule


#: ``(events, compute_end)``: ``(rel time, kind, payload, seq, pushed)`` per
#: compute event in processing order, where ``seq`` and ``pushed`` (after the
#: event's handler ran) count compute pushes only, and each worker's last
#: segment end.  No link traffic moves either.
_Schedule = Tuple[Tuple[Tuple[float, str, Tuple, int, int], ...], Tuple[float, ...]]


def _compute_schedule(segments: Sequence[Tuple[str, int, float]],
                      durations: Sequence[Sequence[float]]) -> _Schedule:
    """Run the compute half of an iteration through the event heap once."""
    num_workers, num_segments = len(durations), len(segments)
    queue = EventQueue()
    events: List[Tuple[float, str, Tuple, int, int]] = []
    compute_end = [0.0] * num_workers
    bucket_done_workers: Dict[int, int] = {}
    if segments:
        for worker_pos in range(num_workers):
            queue.push(0.0 + durations[worker_pos][0], "segment_done", (worker_pos, 0))
    while queue:
        now, seq, kind, payload = heapq.heappop(queue._heap)
        if kind == "segment_done":
            worker_pos, seg_index = payload
            compute_end[worker_pos] = now
            phase, module_index, _nominal = segments[seg_index]
            if phase == "backward":
                done = bucket_done_workers.get(module_index, 0) + 1
                bucket_done_workers[module_index] = done
                if done == num_workers:
                    queue.push(now, "bucket_ready", (module_index,))
            if seg_index + 1 < num_segments:
                queue.push(now + durations[worker_pos][seg_index + 1], "segment_done",
                           (worker_pos, seg_index + 1))
        events.append((now, kind, payload, seq, queue._seq))
    return tuple(events), tuple(compute_end)


#: A worker handed to the engine: either a topology-aware GPU device or a
#: bare name (single-node simulations that need no cluster graph).
WorkerLike = Union[GPUDevice, str]


@dataclass(slots=True)
class _Lookup:
    """One iteration request as :meth:`EventDrivenEngine._resolve` resolves it:
    worker names, clamped prefix, crossed links and the memo key."""

    cost_model: CostModel
    names: List[str]
    worker_list: List[WorkerLike]
    frozen_prefix: int
    cached_fp: bool
    policy: str
    include_reference_overhead: bool
    comm_seconds_per_byte: Optional[float]
    link_timelines: List[BaseResourceTimeline]
    key: Tuple


class EventDrivenEngine:
    """Discrete-event simulator of training iterations over cluster resources.

    Parameters
    ----------
    cluster:
        Optional topology; required only when communication costs should be
        derived from link bandwidths (multi-worker jobs).
    allreduce:
        Communication model used to price gradient buckets; built from
        ``cluster`` when omitted.
    sanitize:
        Enables SimSan (:mod:`repro.sim.sanitizer`): runtime invariant
        checks on every event, reservation and cancellation, plus periodic
        fast-forward/live divergence spot checks.  ``None`` (the default)
        defers to the ``REPRO_SIMSAN`` environment variable, which is how
        CI runs the whole tier-1 suite sanitized.  Sanitized runs produce
        bit-identical results and perf counters.
    observe:
        Attaches a SimScope :class:`~repro.sim.observe.observer.SimObserver`
        (:mod:`repro.sim.observe`): sim-time iteration spans (live vs
        fast-forwarded replay) for the tracer, iteration/frozen-fraction
        metrics, and — via the shared :class:`ResourcePool` — per-resource
        queue-depth/wait sampling.  ``None`` (the default) is the null
        sink: every hook site is a single ``is None`` check.  Observed runs
        produce bit-identical results and perf counters.
    """

    def __init__(self, cluster: Optional[Cluster] = None, allreduce: Optional[AllReduceModel] = None,
                 sanitize: Optional[bool] = None,
                 observe: Optional["SimObserver"] = None):
        """Bind the engine to a cluster's topology and shared resources."""
        self.cluster = cluster
        self.allreduce = allreduce or (AllReduceModel(cluster) if cluster is not None else None)
        #: Shared-resource timelines (links + storage), adopted from the
        #: cluster's named resources (see :meth:`resource_timeline`).
        self.resources = ResourcePool(cluster.resources.values() if cluster is not None else None)
        if sanitize is None:
            sanitize = sanitize_from_env()
        #: The attached runtime sanitizer, or ``None`` for a plain run.
        self.sanitizer: Optional[SimSanitizer] = SimSanitizer() if sanitize else None
        self.resources.attach_sanitizer(self.sanitizer)
        #: The attached SimScope observer, or ``None`` for an unobserved run.
        self.observer: Optional["SimObserver"] = observe
        self.resources.attach_observer(self.observer)
        #: Per-GPU relative speed (1.0 = nominal; 0.5 = half speed, i.e. a
        #: straggler whose compute segments take twice as long).
        self.gpu_speed: Dict[str, float] = {}
        #: Steady-state fast-forward cache (see :meth:`simulate_iteration`).
        self._cache: Dict[Tuple, _FastForwardEntry] = {}
        #: Static iteration plans under the same keys as ``_cache`` — kept
        #: for contended (uncacheable) iterations too, which is where the
        #: live loop spends its time.
        self._plans: Dict[Tuple, _IterationPlan] = {}
        #: Compute schedules by ``(segments, durations)``: a plan re-priced
        #: for another link capacity shares its predecessor's.
        self._schedules: Dict[Tuple, _Schedule] = {}
        #: Lightweight perf counters: live events processed, iterations
        #: simulated event by event vs fast-forwarded from the cache.
        self.events_processed = 0
        self.iterations_simulated = 0
        self.iterations_fast_forwarded = 0
        #: Batched fast-forward counters: committed batches and the replayed
        #: iterations they covered (a subset of iterations_fast_forwarded).
        self.fast_forward_batches = 0
        self.iterations_batched = 0

    # ------------------------------------------------------------------ #
    # Scenario knobs
    # ------------------------------------------------------------------ #
    def resource_timeline(self, name: str) -> BaseResourceTimeline:
        """The named resource's timeline, syncing late cluster additions.

        Resources registered on the cluster *after* this engine was built
        (``cluster.add_resource``) are adopted on first use, so the cluster
        stays the single place to declare resources.  Unknown names raise
        ``KeyError`` at call time, like job and GPU names.
        """
        timeline = self.resources.get(name)
        if timeline is None and self.cluster is not None and name in self.cluster.resources:
            timeline = self.resources.add(self.cluster.resources[name])
        if timeline is None:
            return self.resources.require(name)  # raises with the known names
        return timeline

    def set_gpu_speed(self, gpu_name: str, factor: float) -> None:
        """Set a GPU's relative speed (straggler < 1.0 < fast heterogeneous GPU)."""
        if factor <= 0:
            raise ValueError(f"speed factor must be positive, got {factor}")
        self.gpu_speed[str(gpu_name)] = float(factor)

    def speed_factor(self, gpu_name: str) -> float:
        """The GPU's relative speed (1.0 when never overridden)."""
        return self.gpu_speed.get(str(gpu_name), 1.0)

    # ------------------------------------------------------------------ #
    # Fast-forward cache management and counters
    # ------------------------------------------------------------------ #
    def clear_fast_forward_cache(self) -> None:
        """Drop every memoized iteration, plan and schedule (e.g. after mutating a cost model)."""
        self._cache.clear()
        self._plans.clear()
        self._schedules.clear()

    def perf_counters(self) -> Dict[str, object]:
        """Deterministic plain-data view of the engine's perf counters.

        ``cache_hit_rate`` is the fraction of simulated iterations served by
        the fast-forward cache; ``events_processed`` counts only the events
        the live loop actually popped (fast-forwarded iterations process
        none — that is the point).
        """
        total = self.iterations_simulated + self.iterations_fast_forwarded
        counters: Dict[str, object] = {
            "events_processed": self.events_processed,
            "iterations_simulated": self.iterations_simulated,
            "iterations_fast_forwarded": self.iterations_fast_forwarded,
            "cache_hit_rate": (self.iterations_fast_forwarded / total) if total else 0.0,
            "cache_entries": len(self._cache),
            "fast_forward_batches": self.fast_forward_batches,
            "iterations_batched": self.iterations_batched,
            "mean_batch_size": ((self.iterations_batched / self.fast_forward_batches)
                                if self.fast_forward_batches else 0.0),
        }
        counters.update(self.resources.perf_counters())
        return counters

    # ------------------------------------------------------------------ #
    # Segment construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _worker_names(workers: Optional[Sequence[WorkerLike]]) -> List[str]:
        if not workers:
            return ["gpu0"]
        return [w.name if isinstance(w, GPUDevice) else str(w) for w in workers]

    def _segments(self, cost_model: CostModel, frozen_prefix: int, cached_fp: bool,
                  include_reference_overhead: bool) -> Tuple[List[Tuple[str, int, float]], float, float]:
        """Nominal per-module compute segments of one iteration, in execution order.

        Returns ``(segments, cache_overhead, reference_overhead)`` where each
        segment is ``(phase, module_index, seconds)``.  The ordering mirrors
        the closed-form accounting: reference-model overhead and cache
        prefetch run before the forward pass, the backward pass runs last so
        that gradient buckets only become available while BP is in flight.
        """
        modules = cost_model.layer_modules
        frozen_prefix = max(0, min(frozen_prefix, len(modules)))
        segments: List[Tuple[str, int, float]] = []

        reference_overhead = 0.0
        if include_reference_overhead:
            baseline_compute = sum(cost_model.module_forward_time(m) * (1 + cost_model.gpu.bp_fp_ratio)
                                   for m in modules)
            reference_overhead = baseline_compute * cost_model.reference_overhead_fraction
            segments.append(("reference", -1, reference_overhead))

        cache_overhead = 0.0
        if cached_fp and frozen_prefix > 0:
            saved_forward = sum(cost_model.module_forward_time(m) for m in modules[:frozen_prefix])
            cache_overhead = saved_forward * cost_model.cache_overhead_fraction
            segments.append(("cache", -1, cache_overhead))

        for index, module in enumerate(modules):
            if index < frozen_prefix and cached_fp:
                continue  # served from the activation cache
            segments.append(("forward", index, cost_model.module_forward_time(module)))
        for index in range(len(modules) - 1, frozen_prefix - 1, -1):
            segments.append(("backward", index, cost_model.module_backward_time(modules[index])))
        return segments, cache_overhead, reference_overhead

    def _bucket_seconds(self, cost_model: CostModel, module_index: int,
                        workers: Sequence[WorkerLike],
                        comm_seconds_per_byte: Optional[float]) -> float:
        """Transmission time of one module's gradient bucket."""
        num_bytes = cost_model.module_gradient_bytes(cost_model.layer_modules[module_index])
        if comm_seconds_per_byte is not None:
            return num_bytes * comm_seconds_per_byte
        if self.allreduce is None or len(workers) <= 1:
            return 0.0
        devices = [w for w in workers if isinstance(w, GPUDevice)]
        if len(devices) != len(workers):
            return 0.0
        return self.allreduce.allreduce_seconds(num_bytes, list(devices))

    def _build_plan(self, cost_model: CostModel, worker_list: List[WorkerLike], names: List[str],
                    frozen_prefix: int, cached_fp: bool, policy: str,
                    include_reference_overhead: bool, comm_seconds_per_byte: Optional[float],
                    link_timelines: Sequence[BaseResourceTimeline]) -> _IterationPlan:
        """Price the static half of one iteration (see :class:`_IterationPlan`)."""
        segments, cache_overhead, reference_overhead = self._segments(
            cost_model, frozen_prefix, cached_fp, include_reference_overhead)
        buckets: Dict[int, Tuple[float, int, Tuple[float, ...]]] = {}
        for phase, module_index, _nominal in segments:
            if phase != "backward":
                continue
            transmit = self._bucket_seconds(cost_model, module_index, worker_list,
                                            comm_seconds_per_byte)
            num_bytes = cost_model.module_gradient_bytes(cost_model.layer_modules[module_index])
            # Occupancy on a crossed link is at least the link's *own*
            # serialization time of the bucket's bytes at its *effective*
            # capacity (bandwidth term only — per-transfer latency stays
            # priced once, by the all-reduce model, not per crossed link), so
            # an oversubscribed or degraded link (core_gbps below the ToR
            # aggregate, set_capacity) stretches delivery even without
            # competing jobs.  A free bucket reserves nothing.
            link_seconds = tuple(
                max(transmit, CostModel.transfer_seconds_at(num_bytes, timeline.capacity_gbps))
                for timeline in link_timelines) if transmit > 0.0 else ()
            buckets[module_index] = (transmit, num_bytes, link_seconds)
        timing = (tuple(segments), tuple(tuple(nominal / speed for _phase, _index, nominal in segments)
                                         for speed in map(self.speed_factor, names)))
        schedule = self._schedules.get(timing)
        if schedule is None:
            schedule = self._schedules[timing] = _compute_schedule(*timing)
        return _IterationPlan(
            segments=timing[0],
            durations=timing[1],
            schedule=schedule,
            buckets=buckets,
            front_first=policy in (SchedulePolicy.BYTESCHEDULER,
                                   SchedulePolicy.EGERIA_BYTESCHEDULER),
            forward=sum(sec for phase, _i, sec in segments if phase == "forward"),
            backward=sum(sec for phase, _i, sec in segments if phase == "backward"),
            cache_overhead=cache_overhead,
            reference_overhead=reference_overhead,
        )

    def storage_transfer(self, num_bytes: int, start_time: float, resource: str,
                         workers: Optional[Sequence[WorkerLike]] = None,
                         job: Optional[str] = None, kind: str = "checkpoint",
                         weight: float = 1.0) -> Tuple[float, float]:
        """Queue a checkpoint/restore transfer on a shared storage resource.

        Reserves a window on the named resource's timeline — concurrent
        writers genuinely wait for (or share capacity with) each other — and
        returns ``(start, end)``.  The effective bandwidth is the minimum of
        the resource's capacity and the slowest NIC among the workers'
        machines (a writer cannot outrun its own uplink).  ``weight`` is the
        job's fair-share weight on processor-sharing resources (ignored by
        FIFO ones).  Unknown resource names raise ``KeyError`` at call time,
        like job and GPU names.
        """
        timeline = self.resource_timeline(resource)
        if num_bytes <= 0:
            return float(start_time), float(start_time)
        nic_gbps = self.cluster.slowest_nic_gbps(workers) if self.cluster is not None else None
        return timeline.reserve_bytes(start_time, int(num_bytes), job=job, kind=kind,
                                      cap_gbps=nic_gbps, weight=weight)

    # ------------------------------------------------------------------ #
    # Core event loop
    # ------------------------------------------------------------------ #
    def simulate_iteration(self, cost_model: CostModel, workers: Optional[Sequence[WorkerLike]] = None,
                           frozen_prefix: int = 0, cached_fp: bool = False,
                           policy: str = SchedulePolicy.VANILLA,
                           include_reference_overhead: bool = False,
                           comm_seconds_per_byte: Optional[float] = None,
                           start_time: float = 0.0,
                           trace: Optional[List[SimEvent]] = None,
                           link_resource: Optional[Union[str, Sequence[str]]] = None,
                           job_name: Optional[str] = None,
                           job_weight: float = 1.0) -> EngineIterationResult:
        """Simulate one data-parallel iteration and return its timing breakdown.

        Parameters
        ----------
        cost_model:
            Supplies per-module compute times and gradient volumes.  Treated
            as immutable: the fast-forward cache fingerprints its parameters
            once (call :meth:`clear_fast_forward_cache` after mutating one).
        workers:
            GPU devices (or names) running the job; ``None`` means one
            anonymous nominal-speed GPU.
        policy:
            One of :class:`SchedulePolicy`; the ByteScheduler policies send
            front-module buckets first and may hide leftover communication
            behind the next iteration's forward pass (see
            :meth:`simulate_run`).
        comm_seconds_per_byte:
            Linear per-byte cost overriding the all-reduce model — the hook
            single-worker trainers use, priced the way
            :meth:`CostModel.iteration` prices it.
        link_resource:
            Shared link resource(s) to queue buckets on — one name, or a
            sequence of names for topology-aware routing (every fabric link
            the placement crosses: its ToR uplinks plus, cross-rack, the
            core).  Buckets keep their all-reduce transmission time but
            additionally occupy each named resource's timeline (FIFO or
            fair-share per the resource's ``policy``), completing when the
            slowest crossed link delivers them — so buckets from *other*
            jobs simulated on the same engine delay this job's
            communication (and vice versa).  A bucket's occupancy on each
            crossed link is at least the link's own serialization time of
            its bytes, so an *oversubscribed* link (e.g. ``core_gbps``
            below the ToR aggregate) stretches delivery even for a lone
            job — the knob the ``repro sim sweep`` oversubscription
            studies turn.  ``None`` keeps the job's communication private
            — the single-job behaviour, identical to earlier revisions.
        job_name:
            Owner recorded on the shared resource's occupancy windows (byte
            accounting and cancellation on preemption/resize).
        job_weight:
            Fair-share weight of this job's transfers on processor-sharing
            resources (capacity splits proportionally to weight; the default
            1.0 keeps the even split).

        An iteration whose complete dynamics state
        (cost model, frozen prefix, cached-FP mode, policy, reference
        overhead, communication pricing, worker names and speed factors,
        crossed links) matches a previously simulated one is
        **fast-forwarded**: its cached relative timing is replayed at
        ``start_time`` and its link reservations re-committed, producing a
        bit-identical result without running the event loop.  The replay
        only happens while every crossed link is *quiet* (no occupancy at or
        beyond ``start_time``); any other job's traffic on a crossed link
        forces a live re-simulation.  Tracing (``trace``) always bypasses
        the cache.
        """
        if policy not in SchedulePolicy.ALL:
            raise ValueError(f"unknown policy {policy!r}; expected one of {SchedulePolicy.ALL}")
        lookup = self._resolve(cost_model, workers, frozen_prefix, cached_fp, policy,
                               include_reference_overhead, comm_seconds_per_byte, link_resource)
        key = lookup.key if trace is None else None
        names, links = lookup.names, lookup.link_timelines
        plan: Optional[_IterationPlan] = None
        if key is not None:
            entry = self._cache.get(key)
            if entry is not None and all(t.busy_until <= start_time for t in links):
                result = self._replay(entry, lookup, start_time, job_name, job_weight)
                return result if result is not None else self._materialize(
                    entry, names, start_time)
            plan = self._plans.get(key)
        if plan is None:
            plan = self._build_plan(cost_model, lookup.worker_list, names, lookup.frozen_prefix,
                                    cached_fp, policy, include_reference_overhead,
                                    comm_seconds_per_byte, links)
            if key is not None:
                self._plans[key] = plan
        entry = self._simulate_live(plan, names, start_time, trace, links, job_name, job_weight)
        if key is not None and entry.cacheable:
            self._cache[key] = entry
        result = self._materialize(entry, names, start_time)
        if self.observer is not None:
            self.observer.note_iteration(job_name, result, "live", lookup.frozen_prefix,
                                         len(cost_model.layer_modules))
        return result

    def _resolve(self, cost_model: CostModel, workers: Optional[Sequence[WorkerLike]],
                 frozen_prefix: int, cached_fp: bool, policy: str,
                 include_reference_overhead: bool, comm_seconds_per_byte: Optional[float],
                 link_resource: Optional[Union[str, Sequence[str]]]) -> _Lookup:
        """The one lookup behind :meth:`simulate_iteration`, :meth:`can_fast_forward`
        and :meth:`fast_forward_batch` (unknown links raise ``KeyError`` here)."""
        names = self._worker_names(workers)
        worker_list = list(workers) if workers else list(names)
        frozen_prefix = max(0, min(frozen_prefix, len(cost_model.layer_modules)))
        link_names: Tuple[str, ...] = ()
        link_timelines: List[BaseResourceTimeline] = []
        if link_resource is not None:
            link_names = (link_resource,) if isinstance(link_resource, str) else tuple(link_resource)
            link_timelines = [self.resource_timeline(name) for name in link_names]
        key = self._cache_key(cost_model, names, worker_list, frozen_prefix, cached_fp,
                              policy, include_reference_overhead, comm_seconds_per_byte,
                              link_names, link_timelines)
        return _Lookup(cost_model, names, worker_list, frozen_prefix, cached_fp, policy,
                       include_reference_overhead, comm_seconds_per_byte, link_timelines, key)

    def _cache_key(self, cost_model: CostModel, names: List[str],
                   worker_list: List[WorkerLike], frozen_prefix: int, cached_fp: bool,
                   policy: str, include_reference_overhead: bool,
                   comm_seconds_per_byte: Optional[float],
                   link_names: Tuple[str, ...],
                   link_timelines: Sequence[BaseResourceTimeline] = ()) -> Tuple:
        """The complete dynamics state a memoized iteration is keyed on."""
        # Lists, not generators: built on every lookup, and cheaper at these lengths.
        return (
            cost_model.fingerprint(),
            tuple(names),
            # Bare worker *names* price communication as zero while
            # GPUDevice workers go through the all-reduce model — the
            # same names must not share an entry across the two forms.
            all([isinstance(w, GPUDevice) for w in worker_list]),
            tuple([self.gpu_speed.get(name, 1.0) for name in names]),
            frozen_prefix,
            cached_fp,
            policy,
            include_reference_overhead,
            comm_seconds_per_byte,
            link_names,
            # Effective link capacities: a mid-run set_capacity (degraded
            # link) must not replay entries priced at the old rate.
            tuple([t.capacity_gbps for t in link_timelines]),
        )

    def can_fast_forward(self, cost_model: CostModel,
                         workers: Optional[Sequence[WorkerLike]] = None,
                         frozen_prefix: int = 0, cached_fp: bool = False,
                         policy: str = SchedulePolicy.VANILLA,
                         include_reference_overhead: bool = False,
                         comm_seconds_per_byte: Optional[float] = None,
                         start_time: float = 0.0,
                         link_resource: Optional[Union[str, Sequence[str]]] = None
                         ) -> Optional[_FastForwardEntry]:
        """The cached entry :meth:`simulate_iteration` would replay, or ``None``.

        A non-``None`` return is the exact precondition for a fast-forward at
        ``start_time``: the complete dynamics key has a cached (cacheable)
        entry and every crossed link is quiet at or after ``start_time``.
        Pure lookup — commits nothing and counts nothing — so a scheduler
        can use it to plan a multi-iteration batch before committing via
        :meth:`fast_forward_batch`.
        """
        lookup = self._resolve(cost_model, workers, frozen_prefix, cached_fp, policy,
                               include_reference_overhead, comm_seconds_per_byte, link_resource)
        entry = self._cache.get(lookup.key)
        if entry is None or not all(t.busy_until <= start_time for t in lookup.link_timelines):
            return None
        return entry

    def fast_forward_batch(self, cost_model: CostModel, count: int,
                           workers: Optional[Sequence[WorkerLike]] = None,
                           frozen_prefix: int = 0, cached_fp: bool = False,
                           policy: str = SchedulePolicy.VANILLA,
                           include_reference_overhead: bool = False,
                           comm_seconds_per_byte: Optional[float] = None,
                           start_time: float = 0.0,
                           link_resource: Optional[Union[str, Sequence[str]]] = None,
                           job_name: Optional[str] = None,
                           job_weight: float = 1.0) -> List[float]:
        """Replay up to ``count`` consecutive memoized iterations back to back.

        Starts accumulate with the per-iteration path's float arithmetic
        (``next_start = start + ((start + rel_end) - start)``), so results,
        audits and metrics are bit-identical to ``count`` separate
        :meth:`simulate_iteration` calls.  Each iteration goes through
        :meth:`_replay` only when there are link windows to re-commit, a
        sanitizer or an observer; otherwise it is one float add, and links
        quiet at ``start_time`` stay quiet.  The batch is truncated (possibly
        to empty) at the first iteration whose crossed links are busy — the
        caller falls back to live simulation for the remainder.  Returns the
        committed iterations' durations (each one that call's ``result.total``).
        """
        lookup = self._resolve(cost_model, workers, frozen_prefix, cached_fp, policy,
                               include_reference_overhead, comm_seconds_per_byte, link_resource)
        entry = self._cache.get(lookup.key)
        durations: List[float] = []
        if entry is None:
            return durations
        links = lookup.link_timelines
        rel_end = entry.rel_end
        start = start_time
        replay = entry.reservations or self.sanitizer is not None or self.observer is not None
        for _ in range(count):
            if links and (replay or not durations) and not all(t.busy_until <= start for t in links):
                break
            if replay:
                self._replay(entry, lookup, start, job_name, job_weight)
            duration = (start + rel_end) - start
            durations.append(duration)
            start = start + duration
        if not replay:
            self.iterations_fast_forwarded += len(durations)
        if len(durations) > 1:
            self.fast_forward_batches += 1
            self.iterations_batched += len(durations)
        return durations

    def _materialize(self, entry: _FastForwardEntry, names: List[str],
                     start_time: float) -> EngineIterationResult:
        """Translate a relative-time entry into an absolute-time result."""
        return EngineIterationResult(
            forward=entry.forward,
            backward=entry.backward,
            communication=entry.communication,
            exposed_communication=entry.exposed_communication,
            cache_overhead=entry.cache_overhead,
            reference_overhead=entry.reference_overhead,
            start_time=start_time,
            end_time=start_time + entry.rel_end,
            num_events=entry.num_events,
            per_worker_compute_end={name: start_time + rel
                                    for name, rel in zip(names, entry.worker_rel_end)},
        )

    def _replay(self, entry: _FastForwardEntry, lookup: _Lookup, start_time: float,
                job_name: Optional[str], job_weight: float) -> Optional[EngineIterationResult]:
        """Replay a memoized iteration at ``start_time`` in O(#reservations).

        Spot check (at the sanitizer's cadence), then the cached link
        reservations re-committed at ``start_time + rel`` with the live
        loop's anti-self-contention clamp — so byte audits and the delays
        later jobs see are exactly the event-by-event ones — then the
        observer's note; returns the result built for it (``None`` unobserved).
        """
        if self.sanitizer is not None and self.sanitizer.should_spot_check():
            self._spot_check(entry, lookup, start_time, job_name, job_weight)
        self.iterations_fast_forwarded += 1
        link_timelines = lookup.link_timelines
        own_link_ends = [0.0] * len(link_timelines)
        for link_index, rel_request, seconds, num_bytes in entry.reservations:
            request = max(start_time + rel_request, own_link_ends[link_index])
            _start, end = link_timelines[link_index].reserve(request, seconds,
                                                             num_bytes=num_bytes, job=job_name,
                                                             kind="allreduce", weight=job_weight)
            own_link_ends[link_index] = end
        if self.observer is None:
            return None
        result = self._materialize(entry, lookup.names, start_time)
        self.observer.note_iteration(job_name, result, "replay", lookup.frozen_prefix,
                                     len(lookup.cost_model.layer_modules))
        return result

    def _spot_check(self, entry: _FastForwardEntry, lookup: _Lookup, start_time: float,
                    job_name: Optional[str], job_weight: float) -> None:
        """Re-simulate a memoized replay live on shadow state and compare.

        The live run uses deep-copied timelines (with the sanitizer and
        observer detached so the shadow reservations feed neither the byte
        ledger nor the metrics) and the perf counters are saved/restored, so
        a sanitized run's results and counters stay bit-identical to a plain
        run's.  Raises :class:`~repro.sim.sanitizer.FastForwardDivergence`
        on any field mismatch between the cached entry and the live
        re-simulation.
        """
        saved_counters = (self.iterations_simulated, self.events_processed)
        shadows: List[BaseResourceTimeline] = []
        for timeline in lookup.link_timelines:
            attached, timeline.sanitizer = timeline.sanitizer, None
            watching, timeline.observer = timeline.observer, None
            try:
                shadows.append(copy.deepcopy(timeline))
            finally:
                timeline.sanitizer = attached
                timeline.observer = watching
        # A plan and schedule priced afresh, so a stale table entry cannot vouch for itself.
        plan = self._build_plan(lookup.cost_model, lookup.worker_list, lookup.names,
                                lookup.frozen_prefix, lookup.cached_fp, lookup.policy,
                                lookup.include_reference_overhead,
                                lookup.comm_seconds_per_byte, shadows)
        plan = replace(plan, schedule=_compute_schedule(plan.segments, plan.durations))
        live = self._simulate_live(plan, lookup.names, start_time, None, shadows, job_name,
                                   job_weight)
        self.iterations_simulated, self.events_processed = saved_counters
        self.sanitizer.check_fast_forward(entry, live, job=job_name,
                                          start_time=start_time)

    def _simulate_live(self, plan: _IterationPlan, names: List[str], start_time: float,
                       trace: Optional[List[SimEvent]],
                       link_timelines: List[BaseResourceTimeline], job_name: Optional[str],
                       job_weight: float) -> _FastForwardEntry:
        """Run one iteration's events, in relative time, and record its resolution.

        The plan's compute schedule is merged with the one bucket on the link
        in the order the event heap would pop them, ``seq`` rebuilt as it
        would have assigned it.  Shared-resource reservations are placed at
        ``start_time + rel`` as they happen; one that comes back delayed or
        stretched (another job's traffic on the link) feeds its completion
        back into the loop and marks the iteration uncacheable.
        """
        segments, durations, buckets = plan.segments, plan.durations, plan.buckets
        front_first, num_segments = plan.front_first, len(segments)
        events, compute_end = plan.schedule
        num_compute = len(events)
        position = 0  # compute events taken from the schedule
        #: Compute pushes made before each bucket's push: the heap numbered
        #: compute event ``seq`` after every bucket with a mark <= ``seq``.
        marks: List[int] = []
        #: The bucket on the link as ``(time, seq, payload)`` — at most one.
        comm: Optional[Tuple[float, int, Tuple[int, float]]] = None
        num_events = 0
        pending_buckets: List[Tuple[float, int]] = []  # min-heap of (priority, module_index)
        ready_counter = 0
        comm_busy_total = 0.0
        comm_end = 0.0
        reservations: List[Tuple[int, float, float, int]] = []
        #: Per-link end of this iteration's own most recent committed window
        #: (the anti-self-contention clamp in start_next_bucket).
        own_link_ends = [0.0] * len(link_timelines)
        cacheable = True

        sanitizer = self.sanitizer
        if sanitizer is not None:
            # The live loop runs in relative time: each iteration re-anchors
            # the engine's causality clock at 0.
            sanitizer.reset_clock("engine", 0.0)
            sanitizer.note("live_iteration", job=job_name, start_time=start_time)

        def check_segment(worker_pos: int, seg_index: int) -> None:
            phase, module_index, _nominal = segments[seg_index]
            sanitizer.check_duration(durations[worker_pos][seg_index],
                                     f"{phase} segment of module {module_index} on "
                                     f"{names[worker_pos]}")

        def start_next_bucket(now: float) -> None:
            nonlocal comm, cacheable
            if comm is not None or not pending_buckets:
                return
            _priority, module_index = heapq.heappop(pending_buckets)
            transmit, num_bytes, link_seconds_of = buckets[module_index]
            end = now + transmit
            if link_seconds_of:
                # Queue on every crossed shared link: the bucket may wait for
                # (or share capacity with) other jobs' in-flight transfers,
                # and completes when the slowest crossed link delivers it.
                abs_request = start_time + now
                for link_index, timeline in enumerate(link_timelines):
                    link_seconds = link_seconds_of[link_index]
                    # Clamp to this iteration's own previous window on the
                    # link: the loop serializes its buckets, so the link is
                    # genuinely free of our traffic at `now`, but with
                    # start_time != 0 the sum start_time + now can land one
                    # ULP before the committed end of the previous window
                    # ((a + b) + c vs a + (b + c)) and falsely classify the
                    # request as self-contended, leaking absolute-time
                    # rounding into the relative loop.
                    request = max(abs_request, own_link_ends[link_index])
                    link_start, link_end = timeline.reserve(request, link_seconds,
                                                            num_bytes=num_bytes, job=job_name,
                                                            kind="allreduce", weight=job_weight)
                    own_link_ends[link_index] = link_end
                    reservations.append((link_index, now, link_seconds, num_bytes))
                    # simlint: disable=SIM004 -- bit-exact equality is the memoization contract: a window is steady-state (cacheable) only when the timeline reproduced the request verbatim, so tolerance would admit near-miss windows and break bit-identical fast-forward replay
                    if link_start == request and link_end == request + link_seconds:
                        end = max(end, now + link_seconds)
                    else:
                        # Contended: another job's traffic delayed (FIFO) or
                        # stretched (fair-share) this bucket — not a steady
                        # state, so the iteration must not be memoized.
                        cacheable = False
                        end = max(end, link_end - start_time)
            pushed = events[position - 1][4]  # a bucket_ready has been processed
            comm = (end, pushed + len(marks), (module_index, transmit))
            marks.append(pushed)

        if sanitizer is not None and segments:
            for worker_pos in range(len(names)):
                check_segment(worker_pos, 0)

        # Two-way merge in the heap's (time, seq) order: the schedule's next
        # compute event against the bucket in flight.
        while True:
            if position < num_compute:
                now, kind, payload, seq, _pushed = events[position]
                # simlint: disable=SIM004 -- the event heap's exact (time, seq) order: a tolerance would reorder events the heap kept apart and move the trace and the bucket order
                if comm is not None and (comm[0] < now or comm[0] == now
                                         and comm[1] < seq + bisect_right(marks, seq)):
                    (now, seq, payload), kind, comm = comm, "comm_done", None
                else:
                    position += 1
            elif comm is not None:
                (now, seq, payload), kind, comm = comm, "comm_done", None
            else:
                break
            num_events += 1
            if trace is not None:
                if kind != "comm_done":
                    seq += bisect_right(marks, seq)
                trace.append(SimEvent(start_time + now, seq, kind, payload))
            if sanitizer is not None:
                sanitizer.check_event("engine", now, kind, job=job_name)
            if kind == "bucket_ready":
                (module_index,) = payload
                # ByteScheduler transmits front (high-priority) modules first;
                # the vanilla framework sends buckets in readiness order
                # (back-to-front, as their backward passes complete).
                priority = float(module_index) if front_first else float(ready_counter)
                ready_counter += 1
                heapq.heappush(pending_buckets, (priority, module_index))
                start_next_bucket(now)
            elif kind == "comm_done":
                _module_index, duration = payload
                comm_busy_total += duration
                comm_end = max(comm_end, now)
                start_next_bucket(now)
            elif sanitizer is not None and payload[1] + 1 < num_segments:
                check_segment(payload[0], payload[1] + 1)  # the segment this one starts

        self.iterations_simulated += 1
        self.events_processed += num_events
        compute_end_max = max(compute_end) if compute_end else 0.0
        exposed = max(comm_end - compute_end_max, 0.0)
        return _FastForwardEntry(
            forward=plan.forward,
            backward=plan.backward,
            communication=comm_busy_total,
            exposed_communication=exposed,
            cache_overhead=plan.cache_overhead,
            reference_overhead=plan.reference_overhead,
            rel_end=max(compute_end_max, comm_end),
            num_events=num_events,
            worker_rel_end=compute_end,
            reservations=tuple(reservations),
            cacheable=cacheable,
        )

    # ------------------------------------------------------------------ #
    # Multi-iteration runs and steady-state rates
    # ------------------------------------------------------------------ #
    def simulate_run(self, cost_model: CostModel, iterations: int,
                     workers: Optional[Sequence[WorkerLike]] = None, frozen_prefix: int = 0,
                     cached_fp: bool = False, policy: str = SchedulePolicy.VANILLA,
                     include_reference_overhead: bool = False,
                     comm_seconds_per_byte: Optional[float] = None,
                     start_time: float = 0.0) -> List[EngineIterationResult]:
        """Simulate back-to-back iterations, modelling cross-iteration overlap.

        Under the vanilla policies the next iteration's forward pass starts
        only after all gradients arrived (parameters must be up to date);
        under the ByteScheduler policies leftover communication hides behind
        the next iteration's forward pass, so the next iteration starts as
        soon as compute finishes and only communication still exposed after
        the forward window delays the backward pass.

        Every iteration after the first is a cache hit (the dynamics state
        never changes mid-run), so an N-iteration run costs one event-loop
        execution plus N - 1 O(1) replays.
        """
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        bytescheduler = policy in (SchedulePolicy.BYTESCHEDULER, SchedulePolicy.EGERIA_BYTESCHEDULER)
        results: List[EngineIterationResult] = []
        clock = start_time
        for _ in range(iterations):
            result = self.simulate_iteration(
                cost_model, workers=workers, frozen_prefix=frozen_prefix, cached_fp=cached_fp,
                policy=policy, include_reference_overhead=include_reference_overhead,
                comm_seconds_per_byte=comm_seconds_per_byte, start_time=clock)
            if bytescheduler:
                # Priority scheduling hides this iteration's exposed residual
                # behind the next iteration's forward window; only what spills
                # past that window delays the loop.
                compute_span = (max(result.per_worker_compute_end.values()) - clock
                                if result.per_worker_compute_end else result.total)
                forward_window = result.forward + result.cache_overhead + result.reference_overhead
                residual = max(result.exposed_communication - forward_window, 0.0)
                clock = clock + compute_span + residual
                results.append(EngineIterationResult(
                    forward=result.forward, backward=result.backward,
                    communication=result.communication,
                    exposed_communication=residual,
                    cache_overhead=result.cache_overhead,
                    reference_overhead=result.reference_overhead,
                    start_time=result.start_time, end_time=clock,
                    num_events=result.num_events,
                    per_worker_compute_end=result.per_worker_compute_end,
                ))
            else:
                clock = result.end_time
                results.append(result)
        return results

    def steady_iteration_seconds(self, cost_model: CostModel, workers: Optional[Sequence[WorkerLike]] = None,
                                 frozen_prefix: int = 0, cached_fp: bool = False,
                                 policy: str = SchedulePolicy.VANILLA,
                                 include_reference_overhead: bool = False,
                                 comm_seconds_per_byte: Optional[float] = None,
                                 warmup: int = 1, measured: int = 3) -> float:
        """Steady-state per-iteration time (drops ``warmup`` iterations)."""
        results = self.simulate_run(cost_model, warmup + measured, workers=workers,
                                    frozen_prefix=frozen_prefix, cached_fp=cached_fp, policy=policy,
                                    include_reference_overhead=include_reference_overhead,
                                    comm_seconds_per_byte=comm_seconds_per_byte)
        first = results[warmup - 1].end_time if warmup > 0 else results[0].start_time
        return (results[-1].end_time - first) / measured

    # ------------------------------------------------------------------ #
    # Validation against the closed-form reference
    # ------------------------------------------------------------------ #
    def closed_form_deviation(self, cost_model: CostModel, frozen_prefix: int = 0,
                              cached_fp: bool = False, include_reference_overhead: bool = True,
                              comm_seconds_per_byte: float = 0.0) -> float:
        """Relative |engine - closed form| / closed form for a single-job iteration.

        The single closed-form ⊑ event check: the benchmarks assert the
        deviation stays within 5% on the Figure 9 configurations.
        """
        closed = cost_model.iteration(frozen_prefix=frozen_prefix, cached_fp=cached_fp,
                                      comm_seconds_per_byte=comm_seconds_per_byte,
                                      include_reference_overhead=include_reference_overhead).total
        event = self.simulate_iteration(cost_model, frozen_prefix=frozen_prefix, cached_fp=cached_fp,
                                        include_reference_overhead=include_reference_overhead,
                                        comm_seconds_per_byte=comm_seconds_per_byte).total
        if closed == 0.0:
            return 0.0 if event == 0.0 else float("inf")
        return abs(event - closed) / closed
