"""Multi-job cluster scheduling on top of the event-driven engine.

The paper evaluates Egeria one job at a time, but its cluster-level claims
(reduced gradient traffic, tolerance to communication bottlenecks) only
matter when several training jobs share machines and links.  This module adds
that layer: a :class:`ClusterScheduler` places :class:`SimJob` s onto the
:class:`~repro.sim.cluster.Cluster`'s GPUs and advances them iteration by
iteration through the :class:`~repro.sim.engine.EventDrivenEngine`, so
scenarios the closed-form model cannot express become one-liners:

* **FIFO / round-robin / rack-packing placement** — jobs queue until enough
  GPUs are free; ``placement="fifo"`` packs a job onto the first free GPUs
  in machine order (locality), ``"round_robin"`` spreads its workers across
  machines (load balancing, at the price of crossing the NICs), and
  ``"tor_pack"`` packs a job into the fewest racks (ToRs) possible — the
  placement that keeps rack-local jobs off the core fabric when the cluster
  declares per-ToR link resources.
* **Stragglers and heterogeneous GPUs** — :meth:`set_gpu_speed` (optionally
  at a future time) slows or speeds individual GPUs; the engine then gates
  every all-reduce on the slowest worker.
* **Elastic jobs** — :meth:`resize_job` adds or removes workers at a given
  time; subsequent iterations use the new all-reduce group and batch volume.
  Checkpointed jobs treat a resize as a *migration* and pay the checkpoint
  write/restore read as link-bytes.
* **Failures and preemption** — :meth:`inject_failure` takes a GPU down
  (optionally back up later); :meth:`preempt_job`/:meth:`resume_job` pause
  and re-queue a job.  Victims restart from their last periodic checkpoint
  (``SimJob.checkpoint_every``) or from scratch without one, with
  checkpoint/restore costs charged through the cost model and engine.
* **Structured fault model** — beyond single-GPU failures, correlated
  failure domains (:meth:`fail_machine` / :meth:`fail_rack` /
  :meth:`fail_tor`), mid-run link degradation (:meth:`degrade_link`) and
  spot capacity with eviction notices (:meth:`mark_preemptible` /
  :meth:`evict_spot`) — a notice triggers a *proactive* checkpoint so the
  resume loses at most the notice window — plus a capped-exponential
  restart backoff (:meth:`set_restart_backoff`).  :mod:`repro.sim.faults`
  drives these knobs from scenario event lists or a seeded stochastic
  generator (see ``docs/faults.md``).
* **Shared-resource contention** — multi-machine jobs queue their gradient
  buckets on the cluster's named fabric link(s) and all jobs queue their
  checkpoint writes / restore reads on the named storage resource
  (:mod:`repro.sim.resources`; each resource's ``policy`` selects first-fit
  FIFO serialization or processor sharing).  With per-ToR fabric resources
  declared (``ClusterSpec.per_tor_fabric``), a job's buckets cross exactly
  the links its placement dictates — its ToR uplinks plus, cross-rack, the
  core — so placement decisions change measured interference.  Concurrent
  jobs genuinely delay each other on the resources they actually share; the
  former flat ``comm_scale`` fair-share multiplier is gone.
* **Async checkpointing** — ``SimJob.async_checkpoint=True`` releases
  compute as soon as an iteration finishes while the snapshot drains on the
  storage resource in the background; the checkpoint only becomes a valid
  rollback target once its write completes.
* **Weighted fair share** — ``SimJob.weight`` sets the job's capacity share
  on processor-sharing resources (split ∝ weight; default 1.0 keeps the
  even split, FIFO resources ignore it).
* **Steady-state fast-forward** — identical back-to-back iterations are
  served from the engine's memoized timing in O(1) instead of re-running
  the event loop, a quiet run of them as one ``iteration_done`` heap event;
  any state transition (freeze/unfreeze, resize, migrate, speed change,
  another job's traffic on a crossed link, cancel/re-flow) forces a live
  re-simulation, so results are bit-identical to the one-event-per-iteration
  and event-by-event references (``tests/oracles/sim_reference.py``).
  :attr:`SchedulerResult.perf` reports how much of the run was
  fast-forwarded.

Everything is deterministic for a fixed seed: events at one instant run
cluster-level first (in push order), then each job's own in submission order
of the jobs, and the only randomness (optional placement jitter) comes from a
seeded generator, so two runs with the same inputs produce identical
:class:`SchedulerResult` s — the property the multi-job benchmark asserts.
"""

from __future__ import annotations

import heapq
import inspect
import math
from functools import lru_cache
from itertools import zip_longest
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
                    TYPE_CHECKING)

from .cluster import Cluster, GPUDevice
from .cost_model import CostModel
from .engine import EventDrivenEngine, SchedulePolicy
from .sanitizer import CausalityViolation
from .simtime import times_close

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from ..metrics.tracking import RunHistory
    from .observe.observer import SimObserver

__all__ = ["SimJob", "JobRecord", "SchedulerResult", "ClusterScheduler"]

#: The one event kind that only books a job's own progress.  Every other kind
#: is a *barrier*: it may change placements, link traffic or speeds, so no
#: batch of fast-forwarded iterations may run past one that reaches its job
#: (:data:`ClusterScheduler._REACH`).
_COMPLETION = "iteration_done"

#: The reach key of a barrier kind without a :data:`ClusterScheduler._REACH`
#: row: it may change any job.
_EVERY = ("every", "")


@lru_cache(maxsize=None)
def _payload_fields(handler: Callable[..., object]) -> Tuple[str, ...]:
    """The payload field names of an event handler: its parameters between
    ``self`` and ``now``."""
    return tuple(inspect.signature(handler).parameters)[1:-1]


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


@dataclass
class SimJob:
    """One training job submitted to the cluster.

    ``frozen_prefix`` may be an int (constant) or a callable mapping the
    iteration index to a prefix length, so an Egeria job's progressive
    freezing schedule can be replayed inside the simulation.

    ``checkpoint_every`` enables fault tolerance: every that many completed
    iterations the job writes a freezing-aware incremental checkpoint (the
    active suffix only) onto the shared ``storage`` resource.  After a
    failure or preemption the job restarts from its last checkpoint — paying
    a full-state restore read — instead of from scratch.

    ``storage``/``link`` name the shared resources the job's checkpoint and
    all-reduce traffic queue on; ``None`` selects the cluster defaults
    (:data:`Cluster.CKPT_STORAGE`, and — for jobs that span machines — the
    per-ToR links the placement crosses when the cluster declares them, or
    the flat :data:`Cluster.FABRIC` otherwise).  ``async_checkpoint=True`` overlaps checkpoint writes
    with subsequent compute: the iteration finishes immediately and the
    snapshot drains on the storage resource in the background, becoming a
    valid rollback target only once the write completes.

    ``weight`` is the job's fair-share weight on processor-sharing resources
    (``policy="fair"``): capacity splits proportionally to weight among the
    transfers active at each instant, so a weight-2 job's buckets drain
    twice as fast as a weight-1 competitor's.  The default 1.0 keeps the
    even split; FIFO resources ignore weights entirely.

    The ``begin_iteration``/``iteration_profile``/``checkpoint_write_bytes``
    /``restore_read_bytes``/``rollback`` hooks are the scheduler's interface
    to the job; :class:`~repro.sim.trainer_job.TrainerJob` overrides them to
    run a *real* trainer (live freezing decisions, content-addressed
    checkpoint bytes) inside the simulated cluster.
    """

    name: str
    cost_model: CostModel
    num_workers: int = 1
    iterations: int = 1
    policy: str = SchedulePolicy.VANILLA
    frozen_prefix: Union[int, Callable[[int], int]] = 0
    cached_fp: bool = False
    include_reference_overhead: bool = False
    arrival_time: float = 0.0
    checkpoint_every: Optional[int] = None
    storage: Optional[str] = None
    link: Optional[str] = None
    async_checkpoint: bool = False
    weight: float = 1.0

    def __post_init__(self) -> None:
        """Validate the checkpoint cadence and fair-share weight eagerly."""
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive (or None to disable)")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    def prefix_at(self, iteration: int) -> int:
        """Frozen-prefix length in force during ``iteration``."""
        if callable(self.frozen_prefix):
            return int(self.frozen_prefix(iteration))
        return int(self.frozen_prefix)

    # ------------------------------------------------------------------ #
    # Scheduler hooks (overridden by TrainerJob to run a real trainer)
    # ------------------------------------------------------------------ #
    def begin_iteration(self, iteration: int, sim_time: float = 0.0) -> None:
        """Called once right before iteration ``iteration`` is simulated.

        ``sim_time`` is the simulated clock at the call — trainer-backed
        jobs stamp it into their per-iteration history so loss curves can be
        plotted against cluster time.
        """

    def run_history(self) -> Optional["RunHistory"]:
        """Per-iteration training history to expose on the job's record.

        The base (cost-model-only) job has no real training signal and
        returns ``None``; :class:`~repro.sim.trainer_job.TrainerJob` returns
        its live :class:`~repro.metrics.tracking.RunHistory` (loss and
        frozen-fraction series).  The scheduler attaches the returned object
        to :attr:`JobRecord.history` at submit time.
        """
        return None

    def iteration_profile(self, iteration: int) -> Tuple[int, bool, bool]:
        """``(frozen_prefix, cached_fp, include_reference_overhead)`` for pricing."""
        return (self.prefix_at(iteration), self.cached_fp, self.include_reference_overhead)

    def checkpoint_write_bytes(self, iteration: int, frozen_prefix: int) -> int:
        """Bytes the checkpoint completing iteration ``iteration`` writes."""
        return self.cost_model.checkpoint_bytes(frozen_prefix=frozen_prefix, incremental=True)

    def restore_read_bytes(self, iteration: int, frozen_prefix: int) -> int:
        """Bytes a restore back to iteration ``iteration`` reads."""
        return self.cost_model.checkpoint_bytes(frozen_prefix=frozen_prefix, incremental=False)

    def rollback(self, to_iteration: int) -> None:
        """Called when the scheduler rolls the job back to ``to_iteration``."""

    def steady_profile(self) -> bool:
        """Whether per-iteration hooks are pure, making the job batchable.

        Cost-model-only jobs price every iteration from immutable state —
        ``begin_iteration`` is a no-op and ``iteration_profile`` is a pure
        function of the iteration index — so the scheduler may plan several
        iterations ahead (batched fast-forward).  Jobs that run a *real*
        trainer override this to ``False``: their freezing decisions emerge
        one iteration at a time and must never be precomputed.
        """
        return True


@dataclass
class JobRecord:
    """Lifecycle and per-iteration timing of one job.

    ``placed_seconds`` accumulates only the intervals the job actually held
    GPUs, so :meth:`throughput` excludes queueing, preempted and
    failed-and-requeued intervals.
    """

    name: str
    arrival_time: float
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    iterations_done: int = 0
    worker_names: List[str] = field(default_factory=list)
    iteration_seconds: List[float] = field(default_factory=list)
    samples_processed: float = 0.0
    placed_seconds: float = 0.0
    placed_since: Optional[float] = None
    checkpoint_iteration: int = 0
    #: ``samples_processed`` watermark at the last checkpoint, so a rollback
    #: restores the exact credit even if the worker count changed since.
    samples_at_checkpoint: float = 0.0
    checkpoints_taken: int = 0
    checkpoint_seconds: float = 0.0
    checkpoint_bytes_written: int = 0
    restores: int = 0
    restore_seconds: float = 0.0
    restore_bytes_read: int = 0
    preemptions: int = 0
    failures: int = 0
    #: Spot-capacity evictions (counted separately from hard ``failures`` so
    #: reliability dashboards can tell voluntary reclaims from crashes).
    evictions: int = 0
    #: Live per-iteration training history (loss, frozen fraction) for
    #: trainer-backed jobs; ``None`` for cost-model-only jobs, which keeps
    #: their serialized records byte-identical to earlier revisions.
    history: Optional["RunHistory"] = None

    @property
    def queueing_delay(self) -> Optional[float]:
        """Seconds between arrival and first placement (None if never placed)."""
        return None if self.start_time is None else self.start_time - self.arrival_time

    @property
    def completion_seconds(self) -> Optional[float]:
        """End-to-end latency from arrival to finish (None while running)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    def throughput(self) -> float:
        """Mean samples/second over the intervals the job was placed on GPUs."""
        if self.placed_seconds <= 0.0:
            return 0.0
        return self.samples_processed / self.placed_seconds

    def as_dict(self) -> Dict[str, object]:
        """Deterministic plain-data view of the record."""
        view: Dict[str, object] = {
            "name": self.name,
            "arrival_time": self.arrival_time,
            "start_time": self.start_time,
            "finish_time": self.finish_time,
            "iterations_done": self.iterations_done,
            "worker_names": list(self.worker_names),
            "queueing_delay": self.queueing_delay,
            "completion_seconds": self.completion_seconds,
            "samples_processed": self.samples_processed,
            "throughput": self.throughput(),
            "mean_iteration_seconds": (sum(self.iteration_seconds) / len(self.iteration_seconds)
                                       if self.iteration_seconds else 0.0),
            "placed_seconds": self.placed_seconds,
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_seconds": self.checkpoint_seconds,
            "checkpoint_bytes_written": self.checkpoint_bytes_written,
            "restores": self.restores,
            "restore_seconds": self.restore_seconds,
            "restore_bytes_read": self.restore_bytes_read,
            "preemptions": self.preemptions,
            "failures": self.failures,
            "evictions": self.evictions,
        }
        if self.history is not None:
            view["loss_series"] = self.history.losses()
            view["frozen_fraction_series"] = self.history.frozen_fractions()
        return view


@dataclass
class SchedulerResult:
    """Outcome of a :meth:`ClusterScheduler.run`.

    ``resources`` summarizes every shared resource's occupancy: busy seconds,
    total bytes and the per-job / per-kind byte split — the audit trail the
    conservation property tests check against the job records.

    ``perf`` carries the engine's lightweight perf counters
    (``events_processed``, ``iterations_simulated``,
    ``iterations_fast_forwarded``, ``cache_hit_rate``) — how much of the run
    the steady-state fast-forward cache served without touching the event
    loop.
    """

    makespan: float
    jobs: Dict[str, JobRecord]
    gpu_busy_seconds: Dict[str, float]
    trace: List[Dict[str, object]]
    resources: Dict[str, Dict[str, object]] = field(default_factory=dict)
    perf: Dict[str, object] = field(default_factory=dict)

    def utilization(self) -> Dict[str, float]:
        """Per-GPU busy fraction of the makespan."""
        if self.makespan <= 0:
            return {name: 0.0 for name in self.gpu_busy_seconds}
        return {name: busy / self.makespan for name, busy in self.gpu_busy_seconds.items()}

    def as_dict(self) -> Dict[str, object]:
        """Deterministic plain-data view (what the benchmarks compare across runs)."""
        return {
            "makespan": self.makespan,
            "jobs": {name: record.as_dict() for name, record in sorted(self.jobs.items())},
            "utilization": dict(sorted(self.utilization().items())),
            "resources": {name: dict(summary) for name, summary in sorted(self.resources.items())},
            "perf": dict(self.perf),
        }


class ClusterScheduler:
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
    seed:
        Seeds the (currently jitter-free) generator; kept so future stochastic
        knobs stay reproducible.
    """

    PLACEMENTS = ("fifo", "round_robin", "tor_pack")

    #: Effective bandwidth a failed ToR uplink degrades to.  A dead link is
    #: modelled as a tiny positive floor — never zero — so every transfer
    #: quote stays finite and the piecewise-capacity integrals stay exact.
    TOR_DOWN_GBPS = 1e-3

    def __init__(self, cluster: Cluster, engine: Optional[EventDrivenEngine] = None,
                 placement: str = "fifo", seed: int = 0):
        """Wire the scheduler to a cluster and (optionally) a shared engine."""
        if placement not in self.PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}; expected one of {self.PLACEMENTS}")
        self.cluster = cluster
        self.engine = engine or EventDrivenEngine(cluster)
        self.placement = placement
        self.seed = seed

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
        #: The same times, one heap per reach key (see :data:`_REACH`), so the
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
    # Submission and scenario knobs
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
        """The reach keys of one barrier, per its :data:`_REACH` row."""
        if kind not in self._REACH:
            return (_EVERY,)
        row = self._REACH[kind]
        if row is None:
            return ()
        space, index = row
        names = payload[index]
        if isinstance(names, str):
            return ((space, names),)
        return tuple([(space, name) for name in names])

    def submit(self, job: SimJob) -> None:
        """Queue a job for admission at its ``arrival_time``.

        Worker counts and resource names are validated here, at submit time,
        like job and GPU names elsewhere — events must not fire into the
        void.
        """
        if job.name in self._jobs:
            raise ValueError(f"duplicate job name {job.name!r}")
        if job.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if job.num_workers > len(self._all_gpus):
            raise ValueError(f"job {job.name!r} wants {job.num_workers} workers but the cluster "
                             f"has only {len(self._all_gpus)} GPUs")
        # Resource names are validated at submit time, like job/GPU names
        # (late cluster.add_resource registrations are adopted here).
        if job.storage is not None:
            self.engine.resource_timeline(job.storage)
        if job.link is not None:
            self.engine.resource_timeline(job.link)
        self._jobs[job.name] = job
        self._rank[job.name] = len(self._jobs)
        self._placement_epoch[job.name] = 0
        self.records[job.name] = JobRecord(name=job.name, arrival_time=job.arrival_time,
                                           history=job.run_history())
        self._push(job.arrival_time, "arrival", (job.name,))

    def _require_gpu(self, gpu_name: str) -> str:
        """Validate a GPU name at call time (events must not fire into the void)."""
        gpu_name = str(gpu_name)
        if gpu_name not in self._gpus:
            raise KeyError(f"unknown GPU {gpu_name!r}; known: {sorted(self._gpus)}")
        return gpu_name

    def _require_job(self, job_name: str) -> str:
        """Validate a job name at call time (the job must have been submitted)."""
        job_name = str(job_name)
        if job_name not in self._jobs:
            raise KeyError(f"unknown job {job_name!r}; known: {sorted(self._jobs)}")
        return job_name

    def set_gpu_speed(self, gpu_name: str, factor: float, at_time: float = 0.0) -> None:
        """Straggler / heterogeneous-GPU knob, applied at ``at_time``."""
        if factor <= 0:
            raise ValueError("speed factor must be positive")
        self._push(at_time, "set_speed", (self._require_gpu(gpu_name), float(factor)))

    def resize_job(self, job_name: str, delta_workers: int, at_time: float) -> None:
        """Elastic worker join (+) / leave (-) at ``at_time``.

        For jobs with ``checkpoint_every`` set, resizing is a *migration*:
        the job writes a synchronized checkpoint and restores it on the new
        worker set, both priced as link-bytes through the engine.
        """
        if delta_workers == 0:
            raise ValueError("delta_workers must be non-zero")
        self._push(at_time, "resize", (self._require_job(job_name), int(delta_workers)))

    def inject_failure(self, gpu_name: str, at_time: float,
                       recover_at: Optional[float] = None) -> None:
        """Take a GPU down at ``at_time`` (and optionally back up later).

        Any job holding the GPU is descheduled: its other GPUs are released,
        its progress rolls back to the last checkpoint (or to zero without
        checkpointing) and it re-queues, paying a restore read when it is
        placed again.
        """
        gpu_name = self._require_gpu(gpu_name)
        self._require_recovery(at_time, recover_at)
        self._push_outage(gpu_name, "gpu", (gpu_name,), at_time, recover_at)

    def preempt_job(self, job_name: str, at_time: float) -> None:
        """Preempt a running job at ``at_time``: its GPUs are released and it
        stays paused (not queued) until :meth:`resume_job`."""
        self._push(at_time, "preempt", (self._require_job(job_name),))

    def resume_job(self, job_name: str, at_time: float) -> None:
        """Move a preempted job back into the admission queue at ``at_time``."""
        self._push(at_time, "resume", (self._require_job(job_name),))

    # ------------------------------------------------------------------ #
    # Fault-model knobs: correlated domains, degraded links, spot capacity
    # ------------------------------------------------------------------ #
    @staticmethod
    def _require_recovery(at_time: float, recover_at: Optional[float]) -> None:
        """Shared ``recover_at`` ordering check for every fault knob."""
        if recover_at is not None and recover_at <= at_time:
            raise ValueError("recover_at must come after at_time")

    def _push_outage(self, label: str, cause: str, gpus: Tuple[str, ...],
                     at_time: float, recover_at: Optional[float]) -> None:
        """Lower a GPU-capacity fault to ``gpus_down`` (and ``gpus_up``) events.

        ``cause`` names the row of :data:`_CAUSES` the handlers read; ``label``
        is what the decision log calls the fault (a GPU, machine or rack).
        """
        self._push(at_time, "gpus_down", (label, cause, gpus))
        if recover_at is not None:
            self._push(recover_at, "gpus_up", (label, cause, gpus))

    def fail_machine(self, machine: str, at_time: float,
                     recover_at: Optional[float] = None) -> None:
        """Take a whole machine down at ``at_time`` (optionally back up later).

        A correlated failure domain: every resident GPU fails in the same
        event, so a job packed onto the machine loses all its local workers
        at once while spread placements lose only one worker per machine.
        """
        resident = self.cluster.gpus_on_machine(machine)  # KeyError if unknown
        self._require_recovery(at_time, recover_at)
        gpus = tuple(gpu.name for gpu in resident)
        self._push_outage(str(machine), "machine", gpus, at_time, recover_at)

    def fail_rack(self, tor_index: int, at_time: float,
                  recover_at: Optional[float] = None) -> None:
        """Fail rack ``tor_index``: every resident GPU plus the ToR uplink.

        The largest correlated domain the topology declares.  All GPUs on
        the rack's machines go down atomically and — when the cluster runs
        in per-ToR fabric mode — the rack's uplink resource degrades to
        :data:`TOR_DOWN_GBPS` until recovery, so surviving cross-rack jobs
        that shared the uplink feel the outage too.  Blast radius therefore
        depends on placement: ``tor_pack`` concentrates each job in one rack
        (few jobs lost, whole jobs lost) while spread placements expose
        every job to every rack.
        """
        tor_index = int(tor_index)
        machines = self.cluster.machines_on_tor(tor_index)  # KeyError if unknown
        self._require_recovery(at_time, recover_at)
        label = f"rack{tor_index}"
        gpus = tuple(gpu.name for machine in machines
                     for gpu in self.cluster.gpus_on_machine(machine.name))
        # Event order within each instant matters: the uplink goes down
        # before the GPUs (so victims re-placed in the same sweep quote
        # against the degraded link) and comes back up before the GPUs
        # rejoin (so jobs re-placed onto the recovered rack quote at the
        # restored rate, not the outage floor).
        uplink = Cluster.tor_link_name(tor_index)
        if self.cluster.has_per_tor_fabric and uplink in self.engine.resources:
            self._push_link_outage(uplink, self.TOR_DOWN_GBPS, at_time, recover_at,
                                   "tor_failure", "tor_recovered")
        self._push_outage(label, "rack", gpus, at_time, recover_at)

    def fail_tor(self, tor_index: int, at_time: float,
                 recover_at: Optional[float] = None) -> None:
        """Fail only ToR switch ``tor_index``'s uplink at ``at_time``.

        The rack's machines stay up but are effectively cut off from the
        fabric: the uplink resource degrades to :data:`TOR_DOWN_GBPS`, so
        cross-rack all-reduce and checkpoint traffic through it stalls while
        rack-local single-machine jobs keep running — the failure mode that
        rewards ``tor_pack`` placement.  Requires per-ToR fabric mode.
        """
        tor_index = int(tor_index)
        self.cluster.machines_on_tor(tor_index)  # KeyError if unknown
        self._require_recovery(at_time, recover_at)
        uplink = Cluster.tor_link_name(tor_index)
        if uplink not in self.engine.resources:
            raise ValueError(f"fail_tor requires per-ToR fabric resources; "
                             f"{uplink!r} is not registered on this cluster")
        self._push_link_outage(uplink, self.TOR_DOWN_GBPS, at_time, recover_at,
                               "tor_failure", "tor_recovered")

    def degrade_link(self, resource: str, gbps: float, at_time: float,
                     restore_at: Optional[float] = None) -> None:
        """Drop shared resource ``resource`` to ``gbps`` at ``at_time``.

        In-flight transfers on the resource re-quote byte-conservingly from
        the change instant (:meth:`~repro.sim.resources.BaseResourceTimeline.
        set_capacity`); iterations whose completion events were already
        committed keep their quoted durations and the degraded rate takes
        scheduler-visible effect from the next iteration boundary.
        ``restore_at`` brings the resource back to its nominal bandwidth.
        """
        resource = str(resource)
        self.engine.resource_timeline(resource)  # validates the name
        if gbps <= 0:
            raise ValueError("degraded capacity must be positive (use a small "
                             "floor like 1e-3 Gbps for a dead link)")
        self._require_recovery(at_time, restore_at)
        self._push_link_outage(resource, gbps, at_time, restore_at,
                               "link_degraded", "link_restored")

    def _push_link_outage(self, resource: str, gbps: float, at_time: float,
                          restore_at: Optional[float], down: str, up: str) -> None:
        """Lower a link fault to ``link_set_capacity`` events: to ``gbps`` at
        ``at_time`` (decision ``down``), back to nominal at ``restore_at`` (``up``)."""
        self._push(at_time, "link_set_capacity", (resource, float(gbps), down))
        if restore_at is not None:
            nominal = self.engine.resource_timeline(resource).resource.bandwidth_gbps
            self._push(restore_at, "link_set_capacity", (resource, nominal, up))

    def mark_preemptible(self, gpu_names: Sequence[str],
                         notice_seconds: float = 0.0) -> None:
        """Mark GPUs as spot capacity with an eviction-notice window.

        :meth:`evict_spot` on a marked GPU fires a ``spot_notice`` event
        ``notice_seconds`` before the eviction so the resident job can write
        a proactive checkpoint; ``0.0`` means evictions arrive unannounced.
        """
        if notice_seconds < 0:
            raise ValueError("notice_seconds must be non-negative")
        if isinstance(gpu_names, str):
            gpu_names = [gpu_names]
        for gpu_name in gpu_names:
            self._preemptible[self._require_gpu(gpu_name)] = float(notice_seconds)

    def evict_spot(self, gpu_name: str, at_time: float,
                   rejoin_at: Optional[float] = None) -> None:
        """Evict spot GPU ``gpu_name`` at ``at_time`` (optionally back later).

        The GPU must have been :meth:`mark_preemptible`-ed.  With a notice
        window configured, a ``spot_notice`` event fires first and the
        resident job writes a proactive checkpoint of its completed
        progress (priced through the storage timeline), so the resume loses
        at most the notice-to-eviction window instead of a full checkpoint
        interval — provided the notice is long enough for the write to
        drain.  ``rejoin_at`` returns the reclaimed capacity to the pool.
        """
        gpu_name = self._require_gpu(gpu_name)
        if gpu_name not in self._preemptible:
            raise ValueError(f"GPU {gpu_name!r} is not marked preemptible; call "
                             f"mark_preemptible first so eviction semantics are explicit")
        self._require_recovery(at_time, rejoin_at)
        notice = self._preemptible[gpu_name]
        if notice > 0.0:
            self._push(max(0.0, at_time - notice), "spot_notice", (gpu_name, float(at_time)))
        self._push_outage(gpu_name, "spot", (gpu_name,), at_time, rejoin_at)

    def set_restart_backoff(self, base_seconds: float, cap_seconds: float) -> None:
        """Enable capped-exponential restart backoff for failed/evicted jobs.

        The k-th consecutive failure of a job delays its re-queue by
        ``min(base_seconds * 2**(k-1), cap_seconds)``; a completed iteration
        resets the job's counter.  Keeps jobs on flapping capacity from
        thrashing the admission queue with restore reads.
        """
        if base_seconds <= 0 or cap_seconds < base_seconds:
            raise ValueError("backoff needs base_seconds > 0 and cap_seconds >= base_seconds")
        self.restart_backoff = (float(base_seconds), float(cap_seconds))

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def _pick_gpus(self, count: int) -> Optional[List[GPUDevice]]:
        """Choose ``count`` free GPUs under the configured placement, or None: the
        first ``count`` of the free GPUs (machine order) as the policy's row orders them."""
        if count > len(self._free):
            return None
        free = [gpu for gpu in self._all_gpus if gpu.name in self._free]
        return self._PLACERS[self.placement](self, free, count)[:count]

    def _fifo_order(self, free: List[GPUDevice], count: int) -> List[GPUDevice]:
        """``fifo``: the first free GPUs in machine order (locality)."""
        return free

    def _round_robin_order(self, free: List[GPUDevice], count: int) -> List[GPUDevice]:
        """``round_robin``: one free GPU per machine, cycling over machines."""
        by_machine: Dict[str, List[GPUDevice]] = {}
        for gpu in free:
            by_machine.setdefault(gpu.machine, []).append(gpu)
        pools = [by_machine[m.name] for m in self.cluster.machines if m.name in by_machine]
        return [gpu for column in zip_longest(*pools) for gpu in column if gpu is not None]

    def _tor_pack_order(self, free: List[GPUDevice], count: int) -> List[GPUDevice]:
        """``tor_pack``: rack-aware packing, fewest ToRs, preferring the tightest fit.

        If one rack can host the whole job, the rack with the *fewest* free
        GPUs that still fits is chosen (best fit, minimizing fragmentation);
        otherwise racks are filled in descending free-GPU order so the job
        spans as few ToRs as possible.  Ties break on the lower ToR index;
        within a rack, GPUs come in machine order — all deterministic.
        """
        by_tor: Dict[int, List[GPUDevice]] = {}
        for gpu in free:
            by_tor.setdefault(self.cluster.tor_index(gpu.machine), []).append(gpu)
        fitting = sorted((len(gpus), tor) for tor, gpus in by_tor.items() if len(gpus) >= count)
        racks = fitting[:1] or sorted((-len(gpus), tor) for tor, gpus in by_tor.items())
        return [gpu for _free_count, tor in racks for gpu in by_tor[tor]]

    #: The placement table: one row per ``placement`` (plain functions, as in ``_HANDLERS``).
    _PLACERS: Dict[str, Callable[..., List[GPUDevice]]] = {
        "fifo": _fifo_order,
        "round_robin": _round_robin_order,
        "tor_pack": _tor_pack_order,
    }

    def _claim(self, job_name: str, gpus: Sequence[GPUDevice]) -> None:
        """Move ``gpus`` from the free pool onto ``job_name``'s allocation."""
        for gpu in gpus:
            del self._free[gpu.name]
        self._allocations.setdefault(job_name, []).extend(gpus)

    def _try_place(self, now: float) -> None:
        """Strict-FIFO admission: place queued jobs head-first while GPUs last."""
        while self._pending:
            job = self._jobs[self._pending[0]]
            gpus = self._pick_gpus(job.num_workers)
            if gpus is None:
                return
            self._pending.pop(0)
            self._claim(job.name, gpus)
            self._route(job, gpus)
            record = self.records[job.name]
            if record.start_time is None:
                record.start_time = now
            record.placed_since = now
            record.worker_names = [gpu.name for gpu in gpus]
            self._trace(now, "job_start", job=job.name, workers=record.worker_names)
            delay = 0.0
            if job.name in self._needs_restore:
                self._needs_restore.pop(job.name, None)
                restore_bytes, delay = self._read_snapshot(job, now, gpus)
                self._trace(now, "restore", job=job.name, seconds=delay,
                            num_bytes=restore_bytes, from_iteration=record.iterations_done)
            self._schedule_iteration(job, now + delay)

    def _release(self, job_name: str, gpus: Sequence[GPUDevice], now: float) -> None:
        for gpu in gpus:
            if gpu.name not in self._failed_gpus:
                self._free[gpu.name] = gpu
        self._trace(now, "gpus_released", job=job_name, workers=[g.name for g in gpus])

    def _vacate(self, job: SimJob, now: float) -> None:
        """Take ``job`` off its GPUs (finished or descheduled): un-route it,
        free the GPUs and close the placed interval."""
        record = self.records[job.name]
        self._route(job)
        self._release(job.name, self._allocations.pop(job.name), now)
        if record.placed_since is not None:
            record.placed_seconds += now - record.placed_since
            record.placed_since = None

    def _deschedule(self, job_name: str, now: float) -> None:
        """Take a running job off its GPUs: release them, invalidate the
        in-flight iteration and roll progress back to the last checkpoint."""
        job = self._jobs[job_name]
        record = self.records[job_name]
        self._vacate(job, now)
        self._placement_epoch[job_name] += 1
        # The invalidated iteration's transfers that have not started yet are
        # cancelled off every shared resource (the bytes never hit the wire).
        self.engine.resources.cancel_job(job_name, now)
        # The rollback target is whatever snapshot last committed — periodic
        # cadence or a proactive spot-notice write; jobs with neither keep
        # checkpoint_iteration at 0 and restart from scratch.
        rollback_to = record.checkpoint_iteration
        if record.iterations_done > rollback_to:
            record.iterations_done = rollback_to
            record.samples_processed = record.samples_at_checkpoint if rollback_to > 0 else 0.0
            job.rollback(rollback_to)
        if rollback_to > 0:
            self._needs_restore[job_name] = None
        record.worker_names = []

    # ------------------------------------------------------------------ #
    # Iteration advancement
    # ------------------------------------------------------------------ #
    def _storage_for(self, job: SimJob) -> Optional[str]:
        """The storage resource the job's checkpoint traffic queues on."""
        if job.storage is not None:
            return job.storage
        return Cluster.CKPT_STORAGE if Cluster.CKPT_STORAGE in self.engine.resources else None

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
        return [Cluster.FABRIC] if Cluster.FABRIC in self.engine.resources else None

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
        storage = self._storage_for(job)
        if storage is not None:
            loads[storage] = None
        self._routes[job.name] = (links, tuple(loads))
        for name in loads:
            self._users[name] = self._users.get(name, 0) + 1

    def _storage_seconds(self, job: SimJob, num_bytes: int, start_time: float,
                         workers: Sequence[GPUDevice], kind: str) -> float:
        """Queue a checkpoint/restore transfer; returns its total duration
        (queueing wait included) from ``start_time``."""
        storage = self._storage_for(job)
        if storage is None:
            return self.engine.transfer_seconds(num_bytes, workers)
        _start, end = self.engine.storage_transfer(num_bytes, start_time, storage,
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
        cached iterations back to back with the exact per-iteration float
        arithmetic of the unbatched path (each start is the previous start
        plus that iteration's duration), re-committing every link window,
        and a single ``iteration_done`` event credits all K.

        A job whose route crosses no link takes as its horizon the earliest
        pending *barrier* (any event other than an iteration completion) that
        reaches it per :data:`_REACH`: one naming the job or one of its GPUs,
        or a kind without a row.  Whatever else happens meanwhile — foreign
        faults, link changes, admissions, completions, checkpoint drains —
        leaves its GPUs, speeds, memo key and links alone.

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
            for key in (_EVERY, ("job", job.name), *[("gpu", gpu.name) for gpu in workers]):
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
        prefix, cached_fp, include_reference = profile = job.iteration_profile(iteration_index)
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
            if count and job.iteration_profile(iteration_index + count) != profile:
                break
            end = start + entry.rel_end
            start = start + (end - start)
            if not start < horizon:
                break
            count += 1
        if count < 2:
            return False
        durations = self.engine.fast_forward_batch(
            job.cost_model, count, workers=workers, frozen_prefix=prefix,
            cached_fp=cached_fp, policy=job.policy,
            include_reference_overhead=include_reference, start_time=now,
            link_resource=links, job_name=job.name, job_weight=job.weight)
        if not durations:
            return False
        # The hook runs for what the engine committed, never for the plan.
        end = now
        for offset, duration in enumerate(durations):
            job.begin_iteration(iteration_index + offset, sim_time=end)
            end = end + duration
        if self.engine.sanitizer is not None and len(durations) > 1:
            self._batch_spans[job.name] = (now, end)
        self._push(end, "iteration_done",
                   (job.name, self._placement_epoch[job.name], tuple(durations), 0.0, 0, False),
                   job.name)
        return True

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
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
            if self._HANDLERS[kind](self, *payload, now):
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

        Reach is read from the handler's own payload fields, not from
        :data:`_REACH`, so a wrong row cannot vouch for itself: the barrier
        reaches the job its ``job_name`` names, every job holding a GPU its
        ``gpu_name`` or ``gpus`` names, every job crossing its ``resource``,
        and every job when its kind has no row.  Labels, causes and decisions
        name no job, so a job called ``spot`` or ``node1`` is not reached
        through them.  Raises :class:`CausalityViolation` when such a job's
        last committed batch (K >= 2) started before ``now`` and ends at or
        after it.
        """
        fields = dict(zip(_payload_fields(self._HANDLERS[kind]), payload))
        gpus = (fields["gpu_name"],) if "gpu_name" in fields else fields.get("gpus", ())
        for job_name, (start, end) in self._batch_spans.items():
            if not start < now <= end:
                continue
            links = self._routes.get(job_name, (None, ()))[0] or []
            held = self._allocations.get(job_name, [])
            if (kind in self._REACH and job_name != fields.get("job_name")
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
        for duration in durations:
            record.samples_processed += samples
            for name in names:
                self.gpu_busy_seconds[name] += duration
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

    @staticmethod
    def _commit_checkpoint(record: JobRecord, iteration: int, samples: float,
                           seconds: float, num_bytes: int) -> None:
        """Book a written snapshot: it is the job's rollback target from here."""
        record.checkpoints_taken += 1
        record.checkpoint_seconds += seconds
        record.checkpoint_bytes_written += int(num_bytes)
        record.checkpoint_iteration = int(iteration)
        record.samples_at_checkpoint = float(samples)

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
        record = self.records.get(job_name)
        if record is None or job_name not in self._allocations:
            self._trace(now, "resize_ignored", job=job_name, delta=delta)
            return
        job = self._jobs[job_name]
        workers = self._allocations[job_name]
        old_workers = list(workers)
        changed = False
        if delta < 0:
            releasable = min(-delta, len(workers) - 1)  # keep at least one worker
            released = [workers.pop() for _ in range(releasable)]
            if released:
                changed = True
                self._release(job_name, released, now)
            self._trace(now, "resize", job=job_name, delta=-releasable,
                        workers=[gpu.name for gpu in workers])
            if released:
                self._try_place(now)
        else:
            added = self._pick_gpus(min(delta, len(self._free)))
            if added:
                changed = True
                self._claim(job_name, added)
            self._trace(now, "resize", job=job_name, delta=len(added or []),
                        workers=[gpu.name for gpu in workers])
        if not changed:
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
    def _requeue_after_failure(self, job_name: str, now: float) -> None:
        """Re-queue a descheduled job, immediately or after capped backoff.

        Without :meth:`set_restart_backoff` this is the historical immediate
        ``_pending.append``.  With it, the job's k-th consecutive failure
        waits ``min(base * 2**(k-1), cap)`` seconds before a ``requeue``
        event re-admits it — flapping capacity stops thrashing the queue.
        """
        if self.restart_backoff is None:
            self._pending.append(job_name)
            return
        base, cap = self.restart_backoff
        attempt = self._restart_count.get(job_name, 0) + 1
        self._restart_count[job_name] = attempt
        delay = min(base * (2.0 ** (attempt - 1)), cap)
        self._push(now + delay, "requeue", (job_name,))
        self._trace(now, "restart_backoff", job=job_name, attempt=attempt, delay=delay)

    def _apply_requeue(self, job_name: str, now: float) -> None:
        """Admit a backoff-delayed job unless its state moved on meanwhile."""
        record = self.records[job_name]
        if (job_name in self._allocations or job_name in self._pending
                or job_name in self._paused or record.finish_time is not None):
            self._trace(now, "requeue_ignored", job=job_name)
            return
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
        record = self.records.get(job_name)
        if record is None or job_name not in self._allocations:
            self._trace(now, "preempt_ignored", job=job_name)
            return
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

    #: The event table: every heap kind :meth:`_push` may be given and the
    #: handler :meth:`run` calls for it as ``handler(self, *payload, now)``.
    #: A handler returns true when it committed work (see :meth:`run`).  Plain
    #: functions, not bound methods: a per-instance table would tie every
    #: scheduler into a reference cycle only the cyclic collector frees.
    _HANDLERS: Dict[str, Callable[..., Optional[bool]]] = {
        "arrival": _apply_arrival,
        _COMPLETION: _apply_iteration_done,
        "ckpt_done": _apply_ckpt_done,
        "set_speed": _apply_set_speed,
        "resize": _apply_resize,
        "gpus_down": _apply_gpus_down,
        "gpus_up": _apply_gpus_up,
        "preempt": _apply_preemption,
        "resume": _apply_resume,
        "link_set_capacity": _apply_link_capacity,
        "spot_notice": _apply_spot_notice,
        "requeue": _apply_requeue,
    }

    #: The reach table: what a barrier kind can change, read from its payload
    #: as ``(key space, payload index)`` — the job named there (``"job"``) or
    #: the GPU(s) named there (``"gpu"``: one name or a tuple of them).  A
    #: ``None`` row reaches no link-free job: only link-crossing jobs feel a
    #: capacity change, and they stop at every barrier.  A kind with no row
    #: reaches every job.  Nothing else a barrier does (placing a queued job,
    #: failing another machine, writing another job's checkpoint) can change
    #: a link-free job's GPUs, speeds, memo key or links.
    _REACH: Dict[str, Optional[Tuple[str, int]]] = {
        "arrival": ("job", 0),
        "resize": ("job", 0),
        "preempt": ("job", 0),
        "resume": ("job", 0),
        "requeue": ("job", 0),
        "ckpt_done": ("job", 0),
        "gpus_down": ("gpu", 2),
        "gpus_up": ("gpu", 2),
        "set_speed": ("gpu", 0),
        "spot_notice": ("gpu", 0),
        "link_set_capacity": None,
    }
