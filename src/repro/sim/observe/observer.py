"""The hook surface the simulator calls into when observability is on.

A :class:`SimObserver` bundles a :class:`~repro.sim.observe.trace.Tracer` and
a :class:`~repro.sim.observe.metrics.MetricsRegistry` behind the small set of
hooks the engine, scheduler and resource timelines invoke, mirroring SimSan's
attachment pattern (``EventDrivenEngine(observe=...)``, ``timeline.observer``,
``ClusterScheduler(..., observe=...)``).  With no observer attached every
hook site is a single ``is None`` check — the null-sink default; a
constructed observer with both pillars disabled records nothing but keeps
the hooks callable, which is what the overhead benchmark's null-sink
configuration measures.

Transparency contract (same as SimSan): hooks read simulation state and
**never** mutate it, so an observed run is bit-identical to a plain run —
``tests/test_observe.py`` asserts this for the engine, the scheduler and a
fault-injection scenario.

Two recording disciplines keep the data honest under cancellation:

* **Request-time facts** (queue depth seen by a transfer, its queueing wait,
  cluster utilization at a scheduling decision) are sampled live, because
  they are true at request time regardless of later re-flows.
* **Committed occupancy** (per-link spans, per-link byte counters) is
  rendered in :meth:`SimObserver.finalize` from the timelines' final audit
  records, so cancelled-and-re-flowed windows appear exactly once at their
  final position and the metrics byte totals match the byte audit by
  construction.  Iteration spans recorded speculatively by the engine are
  dropped when the scheduler invalidates the in-flight iteration
  (:meth:`SimObserver.scheduler_event` on failure/preemption/resize), so the
  exported trace shows only work that really committed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from .metrics import MetricsRegistry
from .trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..engine import EngineIterationResult
    from ..resources import BaseResourceTimeline, ResourcePool

__all__ = ["SimObserver"]

#: Scheduler event kinds that put a job (back) into the pending queue.
#: ``job_failed``/``job_evicted`` only enqueue immediately when no restart
#: backoff delays them, but the queue-wait span is still measured from the
#: failure instant — the backoff delay *is* queueing the job experiences.
_ENQUEUE_KINDS = ("arrival", "job_failed", "job_resumed", "job_evicted")

#: Scheduler event kinds that invalidate the job's in-flight iteration.
_INVALIDATE_KINDS = ("job_failed", "job_preempted", "resize", "job_evicted")

#: Scheduler event kinds keyed by ``gpu`` rather than ``job``.
_GPU_KINDS = ("set_speed", "gpu_failure", "gpu_recovered", "gpu_recover_ignored",
              "spot_notice", "spot_evicted")

#: Fault-model event kinds keyed by ``resource`` (shown on its track).
_RESOURCE_KINDS = ("link_degraded", "link_restored", "tor_failure", "tor_recovered")

#: Fault-model event kinds keyed by domain ``label`` (cluster track).
_DOMAIN_KINDS = ("domain_failure", "domain_recovered")

#: Fault-model kinds counted as ``faults.<kind>`` metrics.  Only the new
#: structured-fault kinds — the legacy single-GPU failure kinds keep their
#: historical (counter-free) metrics output byte-identical.
_FAULT_COUNTER_KINDS = ("domain_failure", "domain_recovered", "link_degraded",
                        "link_restored", "tor_failure", "tor_recovered",
                        "spot_notice", "spot_evicted", "job_evicted",
                        "proactive_checkpoint", "restart_backoff")


class SimObserver:
    """Collects sim-time traces and metrics from the simulator's hook sites.

    Attach one observer per run (``EventDrivenEngine(observe=...)`` or the
    scenario ``"observe"`` key); call :meth:`finalize` once after the run to
    render committed resource occupancy, then export via :attr:`tracer` /
    :attr:`metrics`.
    """

    def __init__(self, trace: bool = True, metrics: bool = True):
        """Create an observer with either pillar individually switchable.

        ``trace=False, metrics=False`` is the measurable null sink: hooks are
        invoked but record nothing.
        """
        #: The span/instant recorder, or ``None`` when tracing is disabled.
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        #: The time-series recorder, or ``None`` when metrics are disabled.
        self.metrics: Optional[MetricsRegistry] = MetricsRegistry() if metrics else None
        # Engine iteration results, kept as references and rendered at
        # finalize time (dropping any the scheduler later invalidates):
        # (job label, result, mode, frozen_prefix, num_modules).
        self._iterations: List[Tuple[str, "EngineIterationResult", str, int, int]] = []
        #: job -> sim time it (re-)entered the pending queue.
        self._queued_since: Dict[str, float] = {}
        self._busy_gpus = 0
        self._total_gpus = 0
        self._finalized = False

    # ------------------------------------------------------------------ #
    # Engine hooks
    # ------------------------------------------------------------------ #
    def note_iteration(self, job: Optional[str], result: "EngineIterationResult",
                       mode: str, frozen_prefix: int, num_modules: int) -> None:
        """Record one simulated iteration (``mode`` is ``"live"`` or ``"replay"``).

        The ``result`` reference is kept as-is and rendered at finalize time,
        so the hot path pays one list append; the caller must not mutate the
        result afterwards (the engine never does).
        """
        if self.tracer is None and self.metrics is None:
            return
        self._iterations.append((job if job is not None else "<engine>",
                                 result, mode, int(frozen_prefix), int(num_modules)))

    # ------------------------------------------------------------------ #
    # Scheduler hooks
    # ------------------------------------------------------------------ #
    def note_cluster(self, total_gpus: int) -> None:
        """Tell the observer the cluster size (denominator of utilization)."""
        self._total_gpus = int(total_gpus)

    def _sample_utilization(self, time: float) -> None:
        """Sample the busy-GPU gauge pair after a placement change."""
        if self.metrics is None:
            return
        self.metrics.gauge_set("cluster.gpus_busy", time, float(self._busy_gpus))
        if self._total_gpus > 0:
            self.metrics.gauge_set("cluster.utilization", time,
                                   self._busy_gpus / self._total_gpus)

    def scheduler_event(self, time: float, kind: str, payload: Dict[str, object]) -> None:
        """Record one scheduler decision (forwarded from ``ClusterScheduler._trace``).

        Derives the queue-wait spans and latency histogram (arrival /
        failure / resume -> next ``job_start``), the busy-GPU utilization
        gauges (``job_start`` / ``gpus_released`` worker counts), and an
        instant on the owning job's (or GPU's) track for every decision.
        """
        if self.tracer is None and self.metrics is None:
            return
        job = payload.get("job")
        if kind == "job_start":
            self._busy_gpus += len(payload.get("workers", ()))  # type: ignore[arg-type]
            self._sample_utilization(time)
            queued_at = self._queued_since.pop(job, None) if isinstance(job, str) else None
            if queued_at is not None:
                if self.tracer is not None:
                    self.tracer.span("job", str(job), "queued", queued_at, time)
                if self.metrics is not None:
                    self.metrics.observe("job.queue_latency_seconds", time,
                                         time - queued_at)
        elif kind == "gpus_released":
            self._busy_gpus -= len(payload.get("workers", ()))  # type: ignore[arg-type]
            self._sample_utilization(time)
        if kind in _ENQUEUE_KINDS and isinstance(job, str):
            self._queued_since[job] = time
        if kind in _INVALIDATE_KINDS and isinstance(job, str):
            # The in-flight iteration (started, not finished by ``time``)
            # never committed: drop its speculative span/metrics record.
            self._iterations = [entry for entry in self._iterations
                                if not (entry[0] == job and entry[1].end_time > time
                                        and entry[1].start_time <= time)]
        if self.metrics is not None and kind in _FAULT_COUNTER_KINDS:
            self.metrics.counter_add(f"faults.{kind}", time, 1.0)
        if self.tracer is not None:
            gpu = payload.get("gpu")
            resource = payload.get("resource")
            label_value = payload.get("label")
            if kind in _GPU_KINDS and isinstance(gpu, str):
                self.tracer.instant("cluster", gpu, kind, time, payload)
            elif kind in _RESOURCE_KINDS and isinstance(resource, str):
                self.tracer.instant("resource", resource, kind, time, payload)
            elif kind in _DOMAIN_KINDS and isinstance(label_value, str):
                self.tracer.instant("cluster", label_value, kind, time, payload)
            else:
                label = str(job) if isinstance(job, str) else "<scheduler>"
                self.tracer.instant("job", label, kind, time, payload)

    # ------------------------------------------------------------------ #
    # Resource timeline hooks
    # ------------------------------------------------------------------ #
    def note_reserve(self, timeline: "BaseResourceTimeline", earliest_start: float,
                     start: float, end: float, num_bytes: int, job: Optional[str],
                     kind: str, depth: int) -> None:
        """Record the request-time facts of one reservation.

        ``depth`` is the discipline's queue depth as seen by this request
        (windows not yet started under FIFO, active transfers under fair
        share); the queueing wait is the discipline-assigned delay
        ``start - earliest_start`` (always 0 under processor sharing).
        These are sampled live because later cancellations do not change
        what this request observed.
        """
        if self.metrics is None:
            return
        name = timeline.resource.name
        self.metrics.gauge_set(f"resource.queue_depth.{name}", earliest_start, float(depth))
        self.metrics.observe(f"resource.wait_seconds.{name}", earliest_start,
                             start - earliest_start)

    # ------------------------------------------------------------------ #
    # Finalization
    # ------------------------------------------------------------------ #
    def finalize(self, pool: Optional["ResourcePool"] = None) -> None:
        """Render everything deferred from the hot path; idempotent.

        Iteration spans and counters come from the surviving (committed)
        engine results; per-resource occupancy spans and cumulative byte
        counters come from ``pool``'s final audit records, which is why the
        traced byte totals equal the byte audit exactly — cancellations were
        already re-flowed by the time this runs.
        """
        if self._finalized or (self.tracer is None and self.metrics is None):
            return
        self._finalized = True
        live = replayed = 0
        for job, result, mode, frozen_prefix, num_modules in self._iterations:
            if mode == "replay":
                replayed += 1
            else:
                live += 1
            if self.tracer is not None:
                self.tracer.span("job", job, "iteration", result.start_time,
                                 result.end_time,
                                 {"mode": mode, "frozen_prefix": frozen_prefix,
                                  "communication": result.communication,
                                  "exposed_communication": result.exposed_communication})
            if self.metrics is not None:
                self.metrics.counter_add(
                    "engine.iterations_replayed" if mode == "replay"
                    else "engine.iterations_live", result.start_time, 1.0)
                if num_modules > 0:
                    self.metrics.gauge_set(f"job.frozen_fraction.{job}",
                                           result.start_time,
                                           frozen_prefix / num_modules)
        if self.metrics is not None and (live or replayed):
            self.metrics.gauge_set("engine.cache_hit_rate",
                                   max(entry[1].end_time for entry in self._iterations),
                                   replayed / (live + replayed))
        if pool is not None:
            for name in pool.names():
                timeline = pool.get(name)
                if timeline is None:
                    continue
                for record in timeline.records:
                    if self.tracer is not None:
                        self.tracer.span("resource", name, record.kind,
                                         record.start, record.end,
                                         {"job": record.job, "num_bytes": record.num_bytes})
                    if self.metrics is not None and record.num_bytes:
                        self.metrics.counter_add(f"resource.bytes.{name}",
                                                 record.start, float(record.num_bytes))
