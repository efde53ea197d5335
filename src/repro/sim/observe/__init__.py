"""SimScope: structured sim-time observability for the cluster simulator.

The simulator's headline guarantees (determinism, bit-identical fast-forward,
byte conservation) are enforced by SimLint and SimSan; *SimScope* is the layer
that makes a run's behaviour **visible**.  Two pillars, both reading sim time
from the event loop (never the wall clock) and both transparent — an observed
run is bit-identical to a plain run:

* :class:`Tracer` (:mod:`repro.sim.observe.trace`) — structured sim-time
  spans and instants on one track per job and per shared resource, exported
  as Chrome ``trace_event`` JSON viewable in Perfetto
  (https://ui.perfetto.dev): iteration spans (live vs fast-forwarded),
  queue-wait spans, per-link occupancy windows, scheduling / preemption /
  migration / fault decisions, checkpoint writes;
* :class:`MetricsRegistry` (:mod:`repro.sim.observe.metrics`) — counters,
  gauges and histograms sampled in sim time: cluster utilization, per-link
  throughput and queue depth, job queue latency, fast-forward cache hit
  rate, frozen-prefix fraction — exported as JSON or CSV time-series and
  summarized per-cell in ``repro sim sweep`` output.

The profiling harness behind ``repro sim profile`` replays whole scenarios,
so it sits above this package, in :mod:`repro.sim.profile`.

:class:`SimObserver` (:mod:`repro.sim.observe.observer`) is the hook surface
the engine, scheduler and resource timelines call into, mirroring SimSan's
attachment pattern: ``EventDrivenEngine(observe=SimObserver())``, the
scenario JSON ``"observe"`` key, or ``repro sim run --trace-out/--metrics-out``.
The default is a **null sink** — no observer attached — so untraced runs pay
only an ``is None`` check per hook site.  :mod:`repro.sim.observe.checker`
validates exported trace/metrics files (the CI ``trace-smoke`` gate).

See ``docs/observability.md`` for the trace model, the metric catalog, the
Perfetto workflow and the overhead budget.
"""

from .checker import check_metrics, check_trace
from .metrics import MetricSeries, MetricsRegistry
from .observer import SimObserver
from .trace import Tracer

__all__ = [
    "Tracer",
    "MetricSeries",
    "MetricsRegistry",
    "SimObserver",
    "check_trace",
    "check_metrics",
]
