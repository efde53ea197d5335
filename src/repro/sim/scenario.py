"""Replayable cluster scenarios: JSON spec in, timeline/makespan JSON out.

A *scenario* is a plain-JSON description of one cluster-simulation run —
cluster shape, extra shared resources, jobs and fault/elasticity knobs.  The
``repro sim run`` CLI subcommand feeds a scenario file through
:func:`run_scenario` and prints the resulting makespan, per-job records and
per-resource occupancy as JSON, so cluster experiments are reproducible
artifacts rather than ad hoc scripts.

Scenario schema (all keys optional unless noted)::

    {
      "cluster":   {"num_machines": 5, "gpus_per_machine": 2, "nic_gbps": 40.0,
                    "tor_uplink_gbps": 100.0, "fabric_gbps": null, "storage_gbps": null,
                    "fabric_policy": "fifo", "storage_policy": "fifo",
                    "per_tor_fabric": false, "core_gbps": null},
      "resources": [{"name": "scratch", "bandwidth_gbps": 10.0, "kind": "storage",
                     "latency_seconds": 0.0001, "policy": "fifo"}],
      "placement": "fifo",
      "seed": 0,                            # accepted; the scheduler draws nothing at random
      "observe": false,                     # or {"trace": true, "metrics": true}
      "jobs": [
        {"name": "a",                       # required, unique
         "modules": [1000, 2000, ...],      # required: per-module parameter counts
         "batch_size": 32,
         "num_workers": 4, "iterations": 10,
         "policy": "vanilla", "frozen_prefix": 0, "cached_fp": false,
         "include_reference_overhead": false, "arrival_time": 0.0,
         "checkpoint_every": 5, "storage": "ckpt-store",
         "async_checkpoint": false, "link": null, "weight": 1.0}
      ],
      "gpu_speeds":  [{"gpu": "node0:gpu0", "factor": 0.5, "at_time": 0.0}],
      "failures":    [{"gpu": "node0:gpu0", "at_time": 1.0, "recover_at": null}],
      "resizes":     [{"job": "a", "delta": -2, "at_time": 1.0}],
      "preemptions": [{"job": "a", "at_time": 1.0}],
      "resumes":     [{"job": "a", "at_time": 2.0}],
      "faults":      {"events": [...], "spot": {...}, "backoff": {...},
                      "seed": 7, "mttf_seconds": 5.0, ...}
    }

The ``faults`` key drives the structured fault model — correlated failure
domains (machine/rack/ToR), degraded links and spot eviction with proactive
checkpoints — via explicit event lists and/or a seeded stochastic stream;
see :mod:`repro.sim.faults` and ``docs/faults.md`` for the full schema.
Every fault-event reference (GPU/machine/resource names, recovery ordering)
is validated here at build time with a pointed error, as is
resume-before-preempt ordering in the ``resumes`` list.

A job's cost model is its ``modules`` list of per-module parameter counts —
all :class:`~repro.sim.cost_model.CostModel` reads of a model.  A training
workload's list is one line on the training side::

    [m.num_params for m in parse_layer_modules(build_workload(name, scale).make_model())]

Unknown keys raise ``ValueError`` so typos fail loudly instead of silently
changing the run.

Resource scheduling disciplines (``"fifo"`` first-fit serialization vs
``"fair"`` processor sharing — see :mod:`repro.sim.resources` and
``docs/resources.md``) are set per resource: cluster-default resources via
``fabric_policy``/``storage_policy``, extra resources via their own
``policy`` key.  ``run_scenario(..., default_policy=...)`` (the CLI's
``--policy`` flag) overrides the discipline of every resource the scenario
does not pin explicitly.  ``placement`` accepts ``"fifo"``,
``"round_robin"`` and ``"tor_pack"`` (rack packing; pair it with
``"per_tor_fabric": true`` so placement locality decides which fabric links
a job contends on).

Per-job ``weight`` sets the job's fair-share weight on processor-sharing
resources (capacity split ∝ weight; default 1.0).  The top-level
``sanitize`` flag attaches SimSan, the runtime invariant sanitizer
(:mod:`repro.sim.sanitizer`); omitted, it defers to the ``REPRO_SIMSAN``
environment variable.  Sanitized results are bit-identical to plain ones.

The top-level ``observe`` key attaches SimScope (:mod:`repro.sim.observe`):
``true`` enables the sim-time tracer and metrics registry, an object
(``{"trace": ..., "metrics": ...}``) selects pillars individually.  Observed
runs add a ``"metrics"`` summary to the report and are otherwise
bit-identical to plain runs; ``repro sim run --trace-out/--metrics-out``
export the full trace and time-series (see ``docs/observability.md``).
"""

from __future__ import annotations

import json
from typing import Dict, NamedTuple, Optional, Union, TYPE_CHECKING

from .cluster import Cluster, ClusterSpec
from .cost_model import CostModel
from .engine import EventDrivenEngine
from .faults import apply_fault_plan, parse_faults
from .resources import SharedResource
from .scheduler import ClusterScheduler, SimJob

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .observe import SimObserver

__all__ = ["build_scenario", "run_scenario", "preview_faults"]

_CLUSTER_KEYS = {"num_machines", "gpus_per_machine", "nic_gbps", "tor_uplink_gbps",
                 "num_tor_switches", "num_core_switches", "fabric_gbps", "storage_gbps",
                 "fabric_policy", "storage_policy", "per_tor_fabric", "core_gbps"}
_RESOURCE_KEYS = {"name", "bandwidth_gbps", "kind", "latency_seconds", "policy"}
_JOB_KEYS = {"name", "modules", "batch_size", "num_workers",
             "iterations", "policy", "frozen_prefix", "cached_fp",
             "include_reference_overhead", "arrival_time", "checkpoint_every",
             "storage", "link", "async_checkpoint", "weight"}
_SCENARIO_KEYS = {"cluster", "resources", "placement", "seed", "jobs",
                  "gpu_speeds", "failures", "resizes", "preemptions", "resumes",
                  "faults", "sanitize", "observe"}
_OBSERVE_KEYS = {"trace", "metrics"}
#: Scenario knob list -> (scheduler method, required keys, optional keys).  The
#: keys are the method's positional arguments, in order.
_KNOBS = {
    "gpu_speeds": ("set_gpu_speed", ("gpu", "factor"), ("at_time",)),
    "failures": ("inject_failure", ("gpu", "at_time"), ("recover_at",)),
    "resizes": ("resize_job", ("job", "delta", "at_time"), ()),
    "preemptions": ("preempt_job", ("job", "at_time"), ()),
    "resumes": ("resume_job", ("job", "at_time"), ()),
}
_KNOB_CASTS = {"gpu": str, "job": str, "factor": float, "delta": int,
               "at_time": float, "recover_at": float}


def _build_observer(value: object) -> Optional["SimObserver"]:
    """SimScope observer from the scenario's ``observe`` key.

    ``None``/``false`` (the default) attaches nothing — the zero-overhead
    plain run.  ``true`` attaches a full observer (tracer + metrics);
    a ``{"trace": bool, "metrics": bool}`` object selects pillars
    individually.  Observed runs are bit-identical to plain runs.
    """
    if value is None or value is False:
        return None
    from .observe import SimObserver  # lazy: only observed runs pay the import

    if value is True:
        return SimObserver()
    if isinstance(value, dict):
        _check_keys(value, _OBSERVE_KEYS, "observe")
        return SimObserver(trace=bool(value.get("trace", True)),
                           metrics=bool(value.get("metrics", True)))
    raise ValueError(f"scenario 'observe' must be a bool or an object, got {value!r}")


def _check_keys(mapping: Dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; allowed: {sorted(allowed)}")


class _SizedModule(NamedTuple):
    """A module-list entry: all the cost model reads of a layer module is its size."""

    num_params: int


def _job_cost_model(spec: Dict) -> CostModel:
    """Cost model from a job's ``modules`` list of per-module parameter counts."""
    if spec.get("modules") is None:
        raise ValueError(f"job {spec.get('name')!r}: 'modules' is required")
    counts = [int(c) for c in spec["modules"]]
    if not counts or any(c <= 0 for c in counts):
        raise ValueError(f"job {spec.get('name')!r}: 'modules' must be positive param counts")
    return CostModel([_SizedModule(c) for c in counts],
                     batch_size=int(spec.get("batch_size", 32)))


def _read_spec(scenario: Union[str, Dict]) -> Dict:
    """A scenario given as a dict (copied) or as the path of a JSON file."""
    if isinstance(scenario, str):
        with open(scenario, "r", encoding="utf-8") as handle:
            return json.load(handle)
    return dict(scenario)


def _build_cluster(spec: Dict, default_policy: Optional[str]) -> Cluster:
    """Check a scenario's top-level keys and build its cluster and resources."""
    _check_keys(spec, _SCENARIO_KEYS, "scenario")
    if default_policy is not None and default_policy not in SharedResource.POLICIES:
        raise ValueError(f"unknown default policy {default_policy!r}; "
                         f"expected one of {SharedResource.POLICIES}")
    cluster_spec = dict(spec.get("cluster") or {})
    _check_keys(cluster_spec, _CLUSTER_KEYS, "cluster")
    if default_policy is not None:
        cluster_spec.setdefault("fabric_policy", default_policy)
        cluster_spec.setdefault("storage_policy", default_policy)
    cluster = Cluster(ClusterSpec(**cluster_spec))
    for resource_spec in spec.get("resources") or []:
        resource_spec = dict(resource_spec)
        _check_keys(resource_spec, _RESOURCE_KEYS, "resource")
        if default_policy is not None:
            resource_spec.setdefault("policy", default_policy)
        cluster.add_resource(SharedResource(**resource_spec))
    return cluster


def build_scenario(spec: Dict, default_policy: Optional[str] = None) -> ClusterScheduler:
    """Construct a fully-wired :class:`ClusterScheduler` from a scenario dict.

    ``default_policy`` (``"fifo"``/``"fair"``) applies to every resource the
    scenario does not pin explicitly — the cluster defaults' policies when
    ``fabric_policy``/``storage_policy`` are absent, and each extra
    resource's discipline when its ``policy`` key is absent.
    """
    cluster = _build_cluster(spec, default_policy)
    sanitize = spec.get("sanitize")
    engine = EventDrivenEngine(cluster,
                               sanitize=None if sanitize is None else bool(sanitize),
                               observe=_build_observer(spec.get("observe")))
    scheduler = ClusterScheduler(cluster, engine=engine,
                                 placement=str(spec.get("placement", "fifo")))
    jobs = spec.get("jobs") or []
    if not isinstance(jobs, list):
        raise ValueError(f"scenario 'jobs' must be a list of objects, got {type(jobs).__name__}")
    if not jobs:
        raise ValueError("scenario has no jobs")
    for index, job_spec in enumerate(jobs):
        if not isinstance(job_spec, dict):
            raise ValueError(f"jobs[{index}]: expected an object, got {type(job_spec).__name__}")
        _check_keys(job_spec, _JOB_KEYS, "job")
        if "name" not in job_spec:
            raise ValueError("every job needs a 'name'")
        scheduler.submit(SimJob(
            name=str(job_spec["name"]),
            cost_model=_job_cost_model(job_spec),
            num_workers=int(job_spec.get("num_workers", 1)),
            iterations=int(job_spec.get("iterations", 1)),
            policy=str(job_spec.get("policy", "vanilla")),
            frozen_prefix=int(job_spec.get("frozen_prefix", 0)),
            cached_fp=bool(job_spec.get("cached_fp", False)),
            include_reference_overhead=bool(job_spec.get("include_reference_overhead", False)),
            arrival_time=float(job_spec.get("arrival_time", 0.0)),
            checkpoint_every=(None if job_spec.get("checkpoint_every") is None
                              else int(job_spec["checkpoint_every"])),
            storage=job_spec.get("storage"),
            link=job_spec.get("link"),
            async_checkpoint=bool(job_spec.get("async_checkpoint", False)),
            weight=float(job_spec.get("weight", 1.0)),
        ))

    first_preempt: Dict[str, float] = {}
    for name, (method, required, optional) in _KNOBS.items():
        for index, knob in enumerate(spec.get(name) or []):
            where = f"{name}[{index}]"
            if not isinstance(knob, dict):
                raise ValueError(f"{where}: expected an object, got {type(knob).__name__}")
            _check_keys(knob, set(required + optional), where)
            missing = [key for key in required if key not in knob]
            if missing:
                raise ValueError(f"{where}: missing required keys {missing}")
            args = [_KNOB_CASTS[key](knob[key]) for key in required + optional
                    if key in required or knob.get(key) is not None]
            if name == "preemptions":
                job_name, at_time = args
                first_preempt[job_name] = min(at_time, first_preempt.get(job_name, at_time))
            elif name == "resumes":
                # Resume-before-preempt is a scenario bug: the event would pop
                # first and be ignored, silently leaving the job paused forever.
                job_name, at_time = args
                if job_name not in first_preempt:
                    raise ValueError(f"resume of job {job_name!r} at {at_time} has no "
                                     f"matching entry in 'preemptions'")
                if at_time <= first_preempt[job_name]:
                    raise ValueError(f"resume of job {job_name!r} at {at_time} must come "
                                     f"after its first preemption at {first_preempt[job_name]}")
            getattr(scheduler, method)(*args)
    faults_spec = spec.get("faults")
    if faults_spec is not None:
        apply_fault_plan(scheduler, parse_faults(dict(faults_spec), cluster))
    return scheduler


def preview_faults(scenario: Union[str, Dict],
                   default_policy: Optional[str] = None) -> Dict[str, object]:
    """Resolve a scenario's fault plan without running it (``repro sim faults``).

    Builds the cluster, parses/validates the ``"faults"`` key — expanding
    the seeded stochastic stream into its concrete events — and returns the
    plan as plain data, so a fault storm can be inspected (or diffed across
    seeds) before committing to a full run.
    """
    spec = _read_spec(scenario)
    cluster = _build_cluster(spec, default_policy)
    plan = parse_faults(dict(spec.get("faults") or {}), cluster)
    return {"cluster": {"machines": len(cluster.machines),
                        "gpus": len(cluster.all_gpus()),
                        "per_tor_fabric": cluster.has_per_tor_fabric},
            "num_events": len(plan.events),
            **plan.as_dict()}


def run_scenario(scenario: Union[str, Dict], include_trace: bool = False,
                 default_policy: Optional[str] = None, observe: Optional[bool] = None,
                 trace_out: Optional[str] = None,
                 metrics_out: Optional[str] = None) -> Dict[str, object]:
    """Replay a scenario (dict or path to a JSON file) to plain-data results.

    The output is deterministic for a fixed scenario: makespan, per-job
    records, GPU utilization and per-resource occupancy — plus the full
    scheduler trace when ``include_trace`` is set.  ``default_policy``
    forwards to :func:`build_scenario` (the CLI's ``--policy`` flag): it
    sets the scheduling discipline of every resource the scenario does not
    pin explicitly.

    SimScope (:mod:`repro.sim.observe`): ``observe=True`` — or a truthy
    scenario ``"observe"`` key — attaches an observer, adding a ``"metrics"``
    summary to the output without changing any other field (observed runs
    are bit-identical to plain runs).  ``trace_out`` writes the Chrome
    ``trace_event`` JSON (view at https://ui.perfetto.dev) and
    ``metrics_out`` the full metric time-series (JSON, or CSV when the path
    ends in ``.csv``); either implies ``observe=True``.
    """
    spec = _read_spec(scenario)
    if observe or trace_out is not None or metrics_out is not None:
        if not spec.get("observe"):
            spec["observe"] = True
    scheduler = build_scenario(spec, default_policy=default_policy)
    result = scheduler.run()
    output: Dict[str, object] = {
        "cluster": scheduler.cluster.describe(),
        "placement": scheduler.placement,
        "num_jobs": len(result.jobs),
        "num_trace_events": len(result.trace),
        **result.as_dict(),
    }
    if include_trace:
        output["trace"] = list(result.trace)
    observer = scheduler.engine.observer
    if observer is not None:
        observer.finalize(scheduler.engine.resources)  # idempotent (run() finalized)
        if observer.metrics is not None:
            output["metrics"] = observer.metrics.summary()
        if trace_out is not None and observer.tracer is not None:
            observer.tracer.write(trace_out)
        if metrics_out is not None and observer.metrics is not None:
            observer.metrics.write(metrics_out)
    return output
