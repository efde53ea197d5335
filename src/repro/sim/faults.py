"""Seeded, deterministic fault model for the cluster scheduler.

The scheduler exposes raw fault *knobs* — single-GPU failures, correlated
domain failures (machine/rack/ToR), mid-run link degradation and spot
eviction with notices (:mod:`repro.sim.scheduler`).  This module turns them
into a declarative, reproducible *fault model*:

* :class:`FaultEvent` / :class:`FaultPlan` — plain-data descriptions of a
  run's fault stream, validated eagerly against the cluster topology with
  pointed errors (unknown GPU/machine/resource names, recovery before
  failure, spot eviction of an unmarked GPU) so a bad scenario fails at
  build time, never mid-run.
* :func:`parse_faults` — builds a plan from the ``"faults"`` scenario key:
  explicit event lists, spot-capacity and backoff policy, and/or a seeded
  stochastic stream.
* :func:`generate_fault_events` — the stochastic generator: one
  ``random.Random(seed)`` instance drives exponential inter-arrival times
  (``mttf_seconds``) and repair times (``mttr_seconds``) over ordered,
  topology-derived target lists, so the emitted stream is bit-identical
  across processes and ``PYTHONHASHSEED`` values.
* :func:`apply_fault_plan` — arms a :class:`ClusterScheduler` with the plan
  before ``run()``; every fault becomes ordinary heap events, keeping the
  whole run deterministic and sanitizer-clean.

Scenario schema (the ``"faults"`` top-level key, see ``docs/faults.md``)::

    "faults": {
        "events": [
            {"kind": "fail_rack", "at_time": 2.0, "target": 0, "recover_at": 6.0},
            {"kind": "degrade_link", "at_time": 1.0, "target": "core",
             "gbps": 20.0, "recover_at": 4.0},
            {"kind": "spot_evict", "at_time": 3.0, "target": "node1:gpu0",
             "recover_at": 8.0}
        ],
        "spot": {"gpus": ["node1:gpu0"], "notice_seconds": 0.5},
        "backoff": {"base_seconds": 0.25, "cap_seconds": 4.0},
        "seed": 7, "horizon_seconds": 30.0, "mttf_seconds": 5.0,
        "mttr_seconds": 10.0, "domains": ["gpu", "machine", "rack"],
        "link_gbps_factor": 0.5
    }
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .cluster import Cluster
from .scheduler import ClusterScheduler

__all__ = ["FaultEvent", "FaultPlan", "FAULT_KINDS", "parse_faults",
           "generate_fault_events", "apply_fault_plan"]

_FAULTS_KEYS = ("events", "spot", "backoff", "seed", "horizon_seconds",
                "mttf_seconds", "mttf_hours", "mttr_seconds", "domains",
                "link_gbps_factor")
_EVENT_KEYS = ("kind", "at_time", "target", "recover_at", "gbps")
_SPOT_KEYS = ("gpus", "notice_seconds")
_BACKOFF_KEYS = ("base_seconds", "cap_seconds")


@dataclass(frozen=True)
class FaultEvent:
    """One structured fault: what fails, when, and (optionally) when it heals.

    ``target`` is the GPU name (``fail_gpu``/``spot_evict``), machine name
    (``fail_machine``), ToR index as a string (``fail_rack``/``fail_tor``)
    or shared-resource name (``degrade_link``).  ``recover_at`` doubles as
    the spot rejoin time and the link restore time; ``gbps`` is the degraded
    capacity (``degrade_link`` only).
    """

    kind: str
    at_time: float
    target: str
    recover_at: Optional[float] = None
    gbps: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        """Deterministic plain-data view (what ``repro sim faults`` prints)."""
        view: Dict[str, object] = {"kind": self.kind, "at_time": self.at_time,
                                   "target": self.target}
        if self.recover_at is not None:
            view["recover_at"] = self.recover_at
        if self.gbps is not None:
            view["gbps"] = self.gbps
        return view


@dataclass(frozen=True)
class FaultPlan:
    """A validated, ready-to-apply fault stream plus spot/backoff policy."""

    events: Tuple[FaultEvent, ...] = ()
    spot_gpus: Tuple[str, ...] = ()
    notice_seconds: float = 0.0
    backoff: Optional[Tuple[float, float]] = None

    def as_dict(self) -> Dict[str, object]:
        """Deterministic plain-data view of the resolved plan."""
        view: Dict[str, object] = {
            "events": [event.as_dict() for event in self.events],
        }
        if self.spot_gpus:
            view["spot"] = {"gpus": list(self.spot_gpus),
                            "notice_seconds": self.notice_seconds}
        if self.backoff is not None:
            view["backoff"] = {"base_seconds": self.backoff[0],
                               "cap_seconds": self.backoff[1]}
        return view


def _check_keys(mapping: Dict[str, object], allowed: Sequence[str],
                context: str) -> None:
    """Reject unknown keys with a pointed error naming the offender."""
    for key in mapping:
        if key not in allowed:
            raise ValueError(f"{context}: unknown key {key!r}; "
                             f"expected one of {sorted(allowed)}")


def _gpu_pool(cluster: Cluster, spot_gpus: Sequence[str]) -> List[str]:
    return [gpu.name for gpu in cluster.all_gpus()]


def _machine_pool(cluster: Cluster, spot_gpus: Sequence[str]) -> List[str]:
    return [machine.name for machine in cluster.machines]


def _rack_pool(cluster: Cluster, spot_gpus: Sequence[str]) -> List[str]:
    return [str(index) for index in range(cluster.spec.num_tor_switches)]


def _tor_pool(cluster: Cluster, spot_gpus: Sequence[str]) -> List[str]:
    if not cluster.has_per_tor_fabric:
        raise ValueError("domain 'tor' requires per_tor_fabric topology")
    return _rack_pool(cluster, spot_gpus)


def _link_pool(cluster: Cluster, spot_gpus: Sequence[str]) -> List[str]:
    pool = sorted(name for name, resource in cluster.resources.items()
                  if resource.kind == "link")
    if not pool:
        raise ValueError("domain 'link' needs at least one link resource")
    return pool


def _spot_pool(cluster: Cluster, spot_gpus: Sequence[str]) -> List[str]:
    if not spot_gpus:
        raise ValueError("domain 'spot' needs faults.spot.gpus to pick victims from")
    return list(spot_gpus)


def _check_gpu(event: FaultEvent, cluster: Cluster, spot_gpus: Sequence[str],
               context: str) -> None:
    gpu_names = _gpu_pool(cluster, spot_gpus)
    if event.target not in gpu_names:
        raise ValueError(f"{context}: unknown GPU {event.target!r}; "
                         f"known: {sorted(gpu_names)}")


def _check_spot(event: FaultEvent, cluster: Cluster, spot_gpus: Sequence[str],
                context: str) -> None:
    _check_gpu(event, cluster, spot_gpus, context)
    if event.target not in spot_gpus:
        raise ValueError(f"{context}: spot_evict target {event.target!r} is not "
                         f"in faults.spot.gpus {sorted(spot_gpus)}; only "
                         f"preemptible GPUs can be spot-evicted")


def _check_machine(event: FaultEvent, cluster: Cluster, spot_gpus: Sequence[str],
                   context: str) -> None:
    cluster.gpus_on_machine(event.target)  # KeyError with known names


def _check_rack(event: FaultEvent, cluster: Cluster, spot_gpus: Sequence[str],
                context: str) -> None:
    try:
        tor_index = int(event.target)
    except (TypeError, ValueError):
        raise ValueError(f"{context}: {event.kind} target must be a ToR index, "
                         f"got {event.target!r}") from None
    cluster.machines_on_tor(tor_index)  # KeyError if out of range


def _check_tor(event: FaultEvent, cluster: Cluster, spot_gpus: Sequence[str],
               context: str) -> None:
    _check_rack(event, cluster, spot_gpus, context)
    if not cluster.has_per_tor_fabric:
        raise ValueError(f"{context}: fail_tor requires per_tor_fabric "
                         f"topology (the ToR uplink resource is the "
                         f"failure's whole effect)")


def _check_link(event: FaultEvent, cluster: Cluster, spot_gpus: Sequence[str],
                context: str) -> None:
    if event.target not in cluster.resources:
        raise ValueError(f"{context}: unknown resource {event.target!r}; "
                         f"known: {sorted(cluster.resources)}")
    if event.gbps is None or event.gbps <= 0:
        raise ValueError(f"{context}: degrade_link needs a positive 'gbps', "
                         f"got {event.gbps!r}")


class _FaultKind(NamedTuple):
    """Everything the parser, the generator and the applier know about a kind."""

    #: Stochastic-generator domain name that emits this kind.
    domain: str
    #: ``(cluster, spot_gpus)`` -> the ordered targets the generator draws
    #: from; raises ``ValueError`` when the topology offers the domain none.
    pool: Callable[[Cluster, Sequence[str]], List[str]]
    #: ``(event, cluster, spot_gpus, context)`` -> validates the target.
    check: Callable[[FaultEvent, Cluster, Sequence[str], str], None]
    #: :class:`ClusterScheduler` knob, called ``(target, at_time, recover_at)``.
    method: str
    #: The knob takes a degraded capacity between ``target`` and ``at_time``.
    gbps: bool = False


#: One row per fault kind, in dispatch order — the only place the kinds are
#: listed (``docs/faults.md``, "Adding a fault kind").
FAULT_KINDS: Dict[str, _FaultKind] = {
    "fail_gpu": _FaultKind("gpu", _gpu_pool, _check_gpu, "inject_failure"),
    "fail_machine": _FaultKind("machine", _machine_pool, _check_machine, "fail_machine"),
    "fail_rack": _FaultKind("rack", _rack_pool, _check_rack, "fail_rack"),
    "fail_tor": _FaultKind("tor", _tor_pool, _check_tor, "fail_tor"),
    "degrade_link": _FaultKind("link", _link_pool, _check_link, "degrade_link", gbps=True),
    "spot_evict": _FaultKind("spot", _spot_pool, _check_spot, "evict_spot"),
}


def _validate_event(event: FaultEvent, cluster: Cluster,
                    spot_gpus: Sequence[str], context: str) -> None:
    """Validate one event's kind, target and times against the topology."""
    row = FAULT_KINDS.get(event.kind)
    if row is None:
        raise ValueError(f"{context}: unknown fault kind {event.kind!r}; "
                         f"expected one of {sorted(FAULT_KINDS)}")
    if event.at_time < 0:
        raise ValueError(f"{context}: at_time must be >= 0, got {event.at_time}")
    if event.recover_at is not None and event.recover_at <= event.at_time:
        raise ValueError(f"{context}: recover_at ({event.recover_at}) must come "
                         f"after at_time ({event.at_time})")
    row.check(event, cluster, spot_gpus, context)
    if not row.gbps and event.gbps is not None:
        raise ValueError(f"{context}: 'gbps' only applies to degrade_link events")


def generate_fault_events(seed: int, horizon_seconds: float, cluster: Cluster,
                          mttf_seconds: float,
                          mttr_seconds: Optional[float] = None,
                          domains: Sequence[str] = ("gpu",),
                          link_gbps_factor: float = 0.5,
                          spot_gpus: Sequence[str] = ()) -> List[FaultEvent]:
    """Emit a bit-reproducible stochastic fault stream over the horizon.

    A single ``random.Random(seed)`` instance draws exponential
    inter-arrival times at rate ``1/mttf_seconds``; each arrival picks a
    failure domain uniformly from ``domains`` and a target uniformly from
    that domain's topology-derived ordered list (machine order for GPUs and
    machines, index order for racks, name-sorted order for resources), so
    the stream never depends on hash ordering.  With ``mttr_seconds`` set,
    every fault heals after an exponential repair time.  ``degrade_link``
    events drop a resource to ``link_gbps_factor`` of its nominal
    bandwidth; ``spot`` domains evict only GPUs listed in ``spot_gpus``.
    """
    if horizon_seconds <= 0:
        raise ValueError("horizon_seconds must be positive")
    if mttf_seconds <= 0:
        raise ValueError("mttf_seconds must be positive")
    if mttr_seconds is not None and mttr_seconds <= 0:
        raise ValueError("mttr_seconds must be positive (or None for no repair)")
    if not 0 < link_gbps_factor < 1:
        raise ValueError("link_gbps_factor must be in (0, 1)")
    if not domains:
        raise ValueError("domains must name at least one failure domain")
    by_domain = {row.domain: (kind, row) for kind, row in FAULT_KINDS.items()}
    for domain in domains:
        if domain not in by_domain:
            raise ValueError(f"unknown failure domain {domain!r}; expected one "
                             f"of {sorted(by_domain)}")
    # Ordered target pools, derived once from the topology.
    pools = {domain: by_domain[domain][1].pool(cluster, spot_gpus) for domain in domains}
    rng = random.Random(int(seed))
    domain_list = list(domains)
    events: List[FaultEvent] = []
    elapsed = 0.0
    while True:
        elapsed += rng.expovariate(1.0 / mttf_seconds)
        if elapsed >= horizon_seconds:
            return events
        domain = domain_list[rng.randrange(len(domain_list))]
        kind, row = by_domain[domain]
        recover: Optional[float] = None
        if mttr_seconds is not None:
            recover = elapsed + rng.expovariate(1.0 / mttr_seconds)
        pool = pools[domain]
        target = pool[rng.randrange(len(pool))]
        gbps: Optional[float] = None
        if row.gbps:
            gbps = cluster.resources[target].bandwidth_gbps * link_gbps_factor
        events.append(FaultEvent(kind=kind, at_time=elapsed, target=target,
                                 recover_at=recover, gbps=gbps))


def parse_faults(spec: Dict[str, object], cluster: Cluster) -> FaultPlan:
    """Build a validated :class:`FaultPlan` from the ``"faults"`` scenario key.

    Explicit ``events`` and a seeded stochastic stream may coexist; the
    merged stream is sorted by ``(at_time, kind, target)`` so application
    order never depends on JSON order.  Every reference is checked against
    the cluster topology here, at build time, with a pointed error.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"faults: expected an object, got {type(spec).__name__}")
    _check_keys(spec, _FAULTS_KEYS, "faults")
    spot_gpus: Tuple[str, ...] = ()
    notice_seconds = 0.0
    spot_spec = spec.get("spot")
    if spot_spec is not None:
        if not isinstance(spot_spec, dict):
            raise ValueError("faults.spot: expected an object with 'gpus'")
        _check_keys(spot_spec, _SPOT_KEYS, "faults.spot")
        gpu_names = {gpu.name for gpu in cluster.all_gpus()}
        listed = spot_spec.get("gpus", [])
        if not isinstance(listed, (list, tuple)) or not listed:
            raise ValueError("faults.spot.gpus must be a non-empty list of GPU names")
        for name in listed:
            if name not in gpu_names:
                raise ValueError(f"faults.spot.gpus: unknown GPU {name!r}; "
                                 f"known: {sorted(gpu_names)}")
        spot_gpus = tuple(str(name) for name in listed)
        notice_seconds = float(spot_spec.get("notice_seconds", 0.0))
        if notice_seconds < 0:
            raise ValueError("faults.spot.notice_seconds must be non-negative")
    backoff: Optional[Tuple[float, float]] = None
    backoff_spec = spec.get("backoff")
    if backoff_spec is not None:
        if not isinstance(backoff_spec, dict):
            raise ValueError("faults.backoff: expected an object with "
                             "'base_seconds' and 'cap_seconds'")
        _check_keys(backoff_spec, _BACKOFF_KEYS, "faults.backoff")
        try:
            base = float(backoff_spec["base_seconds"])
            cap = float(backoff_spec["cap_seconds"])
        except KeyError as missing:
            raise ValueError(f"faults.backoff: missing key {missing}") from None
        if base <= 0 or cap < base:
            raise ValueError("faults.backoff needs base_seconds > 0 and "
                             "cap_seconds >= base_seconds")
        backoff = (base, cap)
    events: List[FaultEvent] = []
    for index, entry in enumerate(spec.get("events", []) or []):
        context = f"faults.events[{index}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{context}: expected an object, got "
                             f"{type(entry).__name__}")
        _check_keys(entry, _EVENT_KEYS, context)
        if "kind" not in entry or "at_time" not in entry or "target" not in entry:
            raise ValueError(f"{context}: 'kind', 'at_time' and 'target' are required")
        event = FaultEvent(
            kind=str(entry["kind"]), at_time=float(entry["at_time"]),
            target=str(entry["target"]),
            recover_at=(float(entry["recover_at"])
                        if entry.get("recover_at") is not None else None),
            gbps=float(entry["gbps"]) if entry.get("gbps") is not None else None)
        _validate_event(event, cluster, spot_gpus, context)
        events.append(event)
    stochastic_keys = [key for key in ("seed", "horizon_seconds", "mttf_seconds",
                                       "mttf_hours") if key in spec]
    if stochastic_keys:
        if "seed" not in spec or "horizon_seconds" not in spec:
            raise ValueError("faults: a stochastic stream needs both 'seed' and "
                             "'horizon_seconds'")
        if ("mttf_seconds" in spec) == ("mttf_hours" in spec):
            raise ValueError("faults: set exactly one of 'mttf_seconds' or "
                             "'mttf_hours'")
        mttf = (float(spec["mttf_seconds"]) if "mttf_seconds" in spec
                else float(spec["mttf_hours"]) * 3600.0)
        mttr = (float(spec["mttr_seconds"])
                if spec.get("mttr_seconds") is not None else None)
        domains = spec.get("domains", ["gpu"])
        if not isinstance(domains, (list, tuple)):
            raise ValueError("faults.domains must be a list of domain names")
        generated = generate_fault_events(
            seed=int(spec["seed"]), horizon_seconds=float(spec["horizon_seconds"]),
            cluster=cluster, mttf_seconds=mttf, mttr_seconds=mttr,
            domains=tuple(str(domain) for domain in domains),
            link_gbps_factor=float(spec.get("link_gbps_factor", 0.5)),
            spot_gpus=spot_gpus)
        for index, event in enumerate(generated):
            _validate_event(event, cluster, spot_gpus, f"faults.generated[{index}]")
        events.extend(generated)
    elif any(key in spec for key in ("mttr_seconds", "domains", "link_gbps_factor")):
        raise ValueError("faults: 'mttr_seconds'/'domains'/'link_gbps_factor' "
                         "only apply to a stochastic stream ('seed' + "
                         "'horizon_seconds' + mttf)")
    events.sort(key=lambda event: (event.at_time, event.kind, event.target))
    return FaultPlan(events=tuple(events), spot_gpus=spot_gpus,
                     notice_seconds=notice_seconds, backoff=backoff)


def apply_fault_plan(scheduler: ClusterScheduler, plan: FaultPlan) -> None:
    """Arm a scheduler with the plan's policy and events (before ``run()``).

    Spot GPUs are marked first so eviction events see their notice windows;
    every event then lands on the matching scheduler knob and becomes
    ordinary heap events — the run stays deterministic and sanitizer-clean.
    """
    if plan.spot_gpus:
        scheduler.mark_preemptible(plan.spot_gpus, plan.notice_seconds)
    if plan.backoff is not None:
        scheduler.set_restart_backoff(*plan.backoff)
    for event in plan.events:
        row = FAULT_KINDS.get(event.kind)
        if row is None:
            raise ValueError(f"unknown fault kind {event.kind!r}")
        capacity = (float(event.gbps or 0.0),) if row.gbps else ()
        getattr(scheduler, row.method)(event.target, *capacity, event.at_time,
                                       event.recover_at)
