"""The simulator's topology pricing and live event loop as they were before the static plan.

Every function here recomputes what production now prices once: the
bottleneck of a path is a fresh ``nx.shortest_path`` walk over an
``nx.Graph`` rebuilt from the cluster's topology table, a ring's
bottleneck a fresh minimum over its hops, and :func:`simulate_live` is the
event loop that re-derives segments, bucket bytes, transmit seconds and
per-link floors *inside every iteration* and builds one ``SimEvent`` per
popped event — moved verbatim from ``repro.sim.cluster`` /
``repro.sim.engine`` (only ``self`` became an explicit ``engine`` argument
and the perf counters stay untouched).  They are slow and obviously right;
``tests/test_sim_static_plan.py`` requires ``Cluster``'s tables,
``EventDrivenEngine._build_plan`` and the plan-driven loop to reproduce them
bit for bit.

The fair-share discipline's oracle lives here too:
:func:`reference_fair_schedule` integrates a whole processor-sharing schedule
from t = 0 in one chronological sweep (capacity profile included), and
:class:`ResweepFairShareTimeline` is the timeline production had before it
kept any state between calls — every ``reserve`` / ``cancel`` /
``set_capacity`` throws the schedule away and sweeps it again.
``tests/test_sim_resources.py`` requires ``FairShareTimeline``'s suffix
re-integration to equal both with ``==``, and
``benchmarks/test_contended_raw_speed.py`` builds its "pre-optimisation" side
from the stand-in.

The stepping references close the file: :class:`LiveEngine` runs every
iteration through the event loop (no memo, no kept plan) and
:class:`PerIterationScheduler` commits one heap event per iteration.
``tests/test_sim_fastforward.py`` requires production (memo + batched
commits) to equal both bit for bit.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.sim import ClusterScheduler, CostModel, EventDrivenEngine, SchedulePolicy
from repro.sim.cluster import GPUDevice
from repro.sim.engine import EventQueue, SimEvent
from repro.sim.resources import FairShareTimeline, ResourceTimeline, _FairTransfer


_GRAPHS: "weakref.WeakKeyDictionary[object, nx.Graph]" = weakref.WeakKeyDictionary()


def topology_graph(cluster) -> nx.Graph:
    """The cluster's read-only topology table as an ``nx.Graph`` (built once per cluster)."""
    graph = _GRAPHS.get(cluster)
    if graph is None:
        graph = nx.Graph()
        for node, kind in cluster._kinds.items():
            graph.add_node(node, kind=kind)
        for node, neighbours in cluster._links.items():
            for neighbour, gbps in neighbours.items():
                graph.add_edge(node, neighbour, gbps=gbps)
        _GRAPHS[cluster] = nx.freeze(graph)
    return graph


def path_bandwidth_gbps(cluster, a: str, b: str) -> float:
    """Bottleneck bandwidth along the shortest path between two nodes, walked afresh."""
    if a == b:
        return float("inf")
    graph = topology_graph(cluster)
    path = nx.shortest_path(graph, a, b)
    bandwidths = [graph.edges[u, v]["gbps"] for u, v in zip(path, path[1:])]
    return min(bandwidths)


def worker_bottleneck_gbps(cluster, workers: Sequence[GPUDevice]) -> float:
    """Slowest hop of the ring through ``workers`` in the given order."""
    if len(workers) <= 1:
        return float("inf")
    names = [w.name for w in workers]
    bandwidth = float("inf")
    for a, b in zip(names, names[1:] + names[:1]):
        bandwidth = min(bandwidth, path_bandwidth_gbps(cluster, a, b))
    return bandwidth


def allreduce_seconds(allreduce, gradient_bytes: int, workers: Sequence[GPUDevice]) -> float:
    """``AllReduceModel.allreduce_seconds`` over the un-memoized ring bottleneck."""
    n = len(workers)
    if n <= 1 or gradient_bytes <= 0:
        return 0.0
    if allreduce.cluster.is_single_machine(workers):
        bandwidth_gbps = allreduce.intra_node_gbps
    else:
        bandwidth_gbps = worker_bottleneck_gbps(allreduce.cluster, workers)
    if bandwidth_gbps == float("inf"):
        return allreduce.latency_seconds
    bytes_on_wire = 2.0 * (n - 1) / n * gradient_bytes
    seconds_per_byte = 8.0 / (bandwidth_gbps * 1e9)
    return allreduce.latency_seconds + bytes_on_wire * seconds_per_byte


def segments(cost_model: CostModel, frozen_prefix: int, cached_fp: bool,
             include_reference_overhead: bool) -> Tuple[List[Tuple[str, int, float]], float, float]:
    """Nominal ``(phase, module_index, seconds)`` segments, cache and reference overhead."""
    modules = cost_model.layer_modules
    frozen_prefix = max(0, min(frozen_prefix, len(modules)))
    result: List[Tuple[str, int, float]] = []

    reference_overhead = 0.0
    if include_reference_overhead:
        baseline_compute = sum(cost_model.module_forward_time(m) * (1 + cost_model.gpu.bp_fp_ratio)
                               for m in modules)
        reference_overhead = baseline_compute * cost_model.reference_overhead_fraction
        result.append(("reference", -1, reference_overhead))

    cache_overhead = 0.0
    if cached_fp and frozen_prefix > 0:
        saved_forward = sum(cost_model.module_forward_time(m) for m in modules[:frozen_prefix])
        cache_overhead = saved_forward * cost_model.cache_overhead_fraction
        result.append(("cache", -1, cache_overhead))

    for index, module in enumerate(modules):
        if index < frozen_prefix and cached_fp:
            continue  # served from the activation cache
        result.append(("forward", index, cost_model.module_forward_time(module)))
    for index in range(len(modules) - 1, frozen_prefix - 1, -1):
        result.append(("backward", index, cost_model.module_backward_time(modules[index])))
    return result, cache_overhead, reference_overhead


def bucket_seconds(engine, cost_model: CostModel, module_index: int, workers: Sequence[object],
                   comm_seconds_per_byte: Optional[float]) -> float:
    """Transmission time of one module's gradient bucket."""
    num_bytes = cost_model.module_gradient_bytes(cost_model.layer_modules[module_index])
    if comm_seconds_per_byte is not None:
        return num_bytes * comm_seconds_per_byte
    if engine.allreduce is None or len(workers) <= 1:
        return 0.0
    devices = [w for w in workers if isinstance(w, GPUDevice)]
    if len(devices) != len(workers):
        return 0.0
    return allreduce_seconds(engine.allreduce, num_bytes, devices)


def simulate_live(engine, cost_model: CostModel, workers: Optional[Sequence[object]] = None,
                  frozen_prefix: int = 0, cached_fp: bool = False,
                  policy: str = SchedulePolicy.VANILLA, include_reference_overhead: bool = False,
                  comm_seconds_per_byte: Optional[float] = None, start_time: float = 0.0,
                  trace: Optional[List[SimEvent]] = None,
                  link_resource: Optional[Sequence[str]] = None, job_name: Optional[str] = None,
                  job_weight: float = 1.0) -> Dict[str, object]:
    """One iteration of the pre-plan live loop on ``engine``'s resources.

    Takes ``simulate_iteration``'s arguments, reserves on the engine's real
    timelines, and returns the resolved relative timing as a plain dict with
    ``_FastForwardEntry``'s field names.
    """
    names = engine._worker_names(workers)
    worker_list = list(workers) if workers else list(names)
    frozen_prefix = max(0, min(frozen_prefix, len(cost_model.layer_modules)))
    link_timelines = [engine.resource_timeline(name) for name in link_resource or ()]

    iteration_segments, cache_overhead, reference_overhead = segments(
        cost_model, frozen_prefix, cached_fp, include_reference_overhead)
    bytescheduler = policy in (SchedulePolicy.BYTESCHEDULER, SchedulePolicy.EGERIA_BYTESCHEDULER)

    queue = EventQueue()
    num_events = 0
    compute_end = {name: 0.0 for name in names}
    bucket_done_workers: Dict[int, int] = {}
    pending_buckets: List[Tuple[float, int]] = []
    ready_counter = 0
    link_busy = False
    comm_busy_total = 0.0
    comm_end = 0.0
    reservations: List[Tuple[int, float, float, int]] = []
    own_link_ends = [0.0] * len(link_timelines)
    cacheable = True

    def start_segment(worker_pos: int, seg_index: int, now: float) -> None:
        _phase, _module_index, nominal = iteration_segments[seg_index]
        duration = nominal / engine.speed_factor(names[worker_pos])
        queue.push(now + duration, "segment_done", (worker_pos, seg_index))

    def start_next_bucket(now: float) -> None:
        nonlocal link_busy, cacheable
        if link_busy or not pending_buckets:
            return
        _priority, module_index = heapq.heappop(pending_buckets)
        transmit = bucket_seconds(engine, cost_model, module_index, worker_list,
                                  comm_seconds_per_byte)
        end = now + transmit
        if link_timelines and transmit > 0.0:
            num_bytes = cost_model.module_gradient_bytes(cost_model.layer_modules[module_index])
            abs_request = start_time + now
            for link_index, timeline in enumerate(link_timelines):
                link_seconds = max(transmit, CostModel.transfer_seconds_at(
                    num_bytes, timeline.capacity_gbps))
                request = max(abs_request, own_link_ends[link_index])
                link_start, link_end = timeline.reserve(request, link_seconds,
                                                        num_bytes=num_bytes, job=job_name,
                                                        kind="allreduce", weight=job_weight)
                own_link_ends[link_index] = link_end
                reservations.append((link_index, now, link_seconds, num_bytes))
                if link_start == request and link_end == request + link_seconds:
                    end = max(end, now + link_seconds)
                else:
                    cacheable = False
                    end = max(end, link_end - start_time)
        link_busy = True
        queue.push(end, "comm_done", (module_index, transmit))

    for worker_pos in range(len(names)):
        if iteration_segments:
            start_segment(worker_pos, 0, 0.0)

    while queue:
        event = queue.pop()
        num_events += 1
        if trace is not None:
            trace.append(SimEvent(start_time + event.time, event.seq, event.kind, event.payload))
        now = event.time
        if event.kind == "segment_done":
            worker_pos, seg_index = event.payload
            name = names[worker_pos]
            phase, module_index, _nominal = iteration_segments[seg_index]
            compute_end[name] = now
            if phase == "backward":
                done = bucket_done_workers.get(module_index, 0) + 1
                bucket_done_workers[module_index] = done
                if done == len(names):
                    queue.push(now, "bucket_ready", (module_index,))
            if seg_index + 1 < len(iteration_segments):
                start_segment(worker_pos, seg_index + 1, now)
        elif event.kind == "bucket_ready":
            (module_index,) = event.payload
            priority = float(module_index) if bytescheduler else float(ready_counter)
            ready_counter += 1
            heapq.heappush(pending_buckets, (priority, module_index))
            start_next_bucket(now)
        elif event.kind == "comm_done":
            _module_index, duration = event.payload
            link_busy = False
            comm_busy_total += duration
            comm_end = max(comm_end, now)
            start_next_bucket(now)

    compute_end_max = max(compute_end.values()) if compute_end else 0.0
    return {
        "forward": sum(sec for phase, _i, sec in iteration_segments if phase == "forward"),
        "backward": sum(sec for phase, _i, sec in iteration_segments if phase == "backward"),
        "communication": comm_busy_total,
        "exposed_communication": max(comm_end - compute_end_max, 0.0),
        "cache_overhead": cache_overhead,
        "reference_overhead": reference_overhead,
        "rel_end": max(compute_end_max, comm_end),
        "num_events": num_events,
        "worker_rel_end": tuple(compute_end[name] for name in names),
        "reservations": tuple(reservations),
        "cacheable": cacheable,
    }


# --------------------------------------------------------------------------- #
# Fair share: the whole schedule integrated from t = 0
# --------------------------------------------------------------------------- #
def _end_time(profile: Sequence[Tuple[float, float]], now: float, work: float) -> float:
    """When ``work`` nominal capacity-seconds served from ``now`` are done.

    ``profile`` is the time-ordered ``(at_time, factor of nominal)`` change
    log; the factor is 1.0 before the first change point.
    """
    if not profile:
        return now + work
    if work <= 0.0:
        return now
    factor = 1.0
    for at_time, next_factor in profile:
        if at_time <= now:
            factor = next_factor
            continue
        segment_work = (at_time - now) * factor
        if segment_work >= work:
            break
        work -= segment_work
        now = at_time
        factor = next_factor
    return now + work / factor


def _work(profile: Sequence[Tuple[float, float]], now: float, target: float) -> float:
    """Nominal capacity-seconds served over ``[now, target]`` under ``profile``."""
    if not profile:
        return target - now
    if target <= now:
        return 0.0
    served, factor = 0.0, 1.0
    for at_time, next_factor in profile:
        if at_time <= now:
            factor = next_factor
            continue
        if now >= target:
            break
        upto = min(at_time, target)
        served += (upto - now) * factor
        now = upto
        factor = next_factor
    if now < target:
        served += (target - now) * factor
    return served


def reference_fair_schedule(transfers: Iterable[_FairTransfer],
                            capacity_profile: Sequence[Tuple[float, float]] = ()
                            ) -> Dict[int, float]:
    """Completion times of a processor-sharing schedule, swept from scratch.

    One chronological sweep over arrival/completion breakpoints, each active
    transfer draining at ``weight / sum(active weights)`` of the line rate —
    itself scaled by ``capacity_profile`` (``FairShareTimeline.capacity_profile()``
    rows) — between breakpoints.  Arrivals enter one at a time in
    ``(arrival, seq)`` order.  Returns ``{seq: completion time}`` for every
    transfer.
    """
    order = sorted(transfers, key=lambda t: (t.arrival, t.seq))
    ends: Dict[int, float] = {}
    remaining: Dict[int, float] = {}
    weights: Dict[int, float] = {}
    index, now = 0, 0.0
    total = len(order)
    while index < total or remaining:
        if not remaining:
            now = order[index].arrival
        if index < total and order[index].arrival <= now:
            # One admission per step: between two simultaneous arrivals the
            # sweep takes a zero-length step, in which a transfer whose
            # remaining demand rounds to nothing at ``now`` completes first.
            remaining[order[index].seq] = order[index].demand
            weights[order[index].seq] = order[index].weight
            index += 1
        next_arrival = order[index].arrival if index < total else float("inf")
        if len(remaining) == 1:
            # Sole active transfer: full line rate regardless of weight
            # (work conservation), and exact arithmetic.
            (solo_seq,) = remaining
            finish = _end_time(capacity_profile, now, remaining[solo_seq])
            if finish <= next_arrival:
                del remaining[solo_seq]
                ends[solo_seq] = finish
                now = finish
            else:
                remaining[solo_seq] -= _work(capacity_profile, now, next_arrival)
                now = next_arrival
            continue
        total_weight = sum(weights[seq] for seq in remaining)
        ratios = {seq: left / weights[seq] for seq, left in remaining.items()}
        min_ratio = min(ratios.values())
        finish = _end_time(capacity_profile, now, min_ratio * total_weight)
        if finish <= next_arrival:
            done = [seq for seq, ratio in ratios.items() if ratio == min_ratio]
            for seq in list(remaining):
                remaining[seq] -= min_ratio * weights[seq]
            for seq in done:
                del remaining[seq]
                ends[seq] = finish
            now = finish
        else:
            served = _work(capacity_profile, now, next_arrival)
            for seq in list(remaining):
                remaining[seq] -= served * weights[seq] / total_weight
            now = next_arrival
    return ends


class ResweepFairShareTimeline(FairShareTimeline):
    """``FairShareTimeline`` with no memory: every call resweeps from t = 0.

    Accounting (``records``, byte totals, ``transfer_schedule``) is inherited;
    every completion time comes from :func:`reference_fair_schedule` over the
    whole admitted history, and the observer's queue depth from a scan of it.
    Only ``full_resweeps`` ever counts.
    """

    def _resweep(self) -> None:
        self._ends = reference_fair_schedule(self._transfers.values(), self.capacity_profile())
        self._busy_until = max(self._ends.values(), default=0.0)
        self.full_resweeps += 1

    def reserve(self, earliest_start, seconds, num_bytes=0, job=None, kind="transfer",
                weight=1.0):
        if seconds < 0:
            raise ValueError("cannot reserve a negative duration")
        if weight <= 0:
            raise ValueError("fair-share weight must be positive")
        transfer = _FairTransfer(float(earliest_start), float(seconds), int(num_bytes),
                                 job, kind, self._seq, weight=float(weight))
        self._seq += 1
        self._transfers[transfer.seq] = transfer
        self._resweep()
        end = self._ends[transfer.seq]
        if self.sanitizer is not None:
            self.sanitizer.note_reserve(self, transfer.arrival, transfer.arrival, end,
                                        seconds, num_bytes, job, kind)
        if self.observer is not None:
            depth = sum(1 for other in self._transfers.values()
                        if other.seq != transfer.seq and other.arrival <= transfer.arrival
                        and self._ends[other.seq] > transfer.arrival)
            self.observer.note_reserve(self, transfer.arrival, transfer.arrival, end,
                                       int(num_bytes), job, kind, depth)
        return transfer.arrival, end

    def cancel(self, job, after_time):
        kept = {seq: t for seq, t in self._transfers.items()
                if not (t.job == job and t.arrival >= after_time)}
        cancelled = len(self._transfers) - len(kept)
        if cancelled:
            if self.sanitizer is not None:
                self.sanitizer.note_cancel(self, job, after_time)
            self._transfers = kept
            self._resweep()
            if self.sanitizer is not None:
                self.sanitizer.note_cancelled(self)
        return cancelled

    def set_capacity(self, at_time, gbps):
        old, new = self._note_capacity_change(at_time, gbps)
        self._resweep()
        if self.sanitizer is not None:
            self.sanitizer.note_capacity(self, at_time, old, new)


def build_resweep_timeline(resource):
    """``repro.sim.resources.build_timeline`` with the stand-in for fair-share resources."""
    if resource.policy == "fair":
        return ResweepFairShareTimeline(resource)
    return ResourceTimeline(resource)


class LiveEngine(EventDrivenEngine):
    """Every iteration simulated event by event: nothing is replayed, no plan is kept."""

    def simulate_iteration(self, *args, **kwargs):
        self.clear_fast_forward_cache()
        return super().simulate_iteration(*args, **kwargs)

    def can_fast_forward(self, *args, **kwargs):
        return None


class PerIterationScheduler(ClusterScheduler):
    """One heap event per iteration: a batch never forms."""

    def _schedule_iteration_batch(self, *args, **kwargs):
        return False


def closed_form_seconds(trainer) -> float:
    """``CostModel.iteration`` total of the iteration ``trainer`` is about to account."""
    return trainer.cost_model.iteration(
        frozen_prefix=trainer.frozen_prefix(), cached_fp=trainer.uses_cached_fp(),
        comm_seconds_per_byte=0.0,
        include_reference_overhead=trainer.include_reference_overhead()).total
