"""The topology tables and the static iteration plan against their un-memoized oracle.

``tests/oracles/sim_reference.py`` holds the formulation production had
before prices were hoisted out of the live loop: a fresh shortest-path walk
per bandwidth query and an event loop that re-derives segments, bucket bytes,
transmit seconds and link floors in every iteration.  Four families of
guarantees tie production to it:

* **tables == oracle** — every GPU pair and every ring order (repeated,
  reversed, with a repeated member) over hypothesis-drawn ``ClusterSpec``s;
  failed lookups raise ``KeyError`` and are never remembered; the topology
  table is read-only after build;
* **plan == recompute** — ``_build_plan`` and a whole iteration across policy
  x ``frozen_prefix`` x ``cached_fp`` x ``include_reference_overhead`` x
  ``comm_seconds_per_byte`` x straggler speeds;
* **staleness matrix** — after ``set_gpu_speed``, ``set_capacity`` /
  ``degrade_link``, ``fail_tor`` + recovery, elastic resize / migration and
  ``clear_fast_forward_cache`` the next iteration equals, bit for bit, what an
  engine that never re-uses a plan (``sim_reference.LiveEngine``) and the oracle compute;
* **merged loop == heap loop** — the live loop's merge of the stored compute
  schedule with the one bucket in flight resolves hypothesis-drawn
  iterations built to make events meet at one instant exactly as the
  oracle's event heap does: entry, trace (``seq`` included) and link windows;
* **exact counters** — the benchmark's ``sim_contended`` and
  ``sim_fault_storm`` seed-0 scenarios process exactly the parent's events
  with a pinned number of fair-share integration steps, ``sim_steady``
  commits all but its checkpoint writers in 64 batches, and ``trace=`` yields
  the parent's event list (``tests/fixtures/sim_live_trace.json``).
"""

import dataclasses
import hashlib
import itertools
import json
import operator
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sim_reference

from repro.core.modules import LayerModule
from repro.sim import (
    Cluster,
    ClusterScheduler,
    ClusterSpec,
    CostModel,
    EventDrivenEngine,
    SchedulePolicy,
    SimJob,
    paper_testbed_cluster,
)
from repro.sim import engine as engine_module
from repro.sim.cost_model import GPUSpec
from repro.sim.engine import EventQueue
from repro.sim.resources import FairShareTimeline
from repro.sim.sanitizer import FastForwardDivergence
from repro.sim.scenario import build_scenario

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def make_cost_model(param_counts=(40_000, 80_000, 60_000, 20_000), batch_size=16):
    modules = [LayerModule(name=f"m{i}", paths=[], blocks=[], num_params=int(c), index=i)
               for i, c in enumerate(param_counts)]
    return CostModel(modules, batch_size=batch_size)


def slow_fabric_cluster():
    """Per-ToR fair-share fabric slow enough that buckets outlast compute."""
    return Cluster(ClusterSpec(num_machines=4, gpus_per_machine=2, num_tor_switches=2,
                               nic_gbps=1.0, tor_uplink_gbps=1.0, core_gbps=0.5,
                               per_tor_fabric=True, fabric_policy="fair"))


def windows(engine):
    """Every shared resource's committed occupancy, for bit-for-bit comparison."""
    return {name: engine.resource_timeline(name).records for name in engine.resources.names()}


# --------------------------------------------------------------------------- #
# Topology tables
# --------------------------------------------------------------------------- #
cluster_specs = st.builds(
    ClusterSpec,
    num_machines=st.integers(1, 6),
    gpus_per_machine=st.integers(1, 3),
    num_tor_switches=st.integers(1, 3),
    num_core_switches=st.integers(1, 2),
    nic_gbps=st.sampled_from([1.0, 10.0, 40.0, 200.0]),
    # Below the NIC speed the ToR uplink, not the NIC, is the bottleneck.
    tor_uplink_gbps=st.sampled_from([0.5, 25.0, 100.0]),
    per_tor_fabric=st.booleans(),
    core_gbps=st.sampled_from([None, 0.25, 400.0]),
)


class TestTopologyTables:
    @settings(max_examples=40, deadline=None)
    @given(spec=cluster_specs)
    def test_every_gpu_pair_equals_the_shortest_path_walk(self, spec):
        cluster = Cluster(spec)
        names = [gpu.name for gpu in cluster.all_gpus()]
        for a, b in itertools.product(names, repeat=2):
            expected = sim_reference.path_bandwidth_gbps(cluster, a, b)
            assert cluster.path_bandwidth_gbps(a, b) == expected
            assert cluster.path_bandwidth_gbps(a, b) == expected  # now read from the table

    @settings(max_examples=40, deadline=None)
    @given(spec=cluster_specs, data=st.data())
    def test_every_ring_order_equals_the_hop_minimum(self, spec, data):
        cluster = Cluster(spec)
        gpus = cluster.all_gpus()
        ring = data.draw(st.lists(st.sampled_from(gpus), min_size=1, max_size=6, unique=True)
                         .flatmap(st.permutations))
        for order in (ring, ring, ring[::-1], ring + ring[:1], ring[1:] + ring[:1]):
            assert cluster.worker_bottleneck_gbps(order) == \
                sim_reference.worker_bottleneck_gbps(cluster, order)

    @settings(max_examples=20, deadline=None)
    @given(spec=cluster_specs, data=st.data())
    def test_slowest_nic_equals_a_scan_of_the_machines(self, spec, data):
        cluster = Cluster(spec)
        workers = data.draw(st.lists(st.sampled_from(cluster.all_gpus() + ["bare"]), max_size=5))
        machines = {w.machine for w in workers if not isinstance(w, str)}
        expected = min((m.nic_gbps for m in cluster.machines if m.name in machines), default=None)
        assert cluster.slowest_nic_gbps(workers) == expected
        assert cluster.slowest_nic_gbps(None) is None

    def test_unknown_node_raises_keyerror_and_is_never_remembered(self):
        cluster = Cluster()
        for pair in (("node0:gpu0", "nope"), ("nope", "node0:gpu0")):
            for _ in range(2):
                with pytest.raises(KeyError) as error:
                    cluster.path_bandwidth_gbps(*pair)
                message = str(error.value)
                assert "'nope'" in message
                assert all(kind in message for kind in ("gpu", "machine", "switch"))
        assert cluster._path_gbps == {}
        with pytest.raises(KeyError):
            cluster.worker_bottleneck_gbps([cluster.all_gpus()[0], _Named("nope")])
        assert cluster._ring_gbps == {}
        # The failures poisoned nothing: the same source node still prices.
        assert cluster.path_bandwidth_gbps("node0:gpu0", "node1:gpu0") == 40.0

    def test_identical_endpoints_are_infinite_without_touching_the_table(self):
        cluster = Cluster()
        assert cluster.path_bandwidth_gbps("node0:gpu0", "node0:gpu0") == float("inf")
        assert cluster.path_bandwidth_gbps("nope", "nope") == float("inf")
        assert cluster._path_gbps == {}

    def test_disconnected_racks_raise_valueerror_and_are_never_remembered(self):
        cluster = Cluster(ClusterSpec(num_machines=2, num_tor_switches=2, num_core_switches=0))
        for _ in range(2):
            with pytest.raises(ValueError, match="no path between 'node0:gpu0' and 'node1:gpu0'"):
                cluster.path_bandwidth_gbps("node0:gpu0", "node1:gpu0")
        assert cluster._path_gbps == {}
        assert cluster.path_bandwidth_gbps("node0:gpu0", "node0:gpu1") == 128.0

    def test_mutating_the_graph_after_build_raises(self):
        cluster = Cluster()
        links, kinds = cluster._links, cluster._kinds
        for mutate in (lambda: operator.setitem(links["node0"], "core0", 1.0),  # add a link
                       lambda: operator.delitem(links["node0"], "tor0"),        # remove a link
                       lambda: operator.setitem(links["tor0"], "core0", 1.0),   # re-price a link
                       lambda: operator.setitem(links, "node9", {}),            # add a node
                       lambda: operator.delitem(links, "core0"),                # remove a node
                       lambda: operator.setitem(kinds, "node0", "switch")):     # re-kind a node
            with pytest.raises(TypeError):
                mutate()


class _Named:
    """A worker-like object carrying only a name."""

    def __init__(self, name):
        self.name = name


# --------------------------------------------------------------------------- #
# Plan == per-iteration recompute
# --------------------------------------------------------------------------- #
def twin_engines(speeds=()):
    """A memoizing engine and an independent twin for the oracle loop to reserve on."""
    engines = []
    for engine_cls in (EventDrivenEngine, sim_reference.LiveEngine):
        cluster = slow_fabric_cluster()
        engine = engine_cls(cluster)
        for position, factor in speeds:
            engine.set_gpu_speed(cluster.all_gpus()[position].name, factor)
        engines.append(engine)
    return engines


def assert_iteration_equals_oracle(engine, twin, cost_model, workers, **kwargs):
    """One production iteration == the oracle loop, result and link windows alike."""
    names = engine._worker_names(workers)
    start_time = kwargs.get("start_time", 0.0)
    result = engine.simulate_iteration(cost_model, workers=workers, **kwargs)
    entry = sim_reference.simulate_live(twin, cost_model, workers=workers, **kwargs)
    assert result.as_dict() == {
        "forward": entry["forward"], "backward": entry["backward"],
        "communication": entry["communication"],
        "exposed_communication": entry["exposed_communication"],
        "cache_overhead": entry["cache_overhead"],
        "reference_overhead": entry["reference_overhead"],
        "total": (start_time + entry["rel_end"]) - start_time,
    }
    assert result.end_time == start_time + entry["rel_end"]
    assert result.num_events == entry["num_events"]
    assert result.per_worker_compute_end == {
        name: start_time + rel for name, rel in zip(names, entry["worker_rel_end"])}
    assert windows(engine) == windows(twin)
    return result


class TestPlanEqualsRecompute:
    GRID = list(itertools.product(
        (0, 2, 4),                      # frozen_prefix
        (False, True),                  # cached_fp
        (False, True),                  # include_reference_overhead
        (None, 2e-9),                   # comm_seconds_per_byte
        ((), ((2, 0.5), (4, 1.75))),    # straggler / fast-GPU speed factors
    ))

    @pytest.mark.parametrize("policy", SchedulePolicy.ALL)
    def test_plan_fields_equal_the_oracles_recompute(self, policy):
        cost_model = make_cost_model()
        for prefix, cached_fp, reference, per_byte, speeds in self.GRID:
            engine, _twin = twin_engines(speeds)
            cluster = engine.cluster
            workers = cluster.workers(num_machines=3, gpus_per_machine=1)
            names = [w.name for w in workers]
            links = [engine.resource_timeline(name) for name in cluster.links_crossed(workers)]
            plan = engine._build_plan(cost_model, workers, names, prefix, cached_fp, policy,
                                      reference, per_byte, links)
            segments, cache_overhead, reference_overhead = sim_reference.segments(
                cost_model, prefix, cached_fp, reference)
            assert list(plan.segments) == segments
            assert (plan.cache_overhead, plan.reference_overhead) == \
                (cache_overhead, reference_overhead)
            assert plan.forward == sum(s for phase, _i, s in segments if phase == "forward")
            assert plan.backward == sum(s for phase, _i, s in segments if phase == "backward")
            assert plan.durations == tuple(
                tuple(nominal / engine.speed_factor(name) for _p, _i, nominal in segments)
                for name in names)
            assert sorted(plan.buckets) == list(range(prefix, 4))
            for module_index, (transmit, num_bytes, link_seconds) in plan.buckets.items():
                assert transmit == sim_reference.bucket_seconds(
                    engine, cost_model, module_index, workers, per_byte)
                assert num_bytes == cost_model.layer_modules[module_index].num_params * 4
                assert link_seconds == tuple(
                    max(transmit, CostModel.transfer_seconds_at(num_bytes, t.capacity_gbps))
                    for t in links)
            assert plan.front_first == ("bytescheduler" in policy)

    @pytest.mark.parametrize("policy", SchedulePolicy.ALL)
    def test_iterations_equal_the_oracle_loop_live_contended_and_replayed(self, policy):
        cost_model = make_cost_model()
        for prefix, cached_fp, reference, per_byte, speeds in self.GRID:
            engine, twin = twin_engines(speeds)
            cluster = engine.cluster
            job_a = cluster.workers(num_machines=3, gpus_per_machine=1)
            job_b = cluster.workers()[1::2][:3]
            common = dict(frozen_prefix=prefix, cached_fp=cached_fp, policy=policy,
                          include_reference_overhead=reference, comm_seconds_per_byte=per_byte)
            clock = 1.25
            # a runs live, b meets a's windows on the core (its plan is kept
            # although the iteration is not cacheable), both run again from
            # their stored plans, then a replays on quiet links.
            for workers, job, weight, advance in ((job_a, "a", 1.0, 1e-4), (job_b, "b", 2.0, 1e-4),
                                                  (job_b, "b", 2.0, 1e-4), (job_a, "a", 1.0, 50.0),
                                                  (job_a, "a", 1.0, 50.0)):
                assert_iteration_equals_oracle(
                    engine, twin, cost_model, workers, start_time=clock, job_name=job,
                    job_weight=weight, link_resource=cluster.links_crossed(workers), **common)
                clock += advance
            assert len(engine._plans) == 2 and engine.iterations_fast_forwarded >= 1

    def test_bare_names_and_private_links(self):
        cost_model = make_cost_model()
        engine, twin = EventDrivenEngine(), sim_reference.LiveEngine()
        for _ in range(2):
            assert_iteration_equals_oracle(engine, twin, cost_model, ["w0", "w1"],
                                           comm_seconds_per_byte=2e-9, start_time=0.5)
            assert_iteration_equals_oracle(engine, twin, cost_model, None, frozen_prefix=4)


# --------------------------------------------------------------------------- #
# Staleness matrix
# --------------------------------------------------------------------------- #
class Lockstep:
    """Drive a plan-keeping engine, a ``LiveEngine`` and the oracle in step."""

    def __init__(self):
        self.kept, self.fresh = twin_engines()
        self.oracle = sim_reference.LiveEngine(slow_fabric_cluster())
        self.engines = (self.kept, self.fresh, self.oracle)
        self.cost_model = make_cost_model()
        self.clock = 0.0

    def each(self, action):
        for engine in self.engines:
            action(engine)

    def iterate(self, job, positions, **kwargs):
        """One iteration of ``job`` on the GPUs at ``positions``; all three must agree."""
        cluster = self.kept.cluster
        workers = [cluster.all_gpus()[p] for p in positions]
        kwargs.update(start_time=self.clock, job_name=job,
                      link_resource=cluster.links_crossed(workers))
        result = assert_iteration_equals_oracle(self.kept, self.oracle, self.cost_model,
                                                workers, **kwargs)
        fresh = self.fresh.simulate_iteration(self.cost_model, workers=workers, **kwargs)
        assert (result.as_dict(), result.end_time, result.per_worker_compute_end) == \
            (fresh.as_dict(), fresh.end_time, fresh.per_worker_compute_end)
        assert windows(self.kept) == windows(self.fresh)
        self.clock += 1e-4
        return result

    def warm(self):
        """Two jobs meeting on the core, twice: plans stored, nothing cacheable for b."""
        for _ in range(2):
            self.iterate("a", (0, 2, 4))
            self.iterate("b", (1, 3, 5))


class TestStalenessMatrix:
    def test_set_gpu_speed(self):
        run = Lockstep()
        run.warm()
        before = run.iterate("a", (0, 2, 4))
        run.each(lambda engine: engine.set_gpu_speed("node1:gpu0", 0.25))
        after = run.iterate("a", (0, 2, 4))
        assert after.per_worker_compute_end["node1:gpu0"] - after.start_time > \
            before.per_worker_compute_end["node1:gpu0"] - before.start_time
        run.each(lambda engine: engine.set_gpu_speed("node1:gpu0", 1.0))
        run.iterate("a", (0, 2, 4))

    def test_set_capacity_degrade_and_restore(self):
        run = Lockstep()
        run.warm()
        for gbps in (0.05, 0.5):
            run.each(lambda engine: engine.resource_timeline("core").set_capacity(run.clock, gbps))
            run.iterate("a", (0, 2, 4))
            run.iterate("b", (1, 3, 5))

    def test_worker_set_change_resize_and_migration(self):
        run = Lockstep()
        run.warm()
        run.iterate("a", (0, 2, 4, 6))   # elastic join
        run.iterate("a", (0, 2))         # leave: now rack-local, the core is not crossed
        run.iterate("a", (1, 3, 5))      # migration onto b's GPUs
        run.iterate("a", (4, 2, 0))      # same GPUs as at first, another ring order

    def test_clear_fast_forward_cache_after_mutating_the_cost_model(self):
        run = Lockstep()
        run.warm()
        assert run.kept._plans
        run.cost_model.layer_modules[1].num_params *= 3
        run.each(lambda engine: engine.clear_fast_forward_cache())
        assert not run.kept._plans and not run.kept._cache
        run.iterate("a", (0, 2, 4))

    def test_profile_change_freeze_and_policy(self):
        run = Lockstep()
        run.warm()
        run.iterate("a", (0, 2, 4), frozen_prefix=2, cached_fp=True)
        run.iterate("a", (0, 2, 4), frozen_prefix=2, cached_fp=True,
                    policy=SchedulePolicy.EGERIA_BYTESCHEDULER, include_reference_overhead=True)
        run.iterate("a", (0, 2, 4))

    @pytest.mark.parametrize("transition", ["set_speed", "degrade_link", "fail_tor",
                                            "resize", "migration"])
    def test_scheduler_transitions_equal_an_engine_that_keeps_no_plan(self, transition):
        """Three jobs contending on a slow per-ToR fabric, one transition mid-run."""

        def run(engine_cls):
            cluster = slow_fabric_cluster()
            scheduler = ClusterScheduler(cluster, placement="round_robin",
                                         engine=engine_cls(cluster))
            checkpoint = 10 if transition == "migration" else None
            for index in range(3):
                scheduler.submit(SimJob(f"job{index}", make_cost_model(batch_size=16 + index),
                                        num_workers=2, iterations=40,
                                        checkpoint_every=checkpoint, weight=1.0 + index))
            if transition == "set_speed":
                scheduler.set_gpu_speed("node0:gpu0", 0.5, at_time=0.05)
            elif transition == "degrade_link":
                scheduler.degrade_link("core", 0.1, at_time=0.05, restore_at=0.4)
            elif transition == "fail_tor":
                scheduler.fail_tor(1, at_time=0.05, recover_at=0.3)
            else:
                scheduler.resize_job("job0", 2, at_time=0.05)
                scheduler.resize_job("job0", -2, at_time=0.3)
            result = scheduler.run()
            payload = result.as_dict()
            payload.pop("perf")
            return payload, scheduler.engine

        kept, engine = run(EventDrivenEngine)
        reference, _ = run(sim_reference.LiveEngine)
        assert kept == reference
        assert engine.iterations_simulated > len(engine._plans) > 0  # plans were re-used


# --------------------------------------------------------------------------- #
# Exact events: the trace fixture and the benchmark's contended scenario
# --------------------------------------------------------------------------- #
def trace_cases(simulate):
    """The fixture's three iterations; ``simulate(engine, cost_model, **kwargs)`` runs one."""
    cost_model = make_cost_model()
    cluster = slow_fabric_cluster()
    workers = cluster.workers(num_machines=3, gpus_per_machine=1)
    others = cluster.workers()[1::2][:3]
    engine = EventDrivenEngine(cluster)
    engine.set_gpu_speed(workers[1].name, 0.5)
    calls = {
        "cross_rack_bytescheduler": (engine, dict(
            workers=workers, frozen_prefix=1, cached_fp=True,
            policy=SchedulePolicy.EGERIA_BYTESCHEDULER, include_reference_overhead=True,
            start_time=1.25, link_resource=cluster.links_crossed(workers), job_name="a")),
        # A second job whose buckets meet job a's windows on the shared core.
        "contended_fair_share": (engine, dict(
            workers=others, start_time=1.2501, link_resource=cluster.links_crossed(others),
            job_name="b", job_weight=2.0)),
        "linear_comm_vanilla": (EventDrivenEngine(), dict(
            workers=["w0", "w1"], comm_seconds_per_byte=2e-9, start_time=0.5)),
    }
    cases = {}
    for label, (target, kwargs) in calls.items():
        trace = []
        simulate(target, cost_model, trace=trace, **kwargs)
        cases[label] = json.loads(json.dumps([event.as_dict() for event in trace]))
    return cases


def load_fixture(name):
    with open(FIXTURES / name, encoding="utf-8") as handle:
        return json.load(handle)


def count_advances(monkeypatch, scheduler):
    """Wrap ``FairShareTimeline._advance`` at class level; returns a one-element
    ``[calls]`` counter of the calls made on ``scheduler``'s own timelines (the
    sanitizer's spot checks integrate on deep-copied shadows)."""
    pool = scheduler.engine.resources
    own = {id(pool.get(name)) for name in pool.names()}
    calls = [0]
    advance = FairShareTimeline._advance

    def counted(self, target):
        calls[0] += id(self) in own
        return advance(self, target)

    monkeypatch.setattr(FairShareTimeline, "_advance", counted)
    return calls


def count_calls(monkeypatch, owner, *names):
    """Wrap ``owner``'s methods ``names`` at class level; returns the live ``{name: calls}``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(self, *args, _name=name, _method=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


class TestExactEvents:
    def test_trace_equals_the_parents_event_list(self):
        expected = load_fixture("sim_live_trace.json")
        assert trace_cases(EventDrivenEngine.simulate_iteration) == expected
        assert trace_cases(sim_reference.simulate_live) == expected

    def test_tracing_builds_a_plan_per_call_and_stores_none(self):
        engine = EventDrivenEngine()
        engine.simulate_iteration(make_cost_model(), trace=[])
        assert not engine._plans and not engine._cache

    def test_contended_benchmark_scenario_exact_counters(self, monkeypatch):
        """``bench/run.py --workload sim_contended --seed 0 --dump-scenario``, committed:
        no event moved, no table leaked, and the 3 772 rewinds re-integrate
        only until they are back on the stored track (53 758 ``_advance``
        steps when each replayed every later admission)."""
        scheduler = build_scenario(load_fixture("sim_contended-seed0.json"))
        engine = scheduler.engine

        keys = set()
        cache_key = engine._cache_key
        monkeypatch.setattr(engine, "_cache_key",
                            lambda *args: keys.add(key := cache_key(*args)) or key)
        advances = count_advances(monkeypatch, scheduler)
        result = scheduler.run()
        perf = result.perf
        assert perf["events_processed"] == 28764
        assert perf["iterations_simulated"] == 799
        assert perf["fair_rewind_reserves"] == 3772
        assert perf["fair_incremental_reserves"] == 1028
        assert perf["fair_full_resweeps"] == 0
        assert result.makespan == 72.6215840400001
        assert advances == [12452]
        assert 0 < len(engine._plans) <= len(keys)
        assert set(engine._plans) <= keys

    def test_fault_storm_benchmark_scenario_exact_counters(self, monkeypatch):
        """``bench/run.py --workload sim_fault_storm --seed 0 --dump-scenario``, committed:
        the 169 cancels and capacity changes that displace something
        re-integrate the suffix behind the first slot they touch (62 982
        ``_advance`` steps when each resweeped the history from t = 0).
        Link-free jobs batch through the faults that cannot reach them
        (167 batches of 770 iterations, 4 019 ``simulate_iteration`` and
        3 848 ``can_fast_forward`` calls when every batch stopped at the
        fleet's next barrier)."""
        scheduler = build_scenario(load_fixture("sim_fault_storm-seed0.json"))
        advances = count_advances(monkeypatch, scheduler)
        calls = count_calls(monkeypatch, EventDrivenEngine,
                            "simulate_iteration", "can_fast_forward")
        result = scheduler.run()
        perf = result.perf
        assert perf["events_processed"] == 26743
        assert perf["iterations_simulated"] == 717
        assert perf["iterations_fast_forwarded"] == 4073
        assert perf["fast_forward_batches"] == 165
        assert perf["iterations_batched"] == 3803
        assert calls == {"simulate_iteration": 986, "can_fast_forward": 897}
        assert perf["fair_rewind_reserves"] == 975
        assert perf["fair_incremental_reserves"] == 3920
        assert perf["fair_full_resweeps"] == 169
        assert result.makespan == 46.25304057434807
        assert sum(record.failures for record in result.jobs.values()) == 97
        assert sum(record.restores for record in result.jobs.values()) == 9
        assert advances == [7034]

    def test_steady_benchmark_scenario_exact_counters(self, monkeypatch):
        """``bench/run.py --workload sim_steady --seed 0 --dump-scenario``, committed:
        four link-free jobs fast-forward past each other, so each run of 499
        iterations between two checkpoint writers is one batch (2 batches of
        379 and 31 358 per-iteration ``simulate_iteration`` calls when every
        batch ended at the next job's completion)."""
        scheduler = build_scenario(load_fixture("sim_steady-seed0.json"))
        calls = count_calls(monkeypatch, EventDrivenEngine,
                            "simulate_iteration", "can_fast_forward")
        result = scheduler.run()
        perf = result.perf
        assert perf["events_processed"] == 144
        assert perf["iterations_simulated"] == 4
        assert perf["iterations_fast_forwarded"] == 31996
        assert perf["fast_forward_batches"] == 64
        assert perf["iterations_batched"] == 31932
        assert result.makespan == 6921.927202988215
        assert calls == {"simulate_iteration": 68, "can_fast_forward": 64}


def result_digest(result):
    return hashlib.sha256(json.dumps(result.as_dict(), sort_keys=True).encode()).hexdigest()


class TestBatchDoesOnlyItsWork:
    """A batch of memo hits calls the per-iteration pipeline only for the work
    there is: ``_replay`` for link reservations, a sanitizer or an observer,
    ``begin_iteration`` for a job that overrides it, and the profile once.
    The results are the parent's, digest for digest."""

    def _run(self, monkeypatch, fixture, sanitize):
        scheduler = build_scenario(dict(load_fixture(fixture), sanitize=sanitize))
        engine_calls = count_calls(monkeypatch, EventDrivenEngine, "_replay")
        job_calls = count_calls(monkeypatch, SimJob, "begin_iteration", "iteration_profile",
                                "profile_span")
        result = scheduler.run()
        return result, {**engine_calls, **job_calls}

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_steady_replays_and_begins_only_its_unbatched_iterations(self, monkeypatch,
                                                                     sanitize):
        """31 996 ``_replay``, 32 000 ``begin_iteration`` and 32 000
        ``iteration_profile`` calls when every batched iteration made each.
        Under SimSan every memo hit still replays, for the spot-check cadence."""
        result, calls = self._run(monkeypatch, "sim_steady-seed0.json", sanitize)
        perf = result.perf
        assert perf["iterations_batched"] == 31932
        unbatched = perf["iterations_fast_forwarded"] - perf["iterations_batched"]
        assert unbatched == 64
        assert calls == {"_replay": perf["iterations_fast_forwarded"] if sanitize else unbatched,
                         "begin_iteration": 68, "iteration_profile": 132, "profile_span": 64}
        # A plain SimJob's hook is a no-op: no batched iteration calls it.
        assert calls["begin_iteration"] == 32000 - perf["iterations_batched"]
        assert result_digest(result) == (
            "5bc593972686c5aaf7b63371ecc1ff7a95a18e95c2cd4e934083c45204aab970")

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_storm_replays_only_batches_that_reserve_links(self, monkeypatch, sanitize):
        """4 073 ``_replay``, 4 790 ``begin_iteration`` and 5 637
        ``iteration_profile`` calls when every batched iteration made each;
        51 batched iterations cross a link and still re-commit their windows."""
        result, calls = self._run(monkeypatch, "sim_fault_storm-seed0.json", sanitize)
        perf = result.perf
        assert (perf["fast_forward_batches"], perf["iterations_batched"]) == (165, 3803)
        assert calls == {"_replay": 4073 if sanitize else 321, "begin_iteration": 986,
                         "iteration_profile": 1883, "profile_span": 166}
        assert result_digest(result) == (
            "9bc88344b8356274cec49bf54934e272e8497ea8815176c2a7a17d23fe08c6ce")

    def test_a_changing_callable_prefix_splits_the_batch_where_it_changes(self, monkeypatch):
        """The prefix changes at iterations 9 and 17 of a run that would
        otherwise be one batch of 29: three batches, split where it changes."""
        batches = []
        commit = EventDrivenEngine.fast_forward_batch

        def recorded(self, cost_model, count, **kwargs):
            durations = commit(self, cost_model, count, **kwargs)
            batches.append((kwargs["frozen_prefix"], count, len(durations)))
            return durations

        monkeypatch.setattr(EventDrivenEngine, "fast_forward_batch", recorded)

        def run(scheduler_cls):
            scheduler = scheduler_cls(paper_testbed_cluster())
            scheduler.submit(SimJob("a", make_cost_model(), iterations=30,
                                    frozen_prefix=lambda i: 0 if i < 9 else (2 if i < 17 else 3)))
            return scheduler.run()

        batched = run(ClusterScheduler)
        assert batches == [(0, 8, 8), (2, 7, 7), (3, 12, 12)]
        per_iteration = run(sim_reference.PerIterationScheduler).as_dict()
        for counter in ("fast_forward_batches", "iterations_batched", "mean_batch_size"):
            per_iteration["perf"].pop(counter)
            batched.perf.pop(counter)
        assert batched.as_dict() == per_iteration

    def test_profile_span_is_constant_time_for_an_int_prefix(self, monkeypatch):
        calls = count_calls(monkeypatch, SimJob, "prefix_at")
        job = SimJob("a", make_cost_model(), frozen_prefix=2)
        assert job.profile_span(5, 10 ** 9) == 10 ** 9
        assert calls == {"prefix_at": 0}
        changing = SimJob("b", make_cost_model(), frozen_prefix=lambda i: i // 4)
        assert [changing.profile_span(i, 10) for i in (0, 3, 4)] == [4, 1, 4]
        assert changing.profile_span(0, 2) == 2
        assert calls == {"prefix_at": 5 + 2 + 5 + 2}  # each span reads one past its end

    def test_profile_span_follows_an_overridden_iteration_profile(self):
        """An int prefix does not make a span constant when the job prices
        its iterations itself: the span still ends where the profile changes."""
        class Reprofiled(SimJob):
            def iteration_profile(self, iteration):
                return (self.frozen_prefix, iteration >= 7, self.include_reference_overhead)

        job = Reprofiled("a", make_cost_model(), frozen_prefix=2)
        assert [job.profile_span(i, 10) for i in (0, 6, 7)] == [7, 1, 10]


# --------------------------------------------------------------------------- #
# Compute schedule: the merged live loop against the oracle's event heap
# --------------------------------------------------------------------------- #
#: Dyadic compute prices: every sum is exact, so segment ends, bucket-ready
#: times and bucket completions land on the same float when they should.
TIE_GPU = GPUSpec(fp_seconds_per_param=2.0 ** -20, bp_fp_ratio=2.0)


@st.composite
def tie_cases(draw):
    """An iteration whose events meet at one instant: zero-parameter modules,
    equal speeds, zero-time buckets, buckets as long as a segment, a single
    worker, a link another job already loads."""
    params = draw(st.lists(st.sampled_from([0, 1, 2, 4, 64]), min_size=1, max_size=5))
    num_workers = draw(st.integers(1, 3))
    return dict(
        params=params,
        num_workers=num_workers,
        speeds=draw(st.lists(st.sampled_from([1.0, 1.0, 0.5, 2.0, 0.75, 1.5]),
                             min_size=num_workers, max_size=num_workers)),
        # zero: free buckets; per_byte: a bucket lasts one, two or four
        # segments of its module (the last backs buckets up); ring / link / preloaded: placed GPUs, priced by the ring,
        # on the links they cross, which another job already loads.
        comm=draw(st.sampled_from(["zero", "per_byte", "ring", "link", "preloaded"])),
        per_byte=draw(st.sampled_from([2.0 ** -18, 2.0 ** -17, 2.0 ** -15])),
        frozen_prefix=draw(st.integers(0, len(params))),
        cached_fp=draw(st.booleans()),
        include_reference_overhead=draw(st.booleans()),
        policy=draw(st.sampled_from(SchedulePolicy.ALL)),
        start_time=draw(st.sampled_from([0.0, 1.25])),
    )


def merged_and_heap(case, sanitize):
    """Two iterations of ``case`` through production's merged loop and the oracle's heap.

    Returns ``[(entry, trace, oracle entry, oracle trace)]`` and both engines;
    the second iteration runs on the memoized schedule.
    """
    cost_model = CostModel([LayerModule(name=f"m{i}", paths=[], blocks=[], num_params=p, index=i)
                            for i, p in enumerate(case["params"])], batch_size=16, gpu=TIE_GPU)
    engine = EventDrivenEngine(slow_fabric_cluster(), sanitize=sanitize)
    twin = EventDrivenEngine(slow_fabric_cluster(), sanitize=False)
    placed = case["comm"] in ("ring", "link", "preloaded")
    count = case["num_workers"]
    link_names = []
    if placed:
        link_names = engine.cluster.links_crossed(engine.cluster.all_gpus()[::2][:count])
    per_byte = {"zero": 0.0, "per_byte": case["per_byte"]}.get(case["comm"])

    def workers_of(target):
        return (target.cluster.all_gpus()[::2][:count] if placed
                else [f"w{i}" for i in range(count)])

    for target in (engine, twin):
        for name, factor in zip(target._worker_names(workers_of(target)), case["speeds"]):
            target.set_gpu_speed(name, factor)
        if case["comm"] == "preloaded":
            for name in link_names:
                target.resource_timeline(name).reserve(case["start_time"] + 2.0 ** -16, 2.0 ** -10,
                                                       num_bytes=4096, job="other",
                                                       kind="allreduce")
    workers, twin_workers = workers_of(engine), workers_of(twin)
    names = engine._worker_names(workers)
    links = [engine.resource_timeline(name) for name in link_names]
    profile = (case["frozen_prefix"], case["cached_fp"], case["policy"],
               case["include_reference_overhead"], per_byte)
    runs = []
    for start_time in (case["start_time"], case["start_time"] + 0.5):
        plan = engine._build_plan(cost_model, list(workers), names, *profile, links)
        trace, oracle_trace = [], []
        entry = engine._simulate_live(plan, names, start_time, trace, links, "job", 2.0)
        expected = sim_reference.simulate_live(
            twin, cost_model, workers=twin_workers, frozen_prefix=case["frozen_prefix"],
            cached_fp=case["cached_fp"], policy=case["policy"],
            include_reference_overhead=case["include_reference_overhead"],
            comm_seconds_per_byte=per_byte, start_time=start_time, trace=oracle_trace,
            link_resource=link_names, job_name="job", job_weight=2.0)
        runs.append((dataclasses.asdict(entry), trace, expected, oracle_trace))
    return runs, engine, twin


def meets_at_one_instant(trace):
    """Whether a bucket completion shares its instant with a compute event."""
    kinds = defaultdict(set)
    for event in trace:
        kinds[event.time].add(event.kind == "comm_done")
    return any(len(both) == 2 for both in kinds.values())


TIE_EXAMPLE = dict(params=[4, 0, 4], num_workers=2, speeds=[1.0, 1.0], comm="per_byte",
                   per_byte=2.0 ** -17, frozen_prefix=0, cached_fp=False,
                   include_reference_overhead=False, policy=SchedulePolicy.VANILLA,
                   start_time=0.0)


class TestMergedLoopEqualsTheHeap:
    @pytest.mark.parametrize("sanitize", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(case=tie_cases())
    def test_merged_loop_equals_the_heap_loop_on_tied_events(self, sanitize, case):
        runs, engine, twin = merged_and_heap(case, sanitize)
        for entry, trace, expected, oracle_trace in runs:
            assert entry == expected
            assert trace == oracle_trace
        assert windows(engine) == windows(twin)
        assert len(engine._schedules) == 1  # the second iteration re-used it

    def test_the_tie_example_meets_at_one_instant(self):
        """A bucket as long as the backward segment running beside it completes
        at that segment's instant: the tie the merge breaks by the heap's ``seq``."""
        runs, _engine, _twin = merged_and_heap(TIE_EXAMPLE, sanitize=False)
        for entry, trace, expected, oracle_trace in runs:
            assert meets_at_one_instant(oracle_trace)
            assert (entry, trace) == (expected, oracle_trace)


class TestComputeSchedule:
    def test_contended_scenario_builds_one_schedule_per_timing(self, monkeypatch):
        """``sim_contended`` seed 0: 16 schedules serve its 799 live iterations,
        so 480 compute events go through the event heap (23 970 when every
        iteration re-ran its compute half) and the live loop pushes none of
        its 28 764 events (it pushed every one)."""
        scheduler = build_scenario(load_fixture("sim_contended-seed0.json"))
        built = []
        compute_schedule = engine_module._compute_schedule
        monkeypatch.setattr(engine_module, "_compute_schedule",
                            lambda *args: built.append(schedule := compute_schedule(*args))
                            or schedule)
        pushes = count_calls(monkeypatch, EventQueue, "push")
        live_pushes = [0]
        simulate_live = EventDrivenEngine._simulate_live

        def counted(self, *args):
            before = pushes["push"]
            entry = simulate_live(self, *args)
            live_pushes[0] += pushes["push"] - before
            return entry

        monkeypatch.setattr(EventDrivenEngine, "_simulate_live", counted)
        perf = scheduler.run().perf
        assert perf["iterations_simulated"] == 799
        assert perf["events_processed"] == 28764
        assert len(built) == len(scheduler.engine._schedules) == 16
        assert sum(len(events) for events, _compute_end in built) == 480
        assert pushes == {"push": 480}
        assert live_pushes == [0]

    def test_set_capacity_reuses_the_schedule_and_set_gpu_speed_builds_one(self):
        engine = EventDrivenEngine(slow_fabric_cluster())
        cost_model = make_cost_model()
        workers = engine.cluster.workers(num_machines=3, gpus_per_machine=1)
        kwargs = dict(workers=workers, link_resource=engine.cluster.links_crossed(workers),
                      job_name="a")
        engine.simulate_iteration(cost_model, **kwargs)
        (first,) = engine._plans.values()
        engine.resource_timeline("core").set_capacity(10.0, 0.05)
        engine.simulate_iteration(cost_model, start_time=20.0, **kwargs)
        assert len(engine._plans) == 2 and len(engine._schedules) == 1
        assert all(plan.schedule is first.schedule for plan in engine._plans.values())
        engine.set_gpu_speed(workers[1].name, 0.5)
        engine.simulate_iteration(cost_model, start_time=40.0, **kwargs)
        assert len(engine._plans) == 3 and len(engine._schedules) == 2
        engine.clear_fast_forward_cache()
        assert not engine._schedules

    def test_a_corrupted_schedule_is_caught_by_the_spot_check(self):
        """The spot check prices its schedule afresh, so a stale memo entry
        cannot vouch for the iteration it produced."""
        engine = EventDrivenEngine(sanitize=True)
        engine.sanitizer.spot_check_every = 1
        cost_model = make_cost_model()
        kwargs = dict(workers=["w0", "w1"], comm_seconds_per_byte=2e-9)
        honest = engine.simulate_iteration(cost_model, **kwargs)
        ((timing, (events, compute_end)),) = engine._schedules.items()
        engine._schedules[timing] = (events, tuple(2.0 * end for end in compute_end))
        engine._cache.clear()
        engine._plans.clear()
        stale = engine.simulate_iteration(cost_model, **kwargs)  # live, memoized
        assert stale.per_worker_compute_end != honest.per_worker_compute_end
        with pytest.raises(FastForwardDivergence, match="worker_rel_end"):
            engine.simulate_iteration(cost_model, **kwargs)
