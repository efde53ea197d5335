"""Tests for the structured fault model (``repro.sim.faults``).

Five families of guarantees:

* **Correlated domains** — machine/rack failures take down every resident
  GPU atomically (plus the ToR uplink for racks), so blast radius depends
  measurably on placement: ``tor_pack`` confines a rack failure to the jobs
  resident on that rack while spread placements expose every job.
* **Degraded links** — mid-run capacity drops slow the run and restore
  cleanly, with byte accounting intact (the resource-level re-quote is
  covered in ``tests/test_sim_resources.py``).
* **Spot capacity** — eviction notices trigger proactive checkpoints so the
  resume loses at most the notice-to-eviction window; unannounced evictions
  roll back a full checkpoint interval.  Restart backoff delays flapping
  jobs with capped-exponential delays and resets on progress.
* **Plan parsing** — ``parse_faults`` validates every reference against the
  topology at build time with pointed errors, and the seeded stochastic
  generator is bit-reproducible.
* **Determinism** — fault-heavy scenarios replay bit-identically, including
  under the sanitizer (hash-seed independence is pinned in
  ``tests/test_scheduler_determinism.py``).
"""

import ast
import dataclasses
import functools
import gc
import importlib
import inspect
import json
import pathlib
import pkgutil
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.modules import LayerModule
from repro.sim import (
    Cluster,
    ClusterScheduler,
    ClusterSpec,
    CostModel,
    SimJob,
    preview_faults,
    run_scenario,
)
from repro.sim.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    apply_fault_plan,
    generate_fault_events,
    parse_faults,
)
from repro.sim import scheduler as scheduler_module
from repro.sim.scheduler import JobRecord
from repro.sim.scheduler import loop as scheduler_loop


def synthetic_modules(param_counts=(400_000, 800_000, 600_000)):
    return [LayerModule(name=f"m{i}", paths=[], blocks=[], num_params=int(c), index=i)
            for i, c in enumerate(param_counts)]


def make_cost_model(batch_size=4):
    return CostModel(synthetic_modules(), batch_size=batch_size)


def two_rack_cluster(**overrides) -> Cluster:
    """4 machines x 2 GPUs behind 2 ToR switches with per-ToR fabric.

    Machine ``node<i>`` uplinks to ToR ``i % 2``: rack 0 is {node0, node2},
    rack 1 is {node1, node3}.
    """
    spec = dict(num_machines=4, gpus_per_machine=2, num_tor_switches=2,
                nic_gbps=1.0, tor_uplink_gbps=1.0, core_gbps=0.5,
                per_tor_fabric=True)
    spec.update(overrides)
    return Cluster(ClusterSpec(**spec))


def kinds(result, kind):
    return [entry for entry in result.trace if entry["kind"] == kind]


def scheduler_modules():
    """Every module of the ``repro.sim.scheduler`` package, ``__init__`` first."""
    return [scheduler_module] + [
        importlib.import_module(f"{scheduler_module.__name__}.{info.name}")
        for info in pkgutil.iter_modules(scheduler_module.__path__)]


# --------------------------------------------------------------------------- #
# Correlated failure domains
# --------------------------------------------------------------------------- #
class TestCorrelatedDomains:
    def test_fail_machine_takes_down_all_resident_gpus_atomically(self):
        cluster = two_rack_cluster()
        scheduler = ClusterScheduler(cluster)
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=2, iterations=6,
                                checkpoint_every=2, storage="ckpt-store"))
        scheduler.fail_machine("node0", at_time=0.4, recover_at=1.0)
        result = scheduler.run()
        domain = kinds(result, "domain_failure")
        assert len(domain) == 1
        assert domain[0]["cause"] == "machine"
        assert domain[0]["gpus"] == ["node0:gpu0", "node0:gpu1"]
        assert result.jobs["a"].failures == 1
        assert result.jobs["a"].iterations_done == 6  # recovered and finished
        recovered = kinds(result, "domain_recovered")
        assert len(recovered) == 1 and recovered[0]["label"] == "node0"

    def test_rack_failure_blast_radius_depends_on_placement(self):
        """tor_pack confines a rack failure to the rack's resident jobs."""
        def victims(placement):
            scheduler = ClusterScheduler(two_rack_cluster(), placement=placement)
            for name in ("a", "b"):
                scheduler.submit(SimJob(name, make_cost_model(), num_workers=4,
                                        iterations=6, checkpoint_every=2,
                                        storage="ckpt-store"))
            scheduler.fail_rack(0, at_time=0.4, recover_at=1.2)
            result = scheduler.run()
            assert all(rec.iterations_done == 6 for rec in result.jobs.values())
            return {name for name, rec in result.jobs.items() if rec.failures}

        # Packed: job a fills rack 0, job b fills rack 1 -> one whole job lost.
        assert victims("tor_pack") == {"a"}
        # Spread: both jobs straddle rack 0 -> the same fault hits everyone.
        assert victims("round_robin") == {"a", "b"}

    def test_fail_rack_degrades_and_restores_the_tor_uplink(self):
        scheduler = ClusterScheduler(two_rack_cluster(), placement="tor_pack")
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=4, iterations=6,
                                checkpoint_every=2, storage="ckpt-store"))
        scheduler.fail_rack(0, at_time=0.4, recover_at=1.2)
        result = scheduler.run()
        assert [e["resource"] for e in kinds(result, "tor_failure")] == ["tor0-uplink"]
        assert [e["resource"] for e in kinds(result, "tor_recovered")] == ["tor0-uplink"]
        profile = scheduler.engine.resource_timeline("tor0-uplink").capacity_profile()
        assert [at for at, _factor in profile] == [0.4, 1.2]
        assert profile[0][1] == pytest.approx(ClusterScheduler.TOR_DOWN_GBPS / 1.0)
        assert profile[1][1] == pytest.approx(1.0)  # back to nominal

    def test_fail_tor_cuts_the_uplink_but_keeps_gpus_alive(self):
        def run(fail):
            # One job spanning both racks: its all-reduce crosses tor0-uplink.
            scheduler = ClusterScheduler(two_rack_cluster(), placement="round_robin")
            scheduler.submit(SimJob("a", make_cost_model(), num_workers=8,
                                    iterations=6))
            if fail:
                scheduler.fail_tor(0, at_time=0.4, recover_at=2.0)
            return scheduler.run()

        clean, failed = run(fail=False), run(fail=True)
        assert failed.jobs["a"].failures == 0  # no GPU ever went down
        assert not kinds(failed, "domain_failure")
        assert kinds(failed, "tor_failure") and kinds(failed, "tor_recovered")
        assert failed.makespan > clean.makespan  # the stall is real

    def test_fail_tor_requires_per_tor_fabric(self):
        scheduler = ClusterScheduler(Cluster(ClusterSpec(num_machines=2)))
        with pytest.raises(ValueError, match="per-ToR fabric"):
            scheduler.fail_tor(0, at_time=1.0)

    def test_domain_knobs_validate_references_and_times(self):
        scheduler = ClusterScheduler(two_rack_cluster())
        with pytest.raises(KeyError, match="unknown machine 'node9'"):
            scheduler.fail_machine("node9", at_time=1.0)
        with pytest.raises(KeyError):
            scheduler.fail_rack(7, at_time=1.0)
        with pytest.raises(ValueError, match="recover_at must come after"):
            scheduler.fail_machine("node0", at_time=2.0, recover_at=2.0)


# --------------------------------------------------------------------------- #
# Degraded links
# --------------------------------------------------------------------------- #
class TestDegradedLinks:
    def _run(self, degrade):
        scheduler = ClusterScheduler(two_rack_cluster(), placement="round_robin")
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=8, iterations=8))
        if degrade:
            scheduler.degrade_link("core", gbps=0.05, at_time=0.5, restore_at=3.0)
        return scheduler.run()

    def test_degraded_core_slows_cross_rack_job_then_restores(self):
        clean, degraded = self._run(False), self._run(True)
        assert degraded.makespan > clean.makespan
        assert [e["resource"] for e in kinds(degraded, "link_degraded")] == ["core"]
        assert [e["resource"] for e in kinds(degraded, "link_restored")] == ["core"]
        # Payload bytes are untouched by the re-quote: the job moved the
        # same traffic through the core either way.
        assert degraded.resources["core"]["total_bytes"] == \
            clean.resources["core"]["total_bytes"]

    def test_degrade_link_validates_name_and_capacity(self):
        scheduler = ClusterScheduler(two_rack_cluster())
        with pytest.raises(KeyError):
            scheduler.degrade_link("no-such-link", gbps=0.1, at_time=1.0)
        with pytest.raises(ValueError, match="must be positive"):
            scheduler.degrade_link("core", gbps=0.0, at_time=1.0)
        with pytest.raises(ValueError, match="recover_at must come after"):
            scheduler.degrade_link("core", gbps=0.1, at_time=2.0, restore_at=1.0)


# --------------------------------------------------------------------------- #
# Spot capacity: notices, proactive checkpoints, backoff
# --------------------------------------------------------------------------- #
class TestSpotCapacity:
    #: Clean per-iteration seconds for this job shape, measured once so the
    #: fault times below always land mid-run (the sim is deterministic).
    _iteration_seconds = None

    @classmethod
    def _cluster(cls):
        # Fast checkpoint path (the NIC caps storage writes): the proactive
        # write must drain inside the notice window for the snapshot to
        # survive the eviction (the notice-shorter-than-drain case is
        # covered by the drop path below).
        return two_rack_cluster(nic_gbps=20.0, storage_gbps=20.0)

    @classmethod
    def _iteration(cls):
        if cls._iteration_seconds is None:
            scheduler = ClusterScheduler(cls._cluster(), placement="tor_pack")
            scheduler.submit(SimJob("a", make_cost_model(), num_workers=2,
                                    iterations=10, storage="ckpt-store"))
            cls._iteration_seconds = scheduler.run().jobs["a"].finish_time / 10
        return cls._iteration_seconds

    def _run(self, notice_seconds, checkpoint_every=None):
        step = self._iteration()
        scheduler = ClusterScheduler(self._cluster(), placement="tor_pack")
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=2, iterations=10,
                                checkpoint_every=checkpoint_every,
                                storage="ckpt-store"))
        scheduler.mark_preemptible(["node0:gpu0"],
                                   notice_seconds=notice_seconds * step)
        # Evict mid-run (~5.5 iterations in); the notice, when configured,
        # fires notice_seconds iterations earlier — long enough for the
        # proactive write to drain before the eviction lands.
        scheduler.evict_spot("node0:gpu0", at_time=5.5 * step,
                             rejoin_at=7.5 * step)
        return scheduler.run()

    def test_eviction_counts_separately_from_hard_failures(self):
        result = self._run(notice_seconds=0.0)
        record = result.jobs["a"]
        assert record.evictions == 1
        assert record.failures == 0
        assert record.iterations_done == 10
        assert kinds(result, "spot_evicted") and kinds(result, "job_evicted")
        assert not kinds(result, "spot_notice")  # unannounced

    def test_proactive_checkpoint_bounds_lost_work_to_the_notice_window(self):
        step = self._iteration()
        proactive = self._run(notice_seconds=3.0)
        reactive = self._run(notice_seconds=0.0)
        restart_of = lambda result: kinds(result, "job_evicted")[0]["restart_iteration"]
        # Without a notice (and without periodic checkpoints) the job
        # restarts from scratch; the proactive write preserves progress.
        assert restart_of(reactive) == 0
        assert restart_of(proactive) > restart_of(reactive)
        assert proactive.makespan < reactive.makespan
        notice = kinds(proactive, "spot_notice")[0]
        ckpt = kinds(proactive, "proactive_checkpoint")[0]
        assert notice["evict_at"] == pytest.approx(5.5 * step)
        assert ckpt["iteration"] == restart_of(proactive)
        # The resume lost at most the iterations still in flight during the
        # notice window, not a whole checkpoint interval.
        evicted_at = kinds(proactive, "job_evicted")[0]["time"]
        done_at_notice = ckpt["iteration"]
        assert evicted_at - notice["time"] == pytest.approx(3.0 * step)
        assert proactive.jobs["a"].checkpoints_taken >= 1
        assert done_at_notice >= 1

    def test_notice_beats_periodic_checkpoint_interval(self):
        # With sparse periodic checkpoints the proactive write still wins:
        # it snapshots *current* progress, not the last multiple of 4.
        proactive = self._run(notice_seconds=3.0, checkpoint_every=4)
        reactive = self._run(notice_seconds=0.0, checkpoint_every=4)
        restart_of = lambda result: kinds(result, "job_evicted")[0]["restart_iteration"]
        assert restart_of(proactive) >= restart_of(reactive)
        assert proactive.makespan <= reactive.makespan

    def test_notice_shorter_than_the_drain_drops_the_snapshot(self):
        # On slow storage the proactive write cannot finish inside the
        # notice window; the eviction invalidates it and the job restarts
        # from its last durable checkpoint (none here) — the documented
        # failure mode of too-short notices.
        scheduler = ClusterScheduler(two_rack_cluster(), placement="tor_pack")
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=2,
                                iterations=10, storage="ckpt-store"))
        step = 0.04335  # clean per-iteration seconds on the 1 Gbps cluster
        scheduler.mark_preemptible(["node0:gpu0"], notice_seconds=3.0 * step)
        scheduler.evict_spot("node0:gpu0", at_time=5.5 * step, rejoin_at=7.5 * step)
        result = scheduler.run()
        assert kinds(result, "proactive_checkpoint")  # the write was attempted
        assert kinds(result, "checkpoint_dropped")    # ...but never drained
        assert kinds(result, "job_evicted")[0]["restart_iteration"] == 0
        assert result.jobs["a"].iterations_done == 10

    def test_simultaneous_notices_on_one_job_write_one_snapshot(self):
        # Both spot GPUs of one job get their notice at the same instant:
        # the first notice snapshots the job, the second finds that write
        # already queued this instant and adds none.
        step = self._iteration()
        scheduler = ClusterScheduler(self._cluster(), placement="tor_pack")
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=2, iterations=10,
                                storage="ckpt-store"))
        gpus = ["node0:gpu0", "node0:gpu1"]
        scheduler.mark_preemptible(gpus, notice_seconds=3.0 * step)
        for gpu in gpus:
            scheduler.evict_spot(gpu, at_time=5.5 * step, rejoin_at=7.5 * step)
        result = scheduler.run()
        notices = kinds(result, "spot_notice")
        assert [notice["job"] for notice in notices] == ["a", "a"]
        assert notices[0]["time"] == notices[1]["time"]
        assert len(kinds(result, "proactive_checkpoint")) == 1
        assert len(kinds(result, "checkpoint")) == 1  # the one ckpt_done commit
        assert result.jobs["a"].checkpoints_taken == 1
        assert result.jobs["a"].iterations_done == 10

    def test_evict_spot_requires_mark_preemptible(self):
        scheduler = ClusterScheduler(two_rack_cluster())
        with pytest.raises(ValueError, match="not marked preemptible"):
            scheduler.evict_spot("node0:gpu0", at_time=1.0)
        with pytest.raises(ValueError, match="notice_seconds"):
            scheduler.mark_preemptible(["node0:gpu0"], notice_seconds=-1.0)


class TestRestartBackoff:
    #: Clean per-iteration seconds for the single-GPU job shape, so failure
    #: times below always land mid-run.
    _step = None

    @classmethod
    def _scheduler(cls):
        cluster = Cluster(ClusterSpec(num_machines=1, gpus_per_machine=1,
                                      nic_gbps=1.0, tor_uplink_gbps=1.0))
        scheduler = ClusterScheduler(cluster)
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=1, iterations=6))
        return scheduler

    @classmethod
    def step(cls):
        if cls._step is None:
            cls._step = cls._scheduler().run().jobs["a"].finish_time / 6
        return cls._step

    def test_backoff_escalates_with_cap_and_delays_requeue(self):
        step = self.step()
        scheduler = self._scheduler()
        scheduler.set_restart_backoff(base_seconds=3 * step, cap_seconds=4.5 * step)
        # The second failure lands after the re-queue but before a single
        # iteration completes, so the attempt counter escalates.
        scheduler.inject_failure("node0:gpu0", at_time=1.5 * step, recover_at=1.7 * step)
        scheduler.inject_failure("node0:gpu0", at_time=5.0 * step, recover_at=5.2 * step)
        result = scheduler.run()
        backoffs = kinds(result, "restart_backoff")
        assert [entry["attempt"] for entry in backoffs] == [1, 2]
        assert backoffs[0]["delay"] == pytest.approx(3 * step)    # base
        assert backoffs[1]["delay"] == pytest.approx(4.5 * step)  # min(2*base, cap)
        requeued = kinds(result, "job_requeued")
        assert len(requeued) == 2
        for backoff, requeue in zip(backoffs, requeued):
            assert requeue["time"] == pytest.approx(backoff["time"] + backoff["delay"])
        assert result.jobs["a"].iterations_done == 6

    def test_completed_iteration_resets_the_attempt_counter(self):
        step = self.step()
        scheduler = self._scheduler()
        scheduler.set_restart_backoff(base_seconds=3 * step, cap_seconds=24 * step)
        scheduler.inject_failure("node0:gpu0", at_time=1.5 * step, recover_at=1.7 * step)
        # Well after re-placement at 4.5*step: iterations completed in
        # between, so the second failure starts a fresh backoff series.
        scheduler.inject_failure("node0:gpu0", at_time=7.0 * step, recover_at=7.2 * step)
        result = scheduler.run()
        assert [e["attempt"] for e in kinds(result, "restart_backoff")] == [1, 1]
        assert result.jobs["a"].iterations_done == 6

    def test_without_backoff_failed_jobs_requeue_immediately(self):
        step = self.step()
        scheduler = self._scheduler()
        scheduler.inject_failure("node0:gpu0", at_time=1.5 * step, recover_at=1.7 * step)
        result = scheduler.run()
        assert not kinds(result, "restart_backoff")
        assert result.jobs["a"].iterations_done == 6

    def test_backoff_parameters_are_validated(self):
        scheduler = self._scheduler()
        with pytest.raises(ValueError, match="base_seconds > 0"):
            scheduler.set_restart_backoff(0.0, 1.0)
        with pytest.raises(ValueError, match="cap_seconds >= base_seconds"):
            scheduler.set_restart_backoff(2.0, 1.0)


# --------------------------------------------------------------------------- #
# Plan parsing and build-time validation
# --------------------------------------------------------------------------- #
class TestParseFaults:
    def _cluster(self):
        return two_rack_cluster()

    def test_events_merge_sorted_with_policy(self):
        plan = parse_faults({
            "events": [
                {"kind": "spot_evict", "at_time": 3.0, "target": "node1:gpu0"},
                {"kind": "degrade_link", "at_time": 1.0, "target": "core", "gbps": 0.2},
                {"kind": "fail_rack", "at_time": 1.0, "target": 0, "recover_at": 2.0},
            ],
            "spot": {"gpus": ["node1:gpu0"], "notice_seconds": 0.5},
            "backoff": {"base_seconds": 0.25, "cap_seconds": 4.0},
        }, self._cluster())
        assert [e.kind for e in plan.events] == ["degrade_link", "fail_rack",
                                                 "spot_evict"]
        assert plan.spot_gpus == ("node1:gpu0",)
        assert plan.notice_seconds == 0.5
        assert plan.backoff == (0.25, 4.0)
        view = plan.as_dict()
        assert view["spot"] == {"gpus": ["node1:gpu0"], "notice_seconds": 0.5}
        assert json.dumps(view, sort_keys=True)  # plain data, serializable

    @pytest.mark.parametrize("spec, message", [
        ({"bogus": 1}, r"faults: unknown key 'bogus'"),
        ({"events": [{"kind": "melt", "at_time": 1.0, "target": "x"}]},
         r"unknown fault kind 'melt'"),
        ({"events": [{"kind": "fail_gpu", "at_time": 1.0, "target": "nope"}]},
         r"unknown GPU 'nope'"),
        ({"events": [{"kind": "fail_gpu", "at_time": 1.0, "target": "node0:gpu0",
                      "recover_at": 0.5}]},
         r"recover_at \(0.5\) must come after at_time \(1.0\)"),
        ({"events": [{"kind": "fail_rack", "at_time": 1.0, "target": "east"}]},
         r"fail_rack target must be a ToR index"),
        ({"events": [{"kind": "degrade_link", "at_time": 1.0, "target": "core"}]},
         r"degrade_link needs a positive 'gbps'"),
        ({"events": [{"kind": "degrade_link", "at_time": 1.0, "target": "no-link",
                      "gbps": 0.5}]},
         r"unknown resource 'no-link'"),
        ({"events": [{"kind": "fail_gpu", "at_time": 1.0, "target": "node0:gpu0",
                      "gbps": 0.5}]},
         r"'gbps' only applies to degrade_link"),
        ({"events": [{"kind": "spot_evict", "at_time": 1.0, "target": "node0:gpu0"}]},
         r"not\s+in faults.spot.gpus"),
        ({"spot": {"gpus": []}}, r"non-empty list of GPU names"),
        ({"spot": {"gpus": ["ghost:gpu9"]}}, r"unknown GPU 'ghost:gpu9'"),
        ({"spot": {"gpus": ["node0:gpu0"], "notice_seconds": -1}},
         r"notice_seconds must be non-negative"),
        ({"backoff": {"base_seconds": 1.0}}, r"missing key"),
        ({"backoff": {"base_seconds": 0.0, "cap_seconds": 1.0}},
         r"base_seconds > 0"),
        ({"seed": 1}, r"needs both 'seed' and 'horizon_seconds'"),
        ({"seed": 1, "horizon_seconds": 5.0},
         r"exactly one of 'mttf_seconds' or 'mttf_hours'"),
        ({"seed": 1, "horizon_seconds": 5.0, "mttf_seconds": 1.0,
          "mttf_hours": 1.0},
         r"exactly one of 'mttf_seconds' or 'mttf_hours'"),
        ({"mttr_seconds": 5.0},
         r"only apply to a stochastic stream"),
    ])
    def test_pointed_errors_at_build_time(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_faults(spec, self._cluster())

    def test_machine_and_rack_targets_validated_against_topology(self):
        with pytest.raises(KeyError, match="node9"):
            parse_faults({"events": [{"kind": "fail_machine", "at_time": 1.0,
                                      "target": "node9"}]}, self._cluster())
        with pytest.raises(KeyError):
            parse_faults({"events": [{"kind": "fail_rack", "at_time": 1.0,
                                      "target": 7}]}, self._cluster())

    def test_fail_tor_rejected_without_per_tor_fabric(self):
        flat = Cluster(ClusterSpec(num_machines=2))
        with pytest.raises(ValueError, match="per_tor_fabric"):
            parse_faults({"events": [{"kind": "fail_tor", "at_time": 1.0,
                                      "target": 0}]}, flat)

    def test_mttf_hours_is_a_scaled_alias(self):
        base = {"seed": 7, "horizon_seconds": 3600.0}
        cluster = self._cluster()
        seconds = parse_faults(dict(base, mttf_seconds=1800.0), cluster)
        hours = parse_faults(dict(base, mttf_hours=0.5), cluster)
        assert seconds == hours


class TestGenerator:
    def test_same_seed_same_stream(self):
        cluster = two_rack_cluster()
        streams = [generate_fault_events(seed=99, horizon_seconds=20.0,
                                         cluster=cluster, mttf_seconds=1.0,
                                         mttr_seconds=2.0,
                                         domains=("gpu", "machine", "rack", "link"))
                   for _ in range(2)]
        assert streams[0] == streams[1]
        assert streams[0]  # a 20s horizon at MTTF 1s is never empty

    def test_stream_respects_horizon_and_domains(self):
        cluster = two_rack_cluster()
        events = generate_fault_events(seed=3, horizon_seconds=15.0,
                                       cluster=cluster, mttf_seconds=0.5,
                                       mttr_seconds=1.0,
                                       domains=("gpu", "link"),
                                       link_gbps_factor=0.25)
        assert all(0.0 <= e.at_time < 15.0 for e in events)
        assert all(e.at_time <= later.at_time
                   for e, later in zip(events, events[1:]))
        assert {e.kind for e in events} <= {"fail_gpu", "degrade_link"}
        for event in events:
            assert event.recover_at is not None and event.recover_at > event.at_time
            if event.kind == "degrade_link":
                nominal = cluster.resources[event.target].bandwidth_gbps
                assert event.gbps == pytest.approx(nominal * 0.25)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(horizon_seconds=0.0), "horizon_seconds must be positive"),
        (dict(mttf_seconds=0.0), "mttf_seconds must be positive"),
        (dict(mttr_seconds=-1.0), "mttr_seconds must be positive"),
        (dict(link_gbps_factor=1.5), r"link_gbps_factor must be in \(0, 1\)"),
        (dict(domains=()), "at least one failure domain"),
        (dict(domains=("weather",)), "unknown failure domain 'weather'"),
        (dict(domains=("spot",)), "needs faults.spot.gpus"),
    ])
    def test_generator_validates_inputs(self, kwargs, message):
        defaults = dict(seed=1, horizon_seconds=10.0, cluster=two_rack_cluster(),
                        mttf_seconds=1.0)
        defaults.update(kwargs)
        with pytest.raises(ValueError, match=message):
            generate_fault_events(**defaults)

    def test_tor_domain_requires_fabric(self):
        flat = Cluster(ClusterSpec(num_machines=2))
        with pytest.raises(ValueError, match="per_tor_fabric"):
            generate_fault_events(seed=1, horizon_seconds=10.0, cluster=flat,
                                  mttf_seconds=1.0, domains=("tor",))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_seed_yields_a_valid_reproducible_stream(self, seed):
        cluster = two_rack_cluster()
        first = generate_fault_events(seed=seed, horizon_seconds=10.0,
                                      cluster=cluster, mttf_seconds=1.0,
                                      mttr_seconds=2.0,
                                      domains=("gpu", "machine", "rack", "tor",
                                               "link", "spot"),
                                      spot_gpus=("node1:gpu0",))
        second = generate_fault_events(seed=seed, horizon_seconds=10.0,
                                       cluster=cluster, mttf_seconds=1.0,
                                       mttr_seconds=2.0,
                                       domains=("gpu", "machine", "rack", "tor",
                                                "link", "spot"),
                                       spot_gpus=("node1:gpu0",))
        assert first == second
        for index, event in enumerate(first):
            # Every generated event passes the same validation explicit
            # scenario events do.
            from repro.sim.faults import _validate_event
            _validate_event(event, cluster, ("node1:gpu0",), f"generated[{index}]")


# --------------------------------------------------------------------------- #
# Scenario integration and determinism
# --------------------------------------------------------------------------- #
_STORM_SPEC = {
    "cluster": {"num_machines": 4, "gpus_per_machine": 2, "num_tor_switches": 2,
                "nic_gbps": 1.0, "tor_uplink_gbps": 1.0, "core_gbps": 0.5,
                "per_tor_fabric": True},
    "placement": "tor_pack",
    "jobs": [
        {"name": "a", "modules": [400000, 800000, 600000], "batch_size": 4,
         "num_workers": 4, "iterations": 8, "checkpoint_every": 4,
         "storage": "ckpt-store"},
        {"name": "b", "modules": [500000, 500000, 500000], "batch_size": 4,
         "num_workers": 2, "iterations": 8, "arrival_time": 0.3,
         "checkpoint_every": 4, "storage": "ckpt-store"},
    ],
    "faults": {
        "events": [
            {"kind": "fail_rack", "at_time": 1.1, "target": 0, "recover_at": 2.6},
            {"kind": "degrade_link", "at_time": 0.8, "target": "tor1-uplink",
             "gbps": 0.25, "recover_at": 2.0},
            {"kind": "spot_evict", "at_time": 3.0, "target": "node3:gpu1",
             "recover_at": 4.5},
        ],
        "spot": {"gpus": ["node3:gpu1"], "notice_seconds": 0.5},
        "backoff": {"base_seconds": 0.2, "cap_seconds": 2.0},
        "seed": 1234, "horizon_seconds": 6.0, "mttf_seconds": 1.5,
        "mttr_seconds": 2.5, "domains": ["gpu", "machine", "link"],
    },
}


class TestScenarioIntegration:
    def test_fault_storm_scenario_is_bit_reproducible(self):
        first = run_scenario(_STORM_SPEC, include_trace=True)
        second = run_scenario(_STORM_SPEC, include_trace=True)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        trace_kinds = {entry["kind"] for entry in first["trace"]}
        # All three fault families fired in one run.
        assert {"domain_failure", "link_degraded", "spot_evicted",
                "proactive_checkpoint"} <= trace_kinds
        assert all(rec["iterations_done"] == 8 for rec in first["jobs"].values())

    def test_fault_storm_is_sanitizer_clean_and_identical(self, monkeypatch):
        plain = run_scenario(_STORM_SPEC)
        monkeypatch.setenv("REPRO_SIMSAN", "1")
        sanitized = run_scenario(_STORM_SPEC)
        assert json.dumps(plain, sort_keys=True) == \
            json.dumps(sanitized, sort_keys=True)

    def test_scenario_faults_errors_point_at_the_offending_event(self):
        spec = json.loads(json.dumps(_STORM_SPEC))
        spec["faults"]["events"][2]["target"] = "ghost:gpu9"
        with pytest.raises(ValueError, match=r"faults.events\[\d+\]"):
            run_scenario(spec)

    def test_resume_without_preempt_is_rejected_at_build_time(self):
        spec = {"jobs": [{"name": "a", "modules": [1000], "iterations": 2}],
                "resumes": [{"job": "a", "at_time": 2.0}]}
        with pytest.raises(ValueError, match="no\\s+matching entry in 'preemptions'"):
            run_scenario(spec)

    def test_resume_at_or_before_preempt_is_rejected_at_build_time(self):
        spec = {"jobs": [{"name": "a", "modules": [1000], "iterations": 2}],
                "preemptions": [{"job": "a", "at_time": 2.0}],
                "resumes": [{"job": "a", "at_time": 2.0}]}
        with pytest.raises(ValueError, match="must come\\s+after its first preemption"):
            run_scenario(spec)

    def test_preview_faults_expands_the_stochastic_stream(self):
        preview = preview_faults(_STORM_SPEC)
        assert preview["cluster"] == {"machines": 4, "gpus": 8,
                                      "per_tor_fabric": True}
        assert preview["num_events"] == len(preview["events"])
        assert preview["num_events"] > 3  # explicit events plus generated ones
        assert preview == preview_faults(_STORM_SPEC)  # previews are pure

    def test_spot_evicted_trainer_job_replays_to_identical_weights(self):
        """Eviction + proactive checkpoint costs time, never correctness.

        The resume restores the live trainer from the proactive snapshot and
        re-seeks the data loader, so the re-executed iterations reproduce
        the clean run exactly — weights and all (the single-GPU failure
        variant lives in ``tests/test_sim_resources.py``).
        """
        import numpy as np

        from repro.ckpt import CheckpointManager, MemoryBackend
        from repro.core import ClassificationTask, TrainerJob
        from repro.baselines import VanillaTrainer
        from repro.data import DataLoader, make_dataset
        from repro import models, optim
        from repro.sim import EventDrivenEngine, paper_testbed_cluster

        def run(evict):
            full = make_dataset("synthetic_cifar10", num_samples=48, num_classes=4,
                                image_size=8, noise=0.8, seed=0)
            train_ds, _eval_ds = full.split(eval_fraction=0.25)
            model = models.resnet8(num_classes=4, width=0.5, seed=0)
            trainer = VanillaTrainer(model, ClassificationTask(),
                                     DataLoader(train_ds, batch_size=8, seed=0),
                                     None, optim.SGD(model.parameters(), lr=0.1,
                                                     momentum=0.9))
            manager = CheckpointManager(MemoryBackend())
            trainer.configure_checkpointing(manager, checkpoint_every=1)
            job = TrainerJob("t", trainer, iterations=8, num_workers=2,
                             checkpoint_every=2)
            cluster = paper_testbed_cluster()
            scheduler = ClusterScheduler(cluster)
            scheduler.submit(job)
            if evict:
                nominal = EventDrivenEngine(paper_testbed_cluster()).simulate_iteration(
                    trainer.cost_model,
                    workers=paper_testbed_cluster().workers(1, 2)).total
                scheduler.mark_preemptible(["node0:gpu0"],
                                           notice_seconds=nominal * 1.5)
                scheduler.evict_spot("node0:gpu0", at_time=nominal * 4.5,
                                     rejoin_at=nominal * 6.0)
            return trainer, scheduler.run()

        clean_trainer, clean = run(evict=False)
        evicted_trainer, evicted = run(evict=True)
        assert evicted.jobs["t"].evictions == 1
        assert evicted.jobs["t"].failures == 0
        assert evicted.jobs["t"].iterations_done == 8
        assert evicted_trainer.iteration == 8
        assert evicted.makespan > clean.makespan
        clean_state = clean_trainer.model.state_dict()
        evicted_state = evicted_trainer.model.state_dict()
        assert all(np.array_equal(clean_state[key], evicted_state[key])
                   for key in clean_state)

    def test_apply_fault_plan_arms_every_knob(self):
        cluster = two_rack_cluster()
        scheduler = ClusterScheduler(cluster, placement="tor_pack")
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=2, iterations=6,
                                storage="ckpt-store"))
        plan = FaultPlan(
            events=(FaultEvent("degrade_link", 0.5, "core", recover_at=1.5, gbps=0.1),
                    FaultEvent("fail_machine", 0.8, "node0", recover_at=1.2),
                    FaultEvent("spot_evict", 2.5, "node2:gpu0", recover_at=3.0)),
            spot_gpus=("node2:gpu0",), notice_seconds=0.3, backoff=(0.1, 0.4))
        apply_fault_plan(scheduler, plan)
        result = scheduler.run()
        observed = {entry["kind"] for entry in result.trace}
        assert {"link_degraded", "link_restored", "domain_failure",
                "spot_evicted"} <= observed
        assert result.jobs["a"].iterations_done == 6


# --------------------------------------------------------------------------- #
# The tables: heap kinds -> handlers, fault kinds -> scheduler knobs
# --------------------------------------------------------------------------- #
class TestEventTables:
    def test_every_pushed_kind_has_exactly_one_handler(self):
        """The kinds ``_push`` is given anywhere in the scheduler package are
        the table's keys."""
        pushed = []
        for module in scheduler_modules():
            tree = ast.parse(inspect.getsource(module))
            pushed += [node.args[1] for node in ast.walk(tree)
                       if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                       and node.func.attr == "_push"]
        assert pushed and all(isinstance(kind, ast.Constant) for kind in pushed)
        kinds = ClusterScheduler._KINDS
        assert {kind.value for kind in pushed} == set(kinds)
        assert len({row.handler for row in kinds.values()}) == len(kinds)

    def test_every_reach_is_a_payload_field_of_its_own_handler(self):
        for kind, row in ClusterScheduler._KINDS.items():
            fields = tuple(inspect.signature(row.handler).parameters)[1:-1]
            assert row.fields == fields, kind
            assert row.reach is None or row.reach in fields, kind
        assert [kind for kind, row in ClusterScheduler._KINDS.items()
                if row.reach is None] == ["link_set_capacity"]

    @pytest.mark.parametrize("reach", ["gpu_name", "label"])
    def test_a_reach_the_handler_lacks_fails_when_the_table_is_built(self, reach):
        """``gpus_down``'s handler has no ``gpu_name`` field, and its
        ``label`` names no job or GPU: the row is refused when it is made."""
        handler = ClusterScheduler._KINDS["gpus_down"].handler
        with pytest.raises(ValueError, match=repr(reach)):
            scheduler_loop._Kind(handler, reach)

    def test_a_scheduler_is_freed_without_the_cyclic_collector(self):
        """A per-instance table of bound handlers ties each scheduler into a
        cycle: ``sim_fault_storm`` then peaks at 78 MB instead of 63 MB."""
        scheduler = ClusterScheduler(two_rack_cluster())
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=2, iterations=3))
        scheduler.inject_failure("node0:gpu0", 0.1, recover_at=0.2)
        gc.disable()
        try:
            scheduler.run()
            alive = weakref.ref(scheduler)
            del scheduler
            assert alive() is None
        finally:
            gc.enable()

    def test_unknown_heap_kind_raises(self):
        """The ``if/elif`` chain dropped a kind it did not know without a word."""
        scheduler = ClusterScheduler(two_rack_cluster())
        scheduler._push(1.0, "meteor", ("node0",))
        with pytest.raises(KeyError, match="meteor"):
            scheduler.run()

    def test_cause_table_counts_on_real_record_fields(self):
        fields = {field.name for field in dataclasses.fields(JobRecord)}
        assert {cause.counter for cause in scheduler_loop._CAUSES.values()} <= fields

    def test_every_fault_kind_names_a_scheduler_knob_and_a_domain(self):
        assert all(callable(getattr(ClusterScheduler, row.method))
                   for row in FAULT_KINDS.values())
        domains = [row.domain for row in FAULT_KINDS.values()]
        assert len(set(domains)) == len(domains)

    def test_one_event_of_every_kind_drawn_from_the_table_runs(self):
        """The table is a vocabulary: a target from each row's pool parses,
        arms its knob and leaves its decision in the log."""
        cluster = two_rack_cluster()
        spot = ["node3:gpu1"]
        events = [{"kind": kind, "at_time": 0.5 + index, "recover_at": 0.9 + index,
                   "target": row.pool(cluster, spot)[-1], **({"gbps": 0.1} if row.gbps else {})}
                  for index, (kind, row) in enumerate(FAULT_KINDS.items())]
        plan = parse_faults({"events": events, "spot": {"gpus": spot}}, cluster)
        assert [event.kind for event in plan.events] == list(FAULT_KINDS)
        scheduler = ClusterScheduler(cluster)
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=8, iterations=40))
        apply_fault_plan(scheduler, plan)
        observed = {entry["kind"] for entry in scheduler.run().trace}
        assert {"gpu_failure", "gpu_recovered", "domain_failure", "domain_recovered",
                "tor_failure", "tor_recovered", "link_degraded", "link_restored",
                "spot_evicted", "job_failed", "job_evicted"} <= observed


#: Each package's exact export list: the names code outside the tests imports
#: from the package root (tests import the rest from their submodules).
PACKAGE_EXPORTS = {
    "repro.sim": {
        "AllReduceModel", "Cluster", "ClusterScheduler", "ClusterSpec", "CostModel",
        "EventDrivenEngine", "SchedulePolicy", "SimJob", "SimSanitizer", "diff_profiles",
        "paper_testbed_cluster", "preview_faults", "profile_scenario", "run_scenario",
        "run_sweep"},
    "repro.core": {
        "ActivationCache", "BaseTrainer", "ClassificationTask", "EgeriaConfig",
        "EgeriaController", "EgeriaTrainer", "EgeriaWorker", "FreezingEngine", "Prefetcher",
        "ReferenceModel", "TaskAdapter", "TrainerJob", "parse_layer_modules", "sp_loss"},
    "repro.nn": {
        "AdaptiveAvgPool2d", "BasicBlock", "BatchNorm2d", "Bottleneck", "Conv2d", "ConvBNReLU",
        "Dropout", "Embedding", "Flatten", "GELU", "InvertedResidual", "LayerNorm", "Linear",
        "MaxPool2d", "Module", "ModuleList", "MultiHeadAttention", "PositionalEncoding", "ReLU",
        "Sequential", "SpanExtractionLoss", "Tensor", "TransformerDecoderLayer",
        "TransformerEncoderLayer", "concatenate", "cross_entropy", "functional", "init",
        "no_grad", "zeros"},
    "repro.sim.scheduler": {"ClusterScheduler", "JobRecord", "SchedulerResult", "SimJob"},
}


@pytest.mark.parametrize("package", sorted(PACKAGE_EXPORTS))
def test_package_layout(package):
    """Each package exports exactly its listed names, each of which resolves."""
    module = importlib.import_module(package)
    assert sorted(module.__all__) == sorted(PACKAGE_EXPORTS[package])
    assert all(hasattr(module, name) for name in module.__all__)


#: The modules that were over :data:`MODULE_LINE_CAP` when the cap first
#: covered all of ``src/``, each held to its length then.  A ceiling may only
#: go down, and a module that gets under the cap leaves this table.
MODULE_LINE_CEILINGS = {
    "repro/core/trainer.py": 608,
    "repro/sim/engine.py": 1082,
    "repro/sim/resources.py": 1014,
}
MODULE_LINE_CAP = 600


def test_every_src_module_stays_under_its_line_cap():
    root = pathlib.Path(repro.__file__).resolve().parent
    lengths = {path.relative_to(root.parent).as_posix(): len(path.read_text().splitlines())
               for path in root.rglob("*.py")}
    for name, ceiling in MODULE_LINE_CEILINGS.items():
        assert MODULE_LINE_CAP < lengths[name] <= ceiling, name
    over = {name: length for name, length in lengths.items()
            if length > MODULE_LINE_CAP and name not in MODULE_LINE_CEILINGS}
    assert over == {}


class TestStaleCompletions:
    """One generation counter: whatever ends a placement strands the
    ``iteration_done`` (and the draining ``ckpt_done``) it had in flight."""

    SLOW = "node0:gpu1"  # the job's second worker; iterations wait for it

    def _scheduler(self, **job):
        cluster = Cluster(ClusterSpec(num_machines=2, gpus_per_machine=2, storage_gbps=0.01))
        scheduler = ClusterScheduler(cluster)
        scheduler.set_gpu_speed(self.SLOW, 0.05)
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=2, iterations=4, **job))
        return scheduler

    def _run(self, scheduler):
        """Run, returning the result and the ``iteration_done`` payloads ignored."""
        stale = []
        handler = ClusterScheduler._KINDS["iteration_done"].handler

        @functools.wraps(handler)
        def spy(self, *payload):
            committed = handler(self, *payload)
            if not committed:
                stale.append(payload)
            return committed

        scheduler._KINDS = dict(ClusterScheduler._KINDS,
                                iteration_done=scheduler_loop._Kind(spy, "job_name"))
        return scheduler.run(), stale

    @pytest.fixture
    def seconds(self):
        """Length of one (slow) iteration of the undisturbed job."""
        result, stale = self._run(self._scheduler())
        assert not stale
        return result.jobs["a"].iteration_seconds[0]

    @pytest.mark.parametrize("disturb", ["resize", "failure", "preempt_resume"])
    def test_old_iteration_done_is_ignored(self, seconds, disturb):
        scheduler = self._scheduler()
        at = 1.5 * seconds  # inside the second iteration, which ends at 2 * seconds
        if disturb == "resize":
            scheduler.resize_job("a", 1, at_time=at)
        elif disturb == "failure":
            scheduler.inject_failure("node0:gpu0", at_time=at)
        else:
            scheduler.preempt_job("a", at_time=at)
            scheduler.resume_job("a", at_time=1.6 * seconds)
        result, stale = self._run(scheduler)
        assert len(stale) == 1 and stale[0][-1] == pytest.approx(2 * seconds)
        record = result.jobs["a"]
        assert record.iterations_done == 4
        assert result.makespan == record.finish_time > 2 * seconds

    def test_old_iteration_done_after_the_job_finished_is_ignored(self, seconds):
        """Shrinking away the slow worker lets the job finish long before the
        invalidated iteration's quoted end; that event must neither raise nor
        stretch the makespan."""
        scheduler = self._scheduler()
        scheduler.resize_job("a", -1, at_time=3.5 * seconds)
        result, stale = self._run(scheduler)
        assert len(stale) == 1 and stale[0][-1] == pytest.approx(4 * seconds)
        record = result.jobs["a"]
        assert record.iterations_done == 4
        assert result.makespan == record.finish_time < 3.6 * seconds

    def test_async_checkpoint_from_the_old_placement_is_dropped(self, seconds):
        scheduler = self._scheduler(checkpoint_every=1, async_checkpoint=True,
                                    storage="ckpt-store")
        # Iteration 1's snapshot is still draining on the slow store, and the
        # in-flight iteration 2 has its drain queued behind it, when the
        # resize migrates the job (and writes its own checkpoint).
        scheduler.resize_job("a", 1, at_time=1.5 * seconds)
        result, stale = self._run(scheduler)
        assert len(stale) == 1
        assert [entry["iteration"] for entry in kinds(result, "checkpoint_dropped")] == [1, 2]
        assert [entry["iteration"] for entry in kinds(result, "checkpoint")] == [2, 3, 4]
        record = result.jobs["a"]
        assert record.iterations_done == 4
        assert record.checkpoints_taken == 3 + len(kinds(result, "migrate")) == 4
