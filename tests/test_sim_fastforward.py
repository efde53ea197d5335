"""Tests for the steady-state fast-forward layer of the event engine.

Three families of guarantees:

* **Bit-identity** — production (memoized replay, batched commits) produces
  results (totals, per-worker ends, makespans, per-link bytes, checkpoint
  bytes) exactly equal to the references in ``tests/oracles/sim_reference.py``
  — ``PerIterationScheduler`` (one heap event per iteration) and
  ``LiveEngine`` (every iteration event by event) — at the engine, scheduler
  and trainer-backed-job levels, plus a hypothesis property over randomized
  multi-job scenarios.
* **Invalidation matrix** — every dynamics transition forces a live
  re-simulation whose timing differs from the cached steady state: a freeze
  event, an elastic resize, a checkpointed migration, a second job arriving
  on a crossed link, and a cancel/re-flow (preempt + resume).
* **Counters** — ``events_processed`` / ``iterations_fast_forwarded`` /
  ``cache_hit_rate`` surface through the engine, :class:`SchedulerResult`
  and the scenario report.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt import CheckpointManager, MemoryBackend
from repro.core import ClassificationTask
from repro.core.modules import LayerModule
from repro.baselines import VanillaTrainer
from repro.data import DataLoader, make_dataset
from repro import models, optim
from repro.sim import (
    Cluster,
    ClusterScheduler,
    ClusterSpec,
    CostModel,
    EventDrivenEngine,
    SchedulePolicy,
    SimJob,
    TrainerJob,
    paper_testbed_cluster,
    run_scenario,
)
from repro.sim.observe import SimObserver

from oracles.sim_reference import LiveEngine, PerIterationScheduler

#: ``(engine, scheduler)`` classes: production, per-iteration replay, live.
MODES = ((EventDrivenEngine, ClusterScheduler),
         (EventDrivenEngine, PerIterationScheduler),
         (LiveEngine, PerIterationScheduler))


def make_cost_model(param_counts=(4000, 8000, 6000, 4000), batch_size=16):
    modules = [LayerModule(name=f"m{i}", paths=[], blocks=[], num_params=int(c), index=i)
               for i, c in enumerate(param_counts)]
    return CostModel(modules, batch_size=batch_size)


def result_dict(scheduler_result):
    """Scheduler result for equality checks: everything but the perf counters
    (those legitimately differ between the memoized and reference paths)."""
    payload = scheduler_result.as_dict()
    payload.pop("perf")
    return payload


def three_modes(configure, cluster_factory=paper_testbed_cluster, **scheduler_kwargs):
    """``configure(scheduler)`` run batched, per-iteration and live.

    Returns the three :class:`SchedulerResult` s after asserting the
    refinement batched == per-iteration == live on :func:`result_dict`.  The
    batched run is repeated under SimSan and must equal the plain one field
    for field, so SimSan also checks that no batch runs through a barrier
    that reaches its job.
    """
    def run(engine_cls, scheduler_cls, sanitize=None):
        cluster = cluster_factory()
        scheduler = scheduler_cls(cluster, engine=engine_cls(cluster, sanitize=sanitize),
                                  **scheduler_kwargs)
        configure(scheduler)
        return scheduler.run()

    batched, memoized, live = (run(*mode) for mode in MODES)
    assert result_dict(batched) == result_dict(memoized)
    assert result_dict(memoized) == result_dict(live)
    assert run(*MODES[0], sanitize=True).as_dict() == batched.as_dict()
    return batched, memoized, live


# --------------------------------------------------------------------------- #
# Engine-level bit-identity and counters
# --------------------------------------------------------------------------- #
class TestEngineFastForward:
    def test_simulate_run_hits_cache_and_is_bit_identical(self):
        cost_model = make_cost_model()
        reference = LiveEngine()
        memoized = EventDrivenEngine()
        kwargs = dict(frozen_prefix=1, cached_fp=True, include_reference_overhead=True,
                      comm_seconds_per_byte=1e-10)
        expected = [r.as_dict() for r in reference.simulate_run(cost_model, 50, **kwargs)]
        observed = [r.as_dict() for r in memoized.simulate_run(cost_model, 50, **kwargs)]
        assert observed == expected
        assert memoized.iterations_simulated == 1
        assert memoized.iterations_fast_forwarded == 49
        assert reference.iterations_fast_forwarded == 0
        # Fast-forwarded iterations process no events at all.
        assert memoized.events_processed == reference.events_processed // 50
        assert memoized.perf_counters()["cache_hit_rate"] == pytest.approx(49 / 50)

    def test_freeze_event_invalidates_and_changes_timing(self):
        engine = EventDrivenEngine()
        cost_model = make_cost_model()
        steady = engine.simulate_iteration(cost_model, frozen_prefix=0)
        cached = engine.simulate_iteration(cost_model, frozen_prefix=0)
        assert engine.iterations_fast_forwarded == 1
        assert cached.as_dict() == steady.as_dict()
        frozen = engine.simulate_iteration(cost_model, frozen_prefix=2)
        # The freeze event forced a live re-simulation with a new timing.
        assert engine.iterations_simulated == 2
        assert frozen.total < cached.total

    def test_speed_change_invalidates(self):
        cluster = paper_testbed_cluster()
        engine = EventDrivenEngine(cluster)
        workers = cluster.workers(2, 2)
        nominal = engine.simulate_iteration(make_cost_model(), workers=workers)
        engine.simulate_iteration(make_cost_model(), workers=workers)
        assert engine.iterations_fast_forwarded == 1
        engine.set_gpu_speed(workers[0].name, 0.5)
        slowed = engine.simulate_iteration(make_cost_model(), workers=workers)
        assert engine.iterations_simulated == 2
        assert slowed.total > nominal.total

    def test_second_job_on_crossed_link_forces_live_resimulation(self):
        cluster = paper_testbed_cluster()
        engine = EventDrivenEngine(cluster)
        cost_model = make_cost_model()
        workers = cluster.workers(2, 2)

        first = engine.simulate_iteration(cost_model, workers=workers,
                                          link_resource=Cluster.FABRIC, job_name="a")
        second = engine.simulate_iteration(cost_model, workers=workers,
                                           link_resource=Cluster.FABRIC, job_name="a",
                                           start_time=first.end_time)
        assert engine.iterations_fast_forwarded == 1  # quiet link: replayed
        assert second.total == first.total
        # Another job's transfer lands on the fabric, overlapping the next
        # iteration: the quiet-link precondition fails and the iteration is
        # re-simulated with genuinely different timing.
        engine.resource_timeline(Cluster.FABRIC).reserve(
            second.end_time, 10 * first.total, num_bytes=123, job="b")
        contended = engine.simulate_iteration(cost_model, workers=workers,
                                              link_resource=Cluster.FABRIC, job_name="a",
                                              start_time=second.end_time)
        assert engine.iterations_fast_forwarded == 1
        assert engine.iterations_simulated == 2
        assert contended.total > second.total

    def test_cancel_reflow_restores_cache_hits(self):
        cluster = paper_testbed_cluster()
        engine = EventDrivenEngine(cluster)
        cost_model = make_cost_model()
        workers = cluster.workers(2, 2)
        first = engine.simulate_iteration(cost_model, workers=workers,
                                          link_resource=Cluster.FABRIC, job_name="a")
        # Job b books a long future window, then gets cancelled (the
        # re-flow path): the link is quiet again and replays resume.
        engine.resource_timeline(Cluster.FABRIC).reserve(
            first.end_time, 10 * first.total, num_bytes=7, job="b")
        engine.resources.cancel_job("b", first.end_time)
        replayed = engine.simulate_iteration(cost_model, workers=workers,
                                             link_resource=Cluster.FABRIC, job_name="a",
                                             start_time=first.end_time)
        assert engine.iterations_fast_forwarded == 1
        assert replayed.total == first.total

    def test_replay_commits_identical_link_occupancy(self):
        """Fast-forward must not skip the byte audit: per-link windows and
        bytes equal the event-by-event reference exactly."""
        def occupancy(engine_cls):
            cluster = paper_testbed_cluster()
            engine = engine_cls(cluster)
            workers = cluster.workers(2, 2)
            clock = 0.0
            for _ in range(5):
                result = engine.simulate_iteration(make_cost_model(), workers=workers,
                                                   link_resource=Cluster.FABRIC,
                                                   job_name="a", start_time=clock)
                clock = result.end_time
            timeline = engine.resource_timeline(Cluster.FABRIC)
            return [(r.start, r.end, r.num_bytes, r.job, r.kind) for r in timeline.records]

        assert occupancy(EventDrivenEngine) == occupancy(LiveEngine)

    def test_trace_bypasses_cache(self):
        engine = EventDrivenEngine()
        cost_model = make_cost_model()
        engine.simulate_iteration(cost_model)
        trace = []
        engine.simulate_iteration(cost_model, trace=trace, start_time=1.0)
        assert engine.iterations_fast_forwarded == 0
        assert engine.iterations_simulated == 2
        assert trace and trace[0].time >= 1.0

    def test_distinct_cost_models_never_alias(self):
        engine = EventDrivenEngine()
        small = engine.simulate_iteration(make_cost_model((1000, 1000)))
        large = engine.simulate_iteration(make_cost_model((9000, 9000)))
        assert engine.iterations_simulated == 2
        assert large.total > small.total
        # Same structure in a *new* object shares the entry (fingerprinted).
        engine.simulate_iteration(make_cost_model((1000, 1000)))
        assert engine.iterations_fast_forwarded == 1

    def test_swapped_module_list_recomputes_fingerprint(self):
        """The documented contract: swap ``layer_modules`` and the digest is
        recomputed — a same-length swap must not serve the old model's
        cached timing."""
        engine = EventDrivenEngine()
        cost_model = make_cost_model((1000, 2000))
        small = engine.simulate_iteration(cost_model)
        cost_model.layer_modules = make_cost_model((5_000_000, 7_000_000)).layer_modules
        large = engine.simulate_iteration(cost_model)
        assert engine.iterations_simulated == 2
        assert large.total > 100 * small.total

    def test_bare_names_and_gpu_devices_never_share_an_entry(self):
        """String workers price communication as zero; the same names as
        GPUDevices must not hit that comm-free cache entry."""
        cluster = paper_testbed_cluster()
        engine = EventDrivenEngine(cluster)
        devices = cluster.workers(2, 1)
        names = [device.name for device in devices]
        free = engine.simulate_iteration(make_cost_model(), workers=names)
        priced = engine.simulate_iteration(make_cost_model(), workers=devices)
        assert engine.iterations_simulated == 2
        assert free.communication == 0.0
        assert priced.communication > 0.0
        assert priced.total > free.total

    def test_clear_fast_forward_cache(self):
        engine = EventDrivenEngine()
        engine.simulate_iteration(make_cost_model())
        assert engine.perf_counters()["cache_entries"] == 1
        engine.clear_fast_forward_cache()
        assert engine.perf_counters()["cache_entries"] == 0
        engine.simulate_iteration(make_cost_model())
        assert engine.iterations_simulated == 2


# --------------------------------------------------------------------------- #
# Engine-level batched fast-forward: plan (can_fast_forward) + commit (batch)
# --------------------------------------------------------------------------- #
class TestEngineBatchedFastForward:
    def test_can_fast_forward_is_a_pure_precondition_probe(self):
        cluster = paper_testbed_cluster()
        engine = EventDrivenEngine(cluster)
        cost_model = make_cost_model()
        workers = cluster.workers(2, 2)
        kwargs = dict(workers=workers, link_resource=Cluster.FABRIC)
        assert engine.can_fast_forward(cost_model, **kwargs) is None  # cold cache
        first = engine.simulate_iteration(cost_model, job_name="a", **kwargs)
        entry = engine.can_fast_forward(cost_model, start_time=first.end_time, **kwargs)
        assert entry is not None
        # Pure lookup: no counters moved, nothing was committed.
        assert engine.iterations_fast_forwarded == 0
        assert engine.can_fast_forward(cost_model, start_time=first.end_time,
                                       **kwargs) is entry
        # A foreign transfer makes the crossed link non-quiet -> None.
        engine.resource_timeline(Cluster.FABRIC).reserve(
            first.end_time, 10 * first.total, num_bytes=1, job="b")
        assert engine.can_fast_forward(cost_model, start_time=first.end_time,
                                       **kwargs) is None

    def test_batch_matches_per_iteration_replays_exactly(self):
        """The batch returns bare durations; the full results it stands for
        reach an attached observer, and both equal six separate replays."""
        def run(batched):
            cluster = paper_testbed_cluster()
            observer = SimObserver()
            engine = EventDrivenEngine(cluster, observe=observer)
            workers = cluster.workers(2, 2)
            kwargs = dict(workers=workers, link_resource=Cluster.FABRIC, job_name="a")
            seed = engine.simulate_iteration(make_cost_model(), **kwargs)
            if batched:
                durations = engine.fast_forward_batch(make_cost_model(), 6,
                                                      start_time=seed.end_time, **kwargs)
            else:
                durations, clock = [], seed.end_time
                for _ in range(6):
                    durations.append(engine.simulate_iteration(make_cost_model(),
                                                               start_time=clock, **kwargs).total)
                    clock = clock + durations[-1]
            links = [(r.start, r.end, r.num_bytes, r.job, r.kind)
                     for r in engine.resource_timeline(Cluster.FABRIC).records]
            noted = [(job, result, mode) for job, result, mode, _p, _n in observer._iterations]
            return durations, noted, links, engine.iterations_fast_forwarded

        (batch_durations, batch_noted, batch_links, batch_ff) = run(True)
        (loop_durations, loop_noted, loop_links, loop_ff) = run(False)
        assert batch_durations == loop_durations
        assert batch_noted == loop_noted      # totals, per-worker ends, everything
        assert len(batch_noted) == 7 and batch_noted[-1][2] == "replay"
        assert batch_links == loop_links      # byte audit committed identically
        assert batch_ff == loop_ff == 6

    def test_batch_truncates_to_empty_on_a_non_quiet_link(self):
        """The re-quote rule: ``busy_until`` is a monotone high-water mark, so
        any foreign window — even one booked in the future — makes the crossed
        link non-quiet and the batch refuses to replay past it.  The caller
        falls back to live simulation, exactly like per-iteration replay."""
        cluster = paper_testbed_cluster()
        engine = EventDrivenEngine(cluster)
        workers = cluster.workers(2, 2)
        kwargs = dict(workers=workers, link_resource=Cluster.FABRIC, job_name="a")
        seed = engine.simulate_iteration(make_cost_model(), **kwargs)
        engine.resource_timeline(Cluster.FABRIC).reserve(
            seed.end_time + 2 * seed.total, 5 * seed.total, num_bytes=1, job="b")
        replays = engine.fast_forward_batch(make_cost_model(), 10,
                                            start_time=seed.end_time, **kwargs)
        assert replays == []
        assert engine.fast_forward_batches == 0
        assert engine.iterations_fast_forwarded == 0
        # The planning probe agrees with the commit path.
        assert engine.can_fast_forward(make_cost_model(), workers=workers,
                                       link_resource=Cluster.FABRIC,
                                       start_time=seed.end_time) is None

    def test_single_replay_is_not_counted_as_a_batch(self):
        engine = EventDrivenEngine()
        seed = engine.simulate_iteration(make_cost_model())
        replays = engine.fast_forward_batch(make_cost_model(), 1,
                                            start_time=seed.end_time)
        assert len(replays) == 1
        assert engine.fast_forward_batches == 0
        assert engine.iterations_batched == 0
        assert engine.perf_counters()["mean_batch_size"] == 0.0


# --------------------------------------------------------------------------- #
# Scheduler-level invalidation matrix (memoized == reference throughout)
# --------------------------------------------------------------------------- #
class TestSchedulerInvalidationMatrix:
    def _check_transition(self, configure, job_name="a"):
        """The scenario must fast-forward some iterations, re-simulate at the
        transition (timing differs), and stay bit-identical to the reference —
        with batched fast-forward, per-iteration fast-forward, and the live
        event-by-event engine all producing the same result."""
        batched, memoized, _reference = three_modes(configure)
        assert memoized.perf["iterations_fast_forwarded"] > 0
        assert memoized.perf["iterations_simulated"] > 1  # the transition re-simulated
        assert memoized.perf["fast_forward_batches"] == 0  # one event per iteration
        durations = memoized.jobs[job_name].iteration_seconds
        assert len(set(durations)) > 1, "transition did not change iteration timing"
        return batched

    def test_freeze_schedule(self):
        def configure(scheduler):
            scheduler.submit(SimJob("a", make_cost_model(), num_workers=4, iterations=12,
                                    frozen_prefix=lambda i: min(i // 4, 2), cached_fp=True))
        result = self._check_transition(configure)
        # Steady phases really commit as batches (profile changes bound them).
        assert result.perf["fast_forward_batches"] > 0
        assert result.perf["iterations_batched"] > 0

    def test_elastic_resize(self):
        def configure(scheduler):
            job = SimJob("a", make_cost_model(), num_workers=2, iterations=12)
            scheduler.submit(job)
            single = EventDrivenEngine(paper_testbed_cluster()).simulate_iteration(
                make_cost_model(), workers=paper_testbed_cluster().workers(1, 2)).total
            scheduler.resize_job("a", +2, at_time=4.5 * single)
        self._check_transition(configure)

    def test_checkpointed_migration(self):
        def configure(scheduler):
            job = SimJob("a", make_cost_model(), num_workers=2, iterations=12,
                         checkpoint_every=3)
            scheduler.submit(job)
            single = EventDrivenEngine(paper_testbed_cluster()).simulate_iteration(
                make_cost_model(), workers=paper_testbed_cluster().workers(1, 2)).total
            scheduler.resize_job("a", +2, at_time=4.5 * single)
        result = self._check_transition(configure)
        assert result.jobs["a"].restores == 1  # it really migrated

    def test_second_job_arrival_on_shared_link(self):
        # Comm-heavy jobs, so the two all-reduce streams genuinely overlap
        # (and therefore queue) on the shared fabric.
        heavy = (400_000, 800_000, 600_000)

        def configure(scheduler):
            steady = EventDrivenEngine(paper_testbed_cluster()).simulate_iteration(
                make_cost_model(heavy, batch_size=4),
                workers=paper_testbed_cluster().workers(2, 2)).total
            scheduler.submit(SimJob("a", make_cost_model(heavy, batch_size=4),
                                    num_workers=4, iterations=12))
            scheduler.submit(SimJob("b", make_cost_model(heavy, batch_size=4),
                                    num_workers=4, iterations=4,
                                    arrival_time=3.5 * steady))
        self._check_transition(configure)

    def test_preempt_resume_cancel_reflow(self):
        def configure(scheduler):
            scheduler.submit(SimJob("a", make_cost_model(), num_workers=4, iterations=10,
                                    checkpoint_every=2))
            single = EventDrivenEngine(paper_testbed_cluster()).simulate_iteration(
                make_cost_model(), workers=paper_testbed_cluster().workers(2, 2)).total
            scheduler.preempt_job("a", at_time=3.5 * single)
            scheduler.resume_job("a", at_time=6.0 * single)
        result = self._check_transition(configure)
        assert result.jobs["a"].preemptions == 1

    def test_gpu_failure(self):
        def configure(scheduler):
            scheduler.submit(SimJob("a", make_cost_model(), num_workers=4, iterations=10,
                                    checkpoint_every=2))
            single = EventDrivenEngine(paper_testbed_cluster()).simulate_iteration(
                make_cost_model(), workers=paper_testbed_cluster().workers(2, 2)).total
            scheduler.inject_failure("node0:gpu0", at_time=3.5 * single)
        result = self._check_transition(configure)
        assert result.jobs["a"].failures == 1


# --------------------------------------------------------------------------- #
# Concurrent batching: quiet jobs fast-forward past each other
# --------------------------------------------------------------------------- #
def single_iteration_seconds(num_workers=2):
    cluster = paper_testbed_cluster()
    return EventDrivenEngine(cluster).simulate_iteration(
        make_cost_model(), workers=cluster.all_gpus()[:num_workers]).total


#: Comm-heavy modules: their all-reduce windows fill a good part of an iteration.
HEAVY = (40_000, 80_000, 60_000)


def racks_cluster(fabric_policy="fair"):
    """4 machines on 2 ToRs with per-ToR links: ``tor_pack`` keeps a 4-worker
    job on one rack's uplink, so two of them are link-disjoint."""
    return Cluster(ClusterSpec(num_machines=4, gpus_per_machine=2, num_tor_switches=2,
                               per_tor_fabric=True, fabric_policy=fabric_policy))


class TestConcurrentBatching:
    """A steady job's batch runs past other jobs' iteration completions when
    they cannot interact, and only then; a link-free job's batch also runs
    past every barrier outside its reach, and only those.

    Two hand mutants of ``ClusterScheduler`` must (and do) fail this class and
    the property below: a horizon that ignores barriers (``horizon = math.inf``
    in the disjoint branch), and the tie key back to push order (``rank = 0``
    for every event in ``_push``).  So do dropping the empty-queue guard, the
    link-users guard, or the checkpoint store from a job's loads, and setting
    the reach of the ``spot_notice``, ``set_speed``, ``gpus_down``, ``resize``,
    ``preempt`` or ``ckpt_done`` row of ``ClusterScheduler._KINDS`` to ``None``.
    """

    def test_link_free_jobs_batch_past_each_other(self):
        def configure(scheduler):
            for index, counts in enumerate([(4000, 8000, 6000, 4000), (9000, 3000, 5000),
                                            (2000, 2000, 7000, 1000, 3000)]):
                scheduler.submit(SimJob(f"job{index}", make_cost_model(counts),
                                        num_workers=2, iterations=200, checkpoint_every=50))
        batched, memoized, _live = three_modes(configure)
        perf = batched.perf
        # Each job: 1 live iteration, then runs of 48/49 between checkpoint writers.
        assert perf["iterations_simulated"] == memoized.perf["iterations_simulated"] == 3
        assert perf["iterations_batched"] >= 3 * (200 - 2 * 4)
        assert perf["mean_batch_size"] > 40
        assert perf["fast_forward_batches"] <= 3 * 5

    def test_lockstep_async_checkpoints_keep_submission_order(self):
        """The tie hazard: identical jobs finish iterations at the same
        instants, and a batch completion is pushed long before the
        per-iteration event it stands for.  ``b`` must reach the shared
        ``ckpt-store`` before ``a`` at iteration 8 in every mode."""
        def configure(scheduler):
            scheduler.submit(SimJob("b", make_cost_model(), num_workers=2, iterations=40,
                                    checkpoint_every=4, async_checkpoint=True))
            scheduler.submit(SimJob("a", make_cost_model(), num_workers=2, iterations=40,
                                    checkpoint_every=8, async_checkpoint=True))
        batched, _memoized, _live = three_modes(configure)
        assert batched.perf["iterations_batched"] > 40
        assert batched.jobs["a"].finish_time == batched.jobs["b"].finish_time

    @pytest.mark.parametrize("fabric_policy", ["fifo", "fair"])
    def test_link_disjoint_jobs_batch_and_link_sharing_jobs_do_not(self, fabric_policy):
        def configure(scheduler):
            for name in ("a", "b"):
                scheduler.submit(SimJob(name, make_cost_model(HEAVY),
                                        num_workers=4, iterations=60))
        packed, _, _ = three_modes(configure, lambda: racks_cluster(fabric_policy),
                                   placement="tor_pack")
        assert packed.perf["mean_batch_size"] > 20          # one uplink each
        spread, _, _ = three_modes(configure, lambda: racks_cluster(fabric_policy),
                                   placement="round_robin")
        # Both cross both uplinks and the core: the next heap event bounds
        # every batch, which is the other job's completion.
        assert spread.perf["mean_batch_size"] < packed.perf["mean_batch_size"]

    @pytest.mark.parametrize("storage_gbps", [None, 0.2])
    def test_a_link_sharing_job_stalled_in_a_checkpoint_write_bounds_the_batch(self, storage_gbps):
        """While ``c`` drains a synchronous checkpoint the shared fabric looks
        quiet to ``a`` — but ``c``'s next iteration will load it again, so
        ``a`` may batch up to ``c``'s completion and no further."""
        def configure(scheduler):
            scheduler.submit(SimJob("a", make_cost_model(HEAVY), num_workers=4, iterations=60))
            scheduler.submit(SimJob("c", make_cost_model(HEAVY, batch_size=24), num_workers=4,
                                    iterations=40, checkpoint_every=4))
        three_modes(configure, lambda: Cluster(ClusterSpec(
            num_machines=4, gpus_per_machine=2, storage_gbps=storage_gbps)))

    def test_a_finish_that_admits_a_link_sharing_job_bounds_the_batch(self):
        """8 GPUs: ``wide`` has the fabric to itself until the short jobs
        finish and ``queued`` is admitted onto it — a foreign completion that
        places somebody, so the admission queue must be empty to batch past."""
        def configure(scheduler):
            scheduler.submit(SimJob("wide", make_cost_model(), num_workers=4, iterations=60))
            scheduler.submit(SimJob("s0", make_cost_model(), num_workers=1, iterations=12))
            scheduler.submit(SimJob("s1", make_cost_model(), num_workers=1, iterations=14))
            scheduler.submit(SimJob("queued", make_cost_model(), num_workers=4, iterations=30))
        three_modes(configure, lambda: Cluster(ClusterSpec(num_machines=4, gpus_per_machine=2)))

    @pytest.mark.parametrize("param_counts, batch_size", [(HEAVY, 16), ((4_000_000,), 1)])
    def test_a_job_checkpointing_onto_a_crossed_link_is_a_user_of_it(self, param_counts,
                                                                     batch_size):
        """``storage`` may name any resource; a store that is someone's link
        must count as shared or its writes would land inside a batch."""
        def configure(scheduler):
            scheduler.submit(SimJob("a", make_cost_model(HEAVY), num_workers=4, iterations=60,
                                    link="fabric"))
            scheduler.submit(SimJob("b", make_cost_model(param_counts, batch_size=batch_size),
                                    num_workers=2, iterations=90, checkpoint_every=5,
                                    storage="fabric"))
        three_modes(configure)

    @pytest.mark.parametrize("barrier", ["arrival", "queued", "fault", "resize", "preempt",
                                         "set_speed", "backoff"])
    def test_no_batch_runs_past_a_barrier(self, barrier):
        single = single_iteration_seconds()

        def configure(scheduler):
            for index in range(3):
                scheduler.submit(SimJob(f"job{index}", make_cost_model(batch_size=16 + index),
                                        num_workers=2, iterations=60 + 10 * index,
                                        checkpoint_every=16, async_checkpoint=index == 1))
            if barrier == "arrival":
                scheduler.submit(SimJob("late", make_cost_model(), num_workers=2, iterations=20,
                                        arrival_time=20.5 * single))
            elif barrier == "queued":
                # 10 GPUs: the fourth and fifth jobs wait for a foreign finish.
                scheduler.submit(SimJob("wide", make_cost_model(), num_workers=4, iterations=20))
                scheduler.submit(SimJob("tail", make_cost_model(), num_workers=4, iterations=20))
            elif barrier == "fault":
                scheduler.inject_failure("node1:gpu0", at_time=30.5 * single,
                                         recover_at=45.0 * single)
            elif barrier == "resize":
                scheduler.resize_job("job2", +2, at_time=30.5 * single)
            elif barrier == "preempt":
                scheduler.preempt_job("job0", at_time=20.5 * single)
                scheduler.resume_job("job0", at_time=33.0 * single)
            elif barrier == "set_speed":
                scheduler.set_gpu_speed("node2:gpu1", 0.5, at_time=25.5 * single)
            else:
                scheduler.set_restart_backoff(2.0 * single, 8.0 * single)
                scheduler.inject_failure("node0:gpu1", at_time=30.5 * single,
                                         recover_at=31.0 * single)
        batched, _memoized, _live = three_modes(configure)
        assert batched.perf["mean_batch_size"] > 5

    @staticmethod
    def _reach_scenario(barrier, at, **job_a):
        """``a`` runs link-free on ``node0`` and ``b`` on ``node1``, ``wide``
        crosses the fabric from ``node2``/``node3``, and ``queued`` waits for
        GPUs until one of them finishes, so every barrier at ``at`` single
        iterations meets a non-empty admission queue."""
        single = single_iteration_seconds()

        def configure(scheduler):
            scheduler.submit(SimJob("a", make_cost_model(), num_workers=2, iterations=80,
                                    **job_a))
            scheduler.submit(SimJob("b", make_cost_model((9000, 3000, 5000)), num_workers=2,
                                    iterations=80))
            scheduler.submit(SimJob("wide", make_cost_model(HEAVY), num_workers=4,
                                    iterations=40))
            scheduler.submit(SimJob("queued", make_cost_model(), num_workers=4, iterations=10))
            if barrier is not None:
                barrier(scheduler, at * single, single)
        return configure

    @staticmethod
    def _batch_spans(configure):
        """``(result, {job: [(start, end), ...]})``: the batches (K >= 2) a
        sanitized production run commits, so SimSan's barrier check runs too."""
        cluster = paper_testbed_cluster()
        engine = EventDrivenEngine(cluster, sanitize=True)
        spans = {}
        commit = engine.fast_forward_batch

        def spy(cost_model, count, **kwargs):
            durations = commit(cost_model, count, **kwargs)
            if len(durations) > 1:
                end = kwargs["start_time"]
                for duration in durations:
                    end = end + duration
                spans.setdefault(kwargs["job_name"], []).append((kwargs["start_time"], end))
            return durations

        engine.fast_forward_batch = spy
        scheduler = ClusterScheduler(cluster, engine=engine)
        configure(scheduler)
        return scheduler.run(), spans

    @pytest.mark.parametrize("barrier", [
        lambda s, at, single: s.inject_failure("node1:gpu0", at, recover_at=at + 9 * single),
        lambda s, at, single: s.degrade_link(Cluster.FABRIC, 1.0, at, restore_at=at + 9 * single),
        lambda s, at, single: s.submit(SimJob("late", make_cost_model(), num_workers=2,
                                              iterations=8, arrival_time=at)),
    ], ids=["foreign_gpu_failure", "foreign_link_degrade", "arrival_behind_a_queue"])
    def test_a_link_free_job_batches_through_barriers_that_cannot_reach_it(self, barrier):
        configure = self._reach_scenario(barrier, 20.5)
        three_modes(configure)
        result, spans = self._batch_spans(configure)
        at = 20.5 * single_iteration_seconds()
        # One live iteration, then all 79 others in one batch across the barrier.
        (start, end), = spans["a"]
        assert start < at < end
        assert result.jobs["a"].iterations_done == 80
        assert result.jobs["queued"].start_time > at    # the queue was never empty

    @pytest.mark.parametrize("barrier, job_a", [
        (lambda s, at, single: (s.mark_preemptible(["node0:gpu1"], notice_seconds=4 * single),
                                s.evict_spot("node0:gpu1", at + 4 * single)), {}),
        (lambda s, at, single: s.set_gpu_speed("node0:gpu0", 0.5, at), {}),
        (lambda s, at, single: s.inject_failure("node0:gpu1", at, recover_at=at + 9 * single),
         {}),
        (lambda s, at, single: s.resize_job("a", -1, at), {}),
        (lambda s, at, single: (s.preempt_job("a", at), s.resume_job("a", at + 5 * single)), {}),
        (None, {"checkpoint_every": 30, "async_checkpoint": True}),
    ], ids=["spot_notice_on_its_gpu", "set_speed_on_its_gpu", "failure_of_its_gpu",
            "its_resize", "its_preempt", "its_ckpt_done"])
    def test_a_link_free_job_stops_strictly_before_a_barrier_that_reaches_it(self, barrier,
                                                                             job_a):
        configure = self._reach_scenario(barrier, 20.5, **job_a)
        three_modes(configure)
        result, spans = self._batch_spans(configure)
        reaching = [entry["time"] for entry in result.trace
                    if entry.get("job") == "a" and entry["kind"] in (
                        "spot_notice", "job_evicted", "job_failed", "resize",
                        "job_preempted", "checkpoint")
                    or entry.get("gpu") == "node0:gpu0" and entry["kind"] == "set_speed"]
        assert reaching and max(reaching) < result.jobs["a"].finish_time
        assert len(spans["a"]) >= 2
        assert not any(start < at <= end for at in reaching for start, end in spans["a"])

    def test_observed_equals_sanitized_equals_plain(self):
        def run(**engine_kwargs):
            cluster = racks_cluster()
            scheduler = ClusterScheduler(cluster, placement="tor_pack",
                                         engine=EventDrivenEngine(cluster, **engine_kwargs))
            scheduler.submit(SimJob("a", make_cost_model(HEAVY),
                                    num_workers=4, iterations=80, checkpoint_every=16))
            scheduler.submit(SimJob("b", make_cost_model(), num_workers=2, iterations=120,
                                    checkpoint_every=10, async_checkpoint=True))
            scheduler.submit(SimJob("c", make_cost_model(), num_workers=2, iterations=120))
            scheduler.inject_failure("node3:gpu1", at_time=60.5 * single_iteration_seconds())
            return scheduler.run()

        plain = run(sanitize=False)
        assert plain.perf["mean_batch_size"] > 5
        # The perf counters are part of the equality: neither attachment may
        # change what was simulated, replayed or batched.
        assert run(sanitize=True).as_dict() == plain.as_dict()
        assert run(sanitize=False, observe=SimObserver()).as_dict() == plain.as_dict()


class CountingJob(SimJob):
    """A steady job whose hook records every ``(iteration, sim_time)`` it sees."""

    def __post_init__(self):
        super().__post_init__()
        self.begun = []
        self.on_profile = None

    def begin_iteration(self, iteration, sim_time=0.0):
        self.begun.append((iteration, sim_time))

    def iteration_profile(self, iteration):
        if self.on_profile is not None:
            self.on_profile(iteration)
        return super().iteration_profile(iteration)


class TestBatchCommitsBeforeTheHookRuns:
    """``begin_iteration`` runs for the iterations the engine committed, at
    their committed start times — not for the ones the scheduler planned."""

    def _run(self, scheduler_cls, sabotage=None):
        cluster = paper_testbed_cluster()
        scheduler = scheduler_cls(cluster)
        job = CountingJob("a", make_cost_model(), num_workers=4, iterations=12)
        scheduler.submit(job)
        if sabotage is not None:
            sabotage(scheduler, job)
        result = scheduler.run()
        return job, result

    def _assert_begun_once_each_at_its_start(self, job, result):
        starts, clock = [], 0.0
        for duration in result.jobs["a"].iteration_seconds:
            starts.append(clock)
            clock = clock + duration
        assert job.begun == list(enumerate(starts))

    def test_link_made_busy_mid_plan_empties_the_batch(self):
        def sabotage(scheduler, job):
            fabric = scheduler.engine.resource_timeline(Cluster.FABRIC)

            def busy_once(iteration):
                # Asked about iteration 4 only while planning a batch from 1:
                # foreign traffic lands on the crossed link before the commit.
                if iteration == 4 and not fabric.bytes_by_job().get("intruder"):
                    fabric.reserve(fabric.busy_until + 1e-4, 1e-4, num_bytes=1, job="intruder")
            job.on_profile = busy_once

        job, result = self._run(ClusterScheduler, sabotage)
        assert result.resources[Cluster.FABRIC]["bytes_by_job"]["intruder"] == 1
        assert result.perf["iterations_simulated"] >= 2   # iteration 1 ran live after all
        self._assert_begun_once_each_at_its_start(job, result)

    def test_engine_truncation_begins_only_the_committed_prefix(self, monkeypatch):
        commit = EventDrivenEngine.fast_forward_batch
        monkeypatch.setattr(EventDrivenEngine, "fast_forward_batch",
                            lambda self, cost_model, count, **kw:
                            commit(self, cost_model, min(count, 3), **kw))
        job, result = self._run(ClusterScheduler)
        assert result.perf["iterations_batched"] == 11     # 3 + 3 + 3 + 2, never the planned 11
        assert result.perf["fast_forward_batches"] == 4
        self._assert_begun_once_each_at_its_start(job, result)
        assert job.begun == self._run(PerIterationScheduler)[0].begun


# --------------------------------------------------------------------------- #
# Hypothesis property: fast-forward == event-by-event, end to end
# --------------------------------------------------------------------------- #
@given(
    param_counts=st.lists(st.integers(min_value=1000, max_value=50_000),
                          min_size=2, max_size=6),
    num_workers=st.sampled_from([1, 2, 4]),
    iterations=st.integers(min_value=1, max_value=10),
    policy=st.sampled_from(SchedulePolicy.ALL),
    checkpoint_every=st.sampled_from([None, 2]),
    prefix_cap=st.integers(min_value=0, max_value=4),
    fabric_policy=st.sampled_from(["fifo", "fair"]),
)
@settings(max_examples=25, deadline=None)
def test_fast_forward_makespan_equals_event_by_event(param_counts, num_workers, iterations,
                                                     policy, checkpoint_every, prefix_cap,
                                                     fabric_policy):
    """The acceptance property: memoization changes wall-clock, never results.

    Every field of the scheduler result — makespan, per-job records,
    per-resource byte audits, checkpoint/restore bytes — must be exactly
    equal between the memoized and the event-by-event engines, across
    policies, disciplines, freezing schedules and checkpoint cadences.
    """
    def run(engine_cls, scheduler_cls):
        cluster = Cluster(ClusterSpec(num_machines=3, gpus_per_machine=2,
                                      fabric_policy=fabric_policy))
        scheduler = scheduler_cls(cluster, engine=engine_cls(cluster))
        prefix = (lambda i: min(i // 2, prefix_cap)) if prefix_cap else 0
        scheduler.submit(SimJob("a", make_cost_model(param_counts), num_workers=num_workers,
                                iterations=iterations, policy=policy, frozen_prefix=prefix,
                                cached_fp=bool(prefix_cap), checkpoint_every=checkpoint_every))
        scheduler.submit(SimJob("b", make_cost_model(param_counts[::-1]), num_workers=2,
                                iterations=max(1, iterations // 2)))
        return result_dict(scheduler.run())

    batched, memoized, live = (run(*mode) for mode in MODES)
    assert batched == live
    assert memoized == live


FAMILIES = {
    # Same instants throughout: every completion of one job ties with another's.
    "identical": lambda index: make_cost_model(),
    # Compute scales exactly 2x with the batch, so 1-worker jobs tie every other iteration.
    "commensurate": lambda index: make_cost_model(batch_size=16 << (index % 2)),
    "unrelated": lambda index: make_cost_model([3000 + 1700 * index, 9000 - 1100 * index, 5000]),
}


#: Barrier kinds the property draws, each ``(kind, target, at)`` with
#: ``target`` a GPU index in 0..7 on the 4 x 2 cluster (its machine, its rack's
#: uplink or a job, by kind), so faults land on GPUs jobs do and do not own.
BARRIERS = ("gpu_failure", "machine_failure", "link_degrade", "spot_notice", "set_speed",
            "resize", "preempt")


def arm_barrier(scheduler, kind, target, at, single, num_jobs):
    gpu = f"node{target // 2}:gpu{target % 2}"
    job = f"job{target % num_jobs}"
    if kind == "gpu_failure":
        scheduler.inject_failure(gpu, at_time=at * single, recover_at=(at + 6.0) * single)
    elif kind == "machine_failure":
        scheduler.fail_machine(f"node{target // 2}", at_time=at * single,
                               recover_at=(at + 4.0) * single)
    elif kind == "link_degrade":
        link = (Cluster.tor_link_name(target % 2) if scheduler.cluster.has_per_tor_fabric
                else Cluster.FABRIC)
        scheduler.degrade_link(link, 0.5, at_time=at * single, restore_at=(at + 5.0) * single)
    elif kind == "spot_notice":
        scheduler.mark_preemptible([gpu], notice_seconds=3.0 * single)
        scheduler.evict_spot(gpu, at_time=(at + 3.0) * single, rejoin_at=(at + 8.0) * single)
    elif kind == "set_speed":
        scheduler.set_gpu_speed(gpu, 0.5, at_time=at * single)
    elif kind == "resize":
        scheduler.resize_job(job, +1, at_time=at * single)
    else:
        scheduler.preempt_job(job, at_time=at * single)
        scheduler.resume_job(job, at_time=(at + 5.0) * single)


@given(
    family=st.sampled_from(sorted(FAMILIES)),
    shapes=st.lists(st.tuples(st.sampled_from([1, 2, 4]),            # workers
                              st.integers(min_value=12, max_value=48),  # iterations
                              st.sampled_from([None, 4, 8]),           # checkpoint_every
                              st.booleans()),                          # async_checkpoint
                    min_size=2, max_size=5),
    topology=st.sampled_from(["flat", "racks_fifo", "racks_packed"]),
    fabric_policy=st.sampled_from(["fifo", "fair"]),
    storage_policy=st.sampled_from(["fifo", "fair"]),
    late=st.booleans(),
    late_at=st.floats(min_value=1.0, max_value=15.0),
    barriers=st.lists(st.tuples(st.sampled_from(BARRIERS),
                                st.integers(min_value=0, max_value=7),
                                st.floats(min_value=2.0, max_value=30.0)),
                      max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_concurrent_batching_equals_per_iteration_equals_live(family, shapes, topology,
                                                              fabric_policy, storage_policy,
                                                              late, late_at, barriers):
    """Batched == per-iteration == live when several steady jobs run side by side.

    1/2/4 workers on 4 x 2 GPUs give link-free, link-disjoint and
    link-sharing placements; coinciding sync and async checkpoint cadences
    meet on a ``fifo`` or ``fair`` store.  A job that cannot be placed at
    t = 0 always waits in the admission queue, and a late arrival plus up to
    four barriers — GPU and machine failures, link degrades, spot notices,
    speed changes, resizes, preemptions — land on jobs they do and do not
    reach; no batch may cross one that reaches it.  The existing single-job
    property never gets here: ten iterations with ``checkpoint_every`` 2
    cannot form a cross-job batch.
    """
    single = single_iteration_seconds(1)
    placed = 0
    for index, (workers, *_rest) in enumerate(shapes):
        if placed + workers > 8 or late and index == len(shapes) - 1:
            break
        placed += workers

    def cluster():
        return Cluster(ClusterSpec(num_machines=4, gpus_per_machine=2, num_tor_switches=2,
                                   per_tor_fabric=topology != "flat",
                                   fabric_policy=fabric_policy, storage_policy=storage_policy))

    def configure(scheduler):
        for index, (workers, iterations, cadence, overlapped) in enumerate(shapes):
            scheduler.submit(SimJob(
                f"job{index}", FAMILIES[family](index), num_workers=workers,
                iterations=iterations, checkpoint_every=cadence, async_checkpoint=overlapped,
                arrival_time=late_at * single if late and index == len(shapes) - 1 else 0.0))
        # The narrowest job that does not fit at t = 0.
        scheduler.submit(SimJob("queued", make_cost_model(), num_workers=9 - placed,
                                iterations=8))
        for kind, target, at in barriers:
            arm_barrier(scheduler, kind, target, at, single, len(shapes))

    three_modes(configure, cluster,
                placement="tor_pack" if topology == "racks_packed" else "fifo")


# --------------------------------------------------------------------------- #
# Counters surface through scenarios, and trainer-backed jobs stay bit-exact
# --------------------------------------------------------------------------- #
class TestIntegration:
    SCENARIO = {
        "cluster": {"num_machines": 2, "gpus_per_machine": 2},
        "jobs": [
            {"name": "a", "modules": [4000, 8000, 6000], "batch_size": 16,
             "num_workers": 2, "iterations": 8, "checkpoint_every": 4},
        ],
    }

    def test_scenario_report_carries_perf_counters(self):
        report = run_scenario(self.SCENARIO)
        perf = report["perf"]
        assert perf["iterations_fast_forwarded"] > 0
        assert 0.0 < perf["cache_hit_rate"] <= 1.0
        assert perf["events_processed"] > 0

    def _trainer(self):
        full = make_dataset("synthetic_cifar10", num_samples=48, num_classes=4,
                            image_size=8, noise=0.8, seed=0)
        train_ds, _eval_ds = full.split(eval_fraction=0.25)
        train_loader = DataLoader(train_ds, batch_size=8, seed=0)
        model = models.resnet8(num_classes=4, width=0.5, seed=0)
        optimizer = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
        return VanillaTrainer(model, ClassificationTask(), train_loader, None, optimizer)

    def test_trainer_job_bit_identical_under_memoization(self):
        """A real trainer inside the scheduler: same makespan, same real
        content-addressed checkpoint bytes, with and without fast-forward."""
        def run(engine_cls):
            trainer = self._trainer()
            manager = CheckpointManager(MemoryBackend())
            trainer.configure_checkpointing(manager, checkpoint_every=1)
            job = TrainerJob("t", trainer, iterations=8, num_workers=2, checkpoint_every=3)
            cluster = paper_testbed_cluster()
            scheduler = ClusterScheduler(cluster, engine=engine_cls(cluster))
            scheduler.submit(job)
            return scheduler.run()

        memoized, reference = run(EventDrivenEngine), run(LiveEngine)
        assert result_dict(memoized) == result_dict(reference)
        assert memoized.jobs["t"].checkpoint_bytes_written == \
            reference.jobs["t"].checkpoint_bytes_written > 0
        assert memoized.perf["iterations_fast_forwarded"] > 0
