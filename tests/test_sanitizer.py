"""Mutation tests for SimSan, the runtime invariant sanitizer.

Each test deliberately corrupts simulator state the way a real bug would —
a negative-duration window, dropped bytes, a stale event pushed behind the
clock, an oversubscribed fair-share schedule, a poisoned fast-forward cache
entry — and asserts the sanitizer catches it with the *right* error class
and non-empty event provenance.  The control tests assert the sanitizer is
invisible when nothing is wrong: bit-identical results, env-var activation.
"""

import dataclasses

import pytest

from repro.core.modules import LayerModule
from repro.sim import (
    ClusterScheduler,
    CostModel,
    EventDrivenEngine,
    SimJob,
    SimSanitizer,
    paper_testbed_cluster,
)
from repro.sim.resources import (
    FairShareTimeline,
    ResourceOccupancy,
    ResourceTimeline,
    SharedResource,
)
from repro.sim.sanitizer import (
    ByteConservationViolation,
    CausalityViolation,
    FastForwardDivergence,
    MonotonicityViolation,
    NegativeDurationViolation,
    RateConservationViolation,
    SanitizerError,
    sanitize_from_env,
)
from repro.sim.scheduler.loop import _Kind


def _cost_model(num_modules=4, num_params=50_000):
    modules = [LayerModule(name=f"m{i}", paths=[], blocks=[],
                           num_params=num_params, index=i)
               for i in range(num_modules)]
    return CostModel(modules, batch_size=32)


def _fifo_timeline(sanitizer=None):
    timeline = ResourceTimeline(SharedResource("link", bandwidth_gbps=10.0))
    timeline.sanitizer = sanitizer
    return timeline


def _fair_timeline(sanitizer=None):
    timeline = FairShareTimeline(
        SharedResource("fabric", bandwidth_gbps=10.0, policy="fair"))
    timeline.sanitizer = sanitizer
    return timeline


class TestTimelineMutations:
    def test_negative_duration_record_is_caught(self):
        """A committed window with end < start is a NegativeDurationViolation."""
        sanitizer = SimSanitizer()
        timeline = _fifo_timeline(sanitizer)
        timeline.reserve(0.0, 2.0, num_bytes=100, job="a")
        timeline._records[0] = dataclasses.replace(
            timeline._records[0], start=5.0, end=3.0)
        with pytest.raises(NegativeDurationViolation) as excinfo:
            sanitizer.verify_timeline(timeline)
        assert excinfo.value.provenance
        assert "link" in str(excinfo.value)

    def test_reserve_rejects_negative_duration_eagerly(self):
        sanitizer = SimSanitizer()
        timeline = _fifo_timeline(sanitizer)
        with pytest.raises(NegativeDurationViolation):
            sanitizer.note_reserve(timeline, 0.0, 0.0, -1.0, -1.0, 0, "a", "transfer")

    def test_dropped_bytes_are_caught(self):
        """Silently deleting a committed window breaks byte conservation."""
        sanitizer = SimSanitizer()
        timeline = _fifo_timeline(sanitizer)
        timeline.reserve(0.0, 1.0, num_bytes=100, job="a")
        timeline.reserve(0.0, 1.0, num_bytes=250, job="b")
        del timeline._records[1]
        with pytest.raises(ByteConservationViolation) as excinfo:
            sanitizer.verify_timeline(timeline)
        assert excinfo.value.provenance
        assert "350" in str(excinfo.value)  # the quoted ledger total

    def test_duplicated_bytes_are_caught(self):
        """Double-committing a window is the mirror-image conservation bug."""
        sanitizer = SimSanitizer()
        timeline = _fifo_timeline(sanitizer)
        timeline.reserve(0.0, 1.0, num_bytes=100, job="a")
        timeline._records.append(timeline._records[0])
        with pytest.raises(ByteConservationViolation):
            sanitizer.verify_timeline(timeline)

    def test_rewound_busy_until_is_caught(self):
        """busy_until falling behind the committed windows is monotonicity."""
        sanitizer = SimSanitizer()
        timeline = _fifo_timeline(sanitizer)
        timeline.reserve(0.0, 4.0, num_bytes=10, job="a")
        timeline._busy_until = 1.0
        with pytest.raises(MonotonicityViolation):
            sanitizer.verify_timeline(timeline)

    def test_window_before_request_time_is_caught(self):
        """A window starting before its own request time breaks causality."""
        sanitizer = SimSanitizer()
        timeline = _fifo_timeline(sanitizer)
        with pytest.raises(CausalityViolation):
            sanitizer.note_reserve(timeline, 10.0, 5.0, 6.0, 1.0, 0, "a", "transfer")

    def test_legitimate_cancel_passes(self):
        """Cancellation legally shrinks busy_until and debits the ledger."""
        sanitizer = SimSanitizer()
        timeline = _fifo_timeline(sanitizer)
        timeline.reserve(0.0, 1.0, num_bytes=100, job="keep")
        timeline.reserve(0.0, 1.0, num_bytes=200, job="drop")
        assert timeline.cancel("drop", after_time=0.0) == 1
        sanitizer.verify_timeline(timeline)  # must not raise
        assert timeline.total_bytes() == 100


class TestFairShareMutations:
    def test_oversubscribed_rate_is_caught(self):
        """A transfer finishing impossibly early means rates summed past
        capacity somewhere inside its window."""
        sanitizer = SimSanitizer()
        timeline = _fair_timeline(sanitizer)
        # Two equal-weight 10s demands arriving together: each ends at 20s.
        timeline.reserve(0.0, 10.0, num_bytes=100, job="a")
        timeline.reserve(0.0, 10.0, num_bytes=100, job="b")
        timeline._ends[0] = 8.0  # 10 capacity-seconds inside an 8s window
        with pytest.raises(RateConservationViolation) as excinfo:
            sanitizer.verify_timeline(timeline)
        assert excinfo.value.provenance
        assert "fabric" in str(excinfo.value)

    def test_honest_fair_schedule_passes(self):
        sanitizer = SimSanitizer()
        timeline = _fair_timeline(sanitizer)
        timeline.reserve(0.0, 10.0, num_bytes=100, job="a")
        timeline.reserve(5.0, 10.0, num_bytes=100, job="b", weight=2.0)
        sanitizer.verify_timeline(timeline)  # must not raise


class TestSchedulerCausality:
    def test_stale_event_behind_the_clock_is_caught(self):
        """An event dequeued behind the scheduler clock is a causality bug."""
        cluster = paper_testbed_cluster()
        engine = EventDrivenEngine(cluster, sanitize=True)
        scheduler = ClusterScheduler(cluster, engine=engine)

        class StaleEventJob(SimJob):
            def begin_iteration(self, iteration, sim_time=0.0):
                if iteration == 1:
                    # A bug pushing an event at t=0 after the clock passed it.
                    scheduler._push(0.0, "arrival", ("ghost",))

        scheduler.submit(StaleEventJob(name="victim", cost_model=_cost_model(),
                                       num_workers=2, iterations=5))
        with pytest.raises(CausalityViolation) as excinfo:
            scheduler.run()
        assert excinfo.value.provenance
        assert any(entry.get("domain") == "scheduler"
                   for entry in excinfo.value.provenance)

    def test_batch_across_a_barrier_that_reaches_its_job_is_caught(self, monkeypatch):
        """The hand mutant that drops ``spot_notice``'s GPU reach lets a
        link-free job batch through a notice on its own GPU; the check reads
        reach from the payload, so the wrong row cannot vouch for itself."""
        cluster = paper_testbed_cluster()
        single = EventDrivenEngine(cluster).simulate_iteration(
            _cost_model(), workers=cluster.all_gpus()[:2]).total

        def run():
            cluster = paper_testbed_cluster()
            scheduler = ClusterScheduler(cluster, engine=EventDrivenEngine(cluster,
                                                                          sanitize=True))
            scheduler.submit(SimJob(name="spot", cost_model=_cost_model(), num_workers=2,
                                    iterations=60))
            scheduler.submit(SimJob(name="other", cost_model=_cost_model(num_modules=3),
                                    num_workers=2, iterations=60))
            scheduler.mark_preemptible(["node0:gpu1"], notice_seconds=10 * single)
            scheduler.evict_spot("node0:gpu1", at_time=30.5 * single)
            return scheduler.run()

        assert run().perf["iterations_batched"] > 0
        notice = ClusterScheduler._KINDS["spot_notice"]
        monkeypatch.setitem(ClusterScheduler._KINDS, "spot_notice", _Kind(notice.handler, None))
        with pytest.raises(CausalityViolation, match="barrier 'spot_notice'") as excinfo:
            run()
        assert excinfo.value.provenance

    def test_a_barrier_naming_no_job_gpu_or_resource_reaches_every_job(self, monkeypatch):
        """A payload that names no job, GPU or resource reaches every job,
        whatever its row's reach says: a batch running through it is caught."""
        def _apply_drill(self, label, now):
            return None

        monkeypatch.setitem(ClusterScheduler._KINDS, "drill", _Kind(_apply_drill, None))
        cluster = paper_testbed_cluster()
        single = EventDrivenEngine(cluster).simulate_iteration(
            _cost_model(), workers=cluster.all_gpus()[:2]).total
        scheduler = ClusterScheduler(cluster, engine=EventDrivenEngine(cluster, sanitize=True))
        scheduler.submit(SimJob(name="a", cost_model=_cost_model(), num_workers=2,
                                iterations=60))
        scheduler._push(30.5 * single, "drill", ("rack0",))
        with pytest.raises(CausalityViolation, match="barrier 'drill'"):
            scheduler.run()

    def test_job_named_like_a_cause_or_label_batches_across_foreign_outages(self):
        """Only a barrier's job, GPU and link fields reach a job: link-free
        jobs called ``spot`` and ``node0`` on ``node1`` / ``node2`` batch
        through a spot eviction and a machine failure of ``node0``, whose
        payloads carry ``spot`` as a cause and ``node0`` as a label."""
        cluster = paper_testbed_cluster()
        single = EventDrivenEngine(cluster).simulate_iteration(
            _cost_model(), workers=cluster.all_gpus()[:2]).total
        engine = EventDrivenEngine(cluster, sanitize=True)
        batches = {}
        commit = engine.fast_forward_batch

        def spy(cost_model, count, **kwargs):
            durations = commit(cost_model, count, **kwargs)
            batches.setdefault(kwargs["job_name"], []).append(len(durations))
            return durations

        engine.fast_forward_batch = spy
        scheduler = ClusterScheduler(cluster, engine=engine)
        for name in ("victim", "spot", "node0"):
            scheduler.submit(SimJob(name=name, cost_model=_cost_model(), num_workers=2,
                                    iterations=60))
        scheduler.mark_preemptible(["node0:gpu1"], notice_seconds=0.0)
        scheduler.evict_spot("node0:gpu1", at_time=20.5 * single)
        scheduler.fail_machine("node0", at_time=30.5 * single)
        result = scheduler.run()
        assert result.jobs["victim"].failures + result.jobs["victim"].evictions >= 1
        for name in ("spot", "node0"):
            assert result.jobs[name].failures == result.jobs[name].evictions == 0
        # Each bystander ran one live iteration, then one batch across both outages.
        assert batches["spot"] == batches["node0"] == [59]


class TestFastForwardSpotChecks:
    def test_poisoned_cache_entry_is_caught(self):
        """Corrupting a memoized iteration trips the divergence spot check."""
        engine = EventDrivenEngine(sanitize=True)
        engine.sanitizer.spot_check_every = 1  # spot-check every replay
        cost_model = _cost_model()
        engine.simulate_iteration(cost_model)
        engine.simulate_iteration(cost_model)  # first replay: honest, passes
        key = next(iter(engine._cache))
        entry = engine._cache[key]
        engine._cache[key] = dataclasses.replace(entry, rel_end=entry.rel_end * 2.0)
        with pytest.raises(FastForwardDivergence) as excinfo:
            engine.simulate_iteration(cost_model)
        assert excinfo.value.provenance
        assert "rel_end" in str(excinfo.value)

    def test_honest_cache_survives_every_spot_check(self):
        engine = EventDrivenEngine(sanitize=True)
        engine.sanitizer.spot_check_every = 1
        cost_model = _cost_model()
        for _ in range(5):
            engine.simulate_iteration(cost_model)
        assert engine.sanitizer.spot_checks_performed >= 4


class TestSanitizerTransparency:
    def test_sanitized_run_is_bit_identical(self):
        """SimSan observes; it must never perturb the simulation."""
        results = []
        for sanitize in (False, True):
            cluster = paper_testbed_cluster()
            engine = EventDrivenEngine(cluster, sanitize=sanitize)
            scheduler = ClusterScheduler(cluster, engine=engine)
            for name, arrival in (("a", 0.0), ("b", 5.0)):
                scheduler.submit(SimJob(name=name, cost_model=_cost_model(),
                                        num_workers=4, iterations=6,
                                        checkpoint_every=2, arrival_time=arrival))
            results.append(scheduler.run().as_dict())
        assert results[0] == results[1]

    def test_sanitized_run_performs_checks(self):
        cluster = paper_testbed_cluster()
        engine = EventDrivenEngine(cluster, sanitize=True)
        scheduler = ClusterScheduler(cluster, engine=engine)
        scheduler.submit(SimJob(name="a", cost_model=_cost_model(),
                                num_workers=2, iterations=4))
        scheduler.run()
        assert engine.sanitizer.checks_performed > 0

    def test_env_var_activation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMSAN", "1")
        assert sanitize_from_env()
        assert EventDrivenEngine().sanitizer is not None
        monkeypatch.setenv("REPRO_SIMSAN", "0")
        assert not sanitize_from_env()
        assert EventDrivenEngine().sanitizer is None
        monkeypatch.delenv("REPRO_SIMSAN")
        assert not sanitize_from_env()

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMSAN", "1")
        assert EventDrivenEngine(sanitize=False).sanitizer is None

    def test_provenance_renders_in_message(self):
        """SanitizerError messages embed the recent-event trace."""
        sanitizer = SimSanitizer()
        timeline = _fifo_timeline(sanitizer)
        timeline.reserve(0.0, 1.0, num_bytes=7, job="a")
        del timeline._records[0]
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.verify_timeline(timeline)
        message = str(excinfo.value)
        assert "reserve" in message and "recent events" in message
