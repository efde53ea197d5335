"""Tests for the shared-resource layer: link/storage event queues.

Four families of guarantees:

* **Unit behaviour** — FIFO serialization, cancellation with re-flow of
  queued successors, fair-share (processor-sharing) semantics, name/policy
  validation, removal of the ``comm_scale`` shim, async checkpoint overlap.
* **Hypothesis properties** — byte conservation (resource traffic equals the
  sum of per-job traffic), makespan monotone non-increasing in bandwidth,
  fair-share makespan never exceeding FIFO on identical workloads, and the
  no-contention single-job path agreeing with the closed-form
  :class:`CostModel` within 5%.
* **Topology** — per-ToR fabric resources: rack-local rings cross only their
  own ToR uplink, cross-rack rings additionally cross the core, and the
  ``tor_pack`` placement keeps jobs rack-local — so placement measurably
  changes interference under both disciplines.
* **Integration** — scheduler-level conservation between job records and
  resource summaries, and a :class:`TrainerJob` driven end to end.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import sim_reference

from repro.ckpt import CheckpointManager, MemoryBackend
from repro.core import ClassificationTask, TrainerJob
from repro.core.modules import LayerModule
from repro.baselines import VanillaTrainer
from repro.data import DataLoader, make_dataset
from repro.experiments import build_trainer, build_workload
from repro import models, optim
from repro.sim import (
    AllReduceModel,
    Cluster,
    ClusterScheduler,
    ClusterSpec,
    CostModel,
    EventDrivenEngine,
    SimJob,
    paper_testbed_cluster,
)
from repro.sim.resources import (
    FairShareTimeline,
    ResourcePool,
    ResourceTimeline,
    SharedResource,
    build_timeline,
)


def synthetic_modules(param_counts):
    return [LayerModule(name=f"m{i}", paths=[], blocks=[], num_params=int(c), index=i)
            for i, c in enumerate(param_counts)]


def make_cost_model(param_counts=(4000, 8000, 6000, 4000), batch_size=16):
    return CostModel(synthetic_modules(param_counts), batch_size=batch_size)


# --------------------------------------------------------------------------- #
# ResourceTimeline unit behaviour
# --------------------------------------------------------------------------- #
class TestResourceTimeline:
    def test_fifo_serialization(self):
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=8.0, kind="storage"))
        start1, end1 = timeline.reserve(0.0, 2.0, num_bytes=10, job="a")
        start2, end2 = timeline.reserve(1.0, 2.0, num_bytes=20, job="b")
        assert (start1, end1) == (0.0, 2.0)
        assert start2 == end1 and end2 == 4.0  # queued behind the first transfer
        late_start, _ = timeline.reserve(10.0, 1.0, job="a")
        assert late_start == 10.0  # idle resource: no artificial delay

    def test_reserve_bytes_prices_by_bandwidth_and_cap(self):
        resource = SharedResource("s", bandwidth_gbps=80.0, kind="storage", latency_seconds=0.0)
        timeline = ResourceTimeline(resource)
        _start, end = timeline.reserve_bytes(0.0, 10**9)
        assert end == pytest.approx(0.1)  # 8e9 bits / 80 Gbps
        _start, capped_end = timeline.reserve_bytes(end, 10**9, cap_gbps=40.0)
        assert capped_end - end == pytest.approx(0.2)  # endpoint NIC caps the rate

    def test_cancel_removes_future_windows_only(self):
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=1.0))
        timeline.reserve(0.0, 1.0, num_bytes=5, job="a")   # window [0, 1)
        timeline.reserve(0.0, 1.0, num_bytes=7, job="b")   # queued to [1, 2)
        timeline.reserve(0.0, 1.0, num_bytes=9, job="b")   # queued to [2, 3)
        # Cancelling after t=1.5 drops only the [2, 3) window; the [1, 2)
        # window already started (its bytes were on the wire).
        assert timeline.cancel("b", after_time=1.5) == 1
        assert timeline.total_bytes() == 12
        assert timeline.busy_until == 2.0
        # Cancelling from t=0 removes the remaining future window too.
        assert timeline.cancel("b", after_time=0.0) == 1
        assert timeline.total_bytes() == 5
        assert timeline.busy_until == 1.0

    def test_idle_gap_before_future_window_is_used(self):
        """Causality: a request never waits for a window that starts later.

        The scheduler reserves checkpoint windows ahead of time; a small
        transfer requested while the resource is idle must proceed
        immediately instead of queueing behind a far-future reservation.
        """
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=8.0, kind="storage"))
        timeline.reserve(100.0, 5.0, job="big")           # future window [100, 105)
        start, end = timeline.reserve(0.5, 1.0, job="small")
        assert (start, end) == (0.5, 1.5)                 # served from the idle gap
        # A transfer too large for the gap still queues behind the window.
        start2, _ = timeline.reserve(1.5, 200.0, job="huge")
        assert start2 == 105.0

    def test_pool_validates_names_and_duplicates(self):
        pool = ResourcePool([SharedResource("fab", bandwidth_gbps=100.0)])
        assert "fab" in pool
        with pytest.raises(KeyError, match="unknown resource"):
            pool.require("nope")
        with pytest.raises(ValueError, match="duplicate"):
            pool.add(SharedResource("fab", bandwidth_gbps=10.0))

    def test_invalid_resource_specs_rejected(self):
        with pytest.raises(ValueError):
            SharedResource("s", bandwidth_gbps=0.0)
        with pytest.raises(ValueError):
            SharedResource("s", bandwidth_gbps=1.0, kind="tape")
        with pytest.raises(ValueError):
            SharedResource("s", bandwidth_gbps=1.0, latency_seconds=-1.0)
        with pytest.raises(ValueError, match="policy"):
            SharedResource("s", bandwidth_gbps=1.0, policy="lottery")

    def test_policy_selects_timeline_class(self):
        assert isinstance(build_timeline(SharedResource("a", 1.0)), ResourceTimeline)
        assert isinstance(build_timeline(SharedResource("b", 1.0, policy="fair")),
                          FairShareTimeline)
        pool = ResourcePool([SharedResource("fifo-link", 1.0),
                             SharedResource("fair-link", 1.0, policy="fair")])
        assert isinstance(pool.require("fifo-link"), ResourceTimeline)
        assert isinstance(pool.require("fair-link"), FairShareTimeline)

    def test_cluster_spec_policies_reach_default_resources(self):
        cluster = Cluster(ClusterSpec(fabric_policy="fair", storage_policy="fair"))
        assert cluster.resources[Cluster.FABRIC].policy == "fair"
        assert cluster.resources[Cluster.CKPT_STORAGE].policy == "fair"
        engine = EventDrivenEngine(cluster)
        assert isinstance(engine.resource_timeline(Cluster.FABRIC), FairShareTimeline)


# --------------------------------------------------------------------------- #
# Cancellation re-flow: queued successors move up into freed windows
# --------------------------------------------------------------------------- #
class TestCancelReflow:
    def test_queued_successor_moves_into_freed_window(self):
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=1.0))
        timeline.reserve(0.0, 1.0, num_bytes=5, job="a")   # [0, 1)
        timeline.reserve(0.0, 1.0, num_bytes=7, job="c")   # queued to [1, 2)
        timeline.reserve(0.0, 1.0, num_bytes=9, job="b")   # queued to [2, 3)
        assert timeline.cancel("c", after_time=0.5) == 1
        # b re-flows into c's freed slot instead of keeping [2, 3).
        windows = {r.job: (r.start, r.end) for r in timeline.records}
        assert windows == {"a": (0.0, 1.0), "b": (1.0, 2.0)}
        assert timeline.total_bytes() == 14  # byte conservation after re-flow
        assert timeline.busy_until == 2.0

    def test_reflow_preserves_request_order_across_jobs(self):
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=1.0))
        timeline.reserve(0.0, 2.0, job="victim")           # [0, 2)
        timeline.reserve(0.0, 1.0, num_bytes=1, job="x")   # [2, 3)
        timeline.reserve(0.0, 1.0, num_bytes=2, job="y")   # [3, 4)
        assert timeline.cancel("victim", after_time=0.0) == 1
        windows = [(r.job, r.start, r.end) for r in timeline.records]
        assert windows == [("x", 0.0, 1.0), ("y", 1.0, 2.0)]

    def test_reflow_respects_original_earliest_start(self):
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=1.0))
        timeline.reserve(0.0, 3.0, job="victim")           # [0, 3)
        timeline.reserve(5.0, 1.0, job="late")             # idle at [5, 6)
        assert timeline.cancel("victim", after_time=0.0) == 1
        # The survivor asked for t >= 5; the freed [0, 3) window is earlier
        # than it ever wanted, so it must not move.
        (record,) = timeline.records
        assert (record.start, record.end) == (5.0, 6.0)

    def test_reflow_clamps_to_cancellation_time(self):
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=1.0))
        timeline.reserve(2.0, 2.0, job="victim")           # [2, 4)
        timeline.reserve(0.0, 3.0, job="b")                # 3s does not fit [0, 2) -> [4, 7)
        assert timeline.cancel("victim", after_time=1.0) == 1
        # b was demonstrably not on the wire before t=1, so it restarts at
        # the cancellation instant — not at its original earliest_start=0.
        (record,) = timeline.records
        assert (record.start, record.end) == (1.0, 4.0)

    def test_windows_already_started_do_not_move(self):
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=1.0))
        timeline.reserve(0.0, 4.0, num_bytes=1, job="a")   # [0, 4): in flight
        timeline.reserve(4.0, 1.0, num_bytes=2, job="victim")  # [4, 5)
        timeline.reserve(4.0, 1.0, num_bytes=3, job="b")   # [5, 6)
        assert timeline.cancel("victim", after_time=2.0) == 1
        windows = {r.job: (r.start, r.end) for r in timeline.records}
        # a already started (stays); b re-flows into the freed [4, 5) slot.
        assert windows == {"a": (0.0, 4.0), "b": (4.0, 5.0)}

    def test_reflow_never_moves_a_window_later(self):
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=1.0))
        for index in range(6):
            timeline.reserve(0.0, 1.0, job="victim" if index % 2 == 0 else "other")
        before = {r.seq: r.start for r in timeline.records if r.job == "other"}
        timeline.cancel("victim", after_time=0.0)
        after = {r.seq: r.start for r in timeline.records}
        assert all(after[seq] <= start for seq, start in before.items())

    def test_reflow_of_gap_filled_window_never_moves_later(self):
        """Mixed durations: a gap-filled window must not lose its early slot.

        The survivor ``k`` was *requested after* the big transfer ``j`` but
        committed *earlier* (it fit the idle gap in front of j).  Replaying
        re-flow in request order would hand j the gap and push k later;
        committed-start order keeps every survivor at or before its old
        slot.
        """
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=1.0))
        timeline.reserve(0.0, 1.0, job="a")        # [0, 1)
        timeline.reserve(2.0, 1.0, job="victim")   # [2, 3)
        timeline.reserve(0.0, 5.0, job="j")        # 5s does not fit [1, 2) -> [3, 8)
        timeline.reserve(1.0, 1.0, job="k")        # gap-fills [1, 2)
        before = {r.job: r.start for r in timeline.records}
        assert timeline.cancel("victim", after_time=0.0) == 1
        after = {r.job: (r.start, r.end) for r in timeline.records}
        assert after["k"] == (1.0, 2.0)            # kept its gap-filled slot
        assert after["j"] == (2.0, 7.0)            # moved up into victim's slot
        assert all(after[job][0] <= start for job, start in before.items()
                   if job != "victim")


# --------------------------------------------------------------------------- #
# Fair-share (processor-sharing) timelines
# --------------------------------------------------------------------------- #
class TestFairShareTimeline:
    def _timeline(self, gbps=8.0):
        return FairShareTimeline(
            SharedResource("f", bandwidth_gbps=gbps, kind="link", policy="fair"))

    def test_equal_transfers_split_capacity_evenly(self):
        timeline = self._timeline()
        assert timeline.reserve(0.0, 2.0, num_bytes=10, job="a") == (0.0, 2.0)
        # The second admission halves both rates: both complete at t=4.
        assert timeline.reserve(0.0, 2.0, num_bytes=10, job="b") == (0.0, 4.0)
        assert [(r.job, r.start, r.end) for r in timeline.records] == \
            [("a", 0.0, 4.0), ("b", 0.0, 4.0)]

    def test_short_transfer_overtakes_long_one(self):
        """The processor-sharing signature FIFO cannot produce.

        Under FIFO a short transfer arriving behind a long one waits for the
        full window; under fair share it runs at half rate and finishes long
        before the long transfer does.
        """
        timeline = self._timeline()
        assert timeline.reserve(0.0, 10.0, job="long") == (0.0, 10.0)
        start, end = timeline.reserve(1.0, 2.0, job="short")
        assert (start, end) == (1.0, 5.0)          # 2s demand at half rate
        windows = {r.job: r.end for r in timeline.records}
        assert windows["short"] < windows["long"]  # overtakes
        assert windows["long"] == pytest.approx(12.0)  # revised: shared 4s

    def test_work_conservation_and_byte_accounting(self):
        timeline = self._timeline()
        timeline.reserve_bytes(0.0, 10**9, job="a")
        timeline.reserve_bytes(0.0, 2 * 10**9, job="b", kind="checkpoint")
        timeline.reserve_bytes(100.0, 10**9, job="a")
        assert timeline.total_bytes() == 4 * 10**9
        assert timeline.bytes_by_job() == {"a": 2 * 10**9, "b": 2 * 10**9}
        assert timeline.bytes_by_kind() == {"transfer": 2 * 10**9, "checkpoint": 2 * 10**9}
        # busy_seconds counts capacity-seconds of demand, not overlapping
        # wall-clock spans — equal to what FIFO would report.
        fifo = ResourceTimeline(SharedResource("f", bandwidth_gbps=8.0))
        fifo.reserve_bytes(0.0, 10**9)
        fifo.reserve_bytes(0.0, 2 * 10**9)
        fifo.reserve_bytes(100.0, 10**9)
        assert timeline.busy_seconds() == pytest.approx(fifo.busy_seconds())

    def test_cancel_reflows_survivors_earlier(self):
        timeline = self._timeline()
        timeline.reserve(0.0, 4.0, num_bytes=3, job="keep")
        timeline.reserve(0.0, 4.0, num_bytes=5, job="victim")
        assert timeline.records[0].end == pytest.approx(8.0)  # shared
        assert timeline.cancel("victim", after_time=0.0) == 1
        (record,) = timeline.records
        assert (record.job, record.end) == ("keep", 4.0)      # full rate again
        assert timeline.total_bytes() == 3

    def test_cancel_keeps_transfers_already_in_service(self):
        timeline = self._timeline()
        timeline.reserve(0.0, 2.0, job="a")
        assert timeline.cancel("a", after_time=1.0) == 0  # arrived before t=1
        assert len(timeline.records) == 1

    def test_idle_gap_then_second_busy_period(self):
        timeline = self._timeline()
        assert timeline.reserve(0.0, 1.0, job="a") == (0.0, 1.0)
        # The resource is idle in [1, 10); a new arrival starts a fresh busy
        # period at its own earliest_start, at full rate.
        assert timeline.reserve(10.0, 2.0, job="b") == (10.0, 12.0)
        assert timeline.busy_until == 12.0


# --------------------------------------------------------------------------- #
# Weighted fair share: capacity split proportional to per-transfer weight
# --------------------------------------------------------------------------- #
class TestWeightedFairShare:
    def _timeline(self):
        return FairShareTimeline(
            SharedResource("f", bandwidth_gbps=8.0, kind="link", policy="fair"))

    def test_capacity_splits_proportionally_to_weight(self):
        """Two equal demands, weights 2:1 — the classic GPS schedule.

        Until the heavy transfer drains it holds 2/3 of the line rate, so it
        completes its 3 capacity-seconds at t=4.5; the light transfer has
        1.5 left by then and finishes alone at t=6.
        """
        timeline = self._timeline()
        assert timeline.reserve(0.0, 3.0, job="heavy", weight=2.0) == (0.0, 3.0)
        assert timeline.reserve(0.0, 3.0, job="light", weight=1.0) == (0.0, 6.0)
        assert [(r.job, r.start, r.end) for r in timeline.records] == \
            [("heavy", 0.0, 4.5), ("light", 0.0, 6.0)]

    def test_default_weight_matches_legacy_even_split(self):
        explicit, implicit = self._timeline(), self._timeline()
        for t in (explicit, implicit):
            kwargs = {"weight": 1.0} if t is explicit else {}
            t.reserve(0.0, 2.0, num_bytes=10, job="a", **kwargs)
            t.reserve(0.0, 2.0, num_bytes=10, job="b", **kwargs)
            t.reserve(1.0, 4.0, num_bytes=10, job="c", **kwargs)
        assert explicit.records == implicit.records

    def test_sole_transfer_runs_at_full_rate_regardless_of_weight(self):
        timeline = self._timeline()
        # Work conservation: weight only matters relative to *other* active
        # transfers; a lone one always gets the whole resource.
        assert timeline.reserve(0.0, 2.0, job="a", weight=0.25) == (0.0, 2.0)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            self._timeline().reserve(0.0, 1.0, weight=0.0)
        with pytest.raises(ValueError, match="weight"):
            SimJob("a", make_cost_model(), weight=-1.0)

    def test_fifo_ignores_weight(self):
        weighted = ResourceTimeline(SharedResource("s", bandwidth_gbps=1.0))
        plain = ResourceTimeline(SharedResource("s", bandwidth_gbps=1.0))
        weighted.reserve(0.0, 2.0, job="a", weight=5.0)
        weighted.reserve(0.0, 2.0, job="b", weight=0.1)
        plain.reserve(0.0, 2.0, job="a")
        plain.reserve(0.0, 2.0, job="b")
        assert weighted.records == plain.records

    def test_weighted_job_completes_faster_on_fair_fabric(self):
        """SimJob.weight plumbs end to end: a weight-4 job's buckets drain
        faster than its weight-1 competitor's on a fair-share fabric."""
        heavy_modules = (400_000, 800_000, 600_000)

        def run(weight_a):
            cluster = Cluster(ClusterSpec(num_machines=4, gpus_per_machine=2,
                                          nic_gbps=1.0, tor_uplink_gbps=1.0,
                                          fabric_policy="fair"))
            scheduler = ClusterScheduler(cluster, placement="round_robin")
            scheduler.submit(SimJob("a", make_cost_model(heavy_modules, batch_size=4),
                                    num_workers=4, iterations=6, weight=weight_a))
            scheduler.submit(SimJob("b", make_cost_model(heavy_modules, batch_size=4),
                                    num_workers=4, iterations=6))
            return scheduler.run()

        even, skewed = run(1.0), run(4.0)
        assert skewed.jobs["a"].completion_seconds < even.jobs["a"].completion_seconds
        # Weights redistribute capacity, never bytes.
        assert {n: r["total_bytes"] for n, r in skewed.resources.items()} == \
            {n: r["total_bytes"] for n, r in even.resources.items()}


def lockstep(ops, production=FairShareTimeline):
    """Apply ``ops`` to ``production`` and to the from-scratch oracle in step.

    ``("reserve", arrival, seconds, num_bytes, job, weight)``,
    ``("cancel", job, after_time)`` and ``("capacity", at_time, factor)``;
    every quote, cancel count and — after every op — the whole schedule,
    ``busy_until`` and the summary must be exactly equal (``==``, not
    approx), and the surviving schedule must equal one standalone sweep.
    Returns ``(production timeline, oracle timeline)``.
    """
    resource = SharedResource("link", 10.0, policy="fair")
    timeline = production(resource)
    oracle = sim_reference.ResweepFairShareTimeline(resource)
    for op in ops:
        if op[0] == "reserve":
            _, arrival, seconds, num_bytes, job, weight = op
            assert timeline.reserve(arrival, seconds, num_bytes, job=job, weight=weight) == \
                oracle.reserve(arrival, seconds, num_bytes, job=job, weight=weight)
        elif op[0] == "cancel":
            _, job, after_time = op
            assert timeline.cancel(job, after_time) == oracle.cancel(job, after_time)
        else:
            _, at_time, factor = op
            timeline.set_capacity(at_time, 10.0 * factor)
            oracle.set_capacity(at_time, 10.0 * factor)
        assert timeline.transfer_schedule() == oracle.transfer_schedule()
        assert timeline.busy_until == oracle.busy_until
        assert timeline.as_dict() == oracle.as_dict()
    assert timeline.capacity_profile() == oracle.capacity_profile()
    assert timeline.full_resweeps <= oracle.full_resweeps
    assert timeline._ends == sim_reference.reference_fair_schedule(
        timeline._transfers.values(), timeline.capacity_profile())
    return timeline, oracle


@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("reserve"),
                  st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
                  st.floats(min_value=0.0, max_value=15.0, allow_nan=False),
                  st.integers(min_value=0, max_value=10**9),
                  st.sampled_from(["a", "b", "c"]),
                  st.sampled_from([0.5, 1.0, 2.0])),
        st.tuples(st.just("cancel"),
                  st.sampled_from(["a", "b", "c"]),
                  st.floats(min_value=0.0, max_value=40.0, allow_nan=False)),
        st.tuples(st.just("capacity"),
                  st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
                  st.floats(min_value=0.25, max_value=2.0, allow_nan=False)),
    ),
    min_size=1, max_size=30))
@example(ops=[
    # Two arrivals at one instant, the first too small to outlast it: it
    # completes in the zero-length step before the second is admitted.
    ("reserve", 0.0, 0.0, 0, "a", 0.5), ("reserve", 2.0, 2.220446049250313e-16, 0, "a", 0.5),
    ("reserve", 2.0, 1.0, 0, "a", 1.0)])
@settings(max_examples=120, deadline=None)
def test_incremental_fair_share_bit_identical_to_resweep_reference(ops):
    """Suffix re-integration is an optimization, never a semantic change.

    A random stream of weighted reserves (arrivals deliberately *not* sorted,
    so out-of-order admissions rewind), cancels and capacity changes (which
    the timeline requires in time order: the drawn times are handed out
    sorted) runs through :func:`lockstep` against
    ``tests/oracles/sim_reference.py``.
    """
    times = iter(sorted(op[1] for op in ops if op[0] == "capacity"))
    lockstep([("capacity", next(times), op[2]) if op[0] == "capacity" else op for op in ops])


def reserve(arrival, seconds, job="a", weight=1.0):
    return ("reserve", arrival, seconds, 1000, job, weight)


def count_advances(monkeypatch):
    """Counter of ``FairShareTimeline._advance`` calls from here on."""
    calls = []
    advance = FairShareTimeline._advance
    monkeypatch.setattr(FairShareTimeline, "_advance",
                        lambda self, target: calls.append(target) or advance(self, target))
    return calls


class TestSuffixReintegration:
    """Directed cases for ``FairShareTimeline._reintegrate`` against the oracle."""

    #: Capacity halves while the link idles between ``a`` and the later
    #: transfers: the sweep state at ``b``'s admission is the stored one, but
    #: every later completion moves.
    IDLE_GAP = [reserve(0.0, 2.0), reserve(10.0, 2.0, "b"), reserve(10.5, 2.0, "c"),
                ("capacity", 5.0, 0.5)]
    #: One busy period from t = 0 past the last admission; the late arrival at
    #: 5.0 takes service from ``a`` for good.
    LONG_BUSY = [reserve(0.0, 100.0), reserve(10.0, 1.0, "b"), reserve(20.0, 1.0, "c"),
                 reserve(5.0, 0.5, "x")]

    def test_capacity_change_requotes_later_transfers_although_the_state_coincides(self):
        timeline, _ = lockstep(self.IDLE_GAP)
        ends = {row[0]: row[1] for row in timeline.transfer_schedule()}
        assert ends == {0.0: 2.0, 10.0: 17.5, 10.5: 18.0}  # a at full rate, b and c at half

    def test_capacity_change_never_takes_the_cut_off(self, monkeypatch):
        calls = count_advances(monkeypatch)
        lockstep(self.IDLE_GAP[:3])
        del calls[:]
        lockstep(self.IDLE_GAP[3:])  # on an empty timeline: no admission to replay
        assert calls == []
        timeline, _ = lockstep(self.IDLE_GAP[:3])
        del calls[:]
        timeline.set_capacity(5.0, 5.0)
        assert calls == [10.0, 10.5]  # both admissions behind the change point

    def test_cancel_whose_first_dropped_transfer_is_slot_zero(self):
        timeline, _ = lockstep([reserve(0.0, 3.0), reserve(1.0, 2.0, "b"), reserve(2.0, 2.0),
                                ("cancel", "a", 0.0)])
        assert timeline.transfer_schedule() == ((1.0, 3.0, 2.0, 1.0),)

    def test_cancel_that_empties_the_timeline(self):
        timeline, _ = lockstep([reserve(0.0, 3.0), reserve(1.0, 2.0, "b"), ("cancel", "a", 0.0),
                                ("cancel", "b", 1.0)])
        assert timeline.busy_until == 0.0
        assert timeline.records == () and timeline.as_dict()["num_transfers"] == 0
        # ... and admits again from the empty state.
        assert timeline.reserve(0.5, 1.0, job="c") == (0.5, 1.5)

    def test_cancel_keeps_what_sits_before_after_time(self):
        timeline, _ = lockstep([reserve(0.0, 4.0), reserve(1.0, 4.0, "b"), reserve(6.0, 1.0),
                                reserve(7.0, 1.0, "b"), ("cancel", "a", 5.0)])
        assert [row[0] for row in timeline.transfer_schedule()] == [0.0, 1.0, 7.0]

    def test_insert_that_converges_at_the_last_admission(self, monkeypatch):
        calls = count_advances(monkeypatch)
        lockstep([reserve(0.0, 1.0), reserve(10.0, 1.0, "b"), reserve(20.0, 1.0, "c")])
        del calls[:]
        # c's end (6.0) is the finalized maximum until b completes at 11.0:
        # only the state at the last admission equals the stored one.
        lockstep([reserve(0.0, 1.0), reserve(10.0, 1.0, "b"), reserve(20.0, 1.0, "c"),
                  reserve(5.0, 1.0, "x")])
        assert calls[-3:] == [5.0, 10.0, 20.0]

    def test_insert_that_converges_early_leaves_the_tail_alone(self, monkeypatch):
        stream = [reserve(float(t), 1.0, "ab"[t % 2]) for t in range(0, 40, 2)]
        calls = count_advances(monkeypatch)
        timeline, _ = lockstep(stream + [reserve(3.25, 0.5, "x")])
        # Back on track two admissions after its slot; 17 later ones untouched.
        assert calls[-3:] == [3.25, 4.0, 6.0]
        assert timeline.rewind_reserves == 1

    def test_insert_that_never_converges(self, monkeypatch):
        calls = count_advances(monkeypatch)
        timeline, _ = lockstep(self.LONG_BUSY)
        assert calls[-3:] == [5.0, 10.0, 20.0]
        assert timeline.busy_until == 102.5

    def test_out_of_order_insert_behind_a_capacity_change(self):
        lockstep([reserve(0.0, 4.0), reserve(6.0, 4.0, "b"), ("capacity", 3.0, 0.5),
                  reserve(1.0, 1.0, "x"), ("capacity", 8.0, 2.0), reserve(7.0, 1.0, "y"),
                  ("cancel", "b", 2.0)])

    @pytest.mark.parametrize("original, mutated, killed_by", [
        # The cut-off compares the active set's keys, not their remaining demand.
        ("and remaining == old_remaining\n",
         "and remaining.keys() == old_remaining.keys()\n", "LONG_BUSY"),
        # The cut-off is enabled for set_capacity.
        ("cut_off = insert is not None or bool(drop)\n", "cut_off = True\n", "IDLE_GAP"),
    ])
    def test_hand_mutants_of_the_cut_off_fail_the_suite(self, original, mutated, killed_by):
        import inspect
        import textwrap
        import repro.sim.resources as resources_module

        source = textwrap.dedent(inspect.getsource(FairShareTimeline._reintegrate))
        assert source.count(original) == 1
        namespace = dict(vars(resources_module))
        exec(source.replace(original, mutated), namespace)  # noqa: S102 - our own source
        mutant = type("Mutant", (FairShareTimeline,),
                      {"_reintegrate": namespace["_reintegrate"]})
        for name in ("IDLE_GAP", "LONG_BUSY"):
            if name == killed_by:
                with pytest.raises(AssertionError):
                    lockstep(getattr(self, name), production=mutant)
            lockstep(getattr(self, name))


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                          st.integers(min_value=1, max_value=10**9)),
                min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_fair_share_makespan_never_exceeds_fifo(transfers):
    """Processor sharing is work-conserving: it never finishes last work later.

    FIFO first-fit can idle the resource while work is queued (a transfer
    too large for the gap before a committed future window waits behind it);
    fair share never idles while demand is pending, so on any identical
    request stream its makespan is at most FIFO's.  Total bytes match
    exactly (conservation under both disciplines).
    """
    fifo = ResourceTimeline(SharedResource("s", 10.0, kind="storage", latency_seconds=1e-4))
    fair = FairShareTimeline(SharedResource("s", 10.0, kind="storage",
                                            latency_seconds=1e-4, policy="fair"))
    for earliest, num_bytes in transfers:
        fifo.reserve_bytes(earliest, num_bytes)
        fair.reserve_bytes(earliest, num_bytes)
    assert fair.busy_until <= fifo.busy_until * (1 + 1e-9) + 1e-9
    assert fair.total_bytes() == fifo.total_bytes()
    assert fair.busy_seconds() == pytest.approx(fifo.busy_seconds())


# --------------------------------------------------------------------------- #
# Per-ToR fabric topology: placement decides which links a job crosses
# --------------------------------------------------------------------------- #
def per_tor_cluster(**overrides):
    """A 4-machine, 2-rack cluster with per-ToR fabric links.

    NIC and ToR uplink speeds are equal so rack-local and cross-rack rings
    have identical *uncontended* all-reduce cost — any measured difference
    between placements is pure shared-resource interference.
    """
    spec = dict(num_machines=4, gpus_per_machine=2, num_tor_switches=2,
                nic_gbps=1.0, tor_uplink_gbps=1.0, per_tor_fabric=True)
    spec.update(overrides)
    return Cluster(ClusterSpec(**spec))


class TestPerTorTopology:
    def test_links_crossed(self):
        cluster = per_tor_cluster()
        rack_local = cluster.machines[0].gpus() + cluster.machines[2].gpus()
        cross_rack = cluster.machines[0].gpus() + cluster.machines[1].gpus()
        assert cluster.links_crossed(cluster.machines[0].gpus()) == []  # one machine
        assert cluster.links_crossed(rack_local) == ["tor0-uplink"]
        assert cluster.links_crossed(cross_rack) == ["tor0-uplink", "tor1-uplink", "core"]
        # Flat clusters have no per-ToR resources to cross.
        assert paper_testbed_cluster().links_crossed(cross_rack) == []

    def test_machines_alternate_tors(self):
        cluster = per_tor_cluster()
        assert [cluster.tor_index(m.name) for m in cluster.machines] == [0, 1, 0, 1]
        with pytest.raises(KeyError, match="unknown machine"):
            cluster.tor_index("node99")

    def test_engine_reserves_on_every_crossed_link(self):
        cluster = per_tor_cluster()
        engine = EventDrivenEngine(cluster)
        workers = cluster.machines[0].gpus() + cluster.machines[1].gpus()
        engine.simulate_iteration(make_cost_model(), workers=workers,
                                  link_resource=cluster.links_crossed(workers),
                                  job_name="x")
        for name in ("tor0-uplink", "tor1-uplink", "core"):
            assert engine.resource_timeline(name).total_bytes() > 0
        assert engine.resource_timeline(Cluster.FABRIC).total_bytes() == 0

    def test_tor_pack_placement_keeps_jobs_rack_local(self):
        cluster = per_tor_cluster()
        scheduler = ClusterScheduler(cluster, placement="tor_pack")
        cost_model = make_cost_model()
        scheduler.submit(SimJob("a", cost_model, num_workers=4, iterations=1))
        scheduler.submit(SimJob("b", cost_model, num_workers=4, iterations=1))
        result = scheduler.run()
        for name in ("a", "b"):
            machines = {worker.split(":")[0] for worker in result.jobs[name].worker_names}
            tors = {cluster.tor_index(machine) for machine in machines}
            assert len(tors) == 1, f"job {name} spans racks: {machines}"
        # Rack-local jobs never touch the shared core fabric.
        assert result.resources[Cluster.CORE]["total_bytes"] == 0

    def test_tor_pack_spills_to_fewest_racks_when_needed(self):
        cluster = per_tor_cluster(num_machines=6)  # 3 machines (6 GPUs) per rack
        scheduler = ClusterScheduler(cluster, placement="tor_pack")
        scheduler.submit(SimJob("big", make_cost_model(), num_workers=8, iterations=1))
        result = scheduler.run()
        machines = {worker.split(":")[0] for worker in result.jobs["big"].worker_names}
        tors = {cluster.tor_index(machine) for machine in machines}
        assert tors == {0, 1}  # cannot fit one rack; spans exactly two

    @pytest.mark.parametrize("policy", ["fifo", "fair"])
    def test_rack_local_interference_below_cross_rack(self, policy):
        """The acceptance scenario: placement locality changes interference.

        Two identical comm-heavy jobs run rack-local on separate ToRs
        (``tor_pack``) vs interleaved across both racks (``round_robin``).
        Rack-local jobs queue on disjoint ToR uplinks and must finish
        measurably earlier than the cross-rack placement, where both jobs
        share both uplinks and the core — under either discipline.  Byte
        conservation: the discipline never changes the traffic, only its
        timing.
        """
        cost_model = make_cost_model((400_000, 800_000, 600_000), batch_size=4)

        def run(placement, fabric_policy=policy):
            cluster = per_tor_cluster(fabric_policy=fabric_policy)
            scheduler = ClusterScheduler(cluster, placement=placement)
            scheduler.submit(SimJob("a", cost_model, num_workers=4, iterations=4))
            scheduler.submit(SimJob("b", cost_model, num_workers=4, iterations=4))
            return scheduler.run()

        local, cross = run("tor_pack"), run("round_robin")
        assert local.makespan < cross.makespan * 0.9, \
            f"rack-local not measurably faster under {policy}"
        assert local.jobs["b"].completion_seconds < cross.jobs["b"].completion_seconds
        # Rack-local: no core traffic; cross-rack: all buckets cross the core.
        assert local.resources[Cluster.CORE]["total_bytes"] == 0
        assert cross.resources[Cluster.CORE]["total_bytes"] > 0
        # Per-link traffic is identical under the *other* discipline too —
        # the policy changes timing, never bytes.
        other_policy = "fifo" if policy == "fair" else "fair"
        other = run("tor_pack", fabric_policy=other_policy)
        assert {name: r["total_bytes"] for name, r in local.resources.items()} == \
            {name: r["total_bytes"] for name, r in other.resources.items()}

    def test_fair_and_fifo_move_identical_bytes(self):
        cost_model = make_cost_model((400_000, 800_000, 600_000), batch_size=4)
        totals = {}
        for policy in ("fifo", "fair"):
            cluster = per_tor_cluster(fabric_policy=policy, storage_policy=policy)
            scheduler = ClusterScheduler(cluster, placement="round_robin")
            scheduler.submit(SimJob("a", cost_model, num_workers=4, iterations=3,
                                    checkpoint_every=1))
            scheduler.submit(SimJob("b", cost_model, num_workers=4, iterations=3,
                                    checkpoint_every=1))
            result = scheduler.run()
            totals[policy] = {name: r["total_bytes"]
                              for name, r in result.resources.items()}
        assert totals["fifo"] == totals["fair"]
        assert sum(totals["fifo"].values()) > 0


# --------------------------------------------------------------------------- #
# Hypothesis properties
# --------------------------------------------------------------------------- #
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.integers(min_value=0, max_value=10**9)),
                min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_bytes_through_resource_equal_sum_of_per_job_traffic(transfers):
    """Conservation: resource-level bytes == the sum of every job's traffic."""
    timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=10.0, kind="storage"))
    expected = {}
    clock = 0.0
    for job, num_bytes in transfers:
        timeline.reserve_bytes(clock, num_bytes, job=job)
        expected[job] = expected.get(job, 0) + num_bytes
        clock += 0.01
    assert timeline.total_bytes() == sum(expected.values())
    assert timeline.bytes_by_job() == {k: v for k, v in expected.items()}


@given(
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                       st.integers(min_value=1, max_value=10**9)),
             min_size=1, max_size=25),
    st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
    st.floats(min_value=1.01, max_value=20.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_makespan_monotone_non_increasing_in_bandwidth(transfers, base_gbps, speedup):
    """A faster resource never finishes the same transfer sequence later.

    The FIFO discipline makes this provable: with every duration scaled down,
    each start and end time can only move earlier, window by window.
    """
    transfers = sorted(transfers)  # scheduler requests arrive in time order
    ends = []
    for gbps in (base_gbps, base_gbps * speedup):
        timeline = ResourceTimeline(
            SharedResource("s", bandwidth_gbps=gbps, kind="storage", latency_seconds=1e-4))
        last_end = 0.0
        for earliest, num_bytes in transfers:
            _start, last_end = timeline.reserve_bytes(earliest, num_bytes)
        ends.append(last_end)
    slow_makespan, fast_makespan = ends
    assert fast_makespan <= slow_makespan + 1e-12


@given(st.lists(st.integers(min_value=100, max_value=50_000), min_size=2, max_size=8),
       st.integers(min_value=0, max_value=7))
@settings(max_examples=30, deadline=None)
def test_no_contention_single_job_within_5pct_of_closed_form(param_counts, raw_prefix):
    """A lone job routed through the shared fabric still matches the fast path."""
    prefix = min(raw_prefix, len(param_counts) - 1)
    cost_model = make_cost_model(param_counts)
    cluster = paper_testbed_cluster()
    workers = cluster.workers(num_machines=3, gpus_per_machine=2)
    spb = AllReduceModel(cluster).seconds_per_byte(workers)

    engine = EventDrivenEngine(cluster)
    # The linear per-byte pricing is the validated closed-form contract (the
    # all-reduce latency term is deliberately outside it); the point here is
    # that routing through the shared fabric does not perturb a lone job.
    event = engine.simulate_iteration(cost_model, workers=workers, frozen_prefix=prefix,
                                      comm_seconds_per_byte=spb,
                                      link_resource=Cluster.FABRIC, job_name="solo",
                                      include_reference_overhead=False).total
    closed = cost_model.iteration(frozen_prefix=prefix, comm_seconds_per_byte=spb,
                                  include_reference_overhead=False).total
    assert closed > 0.0
    assert abs(event - closed) / closed <= 0.05


# --------------------------------------------------------------------------- #
# Engine integration: shared links (the comm_scale shim is gone)
# --------------------------------------------------------------------------- #
class TestEngineSharedResources:
    def test_fabric_routing_without_contention_is_identical(self):
        cost_model = make_cost_model()
        cluster = paper_testbed_cluster()
        workers = cluster.workers(2, 2)
        plain = EventDrivenEngine(paper_testbed_cluster()).simulate_iteration(
            cost_model, workers=workers)
        routed = EventDrivenEngine(paper_testbed_cluster()).simulate_iteration(
            cost_model, workers=workers, link_resource=Cluster.FABRIC, job_name="solo")
        assert routed.as_dict() == plain.as_dict()

    def test_concurrent_jobs_delay_each_other_on_the_fabric(self):
        cost_model = make_cost_model()
        cluster = paper_testbed_cluster()
        engine = EventDrivenEngine(cluster)
        first = engine.simulate_iteration(cost_model, workers=cluster.workers(2, 2),
                                          link_resource=Cluster.FABRIC, job_name="a")
        second = engine.simulate_iteration(cost_model, workers=cluster.workers(2, 2),
                                           link_resource=Cluster.FABRIC, job_name="b")
        assert second.total > first.total  # queued behind job a's buckets
        fabric = engine.resources.require(Cluster.FABRIC)
        assert set(fabric.bytes_by_job()) == {"a", "b"}

    def test_unknown_link_resource_rejected_at_call_time(self):
        engine = EventDrivenEngine(paper_testbed_cluster())
        with pytest.raises(KeyError, match="unknown resource"):
            engine.simulate_iteration(make_cost_model(), link_resource="warp-fabric")
        with pytest.raises(KeyError, match="unknown resource"):
            engine.storage_transfer(10, 0.0, "warp-store")

    def test_comm_scale_shim_is_gone(self):
        """The deprecated fair-share multiplier was removed, not just hidden.

        Cross-job contention is modelled exclusively with shared resources;
        passing the old knob must fail loudly instead of silently scaling.
        """
        with pytest.raises(TypeError):
            EventDrivenEngine(comm_scale=2.0)
        engine = EventDrivenEngine()
        assert not hasattr(type(engine), "comm_scale")


# --------------------------------------------------------------------------- #
# Scheduler integration: storage contention, async overlap, conservation
# --------------------------------------------------------------------------- #
class TestSchedulerSharedStorage:
    def _run(self, stagger=0.0, asynchronous=False, cost_model=None, iterations=6,
             checkpoint_every=2):
        cost_model = cost_model or make_cost_model()
        scheduler = ClusterScheduler(paper_testbed_cluster(), placement="fifo")
        scheduler.submit(SimJob("a", cost_model, num_workers=2, iterations=iterations,
                                checkpoint_every=checkpoint_every,
                                async_checkpoint=asynchronous))
        scheduler.submit(SimJob("b", cost_model, num_workers=2, iterations=iterations,
                                checkpoint_every=checkpoint_every,
                                async_checkpoint=asynchronous, arrival_time=stagger))
        return scheduler.run()

    def test_concurrent_checkpointers_finish_later_than_staggered(self):
        concurrent = self._run(stagger=0.0)
        stagger = concurrent.jobs["a"].iteration_seconds[1]  # one steady iteration
        staggered = self._run(stagger=stagger)
        assert concurrent.jobs["b"].completion_seconds > staggered.jobs["b"].completion_seconds
        assert concurrent.jobs["b"].checkpoint_seconds > staggered.jobs["b"].checkpoint_seconds
        # Staggering changes only the queueing, never the bytes stored.
        assert concurrent.resources[Cluster.CKPT_STORAGE]["total_bytes"] == \
            staggered.resources[Cluster.CKPT_STORAGE]["total_bytes"]

    def test_async_checkpoint_overlaps_with_compute(self):
        sync = self._run(asynchronous=False)
        overlapped = self._run(asynchronous=True)
        assert overlapped.makespan < sync.makespan
        # The snapshots still happened and still moved the same bytes.
        assert overlapped.jobs["a"].checkpoints_taken == sync.jobs["a"].checkpoints_taken
        assert overlapped.jobs["a"].checkpoint_bytes_written == \
            sync.jobs["a"].checkpoint_bytes_written

    def test_job_records_and_resource_summary_conserve_bytes(self):
        result = self._run()
        storage = result.resources[Cluster.CKPT_STORAGE]
        for name in ("a", "b"):
            record = result.jobs[name]
            assert storage["bytes_by_job"][name] == \
                record.checkpoint_bytes_written + record.restore_bytes_read
        assert storage["total_bytes"] == sum(storage["bytes_by_job"].values())

    def test_unknown_job_resource_names_rejected_at_submit(self):
        scheduler = ClusterScheduler(paper_testbed_cluster())
        with pytest.raises(KeyError, match="unknown resource"):
            scheduler.submit(SimJob("a", make_cost_model(), storage="warp-store"))
        with pytest.raises(KeyError, match="unknown resource"):
            scheduler.submit(SimJob("b", make_cost_model(), link="warp-fabric"))

    def test_small_job_checkpoint_not_delayed_by_big_jobs_future_window(self):
        """Mixed job sizes: non-overlapping transfers stay uncontended.

        A tiny job's checkpoints must not queue behind a big job's
        checkpoint window reserved far in the future (the resource is idle
        in between) — the regression the first-fit placement fixes.
        """
        big = make_cost_model((5_000_000,), batch_size=16)
        small = make_cost_model((1_000,), batch_size=16)
        alone = ClusterScheduler(paper_testbed_cluster())
        alone.submit(SimJob("small", small, num_workers=2, iterations=3, checkpoint_every=1))
        alone_record = alone.run().jobs["small"]

        mixed = ClusterScheduler(paper_testbed_cluster())
        mixed.submit(SimJob("big", big, num_workers=2, iterations=3, checkpoint_every=1))
        mixed.submit(SimJob("small", small, num_workers=2, iterations=3, checkpoint_every=1))
        mixed_record = mixed.run().jobs["small"]
        # The small job's transfers all complete long before the big job's
        # first checkpoint window opens, so its record is unchanged.
        assert mixed_record.checkpoint_seconds == pytest.approx(alone_record.checkpoint_seconds)
        assert mixed_record.completion_seconds == pytest.approx(alone_record.completion_seconds)

    def test_resize_during_async_drain_commits_each_checkpoint_once(self):
        """A resize mid-drain must not double-commit or regress the watermark."""
        cluster = Cluster(ClusterSpec(num_machines=2, gpus_per_machine=2, storage_gbps=0.05))
        scheduler = ClusterScheduler(cluster)
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=2, iterations=10,
                                checkpoint_every=1, async_checkpoint=True))
        iteration = EventDrivenEngine(cluster).simulate_iteration(
            make_cost_model(), workers=cluster.workers(1, 2)).total
        scheduler.resize_job("a", +1, at_time=iteration * 3.5)
        result = scheduler.run()
        commits = [entry for entry in result.trace
                   if entry["kind"] == "checkpoint" and entry["job"] == "a"]
        committed_iterations = [entry["iteration"] for entry in commits]
        assert len(committed_iterations) == len(set(committed_iterations)), \
            f"checkpoint committed twice: {committed_iterations}"
        assert committed_iterations == sorted(committed_iterations), \
            f"checkpoint watermark regressed: {committed_iterations}"
        # Periodic commits plus the synchronized migration checkpoint.
        migrations = [entry for entry in result.trace if entry["kind"] == "migrate"]
        assert result.jobs["a"].checkpoints_taken == len(commits) + len(migrations)

    def test_cluster_add_resource_after_scheduler_construction(self):
        """Resources declared on the cluster late are adopted by the engine."""
        cluster = paper_testbed_cluster()
        scheduler = ClusterScheduler(cluster)
        cluster.add_resource(SharedResource("late-store", bandwidth_gbps=5.0, kind="storage"))
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=2, iterations=3,
                                checkpoint_every=1, storage="late-store"))
        result = scheduler.run()
        assert result.resources["late-store"]["total_bytes"] > 0

    def test_custom_storage_resource_is_used(self):
        cluster = paper_testbed_cluster()
        cluster.add_resource(SharedResource("scratch", bandwidth_gbps=5.0, kind="storage"))
        scheduler = ClusterScheduler(cluster)
        scheduler.submit(SimJob("a", make_cost_model(), num_workers=2, iterations=4,
                                checkpoint_every=2, storage="scratch"))
        result = scheduler.run()
        assert result.resources["scratch"]["total_bytes"] > 0
        assert result.resources[Cluster.CKPT_STORAGE]["total_bytes"] == 0

    def test_storage_bandwidth_monotone_on_makespan(self):
        makespans = []
        for gbps in (1.0, 4.0, 16.0):
            cost_model = make_cost_model()
            cluster = Cluster(ClusterSpec(num_machines=2, gpus_per_machine=2,
                                          storage_gbps=gbps))
            scheduler = ClusterScheduler(cluster)
            scheduler.submit(SimJob("a", cost_model, num_workers=2, iterations=5,
                                    checkpoint_every=1))
            scheduler.submit(SimJob("b", cost_model, num_workers=2, iterations=5,
                                    checkpoint_every=1))
            makespans.append(scheduler.run().makespan)
        assert makespans[0] >= makespans[1] >= makespans[2]
        assert makespans[0] > makespans[2]  # the sweep actually bites


# --------------------------------------------------------------------------- #
# Mid-run capacity changes (degraded links, fault model)
# --------------------------------------------------------------------------- #
class TestCapacityChanges:
    def test_fifo_requote_is_byte_conserving_and_piecewise_exact(self):
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=8.0))
        timeline.reserve(0.0, 2.0, num_bytes=16, job="a")   # in flight at t=1
        timeline.reserve(0.0, 2.0, num_bytes=16, job="b")   # queued to [2, 4)
        timeline.set_capacity(1.0, 4.0)                     # half rate at t=1
        records = {record.job: record for record in timeline.records}
        # a keeps its start; the second half of its bytes drain at half rate.
        assert (records["a"].start, records["a"].end) == (0.0, pytest.approx(3.0))
        # b re-quotes its full duration and re-flows behind a.
        assert (records["b"].start, records["b"].end) == \
            (pytest.approx(3.0), pytest.approx(7.0))
        assert timeline.total_bytes() == 32                 # payload untouched
        assert timeline.capacity_gbps == 4.0
        # New quotes price at the degraded rate (no latency on this resource).
        assert timeline.transfer_seconds(10**9) == pytest.approx(2.0)

    def test_fifo_closed_windows_keep_their_committed_slots(self):
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=8.0))
        timeline.reserve(0.0, 1.0, num_bytes=8, job="done")
        timeline.set_capacity(2.0, 2.0)
        record = timeline.records[0]
        assert (record.start, record.end) == (0.0, 1.0)  # bytes were on the wire

    def test_restoring_capacity_speeds_queued_windows_back_up(self):
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=8.0))
        timeline.reserve(0.0, 1.0, num_bytes=8, job="a")
        timeline.reserve(0.0, 1.0, num_bytes=8, job="b")
        timeline.set_capacity(0.5, 4.0)   # degrade mid-a
        timeline.set_capacity(2.0, 8.0)   # restore before b finishes
        records = {record.job: record for record in timeline.records}
        assert records["a"].end == pytest.approx(1.5)
        # b started at 1.5 under the degraded rate, then re-quoted again on
        # the restore: 0.5s of work remained at t=2.0 of the original 1.0s.
        assert records["b"].start == pytest.approx(1.5)
        assert records["b"].end == pytest.approx(2.75)
        assert timeline.total_bytes() == 16

    def test_capacity_changes_validated(self):
        timeline = ResourceTimeline(SharedResource("s", bandwidth_gbps=8.0))
        with pytest.raises(ValueError, match="capacity must be positive"):
            timeline.set_capacity(1.0, 0.0)
        timeline.set_capacity(2.0, 4.0)
        with pytest.raises(ValueError, match="time order"):
            timeline.set_capacity(1.0, 8.0)
        assert timeline.capacity_profile() == ((2.0, 0.5),)

    def test_fair_share_capacity_drop_stretches_active_transfers(self):
        def run(drop):
            timeline = FairShareTimeline(SharedResource("f", bandwidth_gbps=8.0,
                                                        policy="fair"))
            ends = [timeline.reserve(0.0, 2.0, num_bytes=16, job="a")[1]]
            ends.append(timeline.reserve(0.0, 2.0, num_bytes=16, job="b")[1])
            if drop:
                timeline.set_capacity(1.0, 4.0)
            return timeline

        clean, dropped = run(False), run(True)
        assert clean.total_bytes() == dropped.total_bytes() == 32
        # Both transfers share the link, so both finish later than the
        # no-fault run; service rendered before the change is untouched.
        for job in ("a", "b"):
            clean_end = max(r.end for r in clean.records if r.job == job)
            dropped_end = max(r.end for r in dropped.records if r.job == job)
            assert dropped_end > clean_end

    def test_fair_share_sole_transfer_integrates_the_profile_exactly(self):
        timeline = FairShareTimeline(SharedResource("f", bandwidth_gbps=8.0,
                                                    policy="fair"))
        _start, end = timeline.reserve(0.0, 4.0, num_bytes=32, job="a")
        assert end == pytest.approx(4.0)
        timeline.set_capacity(2.0, 4.0)  # half rate with 2s of work left
        new_end = max(record.end for record in timeline.records)
        assert new_end == pytest.approx(6.0)  # 2s done + 2s of work at 1/2 rate

    def test_scheduler_level_degradation_conserves_bytes(self):
        """End to end: a degraded link changes timing, never byte accounting."""
        def run(degrade):
            cluster = Cluster(ClusterSpec(num_machines=2, gpus_per_machine=2,
                                          nic_gbps=1.0, tor_uplink_gbps=1.0))
            scheduler = ClusterScheduler(cluster)
            scheduler.submit(SimJob("a", make_cost_model(), num_workers=4,
                                    iterations=6, checkpoint_every=2,
                                    storage="ckpt-store"))
            if degrade:
                # The clean run takes ~0.022s; degrade mid-run, restore late.
                scheduler.degrade_link("fabric", gbps=0.2, at_time=0.005,
                                       restore_at=0.015)
            return scheduler.run()

        clean, degraded = run(False), run(True)
        assert degraded.makespan > clean.makespan
        for name in ("fabric", "ckpt-store"):
            assert degraded.resources[name]["total_bytes"] == \
                clean.resources[name]["total_bytes"]

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=10**8), min_size=1,
                       max_size=6),
        change_at=st.floats(min_value=0.01, max_value=5.0),
        factor=st.floats(min_value=0.05, max_value=4.0),
        policy=st.sampled_from(["fifo", "fair"]),
    )
    def test_requote_conserves_bytes_under_any_change(self, sizes, change_at,
                                                      factor, policy):
        resource = SharedResource("r", bandwidth_gbps=8.0, policy=policy)
        timeline = build_timeline(resource)
        for index, num_bytes in enumerate(sizes):
            timeline.reserve_bytes(0.25 * index, num_bytes, job=f"j{index % 3}")
        before = timeline.bytes_by_job()
        timeline.set_capacity(change_at, 8.0 * factor)
        assert timeline.bytes_by_job() == before
        assert timeline.total_bytes() == sum(sizes)
        for record in timeline.records:
            assert record.end >= record.start >= 0.0


# --------------------------------------------------------------------------- #
# TrainerJob: a real trainer inside the simulated cluster
# --------------------------------------------------------------------------- #
class TestTrainerJob:
    """Each test runs twice: a small ``VanillaTrainer`` for eight iterations,
    and the Table 1 CNN's ``EgeriaTrainer`` for its whole tiny run, whose live
    freezing decisions must reach the simulated job."""

    @pytest.fixture(scope="class", params=["vanilla", "egeria"])
    def kind(self, request):
        return request.param

    def _trainer(self, kind):
        """A fresh trainer of ``kind`` and the number of iterations in one run."""
        if kind == "egeria":
            workload = build_workload("resnet56_cifar10", "tiny", 0)
            trainer = build_trainer("egeria", workload)
            return trainer, len(trainer.train_loader) * workload.num_epochs
        full = make_dataset("synthetic_cifar10", num_samples=48, num_classes=4,
                            image_size=8, noise=0.8, seed=0)
        train_ds, _eval_ds = full.split(eval_fraction=0.25)
        train_loader = DataLoader(train_ds, batch_size=8, seed=0)
        model = models.resnet8(num_classes=4, width=0.5, seed=0)
        optimizer = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
        return VanillaTrainer(model, ClassificationTask(), train_loader, None, optimizer), 8

    def _charged_run(self, kind):
        """One whole run of ``kind`` on two workers, checkpointed every third
        iteration: ``(trainer, manager, job, result)``."""
        trainer, iterations = self._trainer(kind)
        manager = CheckpointManager(MemoryBackend())
        trainer.configure_checkpointing(manager, checkpoint_every=1)
        job = TrainerJob("t", trainer, iterations=iterations, num_workers=2,
                         checkpoint_every=3)
        scheduler = ClusterScheduler(paper_testbed_cluster())
        scheduler.submit(job)
        return trainer, manager, job, scheduler.run()

    @pytest.fixture(scope="class")
    def charged(self, kind):
        return self._charged_run(kind)

    def _recovery_run(self, kind, fail: bool, checkpoints: bool = True):
        """One whole run of ``kind`` on two workers, checkpointed every second
        iteration or not at all, and with or without a GPU failure halfway."""
        trainer, iterations = self._trainer(kind)
        if checkpoints:
            trainer.configure_checkpointing(CheckpointManager(MemoryBackend()),
                                            checkpoint_every=1)
        job = TrainerJob("t", trainer, iterations=iterations, num_workers=2,
                         checkpoint_every=2 if checkpoints else None)
        scheduler = ClusterScheduler(paper_testbed_cluster())
        scheduler.submit(job)
        if fail:
            nominal = EventDrivenEngine(paper_testbed_cluster()).simulate_iteration(
                trainer.cost_model, workers=paper_testbed_cluster().workers(1, 2)).total
            scheduler.inject_failure("node0:gpu0", at_time=nominal * (iterations / 2 + 0.5))
        return trainer, scheduler.run()

    @pytest.fixture(scope="class")
    def recovery(self, kind):
        """A clean run, a failed run that rolls back to its last checkpoint,
        and a failed run with no checkpoint that restarts from scratch."""
        return {"clean": self._recovery_run(kind, fail=False),
                "rollback": self._recovery_run(kind, fail=True),
                "scratch": self._recovery_run(kind, fail=True, checkpoints=False)}

    def test_trainer_backed_job_runs_and_charges_real_bytes(self, charged):
        trainer, manager, job, result = charged
        iterations = job.iterations
        record = result.jobs["t"]
        assert record.iterations_done == iterations
        assert trainer.iteration == iterations  # the real trainer actually stepped
        assert record.checkpoints_taken == iterations // 3
        # Simulated checkpoint volume is the manager's actual incremental bytes.
        assert record.checkpoint_bytes_written == \
            sum(info["bytes_written"] for info in manager.history())
        assert len(job.prefix_series) == len(record.iteration_seconds) == iterations

    def test_checkpoint_bytes_stay_below_the_full_payload(self, charged):
        """Content addressing writes less than the full payloads."""
        _, manager, _, result = charged
        assert 0 < result.jobs["t"].checkpoint_bytes_written < \
            sum(info["payload_bytes"] for info in manager.history())

    def test_prefix_advances_only_when_the_trainer_freezes(self, kind, charged):
        """Egeria's live freezing decisions reach the priced prefix; a vanilla
        trainer stays unfrozen."""
        _, _, job, _ = charged
        assert (max(job.prefix_series) > 0) == (kind == "egeria")

    @pytest.mark.parametrize("kind", ["egeria"], indirect=True)
    def test_iterations_at_the_deepest_prefix_are_faster_than_unfrozen(self, charged):
        _, _, job, result = charged
        deepest = max(job.prefix_series)
        seconds = {prefix: [s for s, p in zip(result.jobs["t"].iteration_seconds,
                                              job.prefix_series) if p == prefix]
                   for prefix in (0, deepest)}
        assert deepest > 0 and seconds[deepest] and seconds[0]
        assert max(seconds[deepest]) < min(seconds[0])

    def test_trainer_backed_job_is_deterministic(self, kind, charged):
        """The same seed reproduces every record and prefix decision."""
        _, _, job, result = charged
        _, _, rerun_job, rerun = self._charged_run(kind)
        assert rerun.as_dict() == result.as_dict()
        assert rerun_job.prefix_series == job.prefix_series

    def test_trainer_job_rollback_after_failure_is_bit_exact(self, recovery):
        """A failed trainer-backed job replays to the same final weights.

        The rollback path restores the live trainer from the matching real
        checkpoint and re-seeks the data loader, so the re-executed
        iterations reproduce the clean run exactly — weights and all.
        """
        import numpy as np

        clean_trainer, clean = recovery["clean"]
        failed_trainer, failed = recovery["rollback"]
        iterations = clean_trainer.iteration
        assert failed.jobs["t"].failures == 1
        assert failed.jobs["t"].restores == 1
        assert failed.jobs["t"].restore_seconds > 0.0
        assert failed.jobs["t"].iterations_done == iterations
        assert failed_trainer.iteration == iterations
        # Recovery costs time but never correctness.
        assert failed.makespan > clean.makespan
        clean_state = clean_trainer.model.state_dict()
        failed_state = failed_trainer.model.state_dict()
        assert all(np.array_equal(clean_state[key], failed_state[key]) for key in clean_state)

    def test_trainer_job_rollback_beats_restart_from_scratch(self, recovery):
        """With no checkpoint the same failure costs the whole first half."""
        clean_trainer, _ = recovery["clean"]
        _, failed = recovery["rollback"]
        _, scratch = recovery["scratch"]
        assert scratch.jobs["t"].failures == 1
        assert scratch.jobs["t"].restores == 0
        assert scratch.jobs["t"].iterations_done == clean_trainer.iteration
        assert failed.makespan < scratch.makespan

    def test_multi_worker_trainer_job_is_charged_for_communication(self, kind):
        """Two data-parallel workers pay the gradient all-reduce one worker does not."""
        finish = {}
        for workers in (1, 2):
            scheduler = ClusterScheduler(paper_testbed_cluster())
            scheduler.submit(TrainerJob("t", self._trainer(kind)[0], iterations=6,
                                        num_workers=workers))
            finish[workers] = scheduler.run().jobs["t"].finish_time
        assert finish[2] > finish[1]

    def test_trainer_job_epochs_wrap_and_step_the_lr_schedule(self, kind):
        trainer, _ = self._trainer(kind)
        per_epoch = len(trainer.train_loader)
        job = TrainerJob("t", trainer, iterations=per_epoch + 2)
        scheduler = ClusterScheduler(paper_testbed_cluster())
        scheduler.submit(job)
        scheduler.run()
        assert trainer.iteration == per_epoch + 2
        assert job._epoch == 1  # crossed exactly one epoch boundary
