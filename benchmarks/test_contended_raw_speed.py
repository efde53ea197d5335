"""Contended cache-hostile raw-speed benchmark: the PR-8 acceptance gate.

Eight two-worker jobs all cross one fair-share fabric link, so the link is
never quiet: the fast-forward cache almost never replays and every live
iteration queues its gradient buckets into an ever-growing open busy period.
This is the workload where the *pre-optimization* engine was quadratic —
every reserve re-integrated the whole admitted history from t = 0 — and
where fast-forwarded iterations still cost one heap event each.

The benchmark runs the same scenario twice:

* **pre-PR mode** — fair-share timelines built from the from-scratch oracle
  (``tests/oracles/sim_reference.ResweepFairShareTimeline``: full resweep
  per reserve) under ``PerIterationScheduler``, reproducing the engine
  before PR 8;
* **optimized mode** — production: incremental integration with suffix
  re-integration, batched fast-forward, O(active) per in-order reserve.

and asserts a **bit-identical** :class:`SchedulerResult` from a pinned number
of integration steps: about two per reserve, where the oracle sweeps its
whole history — 1 440 transfers on average — for each.  Seconds are printed
for the reader and asserted nowhere.
"""

import time
from contextlib import contextmanager

from oracles import sim_reference

from repro.core.modules import LayerModule
from repro.sim import ClusterScheduler, CostModel, EventDrivenEngine, SimJob
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.resources import FairShareTimeline
import repro.sim.resources as resources_mod

#: Jobs sharing the fair fabric (the acceptance criterion asks for >= 8).
_NUM_JOBS = 8
#: Sized so the (quadratic) pre-PR mode runs a few seconds in CI.
_ITERATIONS = 60
#: Gradient buckets (modules) per iteration: one fabric reserve each.
_MODULES = 6


def _cost_model(job_index):
    """Per-job distinct cost model: no cross-job cache sharing, and enough
    gradient volume that every iteration keeps the fabric busy."""
    modules = [
        LayerModule(name=f"m{i}", paths=[], blocks=[],
                    num_params=200_000 * (i + 1) + 10_000 * job_index, index=i)
        for i in range(_MODULES)
    ]
    return CostModel(modules, batch_size=32)


@contextmanager
def _fair_integration(incremental):
    """Build new fair-share timelines from production or from the oracle."""
    saved = resources_mod.build_timeline
    if not incremental:
        resources_mod.build_timeline = sim_reference.build_resweep_timeline
    try:
        yield
    finally:
        resources_mod.build_timeline = saved


def _run(optimized):
    spec = ClusterSpec(num_machines=_NUM_JOBS, gpus_per_machine=2,
                       fabric_policy="fair")
    with _fair_integration(optimized):
        cluster = Cluster(spec)
        engine = EventDrivenEngine(cluster)
        scheduler_cls = ClusterScheduler if optimized else sim_reference.PerIterationScheduler
        scheduler = scheduler_cls(cluster, engine=engine, placement="round_robin")
        for index in range(_NUM_JOBS):
            scheduler.submit(SimJob(f"job{index}", _cost_model(index),
                                    num_workers=2, iterations=_ITERATIONS,
                                    weight=1.0 + 0.25 * index))
        start = time.perf_counter()
        result = scheduler.run()
    return time.perf_counter() - start, result


def test_contended_fair_share_raw_speed(benchmark, monkeypatch):
    """Bit-identical results from ~2 integration steps per reserve, not a sweep of the history."""
    advances, advance = [0], FairShareTimeline._advance

    def counted(self, target):
        advances[0] += 1
        return advance(self, target)

    monkeypatch.setattr(FairShareTimeline, "_advance", counted)

    def run_both():
        reference_seconds, reference = _run(optimized=False)
        optimized_seconds, optimized = _run(optimized=True)
        return reference_seconds, reference, optimized_seconds, optimized

    reference_seconds, reference, optimized_seconds, optimized = benchmark.pedantic(
        run_both, rounds=1, iterations=1)

    expected, observed = reference.as_dict(), optimized.as_dict()
    expected.pop("perf"), observed.pop("perf")
    assert observed == expected, "optimized contended run diverged from pre-PR engine"

    perf = optimized.perf
    # The fabric is (almost) never quiet: the run must be live-dominated,
    # i.e. genuinely exercising the fair-share integration hot path.
    assert perf["cache_hit_rate"] < 0.5, perf
    assert perf["fair_incremental_reserves"] > 0, perf
    assert reference.perf["fair_incremental_reserves"] == 0, reference.perf

    print(f"\ncontended {_NUM_JOBS}-job fair-share cluster: pre-PR "
          f"{reference_seconds:.3f}s vs optimized {optimized_seconds:.3f}s "
          f"(hit rate {perf['cache_hit_rate']:.0%}, "
          f"incremental reserves {perf['fair_incremental_reserves']}, "
          f"rewinds {perf['fair_rewind_reserves']}, "
          f"full resweeps {perf['fair_full_resweeps']}, _advance steps {advances[0]})")
    # The oracle re-integrates everything admitted so far on each of the
    # 2 880 reserves (4 148 640 transfers swept in all); production admits
    # each once from the frontier or a snapshot rewind, in 6 066 steps.
    reserves = _NUM_JOBS * _ITERATIONS * _MODULES
    assert reference.perf["fair_full_resweeps"] == reserves
    assert perf["fair_incremental_reserves"] + perf["fair_rewind_reserves"] == reserves
    assert perf["fair_full_resweeps"] == 0
    assert advances[0] == 6066
