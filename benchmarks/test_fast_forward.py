"""Microbenchmarks of the steady-state fast-forward layer and parallel sweeps.

The acceptance criteria of the fast-forward work, asserted as benchmarks:

* replaying the Table 1 event-backend iteration streams (an Egeria-style
  progressive-freezing schedule over thousands of iterations) with
  memoization on runs the event loop **only for the five distinct frozen
  prefixes** — exactly their events, 300x fewer than event by event — with
  **bit-identical** per-iteration timing;
* a multi-job scheduler run pops 1/100 of the events and makes 27 engine
  calls for 900 iterations, again with a bit-identical
  :class:`SchedulerResult`;
* a 4-cell ``core_gbps`` oversubscription sweep on a 2-process pool merges
  to the exact serial output.

All three state their gain as exact counters, not as a wall-clock ratio: a
ratio whose reference side is itself program code (the event loop, one
in-process sweep) falls whenever that code gets faster.  Seconds are printed
for the reader and asserted nowhere.  The event-by-event side is
``tests/oracles/sim_reference.py::LiveEngine``.
"""

import json
import multiprocessing
import os
import time

from conftest import print_rows
from oracles.sim_reference import LiveEngine

from repro.core.modules import parse_layer_modules
from repro.experiments import build_workload
from repro.sim import (
    ClusterScheduler,
    CostModel,
    EventDrivenEngine,
    SimJob,
    paper_testbed_cluster,
    run_sweep,
)

#: The Table 1 workloads the TTA/agreement benches drive through the event
#: backend (matching benchmarks/test_table1_tta_speedup.py).
_WORKLOADS = (
    "resnet56_cifar10",
    "resnet50_imagenet",
    "mobilenet_v2_cifar10",
    "transformer_tiny_wmt16",
    "bert_squad",
)

#: Iterations per workload and freezing cadence of the replayed schedule.
_ITERATIONS = 1500
_FREEZE_EVERY = 300


def _table1_cost_model(name):
    workload = build_workload(name, scale="small", seed=0)
    modules = parse_layer_modules(workload.make_model())
    return CostModel(modules, batch_size=workload.batch_size)


def _replay_table1_stream(engine, cost_model):
    """The Table 1 event-backend iteration stream: one engine call per
    iteration, frozen prefix advancing every ``_FREEZE_EVERY`` iterations —
    exactly what the trainers' simulated-time accounting does."""
    num_modules = len(cost_model.layer_modules)
    totals = []
    for iteration in range(_ITERATIONS):
        prefix = min(iteration // _FREEZE_EVERY, max(num_modules - 1, 0))
        result = engine.simulate_iteration(
            cost_model, frozen_prefix=prefix, cached_fp=prefix > 0,
            include_reference_overhead=True, comm_seconds_per_byte=1e-10)
        totals.append({**result.as_dict(), "num_events": result.num_events})
    return totals


def test_table1_event_backend_fast_forward_speedup(benchmark):
    """Only the five freeze transitions run the event loop; bit-identical timing."""
    cost_models = {name: _table1_cost_model(name) for name in _WORKLOADS}
    rows = []

    def run_all():
        reference_seconds = memoized_seconds = 0.0
        for name, cost_model in cost_models.items():
            reference_engine = LiveEngine()
            start = time.perf_counter()
            reference = _replay_table1_stream(reference_engine, cost_model)
            reference_seconds += time.perf_counter() - start

            memoized_engine = EventDrivenEngine()
            start = time.perf_counter()
            memoized = _replay_table1_stream(memoized_engine, cost_model)
            memoized_seconds += time.perf_counter() - start

            assert memoized == reference, f"{name}: fast-forward diverged"
            perf = memoized_engine.perf_counters()
            rows.append({
                "workload": name,
                "iterations": _ITERATIONS,
                "fast_forwarded": perf["iterations_fast_forwarded"],
                "cache_hit_rate": perf["cache_hit_rate"],
                "events_processed": perf["events_processed"],
                "event_by_event": reference_engine.events_processed,
                "live_prefix_events": sum(row["num_events"]
                                          for row in reference[::_FREEZE_EVERY]),
            })
        return reference_seconds, memoized_seconds

    reference_seconds, memoized_seconds = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_rows("Table 1 event-backend fast-forward (bit-identical)", rows)
    print(f"\nevent-by-event {reference_seconds:.3f}s vs fast-forward {memoized_seconds:.3f}s")
    for row in rows:
        # Only the freeze transitions re-simulate: 5 distinct prefixes, and
        # the loop pops exactly the events of those five iterations.
        assert row["fast_forwarded"] == _ITERATIONS - _ITERATIONS // _FREEZE_EVERY
        assert row["events_processed"] == row["live_prefix_events"]
        assert row["event_by_event"] == _FREEZE_EVERY * row["events_processed"]


def test_table1_multijob_scheduler_fast_forward(benchmark):
    """A multi-job cluster run: bit-identical SchedulerResult from 1/100 of the events."""
    cost_models = [_table1_cost_model(name) for name in _WORKLOADS[:3]]

    def run(engine_cls):
        cluster = paper_testbed_cluster()
        scheduler = ClusterScheduler(cluster, engine=engine_cls(cluster))
        for index, cost_model in enumerate(cost_models):
            scheduler.submit(SimJob(f"job{index}", cost_model, num_workers=2,
                                    iterations=300, checkpoint_every=50,
                                    frozen_prefix=lambda i: min(i // 100, 2)))
        start = time.perf_counter()
        result = scheduler.run()
        return time.perf_counter() - start, result

    (reference_seconds, reference), (memoized_seconds, memoized) = benchmark.pedantic(
        lambda: (run(LiveEngine), run(EventDrivenEngine)), rounds=1, iterations=1)
    expected, observed = reference.as_dict(), memoized.as_dict()
    live, perf = expected.pop("perf"), observed.pop("perf")
    assert observed == expected
    print(f"\nscheduler event-by-event {reference_seconds:.3f}s vs fast-forward "
          f"{memoized_seconds:.3f}s, hit rate {perf['cache_hit_rate']:.0%}")
    # Three jobs x three frozen prefixes run the event loop once each and the
    # other 99 iterations of every phase replay it ...
    assert (live["iterations_simulated"], live["iterations_fast_forwarded"]) == (900, 0)
    assert (perf["iterations_simulated"], perf["iterations_fast_forwarded"]) == (9, 891)
    assert live["events_processed"] == 100 * perf["events_processed"]
    # ... all but the phase openers and checkpoint writers inside 18 batches:
    # 27 ``simulate_iteration`` calls where the live engine takes 900.
    assert (perf["fast_forward_batches"], perf["iterations_batched"]) == (18, 900 - 27)


def test_table1_sweep_parallel_speedup(benchmark, monkeypatch):
    """The 4-cell oversubscription sweep on 2 workers: a 2-process pool runs
    it and the merged output is identical to serial execution.  (How much
    wall-clock the pool buys depends on the box's cores and on how fast one
    cell is, so it is printed, not asserted.)"""
    example = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "examples", "sweep_oversubscription.json")
    with open(example, "r", encoding="utf-8") as handle:
        sweep = json.load(handle)
    # The committed example is sized for the docs; scale the per-cell work up
    # so the printed timing is not all pool start-up.
    for job in sweep["scenario"]["jobs"]:
        job["iterations"] = 2000
    pool_sizes = []
    build_pool = multiprocessing.context.BaseContext.Pool

    def spy_pool(context, processes=None, *args, **kwargs):
        pool_sizes.append(processes)
        return build_pool(context, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", spy_pool)

    def run_both():
        start = time.perf_counter()
        serial = run_sweep(sweep, workers=1)
        serial_seconds = time.perf_counter() - start
        start = time.perf_counter()
        parallel = run_sweep(sweep, workers=2)
        parallel_seconds = time.perf_counter() - start
        return serial_seconds, serial, parallel_seconds, parallel

    serial_seconds, serial, parallel_seconds, parallel = benchmark.pedantic(
        run_both, rounds=1, iterations=1)
    assert parallel == serial  # worker count never changes the merged table
    assert [row["index"] for row in parallel["cells"]] == list(range(parallel["num_cells"])) \
        == [0, 1, 2, 3]
    assert pool_sizes == [2]  # the second run really went through a 2-process pool
    available_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    print(f"\nsweep serial {serial_seconds:.3f}s vs 2 workers {parallel_seconds:.3f}s "
          f"on {available_cpus} CPU(s)")
