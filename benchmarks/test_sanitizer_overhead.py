"""What SimSan does on the Table 1 event-backend stream, as exact counters.

The CI acceptance criterion for the sanitizer: running the memoized Table 1
iteration stream with ``REPRO_SIMSAN``-style checking enabled stays
bit-identical while performing a pinned amount of real work — every live
event and duration checked, and every 32nd replay re-simulated live.  The
work is bounded by those counts, not by a wall-clock ratio (seconds are
printed for the reader and asserted nowhere).
"""

import time

from conftest import print_rows
from repro.core import parse_layer_modules
from repro.experiments import build_workload
from repro.sim import CostModel, EventDrivenEngine

#: A representative subset of the Table 1 workloads (full set lives in
#: benchmarks/test_fast_forward.py) -> invariant checks one sanitized stream makes.
_WORKLOADS = {"resnet56_cifar10": 1408, "mobilenet_v2_cifar10": 1714, "bert_squad": 1714}
_ITERATIONS = 1500
_FREEZE_EVERY = 300
#: ``SimSanitizer.spot_check_every`` default: every 32nd replay is re-simulated live.
_SPOT_CHECK_EVERY = 32


def _table1_cost_model(name):
    workload = build_workload(name, scale="small", seed=0)
    modules = parse_layer_modules(workload.make_model())
    return CostModel(modules, batch_size=workload.batch_size)


def _replay_table1_stream(engine, cost_model):
    num_modules = len(cost_model.layer_modules)
    totals = []
    for iteration in range(_ITERATIONS):
        prefix = min(iteration // _FREEZE_EVERY, max(num_modules - 1, 0))
        result = engine.simulate_iteration(
            cost_model, frozen_prefix=prefix, cached_fp=prefix > 0,
            include_reference_overhead=True, comm_seconds_per_byte=1e-10)
        totals.append(result.as_dict())
    return totals


def test_table1_sanitizer_overhead(benchmark):
    """Sanitized Table 1 stream: pinned check counts, bit-identical output."""
    cost_models = {name: _table1_cost_model(name) for name in _WORKLOADS}
    rows = []

    def run_all():
        plain_seconds = sanitized_seconds = 0.0
        for name, cost_model in cost_models.items():
            plain_engine = EventDrivenEngine()
            start = time.perf_counter()
            plain = _replay_table1_stream(plain_engine, cost_model)
            plain_seconds += time.perf_counter() - start

            sanitized_engine = EventDrivenEngine(sanitize=True)
            start = time.perf_counter()
            sanitized = _replay_table1_stream(sanitized_engine, cost_model)
            sanitized_seconds += time.perf_counter() - start

            assert sanitized == plain, f"{name}: sanitizer perturbed the simulation"
            assert sanitized_engine.perf_counters() == plain_engine.perf_counters()
            sanitizer = sanitized_engine.sanitizer
            rows.append({
                "workload": name,
                "iterations": _ITERATIONS,
                "checks": sanitizer.checks_performed,
                "spot_checks": sanitizer.spot_checks_performed,
            })
        return plain_seconds, sanitized_seconds

    plain_seconds, sanitized_seconds = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_rows("Table 1 SimSan work (bit-identical)", rows)
    print(f"\nplain {plain_seconds:.3f}s vs sanitized {sanitized_seconds:.3f}s")
    replays = _ITERATIONS - _ITERATIONS // _FREEZE_EVERY  # all but the five live prefixes
    for row in rows:
        assert row["spot_checks"] == replays // _SPOT_CHECK_EVERY == 46
        assert row["checks"] == _WORKLOADS[row["workload"]]
