"""SimScope observability tests: transparency, schema, conservation, CLI.

The contract mirrors SimSan's: an attached observer must be *invisible* to
the simulation (bit-identical results at the engine, the scheduler and the
full fault-injection scenario level) while the exported artifacts are honest
— the trace passes the Chrome ``trace_event`` schema checker, the metrics
pass counter monotonicity and the byte-conservation cross-check against the
resource-timeline audit, and the sweep's per-cell metrics are identical at
every worker count.  The mutation tests corrupt exports the way a real bug
would and assert the checkers catch it.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.core.modules import LayerModule
from repro.sim import (
    ClusterScheduler,
    CostModel,
    EventDrivenEngine,
    SimJob,
    paper_testbed_cluster,
    profile_scenario,
    run_scenario,
    run_sweep,
)
from repro.sim.observe import MetricsRegistry, SimObserver, Tracer, check_metrics, check_trace
from repro.sim.scenario import build_scenario

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: A fault-injection scenario exercising every observer hook: two jobs on a
#: per-ToR fabric with checkpoints, a GPU failure with recovery, and a
#: preempt/resume cycle (mirrors ``examples/scenario_faults.json``).
FAULT_SCENARIO = {
    "cluster": {"num_machines": 4, "gpus_per_machine": 2, "num_tor_switches": 2,
                "nic_gbps": 1.0, "tor_uplink_gbps": 1.0, "core_gbps": 0.5,
                "per_tor_fabric": True},
    "placement": "round_robin",
    "jobs": [
        {"name": "a", "modules": [400000, 800000, 600000], "batch_size": 4,
         "num_workers": 4, "iterations": 10, "policy": "egeria",
         "frozen_prefix": 1, "checkpoint_every": 4, "storage": "ckpt-store"},
        {"name": "b", "modules": [500000, 500000, 500000], "batch_size": 4,
         "num_workers": 4, "iterations": 10, "arrival_time": 0.5,
         "checkpoint_every": 5, "storage": "ckpt-store"},
    ],
    "failures": [{"gpu": "node0:gpu0", "at_time": 1.0, "recover_at": 1.8}],
    "preemptions": [{"job": "b", "at_time": 1.2}],
    "resumes": [{"job": "b", "at_time": 1.9}],
}


def _cost_model(num_modules=4, num_params=50_000):
    modules = [LayerModule(name=f"m{i}", paths=[], blocks=[],
                           num_params=num_params, index=i)
               for i in range(num_modules)]
    return CostModel(modules, batch_size=32)


def _scenario(**overrides):
    spec = copy.deepcopy(FAULT_SCENARIO)
    spec.update(overrides)
    return spec


def _comparable(report):
    return json.dumps({key: value for key, value in report.items()
                       if key != "metrics"}, sort_keys=True)


# --------------------------------------------------------------------------- #
# Tracer unit behaviour
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_spans_and_instants_render_to_valid_chrome_trace(self):
        tracer = Tracer()
        tracer.span("job", "a", "iteration", 0.0, 1.5, {"mode": "live"})
        tracer.span("job", "a", "queued", 2.0, 2.5)
        tracer.instant("job", "a", "checkpoint", 1.5)
        tracer.span("resource", "fabric", "allreduce", 0.5, 1.0, {"num_bytes": 10})
        assert tracer.num_events() == 4
        assert tracer.tracks() == [("job", "a"), ("resource", "fabric")]
        trace = tracer.as_dict()
        assert check_trace(trace) == []

    def test_metadata_names_every_used_track(self):
        tracer = Tracer()
        tracer.instant("cluster", "node0:gpu0", "gpu_failure", 3.0)
        events = tracer.events()
        metadata = [event for event in events if event["ph"] == "M"]
        assert {event["name"] for event in metadata} == {"process_name", "thread_name"}
        assert metadata[0]["args"]["name"] == "cluster"
        assert metadata[1]["args"]["name"] == "node0:gpu0"

    def test_timestamps_are_microseconds_and_monotone_per_track(self):
        tracer = Tracer()
        tracer.span("job", "a", "late", 2.0, 3.0)
        tracer.span("job", "a", "early", 0.5, 1.0)
        timed = [event for event in tracer.events() if event["ph"] != "M"]
        assert [event["ts"] for event in timed] == [0.5e6, 2.0e6]
        assert timed[0]["dur"] == 0.5e6

    def test_write_round_trips_through_json(self, tmp_path):
        tracer = Tracer()
        tracer.span("job", "a", "iteration", 0.0, 1.0)
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == tracer.as_dict()
        assert check_trace(loaded) == []


# --------------------------------------------------------------------------- #
# Metrics registry unit behaviour
# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_accumulates_and_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.counter_add("bytes", 0.0, 10.0)
        registry.counter_add("bytes", 1.0, 5.0)
        registry.gauge_set("depth", 0.0, 3.0)
        registry.gauge_set("depth", 1.0, 1.0)
        assert registry.get("bytes").values() == [10.0, 15.0]
        assert registry.get("depth").last == 1.0
        assert check_metrics(registry.as_dict()) == []

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter_add("x", 0.0, 1.0)
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            registry.gauge_set("x", 1.0, 2.0)

    def test_summary_statistics(self):
        registry = MetricsRegistry()
        registry.observe("wait", 0.0, 1.0)
        registry.observe("wait", 1.0, 3.0)
        summary = registry.summary()["wait"]
        assert summary["kind"] == "histogram"
        assert summary["num_samples"] == 2
        assert summary["min"] == 1.0 and summary["max"] == 3.0
        assert summary["mean"] == 2.0

    def test_csv_and_json_export(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter_add("bytes", 0.5, 7.0)
        csv_path = tmp_path / "metrics.csv"
        json_path = tmp_path / "metrics.json"
        registry.write(str(csv_path))
        registry.write(str(json_path))
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "metric,kind,time,value"
        assert lines[1] == "bytes,counter,0.5,7.0"
        assert json.loads(json_path.read_text()) == registry.as_dict()


# --------------------------------------------------------------------------- #
# Checker mutation tests: corrupted exports are caught
# --------------------------------------------------------------------------- #
class TestCheckers:
    def test_partial_overlap_on_a_job_track_is_caught(self):
        tracer = Tracer()
        tracer.span("job", "a", "first", 0.0, 2.0)
        tracer.span("job", "a", "second", 1.0, 3.0)
        problems = check_trace(tracer.as_dict())
        assert any("partially overlaps" in problem for problem in problems)

    def test_overlap_on_a_resource_track_is_allowed(self):
        """Fair-share windows overlap by design; only job tracks must nest."""
        tracer = Tracer()
        tracer.span("resource", "fabric", "first", 0.0, 2.0)
        tracer.span("resource", "fabric", "second", 1.0, 3.0)
        assert check_trace(tracer.as_dict()) == []

    def test_missing_track_metadata_is_caught(self):
        trace = {"traceEvents": [
            {"name": "iteration", "cat": "job", "ph": "X", "ts": 0.0, "dur": 1.0,
             "pid": 1, "tid": 1}]}
        problems = check_trace(trace)
        assert any("process_name" in problem for problem in problems)
        assert any("thread_name" in problem for problem in problems)

    def test_backwards_timestamps_are_caught(self):
        trace = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "job"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "a"}},
            {"name": "late", "cat": "job", "ph": "i", "ts": 5.0, "pid": 1, "tid": 1, "s": "t"},
            {"name": "early", "cat": "job", "ph": "i", "ts": 1.0, "pid": 1, "tid": 1, "s": "t"},
        ]}
        assert any("goes backwards" in problem for problem in check_trace(trace))

    def test_decreasing_counter_is_caught(self):
        metrics = {"metrics": {"bytes": {"kind": "counter",
                                         "samples": [[0.0, 10.0], [1.0, 5.0]]}}}
        assert any("counter decreases" in problem for problem in check_metrics(metrics))

    def test_byte_conservation_mismatch_is_caught(self):
        metrics = {"metrics": {"resource.bytes.fabric": {
            "kind": "counter", "samples": [[0.0, 10.0]]}}}
        report = {"resources": {"fabric": {"total_bytes": 999}}}
        problems = check_metrics(metrics, report)
        assert any("traced total 10 != audited total 999" in problem
                   for problem in problems)

    def test_missing_byte_counter_is_caught(self):
        metrics = {"metrics": {}}
        report = {"resources": {"fabric": {"total_bytes": 999}}}
        problems = check_metrics(metrics, report)
        assert any("absent" in problem for problem in problems)


# --------------------------------------------------------------------------- #
# Transparency: observed runs are bit-identical to plain runs
# --------------------------------------------------------------------------- #
class TestTransparency:
    def test_engine_results_identical_with_observer(self):
        cost_model = _cost_model()

        def stream(engine):
            results = []
            for iteration in range(30):
                prefix = min(iteration // 10, 3)
                result = engine.simulate_iteration(
                    cost_model, frozen_prefix=prefix, cached_fp=prefix > 0,
                    comm_seconds_per_byte=1e-9)
                results.append(result.as_dict())
            return results

        plain = stream(EventDrivenEngine())
        observer = SimObserver()
        observed_engine = EventDrivenEngine(observe=observer)
        observed = stream(observed_engine)
        assert observed == plain
        observer.finalize(observed_engine.resources)
        assert observer.tracer.num_events() > 0
        assert observer.metrics.get("engine.iterations_live").last > 0

    def test_scheduler_results_identical_with_observer(self):
        def run(observe):
            engine = EventDrivenEngine(paper_testbed_cluster(), observe=observe)
            scheduler = ClusterScheduler(paper_testbed_cluster(), engine=engine)
            for name in ("a", "b"):
                scheduler.submit(SimJob(name=name, cost_model=_cost_model(),
                                        num_workers=2, iterations=6,
                                        checkpoint_every=3))
            return scheduler.run().as_dict()

        plain = run(None)
        observed = run(SimObserver())
        assert json.dumps(observed, sort_keys=True) == json.dumps(plain, sort_keys=True)

    def test_fault_scenario_identical_with_observer(self):
        plain = run_scenario(_scenario())
        observed = run_scenario(_scenario(observe=True))
        assert "metrics" not in plain
        assert observed["metrics"]
        assert _comparable(observed) == _comparable(plain)

    def test_null_sink_records_nothing_but_stays_identical(self):
        plain = run_scenario(_scenario())
        null = run_scenario(_scenario(observe={"trace": False, "metrics": False}))
        assert "metrics" not in null
        assert _comparable(null) == _comparable(plain)

    def test_observe_key_rejects_unknown_pillars(self):
        with pytest.raises(ValueError, match="observe"):
            run_scenario(_scenario(observe={"tracing": True}))

    def test_fair_share_depth_samples_equal_a_scan_of_the_history(self):
        """The benchmark's ``sim_contended`` seed-0 scenario, observed: the queue
        depth a fair-share reserve samples from its own post-admission state is
        the number of earlier transfers still draining at its arrival — what a
        scan of every admitted transfer counts — out-of-order arrivals included."""
        with open(FIXTURES / "sim_contended-seed0.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        plain = build_scenario(copy.deepcopy(spec)).run()
        scheduler = build_scenario({**spec, "observe": {"trace": False, "metrics": True}})
        observer = scheduler.engine.observer
        note_reserve = observer.note_reserve
        sampled, scanned = [], []

        def checked(timeline, earliest_start, start, end, num_bytes, job, kind, depth):
            newest = timeline._seq - 1
            sampled.append(depth)
            scanned.append(sum(1 for other in timeline._transfers.values()
                               if other.seq != newest and other.arrival <= earliest_start
                               and timeline._ends[other.seq] > earliest_start))
            note_reserve(timeline, earliest_start, start, end, num_bytes, job, kind, depth)

        observer.note_reserve = checked
        observed = scheduler.run()
        assert len(sampled) == 4800 and observed.perf["fair_rewind_reserves"] == 3772
        assert sampled == scanned
        assert max(sampled) > 0
        assert observed.as_dict() == plain.as_dict()


# --------------------------------------------------------------------------- #
# Scenario exports: schema-valid trace, conserving metrics
# --------------------------------------------------------------------------- #
class TestScenarioExports:
    def test_fault_scenario_trace_and_metrics_validate(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        report = run_scenario(_scenario(), trace_out=str(trace_path),
                              metrics_out=str(metrics_path))
        trace = json.loads(trace_path.read_text())
        metrics = json.loads(metrics_path.read_text())
        assert check_trace(trace) == []
        assert check_metrics(metrics, report) == []
        instants = {event["name"] for event in trace["traceEvents"]
                    if event["ph"] == "i"}
        # Every fault-path decision shows up on the tracks.
        assert {"gpu_failure", "gpu_recovered", "job_failed", "job_preempted",
                "job_resumed", "checkpoint", "job_finish"} <= instants
        # One track per job and per resource.
        threads = {event["args"]["name"] for event in trace["traceEvents"]
                   if event["ph"] == "M" and event["name"] == "thread_name"}
        assert {"a", "b", "ckpt-store", "core"} <= threads

    def test_traced_byte_totals_match_resource_audit(self):
        report = run_scenario(_scenario(observe=True), include_trace=False)
        # Re-run with exports to get the full series (summary drops samples).
        observed = run_scenario(_scenario(observe=True))
        for name, summary in report["resources"].items():
            if summary["total_bytes"] <= 0:
                continue
            metric = observed["metrics"][f"resource.bytes.{name}"]
            assert int(metric["total"]) == int(summary["total_bytes"])

    def test_invalidated_iterations_leave_no_speculative_spans(self, tmp_path):
        """Job tracks show only committed work: spans nest even under faults."""
        trace_path = tmp_path / "trace.json"
        run_scenario(_scenario(), trace_out=str(trace_path))
        trace = json.loads(trace_path.read_text())
        assert check_trace(trace) == []  # includes the nest-or-disjoint check
        iteration_spans = [event for event in trace["traceEvents"]
                          if event["ph"] == "X" and event["name"] == "iteration"]
        assert iteration_spans
        assert all(event["args"]["mode"] in ("live", "replay")
                   for event in iteration_spans)

    def test_metrics_csv_export(self, tmp_path):
        metrics_path = tmp_path / "metrics.csv"
        run_scenario(_scenario(), metrics_out=str(metrics_path))
        lines = metrics_path.read_text().strip().splitlines()
        assert lines[0] == "metric,kind,time,value"
        assert len(lines) > 10


# --------------------------------------------------------------------------- #
# Sweep: per-cell metrics, worker-count independence
# --------------------------------------------------------------------------- #
class TestSweepMetrics:
    SWEEP = {
        "scenario": {
            "cluster": {"num_machines": 2, "gpus_per_machine": 2, "storage_gbps": 10.0},
            "observe": True,
            "jobs": [
                {"name": "a", "modules": [40000, 80000, 60000], "batch_size": 16,
                 "num_workers": 2, "iterations": 5, "checkpoint_every": 2},
                {"name": "b", "modules": [40000, 80000, 60000], "batch_size": 16,
                 "num_workers": 2, "iterations": 5}],
        },
        "grid": {"cluster.storage_gbps": [5.0, 10.0]},
        "seed": 0,
    }

    def test_sweep_cells_carry_metrics_summary(self):
        merged = run_sweep(copy.deepcopy(self.SWEEP), workers=1)
        for row in merged["cells"]:
            assert row["metrics"]
            assert "cluster.utilization" in row["metrics"]
            assert "perf" in row

    def test_sweep_metrics_identical_across_worker_counts(self):
        serial = run_sweep(copy.deepcopy(self.SWEEP), workers=1)
        parallel = run_sweep(copy.deepcopy(self.SWEEP), workers=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_unobserved_sweep_has_no_metrics_key(self):
        sweep = copy.deepcopy(self.SWEEP)
        del sweep["scenario"]["observe"]
        merged = run_sweep(sweep, workers=1)
        assert all("metrics" not in row for row in merged["cells"])


# --------------------------------------------------------------------------- #
# Per-iteration RunHistory on trainer-backed jobs
# --------------------------------------------------------------------------- #
class TestTrainerJobHistory:
    def _trainer(self):
        from repro import models, optim
        from repro.baselines import VanillaTrainer
        from repro.core import ClassificationTask
        from repro.data import DataLoader, make_dataset

        full = make_dataset("synthetic_cifar10", num_samples=48, num_classes=4,
                            image_size=8, noise=0.8, seed=0)
        train_ds, _eval_ds = full.split(eval_fraction=0.25)
        train_loader = DataLoader(train_ds, batch_size=8, seed=0)
        model = models.resnet8(num_classes=4, width=0.5, seed=0)
        optimizer = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
        return VanillaTrainer(model, ClassificationTask(), train_loader, None, optimizer)

    def test_job_record_carries_per_iteration_history(self):
        from repro.sim import TrainerJob

        job = TrainerJob("t", self._trainer(), iterations=6, num_workers=2)
        scheduler = ClusterScheduler(paper_testbed_cluster())
        scheduler.submit(job)
        record = scheduler.run().jobs["t"]
        history = record.history
        assert history is job.run_history()
        assert len(history.records) == 6
        assert history.metric_name == "train_loss"
        # Sim-time stamps are monotone: iterations execute in schedule order.
        stamps = [entry.simulated_time for entry in history.records]
        assert stamps == sorted(stamps)
        assert all(entry.train_loss > 0 for entry in history.records)
        view = record.as_dict()
        assert view["loss_series"] == history.losses()
        assert view["frozen_fraction_series"] == history.frozen_fractions()
        assert len(view["loss_series"]) == 6

    def test_plain_sim_jobs_have_no_history(self):
        scheduler = ClusterScheduler(paper_testbed_cluster())
        scheduler.submit(SimJob(name="a", cost_model=_cost_model(),
                                num_workers=2, iterations=3))
        record = scheduler.run().jobs["a"]
        assert record.history is None
        assert "loss_series" not in record.as_dict()


# --------------------------------------------------------------------------- #
# Profiling harness
# --------------------------------------------------------------------------- #
class TestProfiler:
    def test_profile_report_shape_and_ranking(self):
        report = profile_scenario(_scenario(), top=10)
        assert report["num_jobs"] == 2
        assert report["wall_seconds"] > 0
        assert report["events_per_second"] > 0
        assert report["iterations_per_second"] > 0
        assert report["makespan"] == pytest.approx(run_scenario(_scenario())["makespan"])
        assert 0 < len(report["hot_functions"]) <= 10
        cumtimes = [row["cumtime"] for row in report["hot_functions"]]
        assert cumtimes == sorted(cumtimes, reverse=True)
        for row in report["hot_functions"]:
            assert row["calls"] >= 1 and row["function"]

    def test_profile_sort_columns(self):
        report = profile_scenario(_scenario(), top=5, sort="tottime")
        tottimes = [row["tottime"] for row in report["hot_functions"]]
        assert tottimes == sorted(tottimes, reverse=True)
        with pytest.raises(ValueError, match="sort"):
            profile_scenario(_scenario(), sort="bogus")
