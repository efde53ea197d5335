"""Tests for the discrete-event simulation engine and the multi-job scheduler."""

import numpy as np
import pytest

from repro import models, optim
from repro.core import ClassificationTask, parse_layer_modules
from repro.baselines import VanillaTrainer
from repro.data import DataLoader, make_dataset
from repro.experiments import build_workload
from repro.sim import (
    AllReduceModel,
    ClusterScheduler,
    CostModel,
    EventDrivenEngine,
    SchedulePolicy,
    SimJob,
    paper_testbed_cluster,
)
from repro.sim.engine import EventQueue

from oracles.sim_reference import closed_form_seconds


@pytest.fixture
def cost_model():
    model = models.resnet8(num_classes=4, width=0.5, seed=0)
    return CostModel(parse_layer_modules(model), batch_size=16)


@pytest.fixture
def cluster():
    return paper_testbed_cluster()


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        queue.push(2.0, "b")
        queue.push(1.0, "a")
        queue.push(3.0, "c")
        assert [queue.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_deterministic_tie_break_by_insertion(self):
        queue = EventQueue()
        for kind in ("first", "second", "third"):
            queue.push(1.0, kind)
        assert [queue.pop().kind for _ in range(3)] == ["first", "second", "third"]


class TestEngineClosedFormValidation:
    #: The Figure 9 single-job configurations (acceptance criterion: the
    #: event engine and the closed-form CostModel agree within 5% on these).
    FIG9_WORKLOADS = ("resnet50_imagenet", "mobilenet_v2_cifar10",
                      "transformer_base_wmt16", "bert_squad")

    @pytest.mark.parametrize("workload_name", FIG9_WORKLOADS)
    def test_within_5pct_on_fig9_configs(self, workload_name):
        workload = build_workload(workload_name, scale="tiny", seed=0)
        modules = parse_layer_modules(workload.make_model())
        cm = CostModel(modules, batch_size=workload.batch_size)
        total = sum(m.num_params for m in modules)
        prefix, running = 0, 0
        for module in modules:
            if running + module.num_params > total * 0.4:
                break
            running += module.num_params
            prefix += 1
        engine = EventDrivenEngine()
        assert engine.closed_form_deviation(cm, 0, False, include_reference_overhead=False) <= 0.05
        assert engine.closed_form_deviation(cm, prefix, False) <= 0.05
        assert engine.closed_form_deviation(cm, prefix, True) <= 0.05

    def test_exact_match_without_communication(self, cost_model):
        engine = EventDrivenEngine()
        for prefix in (0, 2):
            for cached in (False, True):
                closed = cost_model.iteration(prefix, cached).total
                event = engine.simulate_iteration(cost_model, frozen_prefix=prefix, cached_fp=cached,
                                                  include_reference_overhead=True).total
                assert event == pytest.approx(closed, rel=1e-12)

    def test_linear_comm_coefficient_within_5pct(self, cost_model, cluster):
        workers = cluster.workers(num_machines=3, gpus_per_machine=2)
        spb = AllReduceModel(cluster).seconds_per_byte(workers)
        engine = EventDrivenEngine()
        deviation = engine.closed_form_deviation(cost_model, 0, False,
                                                 include_reference_overhead=False,
                                                 comm_seconds_per_byte=spb)
        assert deviation <= 0.05


class TestEngineEvents:
    def test_result_decomposition(self, cost_model):
        result = EventDrivenEngine().simulate_iteration(cost_model, include_reference_overhead=True)
        assert result.forward > 0 and result.backward > 0
        assert result.reference_overhead > 0
        assert result.communication == 0.0
        assert result.total == pytest.approx(
            result.forward + result.backward + result.reference_overhead)

    def test_trace_records_compute_and_comm_events(self, cost_model, cluster):
        workers = cluster.workers(num_machines=2, gpus_per_machine=2)
        trace = []
        EventDrivenEngine(cluster).simulate_iteration(cost_model, workers=workers, trace=trace)
        kinds = {event.kind for event in trace}
        assert {"segment_done", "bucket_ready", "comm_done"} <= kinds
        times = [event.time for event in trace]
        assert times == sorted(times)

    def test_frozen_prefix_shrinks_comm_volume(self, cost_model, cluster):
        workers = cluster.workers(num_machines=2, gpus_per_machine=2)
        engine = EventDrivenEngine(cluster)
        full = engine.simulate_iteration(cost_model, workers=workers)
        frozen = engine.simulate_iteration(cost_model, workers=workers, frozen_prefix=2)
        assert frozen.communication < full.communication
        assert frozen.total < full.total

    def test_straggler_slows_iteration_and_gates_allreduce(self, cost_model, cluster):
        workers = cluster.workers(num_machines=2, gpus_per_machine=2)
        engine = EventDrivenEngine(cluster)
        nominal = engine.simulate_iteration(cost_model, workers=workers)
        engine.set_gpu_speed(workers[0].name, 0.5)
        slowed = engine.simulate_iteration(cost_model, workers=workers)
        # The slow GPU's compute roughly doubles and every gradient bucket
        # waits for it, so the whole iteration stretches accordingly.
        assert slowed.total > nominal.total * 1.5
        assert slowed.per_worker_compute_end[workers[0].name] == max(
            slowed.per_worker_compute_end.values())

    def test_heterogeneous_speedup_helps(self, cost_model, cluster):
        workers = cluster.workers(num_machines=1, gpus_per_machine=2)
        engine = EventDrivenEngine(cluster)
        nominal = engine.simulate_iteration(cost_model, workers=workers)
        for worker in workers:
            engine.set_gpu_speed(worker.name, 2.0)
        faster = engine.simulate_iteration(cost_model, workers=workers)
        assert faster.total < nominal.total

    def test_invalid_policy_and_speed_rejected(self, cost_model):
        engine = EventDrivenEngine()
        with pytest.raises(ValueError):
            engine.simulate_iteration(cost_model, policy="warp")
        with pytest.raises(ValueError):
            engine.set_gpu_speed("gpu0", 0.0)

    def test_bytescheduler_steady_state_not_slower(self, cost_model, cluster):
        workers = cluster.workers(num_machines=5, gpus_per_machine=2)
        engine = EventDrivenEngine(cluster)
        vanilla = engine.steady_iteration_seconds(cost_model, workers, policy=SchedulePolicy.VANILLA)
        bytesched = engine.steady_iteration_seconds(cost_model, workers,
                                                    policy=SchedulePolicy.BYTESCHEDULER)
        assert bytesched <= vanilla + 1e-15

    def test_simulate_run_iterations_chain(self, cost_model):
        engine = EventDrivenEngine()
        results = engine.simulate_run(cost_model, iterations=3)
        assert len(results) == 3
        for earlier, later in zip(results, results[1:]):
            assert later.start_time == pytest.approx(earlier.end_time)

    def test_determinism(self, cost_model, cluster):
        workers = cluster.workers(num_machines=3, gpus_per_machine=2)
        runs = []
        for _ in range(2):
            engine = EventDrivenEngine(paper_testbed_cluster())
            engine.set_gpu_speed(workers[1].name, 0.7)
            results = engine.simulate_run(cost_model, iterations=4, workers=workers,
                                          policy=SchedulePolicy.EGERIA, frozen_prefix=1)
            runs.append([r.as_dict() for r in results])
        assert runs[0] == runs[1]


class TestClusterScheduler:
    def _job(self, cost_model, name, **kwargs):
        defaults = dict(num_workers=2, iterations=4)
        defaults.update(kwargs)
        return SimJob(name, cost_model, **defaults)

    def test_fifo_queueing_delay(self, cost_model, cluster):
        scheduler = ClusterScheduler(cluster, placement="fifo")
        scheduler.submit(self._job(cost_model, "a", num_workers=6))
        scheduler.submit(self._job(cost_model, "b", num_workers=6))
        result = scheduler.run()
        assert result.jobs["a"].queueing_delay == 0.0
        assert result.jobs["b"].queueing_delay > 0.0
        assert result.jobs["b"].start_time == pytest.approx(result.jobs["a"].finish_time)

    def test_fifo_packs_round_robin_spreads(self, cost_model, cluster):
        packed = ClusterScheduler(cluster, placement="fifo")
        packed.submit(self._job(cost_model, "a", num_workers=4))
        machines_packed = {name.split(":")[0] for name in packed.run().jobs["a"].worker_names}

        spread = ClusterScheduler(cluster, placement="round_robin")
        spread.submit(self._job(cost_model, "a", num_workers=4))
        machines_spread = {name.split(":")[0] for name in spread.run().jobs["a"].worker_names}

        assert len(machines_packed) == 2   # 2 GPUs per machine -> 2 machines
        assert len(machines_spread) == 4   # one GPU from each of 4 machines

    def test_straggler_slows_the_hosting_job(self, cost_model, cluster):
        fast = ClusterScheduler(cluster, placement="fifo")
        fast.submit(self._job(cost_model, "a", num_workers=4))
        baseline = fast.run().jobs["a"].finish_time

        slow = ClusterScheduler(cluster, placement="fifo")
        slow.set_gpu_speed("node0:gpu0", 0.5, at_time=0.0)
        slow.submit(self._job(cost_model, "a", num_workers=4))
        delayed = slow.run().jobs["a"].finish_time
        assert delayed > baseline

    def test_elastic_leave_frees_gpus_for_queued_job(self, cost_model, cluster):
        scheduler = ClusterScheduler(cluster, placement="fifo")
        scheduler.submit(self._job(cost_model, "big", num_workers=10, iterations=50))
        scheduler.submit(self._job(cost_model, "waiting", num_workers=4, iterations=2))
        single = EventDrivenEngine(cluster).simulate_iteration(
            cost_model, workers=cluster.workers(5, 2)).total
        scheduler.resize_job("big", -4, at_time=single * 10)
        result = scheduler.run()
        assert result.jobs["big"].iterations_done == 50
        assert len(result.jobs["big"].worker_names) == 6
        # The waiting job got the released GPUs long before "big" finished.
        assert result.jobs["waiting"].start_time < result.jobs["big"].finish_time
        assert result.jobs["waiting"].iterations_done == 2

    def test_elastic_join_grows_worker_set(self, cost_model, cluster):
        scheduler = ClusterScheduler(cluster, placement="fifo")
        scheduler.submit(self._job(cost_model, "a", num_workers=2, iterations=40))
        single = EventDrivenEngine(cluster).simulate_iteration(
            cost_model, workers=cluster.workers(1, 2)).total
        scheduler.resize_job("a", +2, at_time=single * 5)
        result = scheduler.run()
        assert len(result.jobs["a"].worker_names) == 4
        assert result.jobs["a"].iterations_done == 40

    def test_deterministic_across_runs(self, cost_model, cluster):
        def scenario():
            scheduler = ClusterScheduler(paper_testbed_cluster(), placement="round_robin")
            scheduler.set_gpu_speed("node1:gpu0", 0.8, at_time=0.0)
            scheduler.submit(self._job(cost_model, "a", num_workers=4, iterations=6,
                                       policy=SchedulePolicy.EGERIA, frozen_prefix=2, cached_fp=True))
            scheduler.submit(self._job(cost_model, "b", num_workers=4, iterations=6))
            scheduler.submit(self._job(cost_model, "c", num_workers=4, iterations=3))
            return scheduler.run().as_dict()

        assert scenario() == scenario()

    def test_validation_errors(self, cost_model, cluster):
        scheduler = ClusterScheduler(cluster)
        with pytest.raises(ValueError):
            ClusterScheduler(cluster, placement="random")
        with pytest.raises(ValueError):
            scheduler.submit(self._job(cost_model, "a", num_workers=99))
        scheduler.submit(self._job(cost_model, "a"))
        with pytest.raises(ValueError):
            scheduler.submit(self._job(cost_model, "a"))

    def test_single_machine_job_unaffected_by_fabric_contention(self, cost_model, cluster):
        alone = ClusterScheduler(paper_testbed_cluster(), placement="fifo")
        alone.submit(self._job(cost_model, "solo", num_workers=2, iterations=3))
        solo_alone = alone.run().jobs["solo"].iteration_seconds[0]

        mixed = ClusterScheduler(paper_testbed_cluster(), placement="fifo")
        mixed.submit(self._job(cost_model, "m1", num_workers=4, iterations=3))
        mixed.submit(self._job(cost_model, "m2", num_workers=4, iterations=3))
        mixed.submit(self._job(cost_model, "solo", num_workers=2, iterations=3))
        solo_mixed = mixed.run().jobs["solo"].iteration_seconds[0]
        # The solo job never crosses the leaf-spine fabric, so concurrent
        # multi-machine jobs must not scale its intra-machine all-reduce.
        assert solo_mixed == solo_alone

    def test_noop_resize_does_not_restart_iteration(self, cost_model, cluster):
        base = ClusterScheduler(paper_testbed_cluster())
        base.submit(self._job(cost_model, "a", num_workers=10, iterations=5))
        baseline_finish = base.run().jobs["a"].finish_time

        grown = ClusterScheduler(paper_testbed_cluster())
        grown.submit(self._job(cost_model, "a", num_workers=10, iterations=5))
        grown.resize_job("a", +2, at_time=baseline_finish / 10)  # cluster full: no-op
        assert grown.run().jobs["a"].finish_time == baseline_finish

        shrunk = ClusterScheduler(paper_testbed_cluster())
        shrunk.submit(self._job(cost_model, "b", num_workers=1, iterations=5))
        shrunk.resize_job("b", -3, at_time=1e-6)  # 1-worker job: nothing releasable
        lone = ClusterScheduler(paper_testbed_cluster())
        lone.submit(self._job(cost_model, "b", num_workers=1, iterations=5))
        assert shrunk.run().jobs["b"].finish_time == lone.run().jobs["b"].finish_time

    def test_utilization_bounded(self, cost_model, cluster):
        scheduler = ClusterScheduler(cluster)
        scheduler.submit(self._job(cost_model, "a", num_workers=4, iterations=8))
        result = scheduler.run()
        for value in result.utilization().values():
            assert 0.0 <= value <= 1.0 + 1e-9


class TestTrainerEventBackend:
    def _trainer(self):
        full = make_dataset("synthetic_cifar10", num_samples=48, num_classes=4,
                            image_size=8, noise=0.8, seed=0)
        train_ds, eval_ds = full.split(eval_fraction=0.25)
        train_loader = DataLoader(train_ds, batch_size=8, seed=0)
        model = models.resnet8(num_classes=4, width=0.5, seed=0)
        optimizer = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
        return VanillaTrainer(model, ClassificationTask(), train_loader, None, optimizer)

    def test_event_backend_is_the_default(self):
        assert isinstance(self._trainer().sim_engine, EventDrivenEngine)

    def test_event_backend_matches_closed_form_within_5pct(self, monkeypatch):
        """One run, two clocks: the engine's, and ``CostModel.iteration`` summed alongside."""
        trainer = self._trainer()
        closed, account = [], trainer._account_iteration_time

        def account_both():
            closed.append(closed_form_seconds(trainer))
            account()

        monkeypatch.setattr(trainer, "_account_iteration_time", account_both)
        trainer.fit(num_epochs=2)
        assert closed and trainer.simulated_time == pytest.approx(sum(closed), rel=0.05)
