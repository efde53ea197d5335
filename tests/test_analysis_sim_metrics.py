"""Tests for the analysis (PWCCA), simulation (cost/cluster/all-reduce) and metrics packages."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro import models
from repro.analysis import (
    ConvergenceAnalyzer,
    freezable_regions,
    pwcca_distance,
    pwcca_similarity,
    theoretical_saving,
)
from repro.core import parse_layer_modules
from repro.metrics import (
    EpochRecord,
    RunHistory,
    f1_spans,
    mean_iou,
    perplexity_from_loss,
    span_f1_single,
    tta_speedup,
)
from repro.sim import AllReduceModel, CostModel, paper_testbed_cluster, single_node_cluster
from repro.sim.cluster import GPUDevice
from repro.sim.cost_model import GPUSpec


class TestPWCCA:
    def test_identical_activations_distance_zero(self, rng):
        a = rng.standard_normal((32, 12)).astype(np.float32)
        assert pwcca_distance(a, a.copy()) < 0.05
        assert pwcca_similarity(a, a.copy()) > 0.95

    def test_random_vs_related_ordering(self, rng):
        a = rng.standard_normal((64, 16)).astype(np.float32)
        related = a @ rng.standard_normal((16, 16)).astype(np.float32)  # linear transform: high CCA
        unrelated = rng.standard_normal((64, 16)).astype(np.float32)
        assert pwcca_distance(a, related) < pwcca_distance(a, unrelated) + 0.2

    def test_range_bounds(self, rng):
        a = rng.standard_normal((20, 8)).astype(np.float32)
        b = rng.standard_normal((20, 8)).astype(np.float32)
        assert 0.0 <= pwcca_distance(a, b) <= 1.0

    def test_handles_conv_activations(self, rng):
        a = rng.standard_normal((8, 4, 5, 5)).astype(np.float32)
        assert 0.0 <= pwcca_distance(a, a + 0.01) <= 1.0

    def test_sample_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            pwcca_distance(rng.standard_normal((8, 4)), rng.standard_normal((9, 4)))

    def test_rank_deficient_self_distance_zero(self, rng):
        # Rank-2 activations embedded in 10 dimensions: the SVD reduction
        # keeps fewer directions than the ambient dimensionality.
        basis = rng.standard_normal((20, 2)).astype(np.float64)
        mixing = rng.standard_normal((2, 10)).astype(np.float64)
        x = basis @ mixing
        assert pwcca_distance(x, x.copy()) == pytest.approx(0.0, abs=1e-9)
        assert pwcca_similarity(x, x.copy()) == pytest.approx(1.0, abs=1e-9)

    def test_truncated_weights_are_renormalized(self, rng):
        # y spans fewer directions than x, so the canonical correlations are
        # truncated below x's direction count; the projection weights must be
        # renormalized over the kept directions (summing to 1), otherwise the
        # similarity is deflated by exactly the dropped weight mass.
        x = rng.standard_normal((40, 12)).astype(np.float64)
        y = (x[:, :3] @ rng.standard_normal((3, 12))).astype(np.float64)  # rank-3 view of x
        similarity = pwcca_similarity(x, y)
        assert 0.0 <= similarity <= 1.0
        # y is a deterministic linear function of x's first directions: the
        # kept canonical correlations are ~1, so the renormalized projection
        # weighting must report near-perfect similarity.
        assert similarity > 0.95


class TestConvergenceHelpers:
    def test_freezable_regions_detects_plateaus(self):
        scores = [1.0, 0.8, 0.5, 0.31, 0.30, 0.30, 0.29, 0.6, 0.6, 0.6]
        regions = freezable_regions(scores, stability_threshold=0.05, min_length=2)
        assert regions
        assert any(start >= 2 for start, _end in regions)

    def test_freezable_regions_empty_for_steep_curve(self):
        assert freezable_regions([10.0, 8.0, 6.0, 4.0, 2.0], stability_threshold=0.05) == []

    def test_theoretical_saving_bounds(self):
        saving = theoretical_saving([100, 100], [[(0, 4)], []], num_epochs=10)
        assert 0.0 <= saving <= 1.0
        assert saving == pytest.approx(0.25)
        assert theoretical_saving([], [], 10) == 0.0

    def test_convergence_analyzer_records(self, rng):
        model = models.resnet8(num_classes=4, width=0.5, seed=0)
        reference = models.resnet8(num_classes=4, width=0.5, seed=0)
        modules = parse_layer_modules(model)
        analyzer = ConvergenceAnalyzer(modules, metric="pwcca")
        from repro import nn
        inputs = (nn.Tensor(rng.standard_normal((8, 3, 8, 8)).astype(np.float32)),)
        scores = analyzer.record(0, model, reference, inputs)
        assert set(scores) == {m.name for m in modules}
        assert analyzer.as_table()[0]["epoch"] == 0.0
        assert 0.0 <= analyzer.estimated_saving() <= 1.0

    def test_unknown_metric_raises(self):
        model = models.resnet8(seed=0)
        analyzer = ConvergenceAnalyzer(parse_layer_modules(model), metric="bogus")
        with pytest.raises(ValueError):
            analyzer._metric_fn()


class TestCostModel:
    def _cost_model(self):
        model = models.resnet8(num_classes=4, seed=0)
        return CostModel(parse_layer_modules(model), batch_size=16)

    def test_freezing_reduces_iteration_time(self):
        cost = self._cost_model()
        baseline = cost.iteration(0, False, include_reference_overhead=False).total
        frozen = cost.iteration(2, False, include_reference_overhead=False).total
        cached = cost.iteration(2, True, include_reference_overhead=False).total
        assert frozen < baseline
        assert cached < frozen

    def test_fp_fraction_around_one_third(self):
        """bp_fp_ratio=2 means the forward pass is ~1/3 of compute (paper: up to 35%)."""
        assert self._cost_model().fp_fraction() == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_reference_overhead_small(self):
        cost = self._cost_model()
        with_ref = cost.iteration(0, False, include_reference_overhead=True).total
        without = cost.iteration(0, False, include_reference_overhead=False).total
        assert (with_ref - without) / without < 0.05

    def test_communication_overlap(self):
        cost = self._cost_model()
        breakdown = cost.iteration(0, False, comm_seconds_per_byte=0.0)
        assert breakdown.communication == 0.0
        heavy = cost.iteration(0, False, comm_seconds_per_byte=1e-6, include_reference_overhead=False)
        assert heavy.total >= breakdown.compute

    def test_potential_backward_saving_monotone(self):
        cost = self._cost_model()
        savings = [cost.potential_backward_saving(k) for k in range(4)]
        assert savings == sorted(savings)

    def test_epoch_time_scales_linearly(self):
        cost = self._cost_model()
        assert cost.epoch_time(10) == pytest.approx(cost.epoch_time(5) * 2)

    def test_breakdown_as_dict(self):
        breakdown = self._cost_model().iteration(1, True)
        d = breakdown.as_dict()
        assert {"forward", "backward", "communication", "total"} <= set(d)


class TestClusterAndAllReduce:
    def test_paper_testbed_shape(self):
        cluster = paper_testbed_cluster()
        info = cluster.describe()
        assert info["machines"] == 5 and info["gpus"] == 10
        assert len(cluster.workers(num_machines=3, gpus_per_machine=2)) == 6

    def test_bottleneck_bandwidth_is_nic(self):
        cluster = paper_testbed_cluster()
        workers = cluster.workers(num_machines=2)
        assert cluster.worker_bottleneck_gbps(workers) == pytest.approx(40.0)

    def test_single_machine_detection(self):
        cluster = single_node_cluster(num_gpus=8)
        workers = cluster.workers(num_machines=1, gpus_per_machine=8)
        assert cluster.is_single_machine(workers)

    def test_allreduce_time_increases_with_volume_and_workers(self):
        cluster = paper_testbed_cluster()
        allreduce = AllReduceModel(cluster)
        two = cluster.workers(num_machines=2)
        five = cluster.workers(num_machines=5)
        assert allreduce.allreduce_seconds(10_000_000, two) < allreduce.allreduce_seconds(20_000_000, two)
        assert allreduce.allreduce_seconds(10_000_000, five) > allreduce.allreduce_seconds(10_000_000, two)
        assert allreduce.allreduce_seconds(0, five) == 0.0
        assert allreduce.allreduce_seconds(100, [five[0]]) == 0.0

    def test_seconds_per_byte(self):
        cluster = paper_testbed_cluster()
        allreduce = AllReduceModel(cluster)
        assert allreduce.seconds_per_byte(cluster.workers(num_machines=2)) > 0
        assert allreduce.seconds_per_byte([cluster.workers()[0]]) == 0.0


class TestGPUDeviceName:
    """``GPUDevice.name`` is cached per instance; the cache must stay invisible."""

    def test_name_is_machine_colon_gpu_index(self):
        device = GPUDevice("m3", 1)
        assert device.name == "m3:gpu1"
        assert device.name is device.name

    def test_equality_and_hash_ignore_the_cached_name(self):
        read, unread = GPUDevice("m0", 2), GPUDevice("m0", 2)
        hash_before = hash(read)
        assert read.name == "m0:gpu2"
        assert read == unread and hash(read) == hash(unread) == hash_before
        assert read != GPUDevice("m0", 3)
        assert {read: 1}[unread] == 1

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_and_deepcopy_keep_the_device(self, read_first):
        device = GPUDevice("m1", 0)
        if read_first:
            assert device.name == "m1:gpu0"
        for clone in (pickle.loads(pickle.dumps(device)), copy.deepcopy(device)):
            assert clone == device and hash(clone) == hash(device)
            assert clone.name == "m1:gpu0"

    def test_fields_stay_frozen(self):
        device = GPUDevice("m0", 0)
        assert device.name == "m0:gpu0"
        with pytest.raises(dataclasses.FrozenInstanceError):
            device.index = 1

    def test_cluster_workers_carry_their_names(self):
        cluster = paper_testbed_cluster()
        workers = cluster.workers(num_machines=2, gpus_per_machine=2)
        assert [w.name for w in workers] == [f"{w.machine}:gpu{w.index}" for w in workers]
        assert len({w.name for w in workers}) == len(workers)


class TestMetrics:
    def test_mean_iou_perfect_and_disjoint(self):
        pred = np.array([[0, 1], [1, 0]])
        assert mean_iou(pred, pred, 2) == 1.0
        assert mean_iou(pred, 1 - pred, 2) == 0.0

    def test_perplexity(self):
        assert perplexity_from_loss(0.0) == 1.0
        assert perplexity_from_loss(100.0) < np.inf

    def test_span_f1(self):
        assert span_f1_single(2, 4, 2, 4) == 1.0
        assert span_f1_single(0, 1, 4, 5) == 0.0
        assert 0.0 < span_f1_single(2, 5, 3, 5) < 1.0
        assert f1_spans([1], [2], [1], [2]) == 1.0

    def test_mean_iou_averages_only_classes_that_occur(self):
        pred = np.array([0, 0, 1, 1])
        target = np.array([0, 1, 1, 1])
        # class 0: 1/2, class 1: 2/3, class 2 occurs nowhere and is skipped.
        assert mean_iou(pred, target, 3) == pytest.approx((1 / 2 + 2 / 3) / 2)
        assert mean_iou(np.array([]), np.array([]), 3) == 0.0

    def test_perplexity_is_capped_at_exp_30(self):
        assert perplexity_from_loss(30.0) == perplexity_from_loss(1e9) == pytest.approx(np.exp(30.0))
        assert perplexity_from_loss(1.0) == pytest.approx(np.e)

    def test_span_f1_partial_overlap_and_empty_batch(self):
        # predicted 2..5 (4 tokens), gold 3..5 (3 tokens): precision 3/4, recall 1.
        assert span_f1_single(2, 5, 3, 5) == pytest.approx(2 * 0.75 / 1.75)
        assert span_f1_single(5, 2, 2, 5) == 0.0
        assert f1_spans([], [], [], []) == 0.0

    def _history(self, metrics, times, higher=True):
        history = RunHistory(name="test", higher_is_better=higher)
        for epoch, (metric, t) in enumerate(zip(metrics, times)):
            history.add(EpochRecord(epoch=epoch, train_loss=1.0, metric=metric,
                                    simulated_time=t, wall_time=t, learning_rate=0.1))
        return history

    def test_time_to_accuracy(self):
        history = self._history([0.2, 0.5, 0.8], [10, 20, 30])
        assert history.time_to_accuracy(0.5) == 20
        assert history.time_to_accuracy(0.9) is None
        assert history.epochs_to_accuracy(0.8) == 2

    def test_time_to_accuracy_lower_is_better(self):
        history = self._history([10.0, 5.0, 2.0], [10, 20, 30], higher=False)
        assert history.time_to_accuracy(5.0) == 20
        assert history.best_metric() == 2.0

    def test_tta_speedup(self):
        baseline = self._history([0.2, 0.5, 0.8], [10, 20, 30])
        faster = self._history([0.2, 0.5, 0.8], [8, 15, 22])
        assert tta_speedup(baseline, faster, target=0.8) == pytest.approx((30 - 22) / 30)
        assert tta_speedup(baseline, self._history([0.1, 0.1, 0.1], [1, 2, 3]), 0.8) is None

    def test_run_history_table(self):
        history = self._history([0.5], [10])
        assert history.as_table()[0]["metric"] == 0.5
