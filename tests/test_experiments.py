"""Integration tests for the experiments package (workloads, runners, harnesses).

These run heavily truncated versions of the benchmark experiments so the test
suite stays fast while still exercising the end-to-end wiring.
"""

import tempfile

import numpy as np
import pytest

from repro.experiments import (
    SCALES,
    SYSTEMS,
    available_workloads,
    build_trainer,
    build_workload,
    compare_systems,
    format_rows,
    run_fig9_breakdown,
    run_fig10_distributed,
    run_trainer,
)
from repro.sim import SchedulePolicy


class TestWorkloadBuilders:
    def test_all_seven_workloads_build(self):
        names = available_workloads()
        assert len(names) == 7
        for name in names:
            workload = build_workload(name, scale="tiny")
            assert workload.num_epochs > 0
            assert workload.batch_size > 0
            model = workload.make_model()
            optimizer = workload.make_optimizer(model)
            scheduler = workload.make_scheduler(optimizer)
            assert optimizer.lr > 0
            assert scheduler.current_lr > 0

    def test_unknown_workload_and_scale(self):
        with pytest.raises(KeyError):
            build_workload("alexnet_mnist")
        with pytest.raises(KeyError):
            build_workload("resnet56_cifar10", scale="huge")

    def test_loaders_split_train_eval(self):
        workload = build_workload("resnet56_cifar10", scale="tiny")
        assert len(workload.train_dataset) > len(workload.eval_dataset)
        train_loader = workload.train_loader()
        assert train_loader.batch_size == workload.batch_size

    def test_scales_exist(self):
        assert set(SCALES) == {"tiny", "small"}


class TestRunners:
    def test_run_vanilla_truncated(self):
        workload = build_workload("resnet56_cifar10", scale="tiny")
        result = run_trainer("vanilla", workload, num_epochs=2)
        assert len(result["history"].records) == 2
        assert result["frozen_fraction"] == 0.0

    def test_run_egeria_truncated(self):
        workload = build_workload("resnet56_cifar10", scale="tiny")
        result = run_trainer("egeria", workload, num_epochs=3)
        assert "summary" in result and "timeline" in result
        assert result["simulated_time"] > 0

    def test_every_system_constructs_and_runs_one_epoch(self):
        workload = build_workload("resnet56_cifar10", scale="tiny")
        for system in SYSTEMS:
            result = run_trainer(system, workload, num_epochs=1)
            assert result["system"] == system
            assert len(result["history"].records) == 1

    def test_unknown_system(self):
        workload = build_workload("resnet56_cifar10", scale="tiny")
        with pytest.raises(KeyError):
            run_trainer("not_a_system", workload, num_epochs=1)

    def test_compare_systems_rows_and_format(self):
        workload = build_workload("resnet56_cifar10", scale="tiny")
        rows = compare_systems(workload, systems=("vanilla", "egeria"), num_epochs=3)
        assert {row.system for row in rows} == {"vanilla", "egeria"}
        vanilla_row = next(r for r in rows if r.system == "vanilla")
        assert vanilla_row.tta_speedup_vs_vanilla == 0.0
        text = format_rows(rows)
        assert "egeria" in text and "workload" in text
        as_dict = rows[0].as_dict()
        assert "final_metric" in as_dict


class TestCacheDirectoryOwnership:
    """``build_trainer`` makes no directory itself: a passed ``cache_dir`` stays
    the caller's, and without one the activation cache owns and removes its own."""

    @pytest.fixture
    def temp_root(self, tmp_path, monkeypatch):
        root = tmp_path / "tmp"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    @pytest.mark.parametrize("system", ["egeria", "skipconv"])
    def test_a_passed_cache_dir_creates_nothing(self, system, temp_root, tmp_path):
        cache_dir = tmp_path / "cache"
        trainer = build_trainer(system, build_workload("resnet56_cifar10", scale="tiny"),
                                cache_dir=str(cache_dir))
        assert list(temp_root.iterdir()) == []
        assert trainer.cache.cache_dir == str(cache_dir)
        trainer.close()
        assert cache_dir.is_dir()

    @pytest.mark.parametrize("system", ["egeria", "skipconv"])
    def test_run_trainer_leaves_the_temp_directory_empty(self, system, temp_root):
        run_trainer(system, build_workload("resnet56_cifar10", scale="tiny"), num_epochs=2)
        assert list(temp_root.iterdir()) == []


class TestAnalyticHarnesses:
    def test_fig9_breakdown_rows(self):
        rows = run_fig9_breakdown(workload_names=["resnet50_imagenet"], scale="tiny")
        assert len(rows) == 1
        row = rows[0]
        assert row["freezing_plus_caching"] <= row["freezing_only"] <= row["baseline"]

    def test_fig10_distributed_rows(self):
        result = run_fig10_distributed(workload_name="resnet50_imagenet", scale="tiny",
                                       machine_counts=(2, 3))
        assert len(result["rows"]) == 2
        for row in result["rows"]:
            assert row[SchedulePolicy.EGERIA] > 0
            assert row[SchedulePolicy.VANILLA] > 0
