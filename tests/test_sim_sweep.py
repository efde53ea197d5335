"""Tests for the parallel scenario sweep runner (`repro sim sweep`).

The load-bearing guarantee: the merged sweep output is a pure function of
the sweep spec — independent of worker count, pool scheduling and completion
order — because every cell is deterministic and carries its own seed.
"""

import json
import multiprocessing
import os

import pytest

from repro.cli import main
from repro.sim import run_sweep
from repro.sim.sweep import _apply_override, build_cells, expand_grid

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE_SWEEP = os.path.join(REPO_ROOT, "examples", "sweep_oversubscription.json")

BASE_SCENARIO = {
    "cluster": {"num_machines": 2, "gpus_per_machine": 2, "storage_gbps": 10.0},
    "jobs": [
        {"name": "a", "modules": [4000, 8000, 6000], "batch_size": 16,
         "num_workers": 2, "iterations": 3, "checkpoint_every": 2},
        {"name": "b", "modules": [4000, 8000], "batch_size": 16,
         "num_workers": 2, "iterations": 3},
    ],
}


class TestGridExpansion:
    def test_row_major_order_last_key_fastest(self):
        cells = expand_grid({"x": [1, 2], "y": ["a", "b", "c"]})
        assert cells == [{"x": 1, "y": "a"}, {"x": 1, "y": "b"}, {"x": 1, "y": "c"},
                         {"x": 2, "y": "a"}, {"x": 2, "y": "b"}, {"x": 2, "y": "c"}]

    def test_empty_grid_and_empty_values_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            expand_grid({})
        with pytest.raises(ValueError, match="non-empty list"):
            expand_grid({"x": []})
        with pytest.raises(ValueError, match="non-empty list"):
            expand_grid({"x": 3})

    def test_apply_override_paths(self):
        spec = {"cluster": {"nic_gbps": 1.0}, "jobs": [{"name": "a"}, {"name": "b"}]}
        _apply_override(spec, "cluster.core_gbps", 0.5)
        _apply_override(spec, "jobs.1.num_workers", 4)
        _apply_override(spec, "placement", "tor_pack")
        assert spec["cluster"] == {"nic_gbps": 1.0, "core_gbps": 0.5}
        assert spec["jobs"][1] == {"name": "b", "num_workers": 4}
        assert spec["placement"] == "tor_pack"
        # Dotted sections are created on demand even when the base omits them.
        bare = {}
        _apply_override(bare, "cluster.core_gbps", 1.0)
        assert bare == {"cluster": {"core_gbps": 1.0}}
        with pytest.raises(ValueError, match="not a dict or list"):
            _apply_override({"cluster": 3}, "cluster.core_gbps.x", 1.0)

    def test_build_cells_applies_overrides_and_per_cell_seeds(self):
        sweep = {"scenario": BASE_SCENARIO, "seed": 7,
                 "grid": {"cluster.storage_gbps": [1.0, 2.0], "placement": ["fifo", "round_robin"]}}
        cells = build_cells(sweep)
        assert [cell["index"] for cell in cells] == [0, 1, 2, 3]
        assert [cell["seed"] for cell in cells] == [7, 8, 9, 10]
        assert cells[0]["scenario"]["cluster"]["storage_gbps"] == 1.0
        assert cells[3]["scenario"]["placement"] == "round_robin"
        assert cells[3]["scenario"]["seed"] == 10
        # The base scenario is never mutated (cells deep-copy it).
        assert "placement" not in BASE_SCENARIO
        assert BASE_SCENARIO["cluster"]["storage_gbps"] == 10.0

    def test_sweep_spec_validation(self):
        with pytest.raises(ValueError, match="unknown sweep keys"):
            build_cells({"scenario": BASE_SCENARIO, "grid": {"seed": [1]}, "warp": 1})
        with pytest.raises(ValueError, match="exactly one"):
            build_cells({"grid": {"seed": [1]}})
        with pytest.raises(ValueError, match="exactly one"):
            build_cells({"scenario": BASE_SCENARIO, "scenario_file": "x.json",
                         "grid": {"seed": [1]}})


class TestRunSweep:
    def test_parallel_output_identical_to_serial(self):
        """The CI sweep-smoke contract, on the committed example sweep: a
        4-cell core_gbps oversubscription grid on 2 workers merges to exactly
        the serial result."""
        serial = run_sweep(EXAMPLE_SWEEP, workers=1)
        parallel = run_sweep(EXAMPLE_SWEEP, workers=2)
        assert parallel == serial
        assert serial["num_cells"] == 4
        # The oversubscription study actually bites: makespan is monotone
        # non-increasing as the core fabric widens.
        makespans = [row["makespan"] for row in serial["cells"]]
        assert makespans == sorted(makespans, reverse=True)
        assert makespans[0] > makespans[-1]

    def test_cells_carry_params_records_and_perf(self):
        sweep = {"scenario": BASE_SCENARIO, "grid": {"cluster.storage_gbps": [5.0, 20.0]}}
        merged = run_sweep(sweep)
        assert merged["num_cells"] == 2
        slow, fast = merged["cells"]
        assert slow["params"] == {"cluster.storage_gbps": 5.0}
        assert set(slow["jobs"]) == {"a", "b"}
        assert slow["resources"]["ckpt-store"]["total_bytes"] > 0
        assert "cache_hit_rate" in slow["perf"]
        # Faster storage never finishes the same checkpointed workload later.
        assert fast["makespan"] <= slow["makespan"]

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep({"scenario": BASE_SCENARIO, "grid": {"seed": [1]}}, workers=0)

    def test_cell_seeds_stay_base_plus_index(self):
        """The documented seed law: cell ``i`` always runs at ``seed + i``,
        identically in the serial and pooled paths — the invariant every
        "independent of worker count" guarantee rests on."""
        sweep = {"scenario": BASE_SCENARIO, "seed": 7,
                 "grid": {"cluster.storage_gbps": [1.0, 2.0],
                          "placement": ["fifo", "round_robin"]}}
        for workers in (1, 2):
            merged = run_sweep(sweep, workers=workers)
            assert [row["seed"] for row in merged["cells"]] == [7, 8, 9, 10]
            assert [row["index"] for row in merged["cells"]] == [0, 1, 2, 3]
        # build_cells (the CLI's dry-run view) agrees with what actually ran.
        assert [cell["seed"] for cell in build_cells(sweep)] == [7, 8, 9, 10]
        assert [cell["scenario"]["seed"] for cell in build_cells(sweep)] == [7, 8, 9, 10]


class TestPoolPerSweep:
    SWEEP = {"scenario": BASE_SCENARIO,
             "grid": {"cluster.storage_gbps": [5.0, 10.0, 20.0]}}

    def test_each_parallel_sweep_reaps_its_own_pool(self):
        """Two parallel sweeps in one process agree, and neither leaves a
        worker process behind."""
        first = run_sweep(self.SWEEP, workers=2)
        assert multiprocessing.active_children() == []
        second = run_sweep(self.SWEEP, workers=2)
        assert multiprocessing.active_children() == []
        assert second == first


class TestSweepCli:
    def _write(self, tmp_path, spec, name="sweep.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)

    def test_cli_sweep_writes_merged_table(self, tmp_path, capsys):
        sweep = {"scenario": BASE_SCENARIO, "grid": {"cluster.storage_gbps": [5.0, 20.0]}}
        out = str(tmp_path / "merged.json")
        assert main(["sim", "sweep", self._write(tmp_path, sweep), "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "2 cells" in stdout and "makespan" in stdout
        merged = json.loads(open(out).read())
        assert merged["num_cells"] == 2
        assert merged["cells"][0]["params"] == {"cluster.storage_gbps": 5.0}

    def test_cli_sweep_scenario_file_resolves_relative_to_sweep(self, tmp_path, capsys):
        scenario_path = tmp_path / "base.json"
        scenario_path.write_text(json.dumps(BASE_SCENARIO))
        sweep = {"scenario_file": "base.json", "grid": {"placement": ["fifo", "round_robin"]}}
        assert main(["sim", "sweep", self._write(tmp_path, sweep)]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["num_cells"] == 2

    def test_cli_sweep_rejects_bad_specs(self, tmp_path, capsys):
        bad = {"scenario": BASE_SCENARIO, "grid": {"jobs.9.iterations": [1]}}
        assert main(["sim", "sweep", self._write(tmp_path, bad)]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["sim", "sweep", str(tmp_path / "missing.json")]) == 2
        assert "error" in capsys.readouterr().err
