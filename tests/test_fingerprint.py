"""``tools/fingerprint.py``: the committed training fingerprints, and the check that reads them."""

import copy
import json

import pytest

from repro.data import datasets
from repro.experiments import available_workloads
from tools import fingerprint

with open(fingerprint.DEFAULT_PATH, encoding="utf-8") as _handle:
    COMMITTED = json.load(_handle)
ROWS = {(row["workload"], row["system"], row["seed"]): row for row in COMMITTED["runs"]}


def test_committed_file_covers_every_workload_system_and_seed():
    assert COMMITTED["format"] == fingerprint.FORMAT and COMMITTED["seeds"] == 5
    assert list(ROWS) == [(name, system, seed) for name in available_workloads()
                          for system in fingerprint.SYSTEMS for seed in range(5)]
    for row in COMMITTED["runs"]:
        assert set(row) == {"workload", "system", "seed", "epochs", *fingerprint.RUN_KEYS}
        assert all(set(epoch) == {"epoch", *fingerprint.EPOCH_KEYS} for epoch in row["epochs"])
        assert [epoch["epoch"] for epoch in row["epochs"]] == list(range(len(row["epochs"])))


@pytest.mark.parametrize("system", fingerprint.SYSTEMS)
@pytest.mark.parametrize("name", available_workloads())
def test_seed0_first_two_epochs_reproduce_the_committed_digests(name, system):
    """The cheap slice of ``python -m tools.fingerprint --check``: seed 0, epochs 0-1."""
    actual = fingerprint.fingerprint_run(name, system, 0, epochs=2)
    assert len(actual["epochs"]) == 2
    assert fingerprint.first_difference(ROWS[name, system, 0], actual, prefix=True) is None


def test_first_difference_names_the_earliest_epoch_and_key():
    row = ROWS["resnet56_cifar10", "egeria", 0]
    assert fingerprint.first_difference(row, copy.deepcopy(row)) is None
    moved = copy.deepcopy(row)
    moved["epochs"][5]["model_sha256"] = "0" * 64
    moved["epochs"][7]["loss"] += 1.0
    moved["backward_nodes"] += 1
    assert fingerprint.first_difference(row, moved).startswith("resnet56_cifar10 / egeria / 0 / 5 / model_sha256:")
    moved["epochs"] = row["epochs"]
    assert fingerprint.first_difference(row, moved).startswith("resnet56_cifar10 / egeria / 0 / - / backward_nodes:")
    assert fingerprint.first_difference(row, moved, prefix=True) is None


def test_a_run_that_stops_early_differs_unless_a_prefix_is_asked_for():
    row = ROWS["resnet56_cifar10", "egeria", 0]
    short = copy.deepcopy(row)
    short["epochs"] = short["epochs"][:3]
    assert fingerprint.first_difference(row, short).startswith("resnet56_cifar10 / egeria / 0 / 3 / epochs:")
    assert fingerprint.first_difference(row, short, prefix=True) is None
    assert fingerprint.first_difference(short, row, prefix=True).startswith("resnet56_cifar10 / egeria / 0 / 3 / epochs:")


def test_a_nan_metric_equals_itself():
    row = copy.deepcopy(ROWS["resnet56_cifar10", "vanilla", 0])
    row["epochs"][0]["metric"] = float("nan")
    assert fingerprint.first_difference(row, copy.deepcopy(row)) is None


def test_get_sample_counter_restores_the_datasets():
    original = datasets.SyntheticImageClassification.get_sample
    with fingerprint._counting_get_sample() as calls:
        dataset = datasets.SyntheticImageClassification(num_samples=6, num_classes=2, image_size=4, seed=0)
        dataset.get_batch([0, 1, 1])
        assert calls[0] == 2
    assert datasets.SyntheticImageClassification.get_sample is original
