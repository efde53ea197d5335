"""Hash-seed determinism regression test for the cluster scheduler (SIM003).

The scheduler's fault-tolerance state (`_failed_gpus`, `_paused`,
`_needs_restore`) used to be plain ``set`` s; any iteration over them made
results depend on ``PYTHONHASHSEED``.  They are insertion-ordered dicts now,
and this test pins the fix: the same failure/preemption-heavy scenario run
in fresh interpreters under three different hash seeds must produce the
byte-identical result, including the event trace.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import run_scenario

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: A scenario leaning on every converted field: GPU failures (with
#: recovery), preemption/resume and checkpoint restores.
_SCRIPT = """
import json
from repro.core.modules import LayerModule
from repro.sim import ClusterScheduler, CostModel, SimJob, paper_testbed_cluster

modules = [LayerModule(name=f"m{i}", paths=[], blocks=[], num_params=40_000, index=i)
           for i in range(4)]
cluster = paper_testbed_cluster()
scheduler = ClusterScheduler(cluster)
for name, arrival, workers in (("a", 0.0, 4), ("b", 1.0, 4), ("c", 2.0, 2)):
    scheduler.submit(SimJob(name=name, cost_model=CostModel(modules, batch_size=32),
                            num_workers=workers, iterations=8, checkpoint_every=2,
                            arrival_time=arrival))
gpus = [gpu.name for gpu in cluster.all_gpus()]
scheduler.inject_failure(gpus[0], at_time=0.5, recover_at=3.0)
scheduler.inject_failure(gpus[5], at_time=1.5)
scheduler.preempt_job("b", at_time=2.0)
scheduler.resume_job("b", at_time=4.0)
result = scheduler.run()
print(json.dumps(result.as_dict(), sort_keys=True))
"""


#: A fault-storm scenario exercising the structured fault model end to end:
#: explicit rack/link/spot events plus a seeded stochastic stream, backoff
#: and proactive checkpoints — every new code path that iterates over
#: topology-derived collections.
_FAULTS_SCRIPT = """
import json
from repro.sim import run_scenario

spec = {
    "cluster": {"num_machines": 4, "gpus_per_machine": 2, "num_tor_switches": 2,
                "nic_gbps": 1.0, "tor_uplink_gbps": 1.0, "core_gbps": 0.5,
                "per_tor_fabric": True},
    "placement": "tor_pack",
    "jobs": [
        {"name": "a", "modules": [400000, 800000, 600000], "batch_size": 4,
         "num_workers": 4, "iterations": 8, "checkpoint_every": 4,
         "storage": "ckpt-store"},
        {"name": "b", "modules": [500000, 500000, 500000], "batch_size": 4,
         "num_workers": 2, "iterations": 8, "arrival_time": 0.3,
         "checkpoint_every": 4, "storage": "ckpt-store"},
    ],
    "faults": {
        "events": [
            {"kind": "fail_rack", "at_time": 1.1, "target": 0, "recover_at": 2.6},
            {"kind": "degrade_link", "at_time": 0.8, "target": "tor1-uplink",
             "gbps": 0.25, "recover_at": 2.0},
            {"kind": "spot_evict", "at_time": 3.0, "target": "node3:gpu1",
             "recover_at": 4.5},
        ],
        "spot": {"gpus": ["node3:gpu1"], "notice_seconds": 0.5},
        "backoff": {"base_seconds": 0.2, "cap_seconds": 2.0},
        "seed": 1234, "horizon_seconds": 6.0, "mttf_seconds": 1.5,
        "mttr_seconds": 2.5, "domains": ["gpu", "machine", "link"],
    },
}
print(json.dumps(run_scenario(spec, include_trace=True), sort_keys=True))
"""


def _run_with_hash_seed(script: str, seed: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scheduler_result_is_hash_seed_independent():
    outputs = {seed: _run_with_hash_seed(_SCRIPT, seed) for seed in ("0", "1", "31337")}
    reference = outputs["0"]
    assert "makespan" in reference
    for seed, output in outputs.items():
        assert output == reference, f"PYTHONHASHSEED={seed} changed the result"


def test_fault_storm_scenario_is_hash_seed_independent():
    """The fault model replays bit-identically across fresh interpreters."""
    outputs = {seed: _run_with_hash_seed(_FAULTS_SCRIPT, seed)
               for seed in ("0", "1", "31337")}
    reference = outputs["0"]
    assert "domain_failure" in reference  # the faults actually fired
    assert "proactive_checkpoint" in reference
    for seed, output in outputs.items():
        assert output == reference, f"PYTHONHASHSEED={seed} changed the result"


#: sha256 of ``json.dumps(run_scenario(path, include_trace=True), sort_keys=True)``
#: measured at f6e0509 (before the event-table refactor): the report *and*
#: the full decision log, so a scheduler change that moves any counter, any
#: float or any trace entry shows here.  The two storm reports were re-pinned
#: when link-free jobs began batching through barriers that cannot reach them:
#: only their batching counters moved (``_BATCHING_KEYS``; on the seed-0
#: fixture 167 / 770 / 4.61 -> 165 / 3803 / 23.05).
#: ``examples/scenario_fault_domains.json`` (explicit ``fail_tor``, stochastic
#: rack / ToR / spot domains) was hashed at 95c6e9d, when it was added.
_PINNED_REPORTS = {
    "examples/scenario_fault_domains.json":
        "b7b03dddfaa3c90297740908705ee483b2ccf101fd9dbfbf3d1708b9788fe554",
    "examples/scenario_fault_storm.json":
        "8192d64d7893647d79c2481fe76028945d2ff7df695554cde7fdaf09a1fff7e6",
    "examples/scenario_faults.json":
        "a63ec07de2603e1dd79b4eb866449939d5303a8484b25f25a1ae96bd665e1a1b",
    "tests/fixtures/sim_fault_storm-seed0.json":
        "24ff15f49b3c9ac6abe23b955e59a2e3e3ee07ba555fb5201e2e24e31f191289",
    "tests/fixtures/sim_contended-seed0.json":
        "c1942399b3708e8d7f7bbbccaf112aec62cfebb68113360449e1a452fec36adf",
}

#: The perf counters that say how iterations were grouped into batches, and
#: nothing about what was simulated.
_BATCHING_KEYS = ("fast_forward_batches", "iterations_batched", "mean_batch_size")

#: The same reports without :data:`_BATCHING_KEYS`, measured at 2ea51b2 (before
#: per-job batch horizons): how a run is batched must never move anything else.
_PINNED_WITHOUT_BATCHING = {
    "examples/scenario_fault_domains.json":
        "c6486334d3a559666e0fe343bec92b2f06c05f18e3753c9b4578fd362ab2e3d9",
    "examples/scenario_fault_storm.json":
        "0179562f32a21aec418270bfb9b0354744615eae057c58c52e71fa583c2aafec",
    "examples/scenario_faults.json":
        "b74af870b4bc64b97b5a9207832abef961dfe17367c558a8783cbc4c4955d1fc",
    "tests/fixtures/sim_fault_storm-seed0.json":
        "e007b454f0e8a7a3e990217df4cc0d9d114e7cd5afee6db17f9462e7db7a6d3e",
    "tests/fixtures/sim_contended-seed0.json":
        "e8913b01b9ad28fd65876508aef620c5943f6d4770728ad7a115b7a29a818ab1",
}


def _digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("simsan", ["plain", "simsan"])
@pytest.mark.parametrize("path", sorted(_PINNED_REPORTS))
def test_trace_inclusive_report_hash_is_pinned(path, simsan, monkeypatch):
    if simsan == "simsan":
        monkeypatch.setenv("REPRO_SIMSAN", "1")
    else:
        monkeypatch.delenv("REPRO_SIMSAN", raising=False)
    report = run_scenario(str(ROOT / path), include_trace=True)
    assert _digest(report) == _PINNED_REPORTS[path]
    for key in _BATCHING_KEYS:
        del report["perf"][key]
    assert _digest(report) == _PINNED_WITHOUT_BATCHING[path]
