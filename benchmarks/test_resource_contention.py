"""Beyond the paper — shared-resource contention and trainer-backed jobs.

Three deterministic scenarios exercise the shared-resource core end to end:

* **Storage contention**: two identical jobs checkpoint to the same storage
  resource.  Arriving concurrently, every periodic write collides and the
  second writer queues — the jobs finish later than when their checkpoints
  are staggered by one iteration.  Async (overlapped) writes recover most of
  the loss.  A lone job stays within 5% of the closed-form model — the
  no-contention contract.
* **Topology interference**: on a per-ToR fabric, two rack-local jobs on
  separate ToRs queue on disjoint uplinks and finish measurably earlier than
  the same jobs placed cross-rack (sharing both uplinks and the core) —
  under both the FIFO and the fair-share (processor-sharing) disciplines,
  which move identical bytes and differ only in timing.
* **Trainer-backed job**: a live Egeria trainer runs inside the scheduler;
  its freezing decisions shorten the simulated iterations, and the simulated
  checkpoint volume equals the ``CheckpointManager``'s actual incremental
  (content-addressed) bytes, not an estimate.
"""

from conftest import print_rows

from repro.core import parse_layer_modules
from repro.experiments import (
    build_workload,
    run_storage_contention,
    run_topology_interference,
    run_trainer_backed_job,
)
from repro.sim import AllReduceModel, CostModel, EventDrivenEngine, paper_testbed_cluster


def test_storage_contention_concurrent_vs_staggered(benchmark, scale):
    data = benchmark.pedantic(lambda: run_storage_contention(scale=scale, seed=0),
                              rounds=1, iterations=1)
    rerun = run_storage_contention(scale=scale, seed=0)
    # Bit-for-bit determinism across two runs of the same scenario.
    assert data == rerun

    variants = {name: data[name] for name in ("concurrent", "staggered", "concurrent_async")}
    print_rows("Storage contention: per-variant job b record", [
        dict(variant=name,
             makespan=variant["makespan"],
             completion=variant["jobs"]["b"]["completion_seconds"],
             ckpt_seconds=variant["jobs"]["b"]["checkpoint_seconds"],
             ckpt_bytes=variant["jobs"]["b"]["checkpoint_bytes_written"],
             storage_bytes=variant["resources"][data["storage_resource"]]["total_bytes"])
        for name, variant in variants.items()],
        keys=["variant", "makespan", "completion", "ckpt_seconds", "ckpt_bytes", "storage_bytes"])

    concurrent, staggered = data["concurrent"], data["staggered"]
    asynchronous = data["concurrent_async"]

    # Acceptance: concurrent checkpointers to the same storage resource
    # finish later than staggered checkpointers.
    assert concurrent["jobs"]["b"]["completion_seconds"] > \
        staggered["jobs"]["b"]["completion_seconds"]
    assert concurrent["jobs"]["b"]["checkpoint_seconds"] > \
        staggered["jobs"]["b"]["checkpoint_seconds"]
    # Staggered writes pay the same storage bytes — only the queueing differs.
    storage = data["storage_resource"]
    assert concurrent["resources"][storage]["total_bytes"] == \
        staggered["resources"][storage]["total_bytes"]
    # Overlapped (async) writes release compute at the iteration boundary:
    # never slower than synchronous writes under the same collision pattern,
    # and the same snapshots still happen.
    assert asynchronous["makespan"] <= concurrent["makespan"]
    assert asynchronous["jobs"]["a"]["checkpoints_taken"] == \
        concurrent["jobs"]["a"]["checkpoints_taken"]


def test_topology_interference_rack_local_vs_cross_rack(benchmark):
    data = benchmark.pedantic(run_topology_interference, rounds=1, iterations=1)
    rerun = run_topology_interference()
    # Bit-for-bit determinism across two runs of the same scenario.
    assert data == rerun

    core = data["core_resource"]
    print_rows("Per-ToR fabric: rack-local (tor_pack) vs cross-rack (round_robin)", [
        dict(variant=name,
             makespan=variant["makespan"],
             b_completion=variant["jobs"]["b"]["completion_seconds"],
             core_bytes=variant["resources"][core]["total_bytes"],
             tor0_bytes=variant["resources"]["tor0-uplink"]["total_bytes"])
        for name, variant in data["variants"].items()],
        keys=["variant", "makespan", "b_completion", "core_bytes", "tor0_bytes"])

    for policy in data["policies"]:
        local = data["variants"][f"{policy}/tor_pack"]
        cross = data["variants"][f"{policy}/round_robin"]
        # Acceptance: rack-local jobs on separate ToRs interfere measurably
        # less than the same jobs placed cross-rack — under every discipline.
        assert local["makespan"] < cross["makespan"] * 0.9, \
            f"rack-local not measurably faster under policy {policy!r}"
        assert local["jobs"]["b"]["completion_seconds"] < \
            cross["jobs"]["b"]["completion_seconds"]
        # Rack-local traffic never touches the core; cross-rack always does.
        assert local["resources"][core]["total_bytes"] == 0
        assert cross["resources"][core]["total_bytes"] > 0
    # The discipline changes timing only: per-link byte totals are identical
    # between FIFO and fair-share for the same placement (byte conservation).
    for placement in ("tor_pack", "round_robin"):
        fifo_bytes = {name: res["total_bytes"] for name, res
                      in data["variants"][f"fifo/{placement}"]["resources"].items()}
        fair_bytes = {name: res["total_bytes"] for name, res
                      in data["variants"][f"fair/{placement}"]["resources"].items()}
        assert fifo_bytes == fair_bytes


def test_single_job_no_contention_within_5pct_of_closed_form(scale):
    """The no-contention path: fabric-routed engine vs the closed-form model."""
    workload = build_workload("resnet50_imagenet", scale=scale, seed=0)
    modules = parse_layer_modules(workload.make_model())
    cost_model = CostModel(modules, batch_size=workload.batch_size)
    cluster = paper_testbed_cluster()
    workers = cluster.workers(num_machines=2, gpus_per_machine=2)
    spb = AllReduceModel(cluster).seconds_per_byte(workers)

    engine = EventDrivenEngine(cluster)
    event = engine.simulate_iteration(cost_model, workers=workers,
                                      comm_seconds_per_byte=spb,
                                      link_resource="fabric", job_name="solo").total
    closed = cost_model.iteration(comm_seconds_per_byte=spb,
                                  include_reference_overhead=False).total
    assert abs(event - closed) / closed <= 0.05


def test_trainer_backed_job_deterministic_and_bytes_match(benchmark, scale):
    data = benchmark.pedantic(lambda: run_trainer_backed_job(scale=scale, seed=0),
                              rounds=1, iterations=1)
    rerun = run_trainer_backed_job(scale=scale, seed=0)
    # Acceptance: a trainer-backed job run through the scheduler is
    # deterministic — every record, byte count and prefix decision matches.
    assert data == rerun

    record = data["result"]["jobs"]["trainer"]
    print_rows("Trainer-backed cluster job", [{
        "iterations": record["iterations_done"],
        "checkpoints": data["num_checkpoints"],
        "sim_ckpt_bytes": data["simulated_checkpoint_bytes"],
        "actual_ckpt_bytes": data["actual_checkpoint_bytes"],
        "max_prefix": data["max_frozen_prefix"],
        "frozen_fraction": data["final_frozen_fraction"],
        "makespan": data["result"]["makespan"],
    }])

    assert record["iterations_done"] == data["iterations"]
    # Acceptance: simulated checkpoint bytes equal the CheckpointManager's
    # actual incremental (content-addressed) bytes.
    assert data["simulated_checkpoint_bytes"] == data["actual_checkpoint_bytes"]
    assert data["num_checkpoints"] > 0
    # The live freezing decisions reached the simulated job: the prefix
    # advanced, and iterations executed at the deepest prefix are faster
    # than the unfrozen ones.
    assert data["max_frozen_prefix"] > 0
    assert len(data["prefix_series"]) == data["iterations"]
    # Incremental snapshots beat the full payload once the prefix froze.
    assert data["actual_checkpoint_bytes"] < sum(data["actual_payload_bytes"])
