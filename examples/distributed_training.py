"""Distributed data-parallel training with Egeria's reduced synchronization.

Reproduces the Figure 10 setup of the paper: a 5-machine, 2-GPU-per-machine
leaf–spine cluster training ResNet-50 with ring all-reduce.  The example
compares per-iteration timelines and throughput for:

* the vanilla framework schedule,
* ByteScheduler's priority-based communication scheduling,
* Egeria (frozen layers skipped in backward compute *and* synchronization),
* Egeria combined with ByteScheduler.

It then shares the cluster between several jobs, and runs a live Egeria
trainer as one cluster job through a GPU failure.  Everything here is the
simulation substrate — no GPUs required.

Run with::

    python examples/distributed_training.py
"""

from repro.baselines import DistributedThroughputComparison
from repro.ckpt import CheckpointManager, MemoryBackend
from repro.core import TrainerJob, parse_layer_modules
from repro.experiments import build_trainer, build_workload
from repro.sim import (
    ClusterScheduler,
    CostModel,
    EventDrivenEngine,
    SchedulePolicy,
    SimJob,
    paper_testbed_cluster,
)


def main() -> None:
    workload = build_workload("resnet50_imagenet", scale="tiny", seed=0)
    model = workload.make_model()
    layer_modules = parse_layer_modules(model)
    cluster = paper_testbed_cluster()
    print("Cluster:", cluster.describe())

    # Per-iteration timeline at 3 machines with the first few modules frozen.
    workers = cluster.workers(num_machines=3, gpus_per_machine=2)
    cost_model = CostModel(layer_modules, batch_size=workload.batch_size)
    engine = EventDrivenEngine(cluster)
    print("\nPer-iteration timeline on 3 machines (frozen prefix = 4 modules):")
    for policy in SchedulePolicy.ALL:
        freezes = policy in (SchedulePolicy.EGERIA, SchedulePolicy.EGERIA_BYTESCHEDULER)
        timeline = engine.simulate_iteration(cost_model, workers=workers, policy=policy,
                                             frozen_prefix=4 if freezes else 0, cached_fp=freezes)
        print(f"  {policy:<22} forward={timeline.forward * 1e3:7.3f}ms backward={timeline.backward * 1e3:7.3f}ms "
              f"comm={timeline.communication * 1e3:7.3f}ms exposed={timeline.exposed_communication * 1e3:7.3f}ms "
              f"total={timeline.total * 1e3:7.3f}ms")

    # Throughput scaling across 2-5 machines (the Figure 10 x-axis).
    comparison = DistributedThroughputComparison(layer_modules, batch_size=workload.batch_size, cluster=cluster)
    print("\nThroughput (samples/s) vs number of machines:")
    header = f"{'machines':>9} " + " ".join(f"{p:>22}" for p in SchedulePolicy.ALL)
    print(header)
    for row in comparison.scaling_sweep([2, 3, 4, 5], frozen_prefix=4, cached_fp=True):
        cells = " ".join(f"{row[p]:>22.0f}" for p in SchedulePolicy.ALL)
        print(f"{int(row['num_machines']):>9} {cells}")

    # Beyond the paper: several jobs share the cluster on the event-driven
    # engine — one GPU is a straggler, the Egeria job checkpoints in the
    # background, a third job queues for free GPUs, and the vanilla job gives
    # two workers back halfway through (elastic leave).
    scheduler = ClusterScheduler(cluster, placement="round_robin")
    scheduler.set_gpu_speed("node0:gpu0", 0.6)
    scheduler.submit(SimJob("egeria", cost_model, num_workers=4, iterations=50,
                            policy=SchedulePolicy.EGERIA, frozen_prefix=4, cached_fp=True,
                            checkpoint_every=10, async_checkpoint=True))
    scheduler.submit(SimJob("vanilla", cost_model, num_workers=4, iterations=50))
    scheduler.submit(SimJob("queued", cost_model, num_workers=4, iterations=25))
    vanilla_iteration = engine.simulate_iteration(cost_model, workers=cluster.workers(2, 2)).total
    scheduler.resize_job("vanilla", -2, at_time=vanilla_iteration * 25)
    result = scheduler.run()
    print("\nMulti-job schedule (round-robin placement, node0:gpu0 at 0.6x speed, "
          "vanilla 4 -> 2 workers):")
    for name in sorted(result.jobs):
        record = result.jobs[name]
        print(f"  {name:<8} start={record.start_time * 1e3:8.3f}ms finish={record.finish_time * 1e3:8.3f}ms "
              f"queued={record.queueing_delay * 1e3:7.3f}ms throughput={record.throughput():10.0f} samples/s")
    print(f"  makespan={result.makespan * 1e3:.3f}ms")

    # A live Egeria trainer as a cluster job: its freezing decisions set the
    # prefix each simulated iteration prices, its checkpoints are real
    # content-addressed snapshots, and a GPU failure halfway through rolls
    # it back to the last one.
    cnn = build_workload("resnet56_cifar10", scale="tiny", seed=0)
    trainer = build_trainer("egeria", cnn)
    manager = CheckpointManager(MemoryBackend())
    trainer.configure_checkpointing(manager, checkpoint_every=1)
    iterations = len(trainer.train_loader) * cnn.num_epochs
    job = TrainerJob("trainer", trainer, iterations=iterations, num_workers=2,
                     checkpoint_every=len(trainer.train_loader))
    scheduler = ClusterScheduler(cluster)
    scheduler.submit(job)
    nominal = engine.simulate_iteration(trainer.cost_model, workers=cluster.workers(1, 2)).total
    scheduler.inject_failure("node0:gpu0", at_time=nominal * iterations / 2)
    result = scheduler.run()
    record = result.jobs["trainer"]
    print(f"\nLive Egeria trainer on 2 GPUs ({cnn.name}, {iterations} iterations, "
          f"node0:gpu0 fails halfway):")
    print(f"  deepest frozen prefix={max(job.prefix_series)} checkpoints={record.checkpoints_taken} "
          f"written={record.checkpoint_bytes_written} B of {sum(i['payload_bytes'] for i in manager.history())} B "
          f"restores={record.restores} makespan={result.makespan * 1e3:.3f}ms")
    trainer.close()


if __name__ == "__main__":
    main()
