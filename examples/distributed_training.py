"""Distributed data-parallel training with Egeria's reduced synchronization.

Reproduces the Figure 10 setup of the paper: a 5-machine, 2-GPU-per-machine
leaf–spine cluster training ResNet-50 with ring all-reduce.  The example
compares per-iteration timelines and throughput for:

* the vanilla framework schedule,
* ByteScheduler's priority-based communication scheduling,
* Egeria (frozen layers skipped in backward compute *and* synchronization),
* Egeria combined with ByteScheduler.

Everything here is the simulation substrate — no GPUs required.

Run with::

    python examples/distributed_training.py
"""

from repro.baselines import DistributedThroughputComparison
from repro.core import parse_layer_modules
from repro.experiments import build_workload
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
    # engine — one GPU is a straggler, a third job queues for free GPUs.
    scheduler = ClusterScheduler(cluster, placement="round_robin")
    scheduler.set_gpu_speed("node0:gpu0", 0.6)
    scheduler.submit(SimJob("egeria", cost_model, num_workers=4, iterations=50,
                            policy=SchedulePolicy.EGERIA, frozen_prefix=4, cached_fp=True))
    scheduler.submit(SimJob("vanilla", cost_model, num_workers=4, iterations=50))
    scheduler.submit(SimJob("queued", cost_model, num_workers=4, iterations=25))
    result = scheduler.run()
    print("\nMulti-job schedule (round-robin placement, node0:gpu0 at 0.6x speed):")
    for name in sorted(result.jobs):
        record = result.jobs[name]
        print(f"  {name:<8} start={record.start_time * 1e3:8.3f}ms finish={record.finish_time * 1e3:8.3f}ms "
              f"queued={record.queueing_delay * 1e3:7.3f}ms throughput={record.throughput():10.0f} samples/s")
    print(f"  makespan={result.makespan * 1e3:.3f}ms")


if __name__ == "__main__":
    main()
