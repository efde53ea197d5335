"""Shared-resource contention: the no-contention contract at a Table 1 model's sizes.

A lone job whose all-reduce is routed through the shared fabric resource must
stay within 5% of the closed-form model.  The contention scenarios themselves
(storage, topology, trainer-backed jobs) are tier-1 tests in
``tests/test_sim_resources.py``.
"""

from repro.core import parse_layer_modules
from repro.experiments import build_workload
from repro.sim import AllReduceModel, CostModel, EventDrivenEngine, paper_testbed_cluster


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
