"""Seeded workload generators and unit runners of the repo benchmark.

Every workload is a closed loop with one client in one process: the harness
(``run.py``) repeats ``set_up`` + ``run`` — one *unit* — until the
measurement window closes.  ``set_up`` is timed into ``setup_s``; ``run``
times only the region the workload's throughput is defined over, checks the
outputs and reads the exact counters (*c*) from the program's own result
objects.  The program under test receives only generated dicts/objects and
the seed-derived arguments; it never sees the workload's name.

Unit ``i`` of a run uses seed ``seed + i % SEED_CYCLE`` (``ctx.unit_seed``):
host speed depends on the inputs — when a module freezes, which job a fault
hits — by up to +-10 %, so a run samples a few seeds and reports the median
instead of repeating one.  Units that share a seed must repeat bit for bit;
the harness checks their digests agree.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Tuple

from repro import experiments
from repro.ckpt import CheckpointManager, MemoryBackend
from repro.ckpt.serialization import jsonify_scalars, split_state
from repro.sim import scenario

#: A run cycles through this many consecutive seeds, one per unit.
SEED_CYCLE = 4

#: Fixed seed of the fault storm's *shape* (see :func:`fault_storm_scenario`).
_STORM_SHAPE_SEED = 20230508


@dataclass
class UnitResult:
    """Outcome of one unit: the timed work, its checks and exact counters."""

    items: float
    timed_s: float
    digest: str
    checks: List[Tuple[str, bool]]
    counters: Dict[str, float]
    samples: Dict[str, List[float]] = field(default_factory=dict)


def _digest(value: object) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# Scenario generators (plain JSON; replay with `repro sim run FILE`)
# ---------------------------------------------------------------------- #
def _modules(rng: random.Random, base: int, count: int, jitter: float) -> List[int]:
    return [int(base * (i + 1) * rng.uniform(1.0 - jitter, 1.0 + jitter)) for i in range(count)]


def contended_scenario(seed: int, quick: bool = False) -> Dict[str, object]:
    """``sim_contended``: 16 two-worker jobs x 50 iterations on one fair-share fabric.

    Why: every job has its own cost model and spans two machines, so all
    gradient buckets share the flat fabric and it is never quiet.  The
    fast-forward memo almost never hits; the engine's live loop
    (``simulate_iteration``) and the fair-share integration (``reserve``,
    rewinds) do all the work.  Bypasses: fast-forward/batching, storage,
    faults.  The seed draws every module size within +-5 %.
    """
    rng = random.Random(seed)
    jobs = 4 if quick else 16
    return {
        "cluster": {"num_machines": jobs, "gpus_per_machine": 2, "fabric_policy": "fair"},
        "placement": "round_robin",
        "seed": seed,
        "jobs": [{"name": f"job{j:02d}", "batch_size": 32, "num_workers": 2,
                  "modules": _modules(rng, 200_000 + 10_000 * j, 6, 0.05),
                  "iterations": 10 if quick else 50,
                  "weight": 1.0 + 0.25 * (j % 8)} for j in range(jobs)],
    }


def steady_scenario(seed: int, quick: bool = False) -> Dict[str, object]:
    """``sim_steady``: 4 two-worker jobs x 8 000 iterations on quiet links.

    Why: each job owns its machines' worth of bandwidth, so after the first
    iteration everything is served by the fast-forward memo and the batch
    path; only periodic checkpoints (every 500 iterations) touch a shared
    resource.  Loads ``can_fast_forward``/``fast_forward_batch`` and the
    scheduler's own loop; bypasses the live loop and fair-share integration.
    The seed draws every module size within +-5 %.
    """
    rng = random.Random(seed)
    return {
        "cluster": {"num_machines": 4, "gpus_per_machine": 2},
        "placement": "fifo",
        "seed": seed,
        "jobs": [{"name": f"job{j}", "batch_size": 32, "num_workers": 2,
                  "modules": _modules(rng, 150_000 + 20_000 * j, 6, 0.05),
                  "iterations": 10 if quick else 8_000,
                  "checkpoint_every": 500} for j in range(4)],
    }


def _pareto_grid(count: int, alpha: float, low: int, high: int) -> List[int]:
    """``count`` stratified Pareto(alpha) quantiles from ``low``, capped at ``high``."""
    return [max(low, min(high, int(low * (1.0 - (k + 0.5) / count) ** (-1.0 / alpha))))
            for k in range(count)]


def fault_storm_scenario(seed: int, quick: bool = False) -> Dict[str, object]:
    """``sim_fault_storm``: a synthetic fleet under a stochastic fault stream.

    16 machines x 4 GPUs on 8 ToRs, per-ToR fair-share uplinks plus a core
    and a FIFO ``ckpt-store``, ``tor_pack`` placement; 100 jobs with Pareto
    widths (<= 8) and Pareto durations (10-150 iterations), arriving over
    12 simulated seconds, every second one Egeria-frozen with cached FP,
    checkpoints every 50 iterations; ``gpu``/``machine``/``link`` faults
    with MTTF 0.2 s and MTTR 1 s over a 25 s horizon (~125 faults).

    Why: scheduler heap and placement, cancel/re-flow, ``set_capacity``
    re-quotes and checkpoint rollback — the paths fast-forward cannot cache.

    The host cost of a storm is chaotic in *which* job a fault hits (a 10x
    range across fault seeds), so the fleet's shape — the width/duration
    pairing and the fault stream's seed — is drawn from one fixed shape seed
    and ``seed`` only perturbs module sizes (+-0.2 %) and arrival times;
    that keeps runs with different seeds comparable.
    """
    shape = random.Random(_STORM_SHAPE_SEED)
    jobs = 8 if quick else 100
    widths = _pareto_grid(jobs, 1.2, 1, 8)
    durations = _pareto_grid(jobs, 1.1, 10, 150)
    shape.shuffle(widths)
    shape.shuffle(durations)
    fault_seed = shape.randrange(2 ** 31)
    rng = random.Random(seed)
    gap = 12.0 / jobs
    specs = []
    for j in range(jobs):
        depth = 3 + j % 4
        base = 400_000 + 100_000 * (j % 4)
        spec = {"name": f"job{j:03d}", "batch_size": 8, "num_workers": widths[j],
                "modules": [int(base * rng.uniform(0.998, 1.002)) for _ in range(depth)],
                "iterations": 10 if quick else durations[j],
                "arrival_time": round(gap * (j + 0.5 + 0.002 * rng.uniform(-1.0, 1.0)), 6),
                "checkpoint_every": 50, "storage": "ckpt-store"}
        if j % 2:
            spec.update(policy="egeria", frozen_prefix=1 + j % (depth - 1), cached_fp=True)
        specs.append(spec)
    return {
        "cluster": {"num_machines": 16, "gpus_per_machine": 4, "num_tor_switches": 8,
                    "per_tor_fabric": True, "fabric_policy": "fair", "storage_policy": "fifo",
                    "nic_gbps": 10.0, "tor_uplink_gbps": 10.0, "core_gbps": 20.0,
                    "storage_gbps": 20.0},
        "placement": "tor_pack",
        "seed": seed,
        "jobs": specs,
        "faults": {"seed": fault_seed, "horizon_seconds": 2.0 if quick else 25.0,
                   "mttf_seconds": 0.2, "mttr_seconds": 1.0,
                   "domains": ["gpu", "machine", "link"], "link_gbps_factor": 0.5,
                   "backoff": {"base_seconds": 0.2, "cap_seconds": 2.0}},
    }


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
class TrainWorkload:
    """One fresh trainer per unit: ``build_workload`` + ``build_trainer`` then ``fit``.

    Work item: one training sample (``iterations x batch_size / fit() wall``).
    """

    def __init__(self, name: str, model: str, system: str, epochs: int):
        self.name, self.model, self.system, self.epochs = name, model, system, epochs

    def prepare(self, ctx) -> None:
        if ctx.quick:
            self.epochs = 2

    def set_up(self, ctx):
        workload = experiments.build_workload(self.model, scale="tiny", seed=ctx.unit_seed)
        overrides = {"cache_dir": ctx.new_dir("cache")} if self.system == "egeria" else {}
        return experiments.build_trainer(self.system, workload, **overrides)

    def warm_up(self, ctx) -> None:
        self.set_up(ctx).fit(1)

    def run(self, ctx, trainer) -> UnitResult:
        # One fit() call per epoch (fit resumes where it stopped), so the
        # clock can re-calibrate every ~0.1 s of training.
        timed_s = 0.0
        for epoch in range(1, self.epochs + 1):
            history, seconds = ctx.clock.measure(trainer.fit, epoch)
            timed_s += seconds
        return self.result(ctx, trainer, history, timed_s)

    def result(self, ctx, trainer, history, timed_s: float) -> UnitResult:
        losses = history.losses()
        fractions = history.frozen_fractions()
        expected = self.epochs * trainer.train_loader.num_batches
        checks = [("iterations as requested", trainer.iteration == expected),
                  ("every epoch loss finite", all(math.isfinite(loss) for loss in losses)),
                  ("final loss below the first epoch's", ctx.quick or losses[-1] < losses[0])]
        # Training is chaotic in the seed (final losses span two decades), so
        # the loss has a reference only at the seeds golden.json measured.
        golden = {} if ctx.quick else ctx.golden["final_loss"].get(self.name, {})
        if str(ctx.unit_seed) in golden.get("by_seed", {}):
            checks.append(("final loss within 3x the across-seed spread of golden.json",
                           abs(losses[-1] - golden["by_seed"][str(ctx.unit_seed)])
                           <= 3.0 * golden["spread"]))
        counters = {"sim_time_s": trainer.simulated_time,
                    "final_loss": losses[-1],
                    "core.freezing.frozen_param_frac_final": trainer.frozen_fraction(),
                    "core.freezing.frozen_param_frac_mean": sum(fractions) / len(fractions)}
        if self.system == "egeria":
            summary = trainer.summary()
            cache = summary["cache"]
            counters.update({
                "core.freezing.freeze_events": len(trainer.freezing_timeline()),
                "core.cache.hit_rate": cache["hit_rate"],
                "core.cache.bytes_written": cache["bytes_written"],
                "core.cache.fp_skipped_iters": summary["fp_skipped_iterations"]})
            checks.append(("reference model evaluated",
                           ctx.quick or summary["controller"]["evaluations_done"] > 0))
            if self.model == "resnet56_cifar10" and not ctx.quick:
                checks.append(("froze >= 20 % of parameters", max(fractions) >= 0.2))
                checks.append(("cache hit rate >= 0.5", cache["hit_rate"] >= 0.5))
        else:
            checks.append(("vanilla froze nothing", max(fractions) == 0.0))
        digest = _digest([trainer.iteration, trainer.simulated_time, losses, fractions,
                          history.metrics()])
        return UnitResult(items=trainer.iteration * trainer.train_loader.batch_size,
                          timed_s=timed_s, digest=digest, checks=checks, counters=counters)


def _state_digest(state: Dict[str, object]) -> str:
    """Digest of a trainer ``state_dict()``: every tensor's content hash plus the scalars.

    Left out: per-epoch host ``wall_time`` (not deterministic), and the
    activation-cache entry list, which names files of the saving trainer's
    cache directory that a fresh trainer does not have.
    """
    state = copy.copy(state)
    state["history"] = [{**record, "wall_time": 0.0} for record in state["history"]]
    state["egeria"] = {**state["egeria"], "cache": {**state["egeria"]["cache"], "entries": {}}}
    tree, _ = split_state(state)
    return _digest(jsonify_scalars(tree))


class CheckpointWorkload(TrainWorkload):
    """``train_cnn_egeria`` saving a checkpoint after every epoch, then restoring each.

    The store is a ``MemoryBackend``: on a shared sandbox the same
    ``DirectoryBackend`` save takes 10-100 ms depending on what the
    filesystem journal is doing, which no repetition averages out.  What a
    change does to the disk shows as counts instead (``ckpt.bytes_written``,
    ``ckpt.backend.write_object.calls``).

    Work item: one checkpoint round trip — the unit's median
    ``save_checkpoint()`` plus its median ``restore()`` into a fresh trainer;
    only those calls are timed, the epochs between them are not.
    """

    def set_up(self, ctx):
        trainer = super().set_up(ctx)
        # The unit saves explicitly (to time each call), so fit() never does.
        trainer.configure_checkpointing(CheckpointManager(MemoryBackend()),
                                        checkpoint_every=10 ** 9)
        return trainer

    def run(self, ctx, trainer) -> UnitResult:
        # Verifying calls state_dict() again; skipped in a traced unit so the
        # ckpt.* layers only see the calls of save_checkpoint()/restore().
        verify = not ctx.tracer.active
        infos, saved, save_ms, restore_ms = [], [], [], []
        for epoch in range(1, self.epochs + 1):
            history = trainer.fit(epoch)
            info, seconds = ctx.clock.measure(trainer.save_checkpoint)
            infos.append(info)
            save_ms.append(seconds * 1e3)
            if verify:
                saved.append(_state_digest(trainer.state_dict()))
        restored = []
        for info in infos:
            fresh = super().set_up(ctx)
            fresh.configure_checkpointing(trainer.checkpoint_manager)
            _, seconds = ctx.clock.measure(fresh.restore, info.checkpoint_id)
            restore_ms.append(seconds * 1e3)
            if verify:
                restored.append(_state_digest(fresh.state_dict()))
        # A typical round trip: median save + median restore (the first save
        # writes every tensor, later ones only what the frozen prefix left).
        result = self.result(ctx, trainer, history,
                             (statistics.median(save_ms) + statistics.median(restore_ms)) / 1e3)
        result.items = 1
        result.checks.append(("payload_bytes >= bytes_written",
                              all(info.payload_bytes >= info.bytes_written for info in infos)))
        if verify:
            result.checks.append(("restored state digests equal those at save time",
                                  restored == saved))
        result.counters.update({
            "ckpt.bytes_written": sum(info.bytes_written for info in infos),
            "ckpt.new_tensor_frac": (sum(info.num_new_tensors for info in infos)
                                     / sum(info.num_tensors for info in infos))})
        result.samples = {"ckpt.save_ms": save_ms, "ckpt.restore_ms": restore_ms}
        result.digest = _digest([result.digest, [info.bytes_written for info in infos]])
        return result


class SimWorkload:
    """One fresh ``build_scenario`` per unit, then ``ClusterScheduler.run()``.

    Work item: one *requested* job-iteration of the scenario — a fixed input
    size, not the engine's own event counter, so a change that removes events
    cannot make itself look slower.
    """

    def __init__(self, name: str, generator: Callable[..., Dict[str, object]]):
        self.name, self.generator = name, generator
        self.specs: Dict[int, Dict[str, object]] = {}
        self.fault_events: Dict[int, int] = {}

    def prepare(self, ctx) -> None:
        for seed in range(ctx.seed, ctx.seed + SEED_CYCLE):
            spec = self.specs[seed] = self.generator(seed, ctx.quick)
            self.fault_events[seed] = (scenario.preview_faults(spec)["num_events"]
                                       if "faults" in spec else 0)

    def set_up(self, ctx):
        return scenario.build_scenario(self.specs[ctx.unit_seed])

    def warm_up(self, ctx) -> None:
        spec = copy.deepcopy(self.specs[ctx.seed])
        spec.pop("faults", None)
        spec["jobs"] = [{**job, "iterations": 1} for job in spec["jobs"][:2]]
        scenario.build_scenario(spec).run()

    def run(self, ctx, scheduler) -> UnitResult:
        result, timed_s = ctx.clock.measure(scheduler.run)
        view = result.as_dict()
        perf = view.pop("perf")
        requested = {job["name"]: job["iterations"]
                     for job in self.specs[ctx.unit_seed]["jobs"]}
        records = result.jobs.values()
        checks = [("every job reached its requested iterations",
                   all(result.jobs[name].iterations_done == count
                       for name, count in requested.items())),
                  ("per-resource total_bytes == sum(bytes_by_job)",
                   all(summary["total_bytes"] == sum(summary["bytes_by_job"].values())
                       for summary in result.resources.values()))]
        digest = _digest(view)
        golden = {} if ctx.quick else ctx.golden["sim_digest"].get(self.name, {})
        if str(ctx.unit_seed) in golden:
            checks.append(("result digest equals golden.json",
                           digest == golden[str(ctx.unit_seed)]))
        utilization = result.utilization().values()
        counters = {
            "sim_time_s": result.makespan,
            "sim.scheduler.restores": sum(record.restores for record in records),
            "sim.scheduler.failures": sum(record.failures for record in records),
            "sim.scheduler.checkpoints_taken": sum(r.checkpoints_taken for r in records),
            "sim.scheduler.queue_delay_sim_s_mean":
                sum(record.queueing_delay for record in records) / len(records),
            "sim.scheduler.gpu_utilization_mean": sum(utilization) / len(utilization),
            "sim.faults.events": self.fault_events[ctx.unit_seed],
        }
        for key in ("cache_hit_rate", "iterations_simulated", "iterations_fast_forwarded",
                    "mean_batch_size", "events_processed"):
            counters[f"sim.engine.{key}"] = perf[key]
        for key in ("fair_incremental_reserves", "fair_rewind_reserves", "fair_full_resweeps"):
            counters[f"sim.resources.{key}"] = perf[key]
        for name in ("fabric", "core", "ckpt-store"):
            busy = result.resources.get(name, {}).get("busy_seconds", 0.0)
            counters[f"sim.resources.{name}.busy_frac_sim"] = busy / result.makespan
        return UnitResult(items=sum(requested.values()), timed_s=timed_s,
                          digest=digest, checks=checks, counters=counters)


_TABLE = (
    (TrainWorkload, "train_cnn_egeria", "resnet56_cifar10", "egeria", 18),
    (TrainWorkload, "train_cnn_vanilla", "resnet56_cifar10", "vanilla", 18),
    (TrainWorkload, "train_xfmr_egeria", "transformer_base_wmt16", "egeria", 9),
    (CheckpointWorkload, "ckpt_cycle", "resnet56_cifar10", "egeria", 18),
    (SimWorkload, "sim_contended", contended_scenario),
    (SimWorkload, "sim_steady", steady_scenario),
    (SimWorkload, "sim_fault_storm", fault_storm_scenario),
)

#: Constructors by name; why each exists is recorded in BENCHMARK.json (and,
#: for the scenarios, in the generators' docstrings).  The training runs use
#: the "tiny" scale: one fit passes through bootstrapping, freezing and both
#: LR-drop unfreezes in about two seconds, so a run's window holds several
#: units.
WORKLOADS = {row[1]: partial(*row) for row in _TABLE}
