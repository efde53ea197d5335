"""Command-line interface for the Egeria reproduction.

Four subcommands mirror the typical workflows:

``python -m repro.cli list``
    Show the seven Table 1 workloads and the systems that can train them.

``python -m repro.cli train --workload resnet56_cifar10 --system egeria``
    Train one workload with one system and print the per-epoch history plus
    (for Egeria) the freezing timeline.

``python -m repro.cli compare --workload resnet56_cifar10``
    Run vanilla + Egeria (or any set of systems) on one workload and print the
    TTA-speedup comparison rows, i.e. one row of Table 1.

``python -m repro.cli ckpt save|restore|inspect --dir CKPT_DIR ...``
    Freezing-aware checkpointing: ``save`` trains with periodic full-state
    snapshots into an atomic directory store, ``inspect`` prints each
    checkpoint's (incremental) byte footprint, and ``restore`` resumes
    training bit-exactly from the latest (or a named) checkpoint.

``python -m repro.cli sim run scenario.json [--out result.json] [--policy fair]``
    Replay a cluster scenario (jobs, shared link/storage resources —
    optionally per-ToR fabric links — failures, resizes) through the
    event-driven simulator and emit the deterministic timeline/makespan
    report as JSON (including the engine's fast-forward perf counters).
    ``--policy`` overrides the scheduling discipline (first-fit FIFO vs
    processor-sharing fair-share) of every resource the scenario does not
    pin explicitly.  ``--trace-out trace.json`` additionally writes the
    SimScope sim-time trace (Chrome ``trace_event`` JSON, one Perfetto
    track per job and per resource) and ``--metrics-out metrics.json``
    the metric time-series (utilization, queue depths, link throughput,
    frozen fractions; CSV when the path ends in ``.csv``) — both without
    perturbing the simulation (see ``docs/observability.md``).

``python -m repro.cli sim profile scenario.json [--top 25] [--sort tottime]``
    Run a scenario under ``cProfile`` and print the ranked hot functions
    plus wall-clock throughput (events/s, iterations/s); ``--out`` writes
    the machine-readable report for regression tracking.

``python -m repro.cli sim faults scenario.json [--out plan.json]``
    Resolve and print a scenario's fault plan (``"faults"`` key) without
    running it: validates every event reference against the topology and
    expands the seeded stochastic stream into its concrete, bit-reproducible
    events (see ``docs/faults.md``).

``python -m repro.cli sim sweep sweep.json [--workers 4] [--out result.json]``
    Expand a sweep spec (base scenario + parameter grid, e.g. a
    ``cluster.core_gbps`` oversubscription study) into independent cells and
    run them across a multiprocessing pool.  The merged result table is
    identical no matter how many workers ran it — parallelism only buys
    wall-clock time.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .ckpt import CheckpointManager, DirectoryBackend
from .sim import diff_profiles, preview_faults, profile_scenario, run_scenario, run_sweep

__all__ = ["main", "build_parser"]


class _Choices:
    """An argparse ``choices`` container read from :mod:`repro.experiments` on first use.

    argparse only tests membership when a training command parses its
    arguments and lists the names in an error or ``--help``, so building the
    parser, and every ``sim`` command, imports none of the training stack.
    """

    def __init__(self, name: str):
        self._name = name

    def _names(self):
        from . import experiments

        names = getattr(experiments, self._name)
        return names() if callable(names) else names

    def __contains__(self, item) -> bool:
        return item in self._names()

    def __iter__(self):
        return iter(self._names())


_WORKLOADS = _Choices("available_workloads")
_SYSTEMS = _Choices("SYSTEMS")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Egeria: knowledge-guided DNN layer freezing (EuroSys 2023)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available workloads and systems")

    train = subparsers.add_parser("train", help="train one workload with one system")
    train.add_argument("--workload", required=True, choices=_WORKLOADS, metavar="WORKLOAD",
                       help="one of: %(choices)s")
    train.add_argument("--system", default="egeria", choices=_SYSTEMS, metavar="SYSTEM",
                       help="one of: %(choices)s (default: %(default)s)")
    train.add_argument("--scale", default="tiny", choices=["tiny", "small"])
    train.add_argument("--epochs", type=int, default=None, help="override the workload's epoch count")
    train.add_argument("--seed", type=int, default=0)

    compare = subparsers.add_parser("compare", help="compare systems on one workload (Table 1 row)")
    compare.add_argument("--workload", required=True, choices=_WORKLOADS, metavar="WORKLOAD",
                         help="one of: %(choices)s")
    compare.add_argument("--systems", nargs="+", default=["vanilla", "egeria"], choices=_SYSTEMS,
                         metavar="SYSTEM", help="any of: %(choices)s (default: vanilla egeria)")
    compare.add_argument("--scale", default="tiny", choices=["tiny", "small"])
    compare.add_argument("--seed", type=int, default=0)

    ckpt = subparsers.add_parser("ckpt", help="checkpoint management (save/restore/inspect)")
    ckpt_sub = ckpt.add_subparsers(dest="ckpt_command", required=True)

    def add_training_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--workload", required=True, choices=_WORKLOADS, metavar="WORKLOAD",
                         help="one of: %(choices)s")
        sub.add_argument("--system", default="egeria", choices=["vanilla", "egeria"])
        sub.add_argument("--scale", default="tiny", choices=["tiny", "small"])
        sub.add_argument("--epochs", type=int, default=None, help="override the workload's epoch count")
        sub.add_argument("--seed", type=int, default=0)

    save = ckpt_sub.add_parser("save", help="train with periodic full-state checkpoints")
    add_training_args(save)
    save.add_argument("--dir", required=True, help="checkpoint directory (atomic-write store)")
    save.add_argument("--every", type=int, default=1, help="checkpoint every N epochs")

    restore = ckpt_sub.add_parser("restore", help="resume training bit-exactly from a checkpoint")
    add_training_args(restore)
    restore.add_argument("--dir", required=True)
    restore.add_argument("--id", default=None, help="checkpoint id (default: latest)")
    restore.add_argument("--every", type=int, default=1,
                         help="checkpoint cadence (epochs) for the resumed run")

    inspect = ckpt_sub.add_parser("inspect", help="print the stored checkpoints and their byte footprint")
    inspect.add_argument("--dir", required=True)
    inspect.add_argument("--id", default=None, help="inspect one checkpoint (default: all)")

    sim = subparsers.add_parser("sim", help="cluster-simulation utilities")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)
    sim_run = sim_sub.add_parser("run", help="replay a scenario JSON to a timeline/makespan report")
    sim_run.add_argument("scenario", help="path to the scenario JSON file")
    sim_run.add_argument("--out", default=None, help="write the report here instead of stdout")
    # Removed flag, kept hidden so old invocations get a pointed error
    # (instead of argparse's generic "unrecognized arguments") in _cmd_sim.
    sim_run.add_argument("--trace", action="store_true", help=argparse.SUPPRESS)
    sim_run.add_argument("--trace-out", default=None, metavar="TRACE_JSON",
                         help="write the sim-time Chrome trace_event JSON here "
                              "(view at https://ui.perfetto.dev); implies observation")
    sim_run.add_argument("--metrics-out", default=None, metavar="METRICS_FILE",
                         help="write the full metric time-series here (JSON, or CSV "
                              "when the path ends in .csv); implies observation")
    sim_run.add_argument("--policy", default=None, choices=["fifo", "fair"],
                         help="override the scheduling discipline of every shared resource "
                              "the scenario does not pin explicitly (fifo: first-fit "
                              "serialization, fair: processor sharing)")
    sim_profile = sim_sub.add_parser(
        "profile", help="run a scenario under cProfile and rank the hot functions")
    sim_profile.add_argument("scenario", help="path to the scenario JSON file")
    sim_profile.add_argument("--out", default=None,
                             help="write the machine-readable report here instead of stdout")
    sim_profile.add_argument("--top", type=int, default=25,
                             help="number of hot functions to report (default 25)")
    sim_profile.add_argument("--sort", default="cumulative",
                             choices=["cumulative", "tottime", "calls"],
                             help="ranking column (default cumulative)")
    sim_profile.add_argument("--baseline", default=None, metavar="OLD_REPORT",
                             help="diff against an earlier profile report (a --out file): "
                                  "prints per-function regressions ranked by cumtime delta, "
                                  "so before/after runs of an optimization are one command")
    sim_profile.add_argument("--policy", default=None, choices=["fifo", "fair"],
                             help="override the scheduling discipline, as for 'sim run'")
    sim_faults = sim_sub.add_parser(
        "faults", help="resolve and print a scenario's fault plan without running it "
                       "(expands the seeded stochastic stream into concrete events)")
    sim_faults.add_argument("scenario", help="path to the scenario JSON file")
    sim_faults.add_argument("--out", default=None,
                            help="write the resolved plan here instead of stdout")
    sim_faults.add_argument("--policy", default=None, choices=["fifo", "fair"],
                            help="override the scheduling discipline, as for 'sim run'")
    sim_sweep = sim_sub.add_parser("sweep", help="run a scenario parameter grid across workers")
    sim_sweep.add_argument("sweep", help="path to the sweep JSON file (scenario + grid)")
    sim_sweep.add_argument("--workers", type=int, default=None,
                           help="worker processes (default: the spec's 'workers', else 1); "
                                "the merged output is identical at any worker count")
    sim_sweep.add_argument("--out", default=None, help="write the merged table here instead of stdout")

    return parser


def _cmd_list() -> int:
    from .experiments import SYSTEMS, available_workloads, build_workload

    print("Workloads (Table 1):")
    for name in available_workloads():
        workload = build_workload(name, scale="tiny")
        print(f"  {name:<26} {workload.paper_model:<26} "
              f"metric={workload.task.metric_name:<11} paper speedup={workload.paper_tta_speedup:.0%}")
    print("\nSystems:")
    for system in SYSTEMS:
        print(f"  {system}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .experiments import build_workload, run_trainer

    workload = build_workload(args.workload, scale=args.scale, seed=args.seed)
    result = run_trainer(args.system, workload, num_epochs=args.epochs)
    history = result["history"]
    print(f"{args.system} on {args.workload} ({args.scale} scale)")
    print(f"{'epoch':>5} {'loss':>8} {workload.task.metric_name:>10} {'frozen%':>8} {'sim-time':>10}")
    for record in history.records:
        print(f"{record.epoch:>5} {record.train_loss:>8.4f} {record.metric:>10.4f} "
              f"{record.frozen_fraction:>8.0%} {record.simulated_time:>10.4f}")
    if result.get("timeline"):
        print("\nFreezing timeline:")
        for event in result["timeline"]:
            print(f"  iter {event['iteration']:>5}: {event['action']:<9} {event['module']}")
    print(f"\nFinal {workload.task.metric_name}: {result['final_metric']:.4f}  "
          f"simulated time: {result['simulated_time']:.4f}s")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .experiments import build_workload, compare_systems, format_rows

    workload = build_workload(args.workload, scale=args.scale, seed=args.seed)
    systems = list(dict.fromkeys(["vanilla"] + list(args.systems)))  # vanilla is the TTA anchor
    rows = compare_systems(workload, systems=systems)
    print(format_rows(rows))
    return 0


def _print_history_tail(trainer, metric_name: str, num_rows: int = 5) -> None:
    print(f"{'epoch':>5} {'loss':>8} {metric_name:>10} {'frozen%':>8} {'sim-time':>10}")
    for record in trainer.history.records[-num_rows:]:
        print(f"{record.epoch:>5} {record.train_loss:>8.4f} {record.metric:>10.4f} "
              f"{record.frozen_fraction:>8.0%} {record.simulated_time:>10.4f}")


def _cmd_ckpt(args: argparse.Namespace) -> int:
    if args.ckpt_command == "inspect":
        manager = CheckpointManager(DirectoryBackend(args.dir))
        rows = [manager.inspect(args.id)] if args.id else manager.history()
        if not rows:
            print(f"no checkpoints in {args.dir}")
            return 1
        print(f"{'checkpoint':<18} {'step':>6} {'epoch':>6} {'prefix':>7} "
              f"{'payload':>12} {'written':>12} {'tensors':>9}")
        for row in rows:
            meta = row.get("meta", {})
            print(f"{row['checkpoint_id']:<18} {row['step']:>6} {meta.get('epoch', '?'):>6} "
                  f"{meta.get('frozen_prefix', '?'):>7} {row['payload_bytes']:>12} "
                  f"{row['bytes_written']:>12} {row['num_new_tensors']:>4}/{row['num_tensors']:<4}")
        return 0

    from .experiments import build_trainer, build_workload

    workload = build_workload(args.workload, scale=args.scale, seed=args.seed)
    trainer = build_trainer(args.system, workload)
    manager = CheckpointManager(DirectoryBackend(args.dir))
    num_epochs = args.epochs or workload.num_epochs

    if args.ckpt_command == "save":
        trainer.configure_checkpointing(manager, checkpoint_every=args.every)
        trainer.fit(num_epochs)
        print(f"{args.system} on {args.workload}: trained {num_epochs} epochs, "
              f"{len(manager.list_checkpoints())} checkpoints in {args.dir}")
        _print_history_tail(trainer, workload.task.metric_name)
        for info in manager.history():
            print(f"  {info['checkpoint_id']}  step {info['step']:>5}  "
                  f"prefix {info['meta'].get('frozen_prefix', 0)}  wrote {info['bytes_written']} bytes")
    else:  # restore
        checkpoint = manager.inspect(args.id)
        saved_name = checkpoint.get("meta", {}).get("name")
        if saved_name is not None and saved_name != trainer.name:
            print(f"error: checkpoint was saved by system {saved_name!r}, "
                  f"requested --system {args.system!r}", file=sys.stderr)
            return 2
        trainer.configure_checkpointing(manager, checkpoint_every=args.every)
        trainer.restore(args.id)
        resumed_epoch = trainer._next_epoch
        if resumed_epoch >= num_epochs:
            print(f"checkpoint already covers epoch {resumed_epoch - 1}; nothing to resume "
                  f"(target {num_epochs} epochs)")
        else:
            trainer.fit(num_epochs)
            print(f"resumed {args.system} on {args.workload} from epoch {resumed_epoch} "
                  f"to {num_epochs} (bit-exact continuation)")
        _print_history_tail(trainer, workload.task.metric_name)
    if hasattr(trainer, "close"):
        trainer.close()
    return 0


#: What a malformed scenario file can raise while it is read, built or run;
#: ``sim run``, ``sim profile`` and ``sim faults`` turn these into exit code 2.
_SCENARIO_ERRORS = (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError)


def _cmd_sim(args: argparse.Namespace) -> int:
    if args.sim_command == "sweep":
        return _cmd_sim_sweep(args)
    if args.sim_command == "profile":
        return _cmd_sim_profile(args)
    if args.sim_command == "faults":
        return _cmd_sim_faults(args)
    if args.trace:
        print("error: --trace was removed; use --trace-out TRACE_JSON to write the "
              "structured SimScope trace (Perfetto-viewable, one track per job and "
              "per resource)", file=sys.stderr)
        return 2
    try:
        report = run_scenario(args.scenario,
                              default_policy=args.policy,
                              trace_out=args.trace_out, metrics_out=args.metrics_out)
    except _SCENARIO_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.trace_out:
        print(f"wrote {args.trace_out} (open at https://ui.perfetto.dev)")
    if args.metrics_out:
        print(f"wrote {args.metrics_out}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        perf = report.get("perf", {})
        print(f"wrote {args.out}: makespan {report['makespan']:.6f}s, "
              f"{report['num_jobs']} jobs, {report['num_trace_events']} events, "
              f"{perf.get('iterations_fast_forwarded', 0)} iterations fast-forwarded "
              f"({perf.get('cache_hit_rate', 0.0):.0%} cache hit rate)")
    else:
        print(payload)
    return 0


def _cmd_sim_faults(args: argparse.Namespace) -> int:
    try:
        plan = preview_faults(args.scenario, default_policy=args.policy)
    except _SCENARIO_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    payload = json.dumps(plan, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out}: {plan['num_events']} fault events")
    else:
        print(payload)
    return 0


def _cmd_sim_profile(args: argparse.Namespace) -> int:
    try:
        report = profile_scenario(args.scenario, top=args.top, sort=args.sort,
                                  default_policy=args.policy)
    except _SCENARIO_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    diff = None
    if getattr(args, "baseline", None):
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
            diff = diff_profiles(baseline, report)
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        report["baseline_diff"] = diff
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    perf = report.get("perf", {})
    print(f"{args.scenario}: {report['wall_seconds']:.3f}s wall, "
          f"{report['events_per_second']:.0f} events/s, "
          f"{report['iterations_per_second']:.0f} iterations/s, "
          f"makespan {report['makespan']:.6f}s "
          f"({perf.get('cache_hit_rate', 0.0):.0%} cache hit rate)")
    print(f"\ntop {len(report['hot_functions'])} functions by {report['sort']}:")
    print(f"{'calls':>9} {'tottime':>9} {'cumtime':>9}  function")
    for row in report["hot_functions"]:
        print(f"{row['calls']:>9} {row['tottime']:>9.4f} {row['cumtime']:>9.4f}  "
              f"{row['function']}")
    if diff is not None:
        ratio = diff["wall_ratio"]
        print(f"\nvs baseline {args.baseline}: wall {diff['baseline_wall_seconds']:.3f}s "
              f"-> {diff['wall_seconds']:.3f}s "
              f"({'n/a' if ratio is None else format(ratio, '.2f') + 'x'})")
        regressions = [row for row in diff["functions"] if row["delta_cumtime"] > 0]
        improvements = len(diff["functions"]) - len(regressions)
        if regressions:
            print(f"{len(regressions)} function(s) regressed "
                  f"({improvements} improved or unchanged):")
            print(f"{'Δcumtime':>9} {'Δtottime':>9} {'Δcalls':>9}  function")
            for row in regressions[:args.top]:
                print(f"{row['delta_cumtime']:>+9.4f} {row['delta_tottime']:>+9.4f} "
                      f"{row['delta_calls']:>+9} {' ' if row['status'] == 'common' else '*'} "
                      f"{row['function']}")
        else:
            print(f"no per-function regressions ({improvements} improved or unchanged)")
    return 0


def _cmd_sim_sweep(args: argparse.Namespace) -> int:
    try:
        merged = run_sweep(args.sweep, workers=args.workers)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, IndexError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    payload = json.dumps(merged, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out}: {merged['num_cells']} cells")
        for row in merged["cells"]:
            params = ", ".join(f"{key}={value}" for key, value in row["params"].items())
            # Per-cell engine perf counters are sim-derived, so this summary
            # is identical no matter how many workers ran the sweep.
            perf = row.get("perf", {})
            print(f"  [{row['index']}] {params}: makespan {row['makespan']:.6f}s, "
                  f"{perf.get('events_processed', 0)} events, "
                  f"{perf.get('iterations_fast_forwarded', 0)} fast-forwarded "
                  f"({perf.get('cache_hit_rate', 0.0):.0%} cache hit rate)")
    else:
        print(payload)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "ckpt":
        return _cmd_ckpt(args)
    if args.command == "sim":
        return _cmd_sim(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
