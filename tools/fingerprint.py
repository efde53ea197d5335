#!/usr/bin/env python3
"""Training fingerprints: what every registry workload computes, epoch by epoch, as exact digests.

Usage::

    python -m tools.fingerprint                       # rewrite FINGERPRINTS.json (seeds 0-4)
    python -m tools.fingerprint --check               # recompute, compare, name the first difference
    python -m tools.fingerprint --seeds 20 --out ensemble.json

Every workload of ``repro.experiments`` is built at ``tiny`` scale through
``build_trainer`` and trained for its full epoch count, once per system
(``egeria`` and ``vanilla``) and seed.  A run records, per epoch, the mean
training loss, the task metric, the simulated time and the SHA-256 of the
model's state (parameter and buffer bytes); once, at the end, the freezing
timeline and stage transitions, the SHA-256 of the optimizer's
``state_dict()``, and the deterministic work counters: ``backward_nodes``,
``get_sample`` calls, activation-cache hits / misses / stores,
``reference_blocks_executed`` and ``fp_skipped_iterations`` (``None`` where a
system has no such counter).  A run that raises keeps the epochs it finished
and records the exception as ``error`` (``None`` for a clean run): a
diverging seed is part of what the code computes.  No field is a wall-clock
reading, so two computations of one row are equal or the code computes
something else.

``--check`` exits 1 and prints the first differing field as
``workload / system / seed / epoch / key``; ``--seeds N --out FILE`` writes
the same schema for seeds ``0 .. N-1``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.ckpt.serialization import split_state  # noqa: E402
from repro.data import datasets  # noqa: E402
from repro.experiments import available_workloads, build_trainer, build_workload  # noqa: E402

FORMAT = "repro.fingerprint/1"
DEFAULT_PATH = ROOT / "FINGERPRINTS.json"
SYSTEMS = ("egeria", "vanilla")
DEFAULT_SEEDS = 5
#: Per-epoch keys, in the order ``--check`` compares them.
EPOCH_KEYS = ("loss", "metric", "sim_time", "model_sha256")
#: Per-run keys after the epochs, in the order ``--check`` compares them.
RUN_KEYS = ("error", "freezing_timeline", "stage_transitions", "sim_time", "optimizer_sha256", "backward_nodes",
            "get_sample_calls", "cache_hits", "cache_misses", "cache_stores", "reference_blocks_executed",
            "fp_skipped_iterations")


def _sha256_of_state(state) -> str:
    """SHA-256 of a nested state: its manifest tree, which names every array by content digest."""
    tree, _ = split_state(state)
    return hashlib.sha256(json.dumps(tree, sort_keys=True).encode("utf-8")).hexdigest()


def _model_sha256(model) -> str:
    """SHA-256 of every parameter and buffer: names, dtypes, shapes and C-order bytes, in state order."""
    digest = hashlib.sha256()
    for name, array in model.state_dict().items():
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


@contextlib.contextmanager
def _counting_get_sample() -> Iterator[List[int]]:
    """Count every ``get_sample`` call of the synthetic datasets while inside; yields the counter."""
    calls = [0]
    originals = [(cls, cls.get_sample) for cls in vars(datasets).values()
                 if isinstance(cls, type) and "get_sample" in vars(cls)]

    def wrap(original):
        def counting(self, index):
            calls[0] += 1
            return original(self, index)
        return counting

    for cls, original in originals:
        cls.get_sample = wrap(original)
    try:
        yield calls
    finally:
        for cls, original in originals:
            cls.get_sample = original


def fingerprint_run(workload: str, system: str, seed: int, epochs: Optional[int] = None) -> Dict[str, object]:
    """One row: ``workload`` trained by ``system`` at ``seed``, for ``epochs`` (default: the workload's own)."""
    with tempfile.TemporaryDirectory(prefix="fingerprint_") as cache_dir, _counting_get_sample() as calls:
        built = build_workload(workload, scale="tiny", seed=seed)
        overrides = {"cache_dir": cache_dir} if system == "egeria" else {}
        trainer = build_trainer(system, built, **overrides)
        rows, error = [], None
        try:
            for epoch in range(epochs if epochs is not None else built.num_epochs):
                try:
                    record = trainer.fit(epoch + 1).records[-1]
                except ValueError as exc:  # a diverged run: "non-finite plasticity reading"
                    error = f"epoch {epoch}: {type(exc).__name__}: {exc}"
                    break
                rows.append({"epoch": epoch, "loss": record.train_loss, "metric": record.metric,
                             "sim_time": record.simulated_time, "model_sha256": _model_sha256(trainer.model)})
            egeria = system == "egeria"
            cache = trainer.cache.stats if egeria else None
            return {
                "workload": workload,
                "system": system,
                "seed": seed,
                "epochs": rows,
                "error": error,
                "freezing_timeline": trainer.freezing_timeline() if egeria else [],
                "stage_transitions": [dict(t) for t in trainer.stage_transitions] if egeria else [],
                "sim_time": trainer.simulated_time,
                "optimizer_sha256": _sha256_of_state(trainer.optimizer.state_dict()),
                "backward_nodes": trainer.backward_nodes,
                "get_sample_calls": calls[0],
                "cache_hits": cache.hits if egeria else None,
                "cache_misses": cache.misses if egeria else None,
                "cache_stores": cache.stores if egeria else None,
                "reference_blocks_executed": trainer.reference.stats.blocks_executed if egeria else None,
                "fp_skipped_iterations": trainer.fp_skipped_iterations if egeria else None,
            }
        finally:
            if system == "egeria":
                trainer.close()


def fingerprints(seeds: int, log=None) -> Dict[str, object]:
    """Every row for seeds ``0 .. seeds-1``: workloads in registry order, then systems, then seeds."""
    runs = []
    for name in available_workloads():
        for system in SYSTEMS:
            for seed in range(seeds):
                runs.append(fingerprint_run(name, system, seed))
                if log is not None:
                    row = runs[-1]
                    log(f"{name} / {system} / seed {seed}: {len(row['epochs'])} epochs"
                        + (f", {row['error']}" if row["error"] else ""))
    return {"format": FORMAT, "scale": "tiny", "systems": list(SYSTEMS), "seeds": seeds, "runs": runs}


def _same(a, b) -> bool:
    """Equality of two JSON values as JSON text, so a NaN metric equals itself."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def first_difference(expected: Dict[str, object], actual: Dict[str, object],
                     prefix: bool = False) -> Optional[str]:
    """``workload / system / seed / epoch / key`` of the first field where two rows differ, else ``None``.

    Epochs are compared before the run-level fields, the earliest epoch
    first; a run-level field reads ``-`` for the epoch.  With ``prefix``,
    ``actual`` is a shorter run (``fingerprint_run(..., epochs=n)``): only its
    epochs are compared, and none of the run-level fields.
    """
    where = f"{expected['workload']} / {expected['system']} / {expected['seed']}"
    for want, got in zip(expected["epochs"], actual["epochs"]):
        for key in EPOCH_KEYS:
            if not _same(want[key], got[key]):
                return f"{where} / {want['epoch']} / {key}: expected {want[key]!r}, got {got[key]!r}"
    if prefix and len(actual["epochs"]) <= len(expected["epochs"]):
        return None
    if len(expected["epochs"]) != len(actual["epochs"]):
        first = min(len(expected["epochs"]), len(actual["epochs"]))
        return (f"{where} / {first} / epochs: expected {len(expected['epochs'])} epochs, "
                f"got {len(actual['epochs'])}")
    for key in RUN_KEYS:
        if not _same(expected[key], actual[key]):
            return f"{where} / - / {key}: expected {expected[key]!r}, got {actual[key]!r}"
    return None


def _key(row: Dict[str, object]) -> Tuple[str, str, int]:
    return row["workload"], row["system"], row["seed"]


def check(path: Path, log=print) -> int:
    """Recompute every row of ``path``; 0 if all are equal, else 1 after naming the first difference."""
    with open(path, encoding="utf-8") as handle:
        committed = json.load(handle)
    if committed.get("format") != FORMAT:
        log(f"{path}: format {committed.get('format')!r}, expected {FORMAT!r}")
        return 1
    expected_keys = [_key(row) for row in committed["runs"]]
    wanted = [(name, system, seed) for name in available_workloads() for system in SYSTEMS
              for seed in range(committed["seeds"])]
    if expected_keys != wanted:
        log(f"{path}: rows {expected_keys} do not cover the registry {wanted}")
        return 1
    for row in committed["runs"]:
        difference = first_difference(row, fingerprint_run(*_key(row)))
        if difference is not None:
            log(f"fingerprint differs: {difference}")
            return 1
        log(f"{' / '.join(map(str, _key(row)))}: clean")
    log(f"{path}: clean ({len(committed['runs'])} runs)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="recompute the file's rows and compare them")
    parser.add_argument("--seeds", type=int, default=DEFAULT_SEEDS, help="seeds 0 .. N-1 (default 5)")
    parser.add_argument("--out", type=Path, default=None, help="file to write (default FINGERPRINTS.json)")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.out or DEFAULT_PATH)
    result = fingerprints(args.seeds, log=lambda line: print(line, file=sys.stderr))
    with open(args.out or DEFAULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
