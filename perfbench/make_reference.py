"""Regenerate the reference outputs the benchmark checks against.

Usage (from the repository root)::

    python3 perfbench/make_reference.py [fit_sweep table3_grid store_fit]

Writes ``perfbench/reference/<workload>.json`` for every input instance
(``seed % N_INSTANCES``).  Where the program has a second path to the
same answer the reference takes it: the table3 cells come from one
full-roster ``run_grid`` call, and the store fits run serially (the
benchmark's fits are 2-shard, which the shard contract makes
argmax-identical).  serve_updates needs no file: its reference is an
offline replay made during the run.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import N_INSTANCES, REFERENCE_DIR, ROOT, THREAD_ENV, Tracer, argmax_digest  # noqa: E402

os.environ.update(THREAD_ENV)
sys.path.insert(0, str(ROOT / "src"))


def fit_sweep_reference(instance: int) -> dict:
    import fit_sweep

    hin, views = fit_sweep.make_inputs(instance)
    _, _, digests = fit_sweep.sweep(hin, views, Tracer(False))
    return digests


def table3_grid_reference(instance: int) -> dict:
    import table3_grid
    from repro.experiments.harness import PAPER_FRACTIONS, run_grid

    hin, roster = table3_grid.make_inputs()
    grid = run_grid(hin, roster, PAPER_FRACTIONS, n_trials=table3_grid.N_TRIALS, seed=instance)
    return {
        table3_grid.key(name, fraction): cell.mean
        for name, cells in grid.cells.items()
        for fraction, cell in zip(PAPER_FRACTIONS, cells)
    }


def store_fit_reference(instance: int) -> list:
    import shutil

    import store_fit

    directory = store_fit.store_dir(instance)
    try:
        store = store_fit.generate(directory)
        masks = store_fit.label_masks(directory, instance)
        return [argmax_digest(store_fit.fit(store, labels, None)) for labels in masks]
    finally:
        shutil.rmtree(directory, ignore_errors=True)


BUILDERS = {
    "fit_sweep": (fit_sweep_reference, "argmax digest equal: identical per-node argmax"),
    "table3_grid": (table3_grid_reference, 0.02),
    "store_fit": (store_fit_reference, "argmax digest equal: identical per-node argmax"),
}


def main(argv) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in argv or list(BUILDERS):
        build, tolerance = BUILDERS[workload]
        instances = {}
        for instance in range(N_INSTANCES):
            instances[str(instance)] = build(instance)
            print(f"{workload}: instance {instance} done", flush=True)
        with open(REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as handle:
            json.dump({"tolerance": tolerance, "instances": instances}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
