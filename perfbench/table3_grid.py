"""table3_grid: the Table 3 paper-artefact path, one grid column per op.

A pass is ``run_grid`` over ``method_roster("dblp", fast=True)`` x the
nine paper fractions on ``scaled_dblp(0.5)`` with one trial per cell.
Each op is one ``run_grid`` call on the whole roster at one fraction (a
column of Table 3): cell seeds derive from ``(seed, method, fraction)``
only, so every cell equals the matching cell of the full grid.  Single
cells are too unlike to be ops: per-method costs differ by 50x, and the
median cell jumped between methods from seed to seed (36% spread).
"""

from __future__ import annotations

import time

from common import (
    GRAPH_SEED,
    SETUP_REPEATS,
    Tracer,
    load_reference,
    peak_rss_mb,
    reset_peak_rss,
    run_passes,
)

SCALE = 0.5
N_TRIALS = 1
#: Nine columns per pass, too few for ten samples beyond any
#: percentile: the tail reported is the slowest column (p100).
TAIL_PCT = 100


def make_inputs():
    from repro.datasets.registry import scaled_dblp
    from repro.experiments.methods import method_roster

    return scaled_dblp(SCALE, seed=GRAPH_SEED), method_roster("dblp", fast=True)


def column(hin, roster, fraction, instance) -> dict[str, float]:
    """Every method's cell mean at one label fraction."""
    from repro.experiments.harness import run_grid

    grid = run_grid(hin, roster, [fraction], n_trials=N_TRIALS, seed=instance)
    return {key(name, fraction): cells[0].mean for name, cells in grid.cells.items()}


def key(name, fraction) -> str:
    return f"{name}/{fraction:g}"


def grid_pass(hin, roster, instance, tracer):
    from repro.experiments.harness import PAPER_FRACTIONS

    started = time.perf_counter()
    op_seconds, means = [], {}
    for fraction in PAPER_FRACTIONS:
        with tracer.span("column", op=True, fraction=fraction):
            t0 = time.perf_counter()
            means.update(column(hin, roster, fraction, instance))
            op_seconds.append(time.perf_counter() - t0)
    return time.perf_counter() - started, op_seconds, means


def setup(instance: int):
    """Generate the graph and run one untimed column (a cell per method)."""
    timings, gen = [], []
    for _ in range(SETUP_REPEATS):
        hin = roster = None  # only one repeat's inputs are alive at a time
        t0 = time.perf_counter()
        hin, roster = make_inputs()
        gen.append(time.perf_counter() - t0)
        column(hin, roster, 0.5, instance)
        timings.append(time.perf_counter() - t0)
    return hin, roster, timings, gen


def run(instance: int, seconds: float, tracer, layers):
    reference = load_reference("table3_grid")
    tolerance = reference["tolerance"]
    expected = reference["instances"][str(instance)]
    hin, roster, setup_times, gen_times = setup(instance)
    reset_peak_rss()

    def measured(trace_tracer, cells_roster):
        def one_pass():
            with trace_tracer.span("workload:table3_grid"):
                wall, op_seconds, means = grid_pass(hin, cells_roster, instance, trace_tracer)
            failed = sum(
                k not in expected or abs(v - expected[k]) > tolerance for k, v in means.items()
            )
            return wall, op_seconds, len(means), failed

        return run_passes(one_pass, seconds)

    passes, ops, attempted, failed = measured(Tracer(False), roster)
    result = {
        "setup_times": setup_times,
        "gen_times": gen_times,
        "passes": passes,
        "ops": ops,
        "tail_pct": TAIL_PCT,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
    }
    if layers is None:
        return result
    traced_roster = [(name, layers.timed_factory(name, f)) for name, f in roster]
    with layers.installed():
        traced_passes, _, t_attempted, t_failed = measured(tracer, traced_roster)
    layers.stats.add("grid.cells", t_attempted)
    chain_methods = ("grid.tmark_s", "grid.tensorrrcc_s")
    result.update(
        traced_passes=traced_passes,
        fit_seconds=sum(layers.stats.values.get(k, 0.0) for k in chain_methods),
        attempted=attempted + t_attempted,
        failed=failed + t_failed,
    )
    return result
