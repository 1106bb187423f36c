"""fit_sweep: the in-memory serial T-Mark path at the paper's DBLP size.

One pass is one ``build_operators`` followed by ``TMark.fit(...,
operators=ops)`` over the paper's nine label fractions x the Fig. 8
``GAMMA_SWEEP`` (alpha 0.8, label threshold 0.8): 99 fits, one op each.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    GRAPH_SEED,
    SETUP_REPEATS,
    Tracer,
    argmax_digest,
    current_rss_mb,
    load_reference,
    peak_rss_mb,
    reset_peak_rss,
    run_passes,
)

N_AUTHORS = 4057
ALPHA = 0.8
LABEL_THRESHOLD = 0.8
#: 99 fits per pass: p85 is the highest percentile with >= 10 beyond it.
TAIL_PCT = 85


def fractions():
    from repro.experiments.harness import PAPER_FRACTIONS

    return PAPER_FRACTIONS


def gammas():
    from repro.experiments.runners import GAMMA_SWEEP

    return GAMMA_SWEEP


def make_inputs(instance: int):
    """The DBLP graph plus one seeded training view per label fraction."""
    from repro import make_dblp

    hin = make_dblp(n_authors=N_AUTHORS, seed=GRAPH_SEED)
    views = []
    for fraction in fractions():
        rng = np.random.default_rng([instance, round(fraction * 100)])
        views.append((fraction, hin.masked(rng.random(hin.n_nodes) < fraction)))
    return hin, views


def fit(view, ops, gamma):
    from repro import TMark

    model = TMark(alpha=ALPHA, gamma=gamma, label_threshold=LABEL_THRESHOLD)
    return model.fit(view, operators=ops).result_.node_scores


def key(fraction, gamma) -> str:
    return f"{fraction:g}/{gamma:g}"


def sweep(hin, views, tracer):
    """One measured pass: returns (wall seconds, op seconds, digests)."""
    from repro.core import build_operators

    started = time.perf_counter()
    with tracer.span("build_operators", op=True):
        ops = build_operators(hin)
    op_seconds, labels = [], {}
    for fraction, view in views:
        for gamma in gammas():
            with tracer.span("fit", op=True, fraction=fraction, gamma=gamma):
                t0 = time.perf_counter()
                scores = fit(view, ops, gamma)
                op_seconds.append(time.perf_counter() - t0)
            labels[key(fraction, gamma)] = scores
    wall = time.perf_counter() - started
    return wall, op_seconds, {k: argmax_digest(s) for k, s in labels.items()}


def setup(instance: int):
    """Generate the inputs and run one untimed op of each kind."""
    from repro.core import build_operators

    timings, gen = [], []
    for _ in range(SETUP_REPEATS):
        hin = views = None  # only one repeat's inputs are alive at a time
        t0 = time.perf_counter()
        hin, views = make_inputs(instance)
        gen.append(time.perf_counter() - t0)
        ops = build_operators(hin)
        fit(views[0][1], ops, 0.0)
        fit(views[0][1], ops, 0.5)
        del ops
        timings.append(time.perf_counter() - t0)
    return hin, views, timings, gen


def run(instance: int, seconds: float, tracer, layers):
    reference = load_reference("fit_sweep")["instances"][str(instance)]
    hin, views, setup_times, gen_times = setup(instance)
    reset_peak_rss()

    def measured(trace_tracer):
        def one_pass():
            with trace_tracer.span("workload:fit_sweep"):
                wall, op_seconds, digests = sweep(hin, views, trace_tracer)
            failed = sum(reference.get(k) != d for k, d in digests.items())
            return wall, op_seconds, len(digests), failed

        return run_passes(one_pass, seconds)

    passes, ops, attempted, failed = measured(Tracer(False))
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
    # Traced run: the peak-RSS growth of one O/R build in a forked child
    # (the child starts at this process's resident set), then a second
    # pass with every layer wrapped.
    from benchmarks._mem import measure_in_child
    from repro.tensor.transition import build_transition_tensors

    def build_only():
        build_transition_tensors(hin.tensor)

    baseline_mb = current_rss_mb()
    _, build_rss = measure_in_child(build_only)
    layers.stats.add("tensor.build_peak_mb", build_rss / 2**20 - baseline_mb)
    with layers.installed():
        traced_passes, traced_ops, t_attempted, t_failed = measured(tracer)
    result.update(
        traced_passes=traced_passes,
        fit_seconds=sum(traced_ops),
        attempted=attempted + t_attempted,
        failed=failed + t_failed,
    )
    return result
