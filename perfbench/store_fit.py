"""store_fit: the out-of-core store and the sharded fit.

A 300k-node / 600k-link / 4-relation / 4-label / 32-feature store from
``generate_ooc_store``; each op is ``fit_from_store(alpha=0.9,
gamma=0, tol=1e-6, shards=2, workers=2)`` with a fresh 5% label mask;
a pass is one op per seeded mask (``N_MASKS``).  The chunked operator
cache is built on disk during set-up.  At gamma 0 no W is built or
walked, so this workload bypasses the features layer.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from common import (
    GRAPH_SEED,
    OUT_DIR,
    SETUP_REPEATS,
    Tracer,
    argmax_digest,
    load_reference,
    median,
    peak_rss_mb,
    reset_peak_rss,
    run_passes,
)

N_NODES = 300_000
N_LINKS = 600_000
N_RELATIONS = 4
N_LABELS = 4
N_FEATURES = 32
LABELED_FRACTION = 0.05
N_MASKS = 4
FIT_PARAMS = {"alpha": 0.9, "gamma": 0.0, "tol": 1e-6}
SHARDS = 2
#: Too few ops per run for any percentile with ten samples beyond it:
#: the tail reported is the slowest op (p100).
TAIL_PCT = 100


def store_dir(instance: int):
    return OUT_DIR / f"store-{instance}"


def generate(directory):
    from repro.ooc import generate_ooc_store

    shutil.rmtree(directory, ignore_errors=True)
    return generate_ooc_store(
        directory,
        n_nodes=N_NODES,
        n_links=N_LINKS,
        n_relations=N_RELATIONS,
        n_labels=N_LABELS,
        n_features=N_FEATURES,
        seed=GRAPH_SEED,
    )


def label_masks(directory, instance: int):
    truth = np.load(directory / "ground_truth.npy")
    masks = []
    for index in range(N_MASKS):
        rng = np.random.default_rng([instance, index])
        labeled = rng.random(truth.size) < LABELED_FRACTION
        matrix = np.zeros((truth.size, N_LABELS), dtype=bool)
        matrix[labeled, truth[labeled]] = True
        masks.append(matrix)
    return masks


def fit(store, labels, shards):
    from repro.ooc import fit_from_store

    model = fit_from_store(store, labels=labels, shards=shards, workers=shards, **FIT_PARAMS)
    return model.result_.node_scores


def setup(instance: int):
    """Generate the store, build its operator cache, run one sharded fit."""
    from repro.ooc import GraphStore, build_chunked_operators

    directory = store_dir(instance)
    timings, gen, opens, builds = [], [], [], []
    for _ in range(SETUP_REPEATS):
        store = masks = None  # only one repeat's store is alive at a time
        t0 = time.perf_counter()
        generate(directory)
        t1 = time.perf_counter()
        store = GraphStore.open(directory)
        t2 = time.perf_counter()
        build_chunked_operators(store, build_w=False)
        t3 = time.perf_counter()
        masks = label_masks(directory, instance)
        fit(store, masks[0], SHARDS)
        timings.append(time.perf_counter() - t0)
        gen.append(t1 - t0)
        opens.append(t2 - t1)
        builds.append(t3 - t2)
    return store, masks, timings, gen, median(opens), median(builds)


def mapped_bytes(directory) -> int:
    """Bytes of every array file a fit may map (computed from file sizes)."""
    return sum(path.stat().st_size for path in directory.rglob("*.npy"))


def run(instance: int, seconds: float, tracer, layers):
    expected = load_reference("store_fit")["instances"][str(instance)]
    store, masks, setup_times, gen_times, open_s, build_s = setup(instance)
    reset_peak_rss()

    def measured(trace_tracer, budget):
        """Passes of one sharded fit per mask until ``budget`` seconds."""

        def one_pass():
            started, op_seconds, failed = time.perf_counter(), [], 0
            with trace_tracer.span("workload:store_fit"):
                for index, labels in enumerate(masks):
                    with trace_tracer.span("fit_from_store", op=True, mask=index):
                        t0 = time.perf_counter()
                        scores = fit(store, labels, SHARDS)
                        op_seconds.append(time.perf_counter() - t0)
                    failed += argmax_digest(scores) != expected[index]
            return time.perf_counter() - started, op_seconds, len(masks), failed

        return run_passes(one_pass, budget)

    try:
        passes, ops, attempted, failed = measured(Tracer(False), seconds)
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
        # Traced run: one traced pass, then a serial reference fit on the
        # first mask (the base of shard.speedup).
        with layers.installed():
            traced_passes, traced_ops, t_attempted, t_failed = measured(tracer, 0.0)
        t0 = time.perf_counter()
        serial_scores = fit(store, masks[0], None)
        serial_s = time.perf_counter() - t0
        stats = layers.stats
        stats.add("ooc.open_s", open_s)
        stats.add("ooc.build_s", build_s)
        stats.add("ooc.mapped_bytes", mapped_bytes(store_dir(instance)))
        stats.add("ooc.serial_fit_s", serial_s)
        stats.add("shard.fit_s", median(ops))
        stats.add("shard.speedup", serial_s / median(ops[0::N_MASKS]))
        result.update(
            traced_passes=traced_passes,
            fit_seconds=sum(traced_ops),
            attempted=attempted + t_attempted + 1,
            failed=failed + t_failed + (argmax_digest(serial_scores) != expected[0]),
        )
        return result
    finally:
        shutil.rmtree(store_dir(instance), ignore_errors=True)
