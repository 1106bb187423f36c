"""End-to-end benchmark of the T-Mark reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit_sweep --seed 0 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
same workload with every layer wrapped and prints the per-layer
metrics (spans go to ``perfbench/out/``).  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workloads are described in ``BENCHMARK.json`` and in their modules.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402 - needs HERE on sys.path
    OUT_DIR,
    ROOT,
    THREAD_ENV,
    Tracer,
    beyond,
    cpu_times,
    instance_of,
    log,
    machine_info,
    median,
    nearest_rank,
    steal_frac,
)

# common imports nothing numeric, so the pins land before numpy loads.
os.environ.update(THREAD_ENV)


def end_to_end(result: dict) -> dict[str, float]:
    ops = result["ops"]
    attempted = result["attempted"]
    return {
        "setup_s": median(result["setup_times"]),
        "work_s": median(result["passes"]),
        "op_p50_s": median(ops),
        "op_tail_s": nearest_rank(ops, result["tail_pct"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (attempted - result["failed"]) / attempted,
    }


def per_layer(result: dict, layers, names) -> dict[str, float]:
    values = layers.metrics(names, fit_seconds=result.get("fit_seconds", 0.0))
    values["datasets.gen_s"] = median(result["gen_times"])
    values["setup.first_s"] = result["setup_times"][0]
    values["op.tail_beyond"] = beyond(result["ops"], result["tail_pct"])
    if "traced_passes" in result:
        values["trace.overhead_frac"] = (
            median(result["traced_passes"]) / median(result["passes"]) - 1.0
        )
    return values


def main(argv=None) -> int:
    # Workload and metric names and units come from here and nowhere else.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        log(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a full checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT))
    # A terminated run still unwinds, so the daemon and the scratch store
    # are cleaned up by the workloads' ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    import importlib

    module = importlib.import_module(args.workload)
    instance = instance_of(args.seed)
    tracer = Tracer(bool(args.trace))
    layers = None
    if args.trace:
        from layers import Layers

        layers = Layers(tracer)
    started, counters = time.perf_counter(), cpu_times()
    result = module.run(instance, args.seconds, tracer, layers)
    meta = machine_info(args.seed)
    meta.update(
        workload=args.workload,
        seconds=args.seconds,
        run_wall_s=round(time.perf_counter() - started, 3),
        steal_frac=round(steal_frac(counters, cpu_times()), 4),
        tail=f"p{result['tail_pct']:.4g} over {len(result['ops'])} ops, "
        f"{beyond(result['ops'], result['tail_pct'])} beyond",
    )
    print(f"# meta {json.dumps(meta)}")
    for note in result.get("notes", ()):
        print(f"# {note}")

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        from repro.obs.recorder import CHAIN_PHASES

        values = per_layer(result, layers, units)
        if result.get("fit_seconds"):
            phases = sum(values[f"chain.{p}_s"] for p in CHAIN_PHASES)
            print(f"# chain phases cover {phases / result['fit_seconds']:.1%} of measured fit time")
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(spans_path)
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        values = end_to_end(result)
    if values.keys() != units.keys():
        log(f"error: measured {sorted(values)} but BENCHMARK.json lists {sorted(units)}")
        return 2
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": float(values[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
