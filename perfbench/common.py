"""Shared plumbing for the end-to-end benchmark.

Everything here lives outside the program under test: timing helpers,
an in-memory span tracer, the timing wrappers the traced run installs
around public entry points, machine metadata and reference-file access.
"""

from __future__ import annotations

import contextvars
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFERENCE_DIR = HERE / "reference"

#: Inputs are generated from ``seed % N_INSTANCES``; the reference
#: directory holds the expected outputs of every instance.
N_INSTANCES = 16

#: Each workload's graph is fixed, like a paper dataset; the seed draws
#: what varies between runs of one dataset: label splits, cell seeds,
#: the delta stream and the request stream.  Graph-to-graph cost
#: differences would otherwise add to the run-to-run spread.
GRAPH_SEED = 0

#: Set-up is repeated this many times per run and reported as a median.
SETUP_REPEATS = 3

#: Every thread-pool knob the numeric stack reads.  With one thread per
#: process, the busy processes of any workload (client and daemon, or
#: two shard workers) never run more threads than the two cores of the
#: reference box.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def instance_of(seed: int) -> int:
    return seed % N_INSTANCES


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def beyond(values, pct: float) -> int:
    """Samples strictly above the nearest-rank percentile's position."""
    n = len(values)
    return n - max(1, math.ceil(pct / 100.0 * n))


def run_passes(one_pass, budget: float):
    """Call ``one_pass()`` until ``budget`` seconds have elapsed (at least once).

    ``one_pass`` returns ``(wall_seconds, op_seconds, attempted, failed)``;
    the result gathers them as ``(passes, ops, attempted, failed)``.
    """
    passes, ops, attempted, failed = [], [], 0, 0
    started = time.perf_counter()
    while True:
        wall, op_seconds, n_attempted, n_failed = one_pass()
        passes.append(wall)
        ops.extend(op_seconds)
        attempted += n_attempted
        failed += n_failed
        if time.perf_counter() - started >= budget:
            return passes, ops, attempted, failed


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (VmHWM) at its current RSS.

    Called after set-up, so that :func:`peak_rss_mb` covers only the
    measured phase.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def current_rss_mb() -> float:
    """This process's resident set right now, in MB."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak RSS (VmHWM) of this or another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_times() -> list[int]:
    """The box's CPU time counters (the ``cpu`` line of /proc/stat)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_frac(before: list[int], after: list[int]) -> float:
    """Share of CPU time a virtual machine's host took between two readings.

    A high share means other guests were using the cores, and every
    timing of the run is slowed by it.
    """
    spent = [b - a for a, b in zip(before, after)]
    return spent[7] / max(1, sum(spent[:8]))


def argmax_digest(scores) -> str:
    """Short sha256 of the per-node argmax vector: equal iff identical."""
    import numpy as np

    labels = np.ascontiguousarray(np.argmax(scores, axis=1).astype(np.int8))
    return hashlib.sha256(labels.tobytes()).hexdigest()[:16]


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def machine_info(seed: int) -> dict:
    import numpy as np
    import scipy

    mem_kib = 0
    with open("/proc/meminfo", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("MemTotal:"):
                mem_kib = int(line.split()[1])
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(mem_kib / 1024**2, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": dict(THREAD_ENV),
        "seed": seed,
        "instance": instance_of(seed),
    }


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory spans: workload -> op -> layer call, sharing an op id.

    A disabled tracer records nothing, so the untraced run pays one
    attribute check per span site.  Spans are written out once, at the
    end of the run (:meth:`dump`).
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextmanager
    def span(self, name: str, *, op: bool = False, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._current.get()
        op_id = next(self._ops) if op else (parent.op if parent else None)
        record = Span(
            next(self._ids),
            parent.id if parent else None,
            op_id,
            name,
            time.perf_counter(),
            attrs=attrs,
        )
        token = self._current.set(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(record)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "id": s.id,
                "parent": s.parent,
                "op": s.op,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)


class LayerStats:
    """Accumulates per-layer seconds and counts from wrapped calls."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.values: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0.0) + amount

    def timed(self, span_name: str, seconds_key: str, calls_key: str | None = None,
              after=None):
        """Wrapper factory: time each call into ``seconds_key``.

        ``after(stats, args, result)`` may derive extra counts (bytes,
        evaluations) from the call.
        """
        def make(func):
            def wrapper(*args, **kwargs):
                with self.tracer.span(span_name):
                    started = time.perf_counter()
                    result = func(*args, **kwargs)
                    self.add(seconds_key, time.perf_counter() - started)
                if calls_key is not None:
                    self.add(calls_key, 1)
                if after is not None:
                    after(self, args, result)
                return result

            wrapper.__wrapped__ = func
            return wrapper

        return make


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
