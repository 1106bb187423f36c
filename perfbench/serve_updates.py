"""serve_updates: the prediction daemon under reads beside writes.

``python -m repro.experiments serve --hin <graph>`` runs as its own
process on the fit_sweep graph (30% of labels revealed).  This process
is the client: an open loop over two keep-alive connections for one
20 s pass.  Neither process is pinned to a core: with the daemon on a
core of its own, the slow share of classify latency (see
``SLOW_FACTOR``) moved as much from run to run as it does unpinned.
One sends a 16-node ``POST /classify`` every 5 ms (200 req/s); the
other sends one 10-delta ``POST /update`` batch per second, drawn from
``synthetic_delta_log``'s default mix, and polls ``/healthz`` until the
new snapshot version shows.  Latency is timed from each request's due
time, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import http.client
import json
import math
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from common import (
    GRAPH_SEED,
    OUT_DIR,
    SETUP_REPEATS,
    child_env,
    median,
    nearest_rank,
    peak_rss_mb,
)

N_AUTHORS = 4057
LABELED_FRACTION = 0.3
CLASSIFY_RATE = 200.0
NODES_PER_CLASSIFY = 16
UPDATE_PERIOD = 1.0
DELTAS_PER_UPDATE = 10
#: Freshness resolution.  Tighter polling adds load to both the client
#: and the daemon, which shows in the classify tail.
POLL_INTERVAL = 0.02
FRESH_TIMEOUT = 30.0
PASS_SECONDS = 20.0
#: Classify latency has two modes: requests served at once, and
#: requests that wait about one 5 ms GIL switch interval behind the
#: daemon's update work.  The share of the slow mode follows the box,
#: not the inputs: it moved between 2% and 25% from run to run, so
#: every fixed percentile from p70 up spread 14-190% (IQR over median)
#: over ten seeds.  The tail reported is instead the median of the slow
#: mode, the requests slower than SLOW_FACTOR times the median: how
#: long a request waits behind an update.  It spread 13% over those ten
#: seeds, and 10% and 7% over two later sets of ten.  p99 is still
#: printed as a note and reported as serve.classify_p99_s.
SLOW_FACTOR = 2.0
MIN_BEYOND = 10

_URL = re.compile(r"on (http://[^\]\s]+)")


def hin_path(instance: int):
    return OUT_DIR / f"serve-{instance}.npz"


def make_inputs(instance: int, n_batches: int):
    """Save the served graph; return its node names and update payloads."""
    from repro import make_dblp
    from repro.hin.io import save_hin
    from repro.stream import synthetic_delta_log

    hin = make_dblp(n_authors=N_AUTHORS, seed=GRAPH_SEED)
    rng = np.random.default_rng([instance, 30])
    view = hin.masked(rng.random(hin.n_nodes) < LABELED_FRACTION)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    save_hin(view, hin_path(instance))
    log = synthetic_delta_log(
        view, DELTAS_PER_UPDATE * (n_batches + 8), batch_size=DELTAS_PER_UPDATE, seed=instance
    )
    batches = [[delta.to_dict() for delta in batch] for batch in log.batches()]
    if len(batches) < n_batches:
        raise RuntimeError(f"delta log has {len(batches)} batches, need {n_batches}")
    return list(view.node_names), view.label_names, batches


class Daemon:
    """The serve CLI as a child process on a free port."""

    def __init__(self, instance: int):
        self.log = open(OUT_DIR / f"serve-{instance}.log", "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve",
             "--hin", str(hin_path(instance)), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=child_env(),
            text=True,
        )
        for line in self.process.stdout:
            match = _URL.search(line)
            if match:
                host, port = match.group(1).removeprefix("http://").split(":")
                self.host, self.port = host, int(port)
                break
        else:
            self.stop()
            raise RuntimeError(f"daemon exited before serving (code {self.process.returncode})")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


def call(conn, method: str, path: str, payload=None):
    body = None if payload is None else json.dumps(payload)
    headers = {} if payload is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    if response.headers.get("Content-Type", "").startswith("application/json"):
        return response.status, json.loads(raw)
    return response.status, raw.decode("utf-8")


def safe_call(conn, method: str, path: str, payload=None):
    """``call`` that reports a transport failure as status ``None``."""
    try:
        return call(conn, method, path, payload)
    except (OSError, http.client.HTTPException, ValueError):
        conn.close()
        return None, None


def wait_for_version(conn, version: int) -> bool:
    deadline = time.perf_counter() + FRESH_TIMEOUT
    while time.perf_counter() < deadline:
        _, body = safe_call(conn, "GET", "/healthz")
        if body is None:
            return False
        if body["snapshot_version"] >= version:
            return True
        time.sleep(POLL_INTERVAL)
    return False


def valid_classify(status, body, nodes, label_names) -> bool:
    if status != 200 or len(body.get("results", ())) != len(nodes):
        return False
    for entry, node in zip(body["results"], nodes):
        confidence = np.array([entry["confidence"][label] for label in label_names])
        if (
            entry["node"] != node
            or entry["label"] not in label_names
            or not np.all(np.isfinite(confidence))
            or confidence.min() < 0.0
            or abs(confidence.sum() - 1.0) > 1e-9
        ):
            return False
    return True


def scrape(conn) -> dict[str, float]:
    """Unlabelled samples of the daemon's Prometheus exposition."""
    _, text = call(conn, "GET", "/metrics")
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.split()
            values[name] = float(value)
    return values


def tail_percentile(latencies) -> float:
    """Nearest-rank percentile at the median of the slow mode.

    The slow mode is every request slower than ``SLOW_FACTOR`` times the
    median, and at least the ``2 * MIN_BEYOND`` slowest, so half of it
    (at least ``MIN_BEYOND`` requests) lies beyond the percentile.
    """
    n = len(latencies)
    cut = SLOW_FACTOR * median(latencies)
    n_slow = max(2 * MIN_BEYOND, sum(x > cut for x in latencies))
    rank = n - n_slow // 2
    return 100.0 * (rank - 0.5) / n


def start_and_warm(instance, n_batches):
    """One set-up: inputs, daemon start, one classify and one update."""
    t0 = time.perf_counter()
    names, label_names, batches = make_inputs(instance, n_batches)
    gen_s = time.perf_counter() - t0
    daemon = Daemon(instance)
    try:
        conn = daemon.connect()
        nodes = names[:NODES_PER_CLASSIFY]
        if not valid_classify(*safe_call(conn, "POST", "/classify", {"nodes": nodes}), nodes,
                              label_names):
            raise RuntimeError("warm-up classify failed")
        status, _ = safe_call(conn, "POST", "/update", {"deltas": batches[0]})
        if status != 202 or not wait_for_version(conn, 1):
            raise RuntimeError("warm-up update was not applied")
        conn.close()
    except BaseException:
        daemon.stop()
        raise
    return daemon, names, label_names, batches, gen_s


def open_loop(daemon, names, label_names, batches, instance, seconds, tracer):
    """The measured phase; returns per-request records."""
    n_classify = int(seconds * CLASSIFY_RATE)
    n_updates = int(seconds / UPDATE_PERIOD)
    rng = np.random.default_rng([instance, 7])
    requests = [list(rng.choice(names, NODES_PER_CLASSIFY, replace=False)) for _ in range(n_classify)]
    classify_conn, update_conn = daemon.connect(), daemon.connect()
    classify_records, update_records = [], []
    t_start = time.perf_counter() + 0.05

    def pause_until(due):
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)

    def classify_loop():
        for i, nodes in enumerate(requests):
            due = t_start + i / CLASSIFY_RATE
            pause_until(due)
            sent = time.perf_counter()
            with tracer.span("classify", op=True):
                status, body = safe_call(classify_conn, "POST", "/classify", {"nodes": nodes})
            done = time.perf_counter()
            ok = valid_classify(status, body, nodes, label_names)
            classify_records.append((done - due, sent - due, done, ok))

    def update_loop():
        for j in range(n_updates):
            due = t_start + UPDATE_PERIOD * (j + 0.5)
            pause_until(due)
            with tracer.span("update", op=True, batch=j + 1):
                status, _ = safe_call(update_conn, "POST", "/update", {"deltas": batches[j + 1]})
                accepted = time.perf_counter()
                with tracer.span("await_snapshot"):
                    fresh = status == 202 and wait_for_version(update_conn, j + 2)
            seen = time.perf_counter()
            update_records.append((seen - accepted, seen, fresh))

    threads = [threading.Thread(target=classify_loop), threading.Thread(target=update_loop)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    classify_conn.close()
    update_conn.close()
    last = max([r[2] for r in classify_records] + [r[1] for r in update_records])
    work = last - t_start
    return classify_records, update_records, work, n_updates


def replay_labels(instance, batches):
    """Offline StreamingSession replay of the batches the daemon applied."""
    from repro.experiments.streaming import build_streaming_session

    session = build_streaming_session(hin_path=str(hin_path(instance)))
    for batch in batches:
        session.apply(batch)
    result = session.result
    labels = np.asarray(result.label_names)[np.argmax(result.node_scores, axis=1)]
    return dict(zip(session.hin.node_names, labels))


def run(instance: int, seconds: float, tracer, layers):
    from repro.stream import GraphDelta

    # Whole passes, as in the other workloads: one pass is a fixed
    # PASS_SECONDS schedule, so the tail always has enough samples.
    seconds = PASS_SECONDS * max(1, math.ceil(seconds / PASS_SECONDS))
    n_batches = int(seconds / UPDATE_PERIOD) + 1
    setup_times, gen_times, daemon = [], [], None
    try:
        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            t0 = time.perf_counter()
            daemon, names, label_names, batches, gen_s = start_and_warm(instance, n_batches)
            setup_times.append(time.perf_counter() - t0)
            gen_times.append(gen_s)
        conn = daemon.connect()
        before = scrape(conn)
        with tracer.span("workload:serve_updates"):
            classify_records, update_records, work, n_updates = open_loop(
                daemon, names, label_names, batches, instance, seconds, tracer
            )
        after = scrape(conn)
        peak_mb = peak_rss_mb(daemon.process.pid)
        status, final = safe_call(conn, "POST", "/classify", {"nodes": names})
        conn.close()
    finally:
        if daemon is not None:
            daemon.stop()
    applied = [[GraphDelta.from_dict(d) for d in batch] for batch in batches[: n_updates + 1]]
    expected = replay_labels(instance, applied)
    served = {r["node"]: r["label"] for r in final["results"]} if status == 200 else {}
    replay_ok = served == {name: expected[name] for name in names}

    failed = sum(not r[3] for r in classify_records) + sum(not r[2] for r in update_records)
    failed += not replay_ok
    fresh = [r[0] for r in update_records]
    latencies = [r[0] for r in classify_records]
    result = {
        "setup_times": setup_times,
        "gen_times": gen_times,
        "passes": [work],
        "ops": latencies,
        "tail_pct": tail_percentile(latencies),
        "peak_rss_mb": peak_mb,
        "attempted": len(classify_records) + len(update_records) + 1,
        "failed": int(failed),
        "notes": [
            f"replay argmax-equal: {replay_ok}",
            f"fresh_p50_s {median(fresh):.4f}",
            f"classify_p99_s {nearest_rank(latencies, 99):.4f}",
        ],
    }
    if layers is not None:
        delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
        # The daemon's snapshot-swap histogram times the whole update
        # (journal, apply, reconverge, snapshot build); the snapshot part
        # is what is left after the stream layer's own timings.
        update_s = delta.get("tmark_snapshot_build_seconds_sum", 0.0)
        apply_s = delta.get("tmark_delta_apply_seconds_sum", 0.0)
        reconverge_s = delta.get("tmark_reconverge_seconds_sum", 0.0)
        stats = layers.stats
        stats.add("stream.apply_s", apply_s)
        stats.add("stream.patch_s", delta.get("tmark_operator_patch_seconds_sum", 0.0))
        stats.add("stream.reconverge_s", reconverge_s)
        stats.add("stream.updates_accepted", delta.get("tmark_updates_accepted_total", 0.0))
        stats.add("stream.updates_applied", delta.get("tmark_updates_applied_total", 0.0))
        stats.add("serve.snapshot_build_s", update_s - apply_s - reconverge_s)
        stats.add("serve.update_wait_s", sum(fresh) - update_s)
        stats.add("serve.http_errors", delta.get("tmark_http_errors_total", 0.0))
        stats.add("serve.gen_lag_s", float(np.mean([r[1] for r in classify_records])))
        stats.add("serve.fresh_p50_s", median(fresh))
        stats.add("serve.classify_p99_s", nearest_rank(result["ops"], 99))
    return result
