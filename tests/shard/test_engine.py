"""Tests for the sharded chain runner (repro.shard.engine).

The contract under test: ``shards=K`` buys wall-clock only — under the
rows policy the stationary scores are bit-identical to the serial fit
for *any* shard count (including warm starts and every gamma branch),
accelerated solvers stay argmax-identical, worker failures surface the
remote traceback as :class:`WorkerError` instead of hanging the fit, and
platforms without ``fork`` fall back to the serial path with a warning
and unchanged results.
"""

import os

import numpy as np
import pytest

from repro.core import TMark
from repro.datasets import make_worked_example
from repro.experiments.parallel import WorkerError, fork_available
from repro.obs import ListRecorder
from repro.shard import run_chains_sharded, shard_fallback_reason
from tests.conftest import small_labeled_hin

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="sharded fit requires the fork start method"
)


@pytest.fixture(scope="module")
def hin():
    return small_labeled_hin(seed=7, n=30, q=3)


def fitted(hin, *, gamma=0.4, top_k=None, solver=None, **fit_kwargs):
    model = TMark(alpha=0.8, gamma=gamma, similarity_top_k=top_k, max_iter=80)
    model.fit(hin, solver=solver, **fit_kwargs)
    return model


def assert_same_scores(serial, sharded):
    assert np.array_equal(
        serial.result_.node_scores, sharded.result_.node_scores
    )
    assert np.array_equal(
        serial.result_.relation_scores, sharded.result_.relation_scores
    )
    assert [h.n_iterations for h in serial.result_.histories] == [
        h.n_iterations for h in sharded.result_.histories
    ]


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize(
        "gamma,top_k",
        [(0.0, None), (0.4, None), (0.4, 5)],
        ids=["no-walk", "dense-walk", "sparse-walk"],
    )
    def test_scores_identical(self, hin, shards, gamma, top_k):
        serial = fitted(hin, gamma=gamma, top_k=top_k)
        sharded = fitted(
            hin, gamma=gamma, top_k=top_k, shards=shards, workers=2
        )
        assert_same_scores(serial, sharded)

    def test_single_shard_runs_serial(self, hin):
        # shards=1 short-circuits to the serial runner.
        assert_same_scores(fitted(hin), fitted(hin, shards=1))

    def test_warm_starts_identical(self, hin):
        cold = fitted(hin)
        starts = (cold.result_.node_scores, cold.result_.relation_scores)
        serial = fitted(hin, starts=starts)
        sharded = fitted(hin, starts=starts, shards=3, workers=2)
        assert_same_scores(serial, sharded)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_worked_example(self, shards):
        hin = make_worked_example()
        serial = TMark(alpha=0.8, gamma=0.5).fit(hin)
        sharded = TMark(alpha=0.8, gamma=0.5).fit(hin, shards=shards)
        assert_same_scores(serial, sharded)
        assert np.array_equal(serial.predict(), sharded.predict())

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("gamma", [0.4, 1.0])
    def test_factored_walk_identical(self, hin, shards, gamma):
        # Non-negative features: W is the factored cosine walk, run on
        # the coordinator with the serial statement.
        from repro.core.features import FactoredCosineWalk

        counts = nonnegative(hin)
        model = TMark(alpha=0.8, gamma=gamma, max_iter=80)
        assert isinstance(model_operators(counts, model)[2], FactoredCosineWalk)
        serial = fitted(counts, gamma=gamma)
        sharded = fitted(counts, gamma=gamma, shards=shards, workers=2)
        assert_same_scores(serial, sharded)

    def test_direct_engine_single_shard(self, hin):
        # The engine itself (not the fit() shortcut) at K=1 is also exact.
        model = TMark(alpha=0.8, gamma=0.4, max_iter=80)
        operators = model_operators(hin, model)
        scores, relations, histories = run_chains_sharded(
            model, *operators, hin.label_matrix, shards=1, workers=1
        )
        serial = fitted(hin)
        assert np.array_equal(scores, serial.result_.node_scores)
        assert np.array_equal(relations, serial.result_.relation_scores)
        assert len(histories) == hin.n_labels


class TestSolvers:
    def test_anderson_argmax_identical(self, hin):
        serial = fitted(hin, solver="anderson")
        for shards in (2, 4):
            sharded = fitted(hin, solver="anderson", shards=shards, workers=2)
            assert np.array_equal(serial.predict(), sharded.predict())
            assert np.allclose(
                serial.result_.node_scores,
                sharded.result_.node_scores,
                atol=1e-8,
            )


class TestTelemetry:
    def test_shard_events(self, hin):
        recorder = ListRecorder()
        fitted(hin, shards=3, workers=2, recorder=recorder)
        dispatches = recorder.events_of("shard_dispatch")
        assert len(dispatches) >= 2
        assert {d["index"] for d in dispatches} == set(range(len(dispatches)))
        for dispatch in dispatches:
            assert dispatch["policy"] == "rows"
            assert 0 <= dispatch["start"] < dispatch["stop"] <= hin.n_nodes
            assert dispatch["worker"] < 2
        exchanges = recorder.events_of("boundary_exchange")
        iterations = max(
            e["t"] for e in recorder.events_of("chain_iteration")
        )
        assert len(exchanges) == iterations
        for exchange in exchanges:
            assert exchange["policy"] == "rows"
            assert exchange["bytes_exchanged"] > 0
            assert exchange["seconds"] >= 0.0
        spans = [
            e for e in recorder.events_of("span") if e["name"] == "shard_pool"
        ]
        assert len(spans) == 1
        assert recorder.counters["shard_dispatches"] == len(dispatches)
        assert recorder.counters["boundary_exchanges"] == len(exchanges)

    def test_serial_chain_events_preserved(self, hin):
        serial_rec, sharded_rec = ListRecorder(), ListRecorder()
        fitted(hin, recorder=serial_rec)
        fitted(hin, shards=2, workers=2, recorder=sharded_rec)
        for event in ("chain_iteration", "chain_class", "chain_health"):
            assert len(sharded_rec.events_of(event)) == len(
                serial_rec.events_of(event)
            )
        # Residual streams match exactly: same convergence trajectory.
        serial_residuals = [
            e["residual"] for e in serial_rec.events_of("chain_class")
        ]
        sharded_residuals = [
            e["residual"] for e in sharded_rec.events_of("chain_class")
        ]
        assert serial_residuals == sharded_residuals


class TestFallback:
    def test_no_fork_warns_and_matches_serial(self, hin, monkeypatch):
        import repro.shard.engine as engine

        monkeypatch.setattr(engine, "fork_available", lambda: False)
        assert shard_fallback_reason() is not None
        serial = fitted(hin)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            fallback = fitted(hin, shards=2, workers=2)
        assert_same_scores(serial, fallback)

    def test_nested_worker_warns_and_matches_serial(self, hin, monkeypatch):
        import repro.shard.engine as engine

        monkeypatch.setattr(engine, "in_worker", lambda: True)
        serial = fitted(hin)
        with pytest.warns(RuntimeWarning, match="inside a worker"):
            fallback = fitted(hin, shards=2, workers=2)
        assert_same_scores(serial, fallback)

    def test_no_fallback_reason_on_capable_platform(self):
        assert shard_fallback_reason() is None


class _ExplodingTensor:
    """Delegates to a real tensor, but raises in any forked child."""

    def __init__(self, inner):
        self._inner = inner
        self._parent_pid = os.getpid()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def row_blocks(self, start, stop):
        if os.getpid() != self._parent_pid:
            raise RuntimeError("operator exploded in the worker")
        return self._inner.row_blocks(start, stop)


class TestFailurePropagation:
    def test_worker_exception_raises_workererror(self, hin):
        model = TMark(alpha=0.8, gamma=0.0, max_iter=80)
        o_tensor, r_tensor, w_matrix = model_operators(hin, model)
        with pytest.raises(WorkerError) as excinfo:
            run_chains_sharded(
                model,
                _ExplodingTensor(o_tensor),
                r_tensor,
                w_matrix,
                hin.label_matrix,
                shards=2,
                workers=2,
            )
        message = str(excinfo.value)
        assert "operator exploded in the worker" in message
        assert "remote traceback" in message
        assert "RuntimeError" in message


def model_operators(hin, model):
    """The ``(O, R, W)`` triple exactly as ``TMark.fit`` builds it."""
    from repro.core import build_operators

    operators = build_operators(
        hin,
        similarity_top_k=model.similarity_top_k,
        similarity_metric=model.similarity_metric,
    )
    return operators.o_tensor, operators.r_tensor, operators.w_matrix


def nonnegative(hin):
    """``hin`` with absolute-valued features."""
    from repro.hin.graph import HIN

    return HIN(
        hin.tensor,
        hin.relation_names,
        np.abs(hin.features),
        hin.label_matrix,
        hin.label_names,
        node_names=hin.node_names,
    )
