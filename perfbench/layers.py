"""Per-layer measurement for the traced run.

The traced run wraps each layer's public entry points from here, never
from inside ``src/``: module attributes and class methods are swapped
for timing wrappers for the duration of :meth:`Layers.installed` and
restored afterwards.  Chain phases and shard exchanges come from the
``chain_iteration`` / ``boundary_exchange`` / ``fit`` events the
program already emits to a public :mod:`repro.obs` recorder.

Calls made inside fork workers (the shard pool) are not seen by the
wrappers; the coordinator's events cover the sharded path.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.obs.recorder import CHAIN_PHASES

from common import LayerStats

#: Roster name -> per-method fit_predict metric.
GRID_METHOD_KEYS = {
    "T-Mark": "grid.tmark_s",
    "TensorRrCc": "grid.tensorrrcc_s",
    "GI": "grid.gi_s",
    "HN": "grid.hn_s",
    "Hcc": "grid.hcc_s",
    "Hcc-ss": "grid.hcc_ss_s",
    "wvRN+RL": "grid.wvrn_s",
    "EMR": "grid.emr_s",
    "ICA": "grid.ica_s",
}


def _prop_bytes(stats, args, result):
    # Computed, not measured: each stored sparse entry is read once
    # (8-byte value + 4-byte index) and every dense operand and the
    # result are streamed once at 8 bytes per float.
    operator, *operands = args
    dense = sum(getattr(a, "size", 0) for a in operands) + result.size
    stats.add("tensor.prop_bytes", 12 * sum(operator.relation_nnz) + 8 * dense)


def _w_bytes(stats, args, result):
    if hasattr(result, "indptr"):
        size = result.data.nbytes + result.indices.nbytes + result.indptr.nbytes
    else:
        size = result.nbytes
    stats.add("features.w_bytes", size)


def _nfev(stats, args, result):
    stats.add("ml.lbfgs_nfev", int(result.nfev))


class Layers:
    """The traced run's wrappers, recorder and derived metrics."""

    def __init__(self, tracer):
        from repro.obs import ListRecorder

        self.stats = LayerStats(tracer)
        self.recorder = ListRecorder(probes=False)

    @contextmanager
    def installed(self):
        import repro.core.tmark as tmark_module
        import repro.experiments.harness as harness
        import repro.ml.logistic as logistic
        import repro.ml.mlp as mlp
        import repro.ml.svm as svm
        from repro.obs import use_recorder
        from repro.tensor.transition import NodeTransitionTensor, RelationTransitionTensor

        timed = self.stats.timed
        with ExitStack() as stack:
            for owner, name, make in (
                (tmark_module, "build_transition_tensors", timed("tensor.build", "tensor.build_s")),
                (tmark_module, "feature_transition_matrix",
                 timed("features.w_build", "features.w_build_s", after=_w_bytes)),
                (NodeTransitionTensor, "propagate_many",
                 timed("tensor.o_prop", "tensor.o_prop_s", "tensor.o_prop_calls", _prop_bytes)),
                (RelationTransitionTensor, "propagate_many",
                 timed("tensor.r_prop", "tensor.r_prop_s", "tensor.r_prop_calls", _prop_bytes)),
                (harness, "run_single_trial", timed("grid.trial", "grid.trial_s")),
                (svm.LinearSVM, "fit", timed("ml.svm", "ml.svm_s", "ml.svm_fits")),
                (logistic.LogisticRegression, "fit",
                 timed("ml.logistic", "ml.logistic_s", "ml.logistic_fits")),
                (mlp.MLPClassifier, "fit", timed("ml.mlp", "ml.mlp_s", "ml.mlp_fits")),
                (svm, "minimize", timed("ml.lbfgs", "ml.lbfgs_s", after=_nfev)),
                (logistic, "minimize", timed("ml.lbfgs", "ml.lbfgs_s", after=_nfev)),
            ):
                stack.enter_context(mock.patch.object(owner, name, make(getattr(owner, name))))
            stack.enter_context(use_recorder(self.recorder))
            yield

    def timed_factory(self, name: str, factory):
        """Wrap a roster factory so each model's fit_predict is timed."""
        make = self.stats.timed(f"method.{name}", GRID_METHOD_KEYS[name])

        def build():
            model = factory()
            model.fit_predict = make(model.fit_predict)
            return model

        return build

    def metrics(self, names, *, fit_seconds: float = 0.0) -> dict[str, float]:
        """The per-layer values called ``names``; ``fit_seconds`` is the
        measured fit time the chain phases are attributed against.

        A layer the workload bypasses reports 0.
        """
        values = dict.fromkeys(names, 0.0)
        raw = dict(self.stats.values)
        for name in names:
            if name in raw:
                values[name] = raw[name]
        events = self.recorder.events
        phases = {p: 0.0 for p in CHAIN_PHASES}
        for event in events:
            if event["event"] == "chain_iteration":
                values["chain.iterations"] += 1
                for phase, seconds in event["phases"].items():
                    phases[phase] += seconds
            elif event["event"] == "fit":
                values["chain.fits"] += 1
            elif event["event"] == "boundary_exchange":
                values["shard.exchanges"] += 1
                values["shard.halo_rows"] = event["halo_rows"]
                values["shard.exchange_bytes"] += event["bytes_exchanged"]
        for phase, seconds in phases.items():
            values[f"chain.{phase}_s"] = seconds
        if fit_seconds:
            values["chain.other_s"] = fit_seconds - sum(phases.values())
        if "grid.trial_s" in raw:
            values["grid.harness_s"] = raw["grid.trial_s"] - sum(
                raw.get(k, 0.0) for k in GRID_METHOD_KEYS.values()
            )
        return values
