"""Tests for the one-vs-rest linear SVM."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize

from repro.errors import NotFittedError, ValidationError
from repro.ml.svm import LinearSVM
from tests.ml.test_logistic import blobs


#: L-BFGS-B options that drive both solves to the optimum proper, so
#: the comparison measures the objectives, not the stopping rule.
TIGHT = {"maxiter": 10_000, "ftol": 1e-15, "gtol": 1e-10}


class PerClassSVM(LinearSVM):
    """Reference: one cold-started L-BFGS-B solve per class.

    ``init`` is accepted and ignored, so code that warm-starts a
    :class:`LinearSVM` gets the cold per-class solution from this class.
    ``options`` are passed to L-BFGS-B (default: ``maxiter=max_iter``,
    the settings of the per-class loop the joint solve replaced).
    """

    def __init__(self, *, options=None, **kwargs):
        super().__init__(**kwargs)
        self.options = options or {"maxiter": self.max_iter}

    def fit(self, features, labels, *, init=None):
        del init
        if sp.issparse(features):
            features = sp.csr_matrix(features, dtype=float)
        else:
            features = np.asarray(features, dtype=float)
        labels = np.asarray(labels)
        q = self.n_classes if self.n_classes is not None else int(labels.max()) + 1
        n, d = features.shape
        self.weights_, self.bias_ = np.zeros((d, q)), np.zeros(q)
        for c_idx in range(q):
            target = np.where(labels == c_idx, 1.0, -1.0)

            def objective(flat, target=target):
                w, b = flat[:d], flat[d]
                margins = target * (np.asarray(features @ w).ravel() + b)
                slack = np.clip(1.0 - margins, 0.0, None)
                loss = 0.5 * float(w @ w) + self.c * float((slack**2).sum()) / n
                grad_scale = -2.0 * self.c * slack * target / n
                grad_w = w + np.asarray(features.T @ grad_scale).ravel()
                return loss, np.concatenate([grad_w, [grad_scale.sum()]])

            solution = minimize(
                objective, np.zeros(d + 1), jac=True, method="L-BFGS-B",
                options=self.options,
            )
            self.weights_[:, c_idx] = solution.x[:d]
            self.bias_[c_idx] = solution.x[d]
        return self


class TestLinearSVM:
    def test_separable_blobs_high_accuracy(self, rng):
        features, labels = blobs(rng)
        model = LinearSVM().fit(features, labels)
        assert np.mean(model.predict(features) == labels) > 0.95

    def test_binary_margin_sign(self, rng):
        features, labels = blobs(rng, q=2)
        model = LinearSVM().fit(features, labels)
        margins = model.decision_function(features)
        # Positive class margin larger on its own examples.
        assert np.mean((margins[:, 1] > margins[:, 0]) == (labels == 1)) > 0.95

    def test_predict_proba_valid(self, rng):
        features, labels = blobs(rng)
        proba = LinearSVM().fit(features, labels).predict_proba(features)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert proba.min() >= 0

    def test_fixed_class_space(self, rng):
        features, labels = blobs(rng, q=2)
        model = LinearSVM(n_classes=4).fit(features, labels)
        assert model.decision_function(features).shape[1] == 4

    def test_harder_margin_fits_training_tighter(self, rng):
        features, labels = blobs(rng, sep=1.0)
        soft = LinearSVM(c=0.01).fit(features, labels)
        hard = LinearSVM(c=100.0).fit(features, labels)
        acc_soft = np.mean(soft.predict(features) == labels)
        acc_hard = np.mean(hard.predict(features) == labels)
        assert acc_hard >= acc_soft

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            LinearSVM().predict(np.zeros((2, 2)))

    def test_dimension_mismatch_raises(self, rng):
        features, labels = blobs(rng)
        model = LinearSVM().fit(features, labels)
        with pytest.raises(ValidationError):
            model.predict(np.zeros((2, features.shape[1] + 2)))

    def test_invalid_c_rejected(self):
        with pytest.raises(ValidationError):
            LinearSVM(c=0.0)

    def test_empty_training_rejected(self):
        with pytest.raises(ValidationError):
            LinearSVM().fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_labels_out_of_range_rejected(self, rng):
        features, labels = blobs(rng, q=2)
        with pytest.raises(ValidationError):
            LinearSVM(n_classes=2).fit(features, labels + 7)

    def test_sparse_features(self, rng):
        import scipy.sparse as sp

        features, labels = blobs(rng)
        model = LinearSVM().fit(sp.csr_matrix(features), labels)
        assert np.mean(model.predict(sp.csr_matrix(features)) == labels) > 0.9


class TestJointSolve:
    @staticmethod
    def problem(rng, sparse):
        features, labels = blobs(rng, q=4, d=6, sep=1.0)
        if sparse:
            features = sp.csr_matrix(np.where(features > 0, features, 0.0))
        return features, labels

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("c", [1.0, 10.0])
    def test_optimum_is_the_per_class_optimum(self, rng, monkeypatch, sparse, c):
        import repro.ml.svm as svm_module

        def tight_minimize(*args, **kwargs):
            return minimize(*args, **{**kwargs, "options": TIGHT})

        monkeypatch.setattr(svm_module, "minimize", tight_minimize)
        features, labels = self.problem(rng, sparse)
        with warnings.catch_warnings():
            # Tight tolerances can end in an "abnormal" line search at
            # the optimum; the comparison below is the check.
            warnings.simplefilter("ignore", RuntimeWarning)
            joint = LinearSVM(c=c).fit(features, labels)
        reference = PerClassSVM(c=c, options=TIGHT).fit(features, labels)
        np.testing.assert_allclose(
            joint.decision_function(features),
            reference.decision_function(features),
            atol=1e-4,
        )
        np.testing.assert_array_equal(
            joint.predict(features), reference.predict(features)
        )

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("c", [1.0, 10.0])
    def test_default_stopping_matches_per_class_loop(self, rng, sparse, c):
        # Both solves stop on L-BFGS-B's default relative-reduction rule,
        # which leaves margins up to ~5e-4 from the optimum on problems
        # like this one; the decisions must not move.
        features, labels = self.problem(rng, sparse)
        joint = LinearSVM(c=c).fit(features, labels)
        reference = PerClassSVM(c=c).fit(features, labels)
        assert joint.converged_
        np.testing.assert_allclose(
            joint.decision_function(features),
            reference.decision_function(features),
            atol=1e-3,
        )
        np.testing.assert_array_equal(
            joint.predict(features), reference.predict(features)
        )

    def test_absent_class_never_predicted(self, rng):
        # A class with no training rows has a flat optimum (w = 0, any
        # b <= -1), so only the decisions are compared.
        features, labels = blobs(rng, q=3, sep=1.0)
        joint = LinearSVM(c=10.0, n_classes=5).fit(features, labels)
        reference = PerClassSVM(c=10.0, n_classes=5).fit(features, labels)
        assert (joint.decision_function(features)[:, 3:] <= -1.0 + 1e-4).all()
        np.testing.assert_array_equal(
            joint.predict(features), reference.predict(features)
        )

    def test_init_at_optimum_stays_there(self, rng):
        features, labels = blobs(rng, sep=1.0)
        cold = LinearSVM(c=10.0).fit(features, labels)
        warm = LinearSVM(c=10.0).fit(
            features, labels, init=(cold.weights_, cold.bias_)
        )
        assert warm.converged_
        assert warm.n_iter_ <= 3 < cold.n_iter_
        np.testing.assert_allclose(warm.weights_, cold.weights_, atol=1e-4)
        np.testing.assert_allclose(warm.bias_, cold.bias_, atol=1e-4)

    def test_init_does_not_alias_the_caller_arrays(self, rng):
        features, labels = blobs(rng)
        weights, bias = np.zeros((features.shape[1], 3)), np.zeros(3)
        LinearSVM().fit(features, labels, init=(weights, bias))
        assert not weights.any() and not bias.any()

    @pytest.mark.parametrize(
        "weights_shape,bias_shape", [((4, 2), (3,)), ((5, 3), (3,)), ((4, 3), (2,))]
    )
    def test_init_shape_mismatch_rejected(self, rng, weights_shape, bias_shape):
        features, labels = blobs(rng)  # d=4, q=3
        with pytest.raises(ValidationError, match="init must be"):
            LinearSVM().fit(
                features, labels, init=(np.zeros(weights_shape), np.zeros(bias_shape))
            )


class TestConvergenceReport:
    def test_converged_fit_sets_attributes_silently(self, rng):
        features, labels = blobs(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = LinearSVM().fit(features, labels)
        assert model.converged_ is True
        assert model.n_iter_ >= 1

    def test_budget_exhausted_warns(self, rng):
        features, labels = blobs(rng, sep=1.0)
        with pytest.warns(RuntimeWarning, match=r"LinearSVM: .* after 1 iterations"):
            model = LinearSVM(max_iter=1).fit(features, labels)
        assert model.converged_ is False
        assert model.n_iter_ == 1
