"""Tests for the from-scratch multinomial logistic regression."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import NotFittedError, ValidationError
from repro.ml.logistic import LogisticRegression, softmax


def blobs(rng, n_per_class=30, q=3, d=4, sep=3.0):
    """Linearly separable Gaussian blobs."""
    centers = rng.normal(0, 1, size=(q, d)) * sep
    features = np.vstack(
        [centers[c] + rng.normal(0, 0.5, size=(n_per_class, d)) for c in range(q)]
    )
    labels = np.repeat(np.arange(q), n_per_class)
    return features, labels


class TestSoftmax:
    def test_rows_sum_to_one(self):
        probs = softmax(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_stability_with_large_logits(self):
        probs = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_order_preserved(self):
        probs = softmax(np.array([[1.0, 3.0, 2.0]]))
        assert np.argmax(probs) == 1


class TestLogisticRegression:
    def test_separable_blobs_high_accuracy(self, rng):
        features, labels = blobs(rng)
        model = LogisticRegression().fit(features, labels)
        assert np.mean(model.predict(features) == labels) > 0.95

    def test_predict_proba_valid(self, rng):
        features, labels = blobs(rng)
        proba = LogisticRegression().fit(features, labels).predict_proba(features)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert proba.min() >= 0

    def test_sparse_features(self, rng):
        features, labels = blobs(rng)
        dense = LogisticRegression().fit(features, labels).predict(features)
        sparse = (
            LogisticRegression()
            .fit(sp.csr_matrix(features), labels)
            .predict(sp.csr_matrix(features))
        )
        assert np.mean(dense == sparse) > 0.95

    def test_fixed_class_space(self, rng):
        """Classes absent from training must still get score columns."""
        features, labels = blobs(rng, q=2)
        model = LogisticRegression(n_classes=5).fit(features, labels)
        assert model.predict_proba(features).shape == (features.shape[0], 5)

    def test_binary_problem(self, rng):
        features, labels = blobs(rng, q=2)
        model = LogisticRegression().fit(features, labels)
        assert np.mean(model.predict(features) == labels) > 0.95

    def test_l2_shrinks_weights(self, rng):
        features, labels = blobs(rng)
        loose = LogisticRegression(l2=1e-6).fit(features, labels)
        tight = LogisticRegression(l2=10.0).fit(features, labels)
        assert np.linalg.norm(tight.weights_) < np.linalg.norm(loose.weights_)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict(np.zeros((2, 2)))

    def test_dimension_mismatch_raises(self, rng):
        features, labels = blobs(rng)
        model = LogisticRegression().fit(features, labels)
        with pytest.raises(ValidationError):
            model.predict(np.zeros((2, features.shape[1] + 1)))

    def test_empty_training_rejected(self):
        with pytest.raises(ValidationError):
            LogisticRegression().fit(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_labels_out_of_range_rejected(self, rng):
        features, labels = blobs(rng, q=2)
        with pytest.raises(ValidationError):
            LogisticRegression(n_classes=2).fit(features, labels + 5)

    def test_misaligned_labels_rejected(self, rng):
        features, labels = blobs(rng)
        with pytest.raises(ValidationError):
            LogisticRegression().fit(features, labels[:-1])

    def test_negative_l2_rejected(self):
        with pytest.raises(ValidationError):
            LogisticRegression(l2=-1.0)

    def test_single_class_training(self):
        """A single-class training set must not crash (collective loops
        can produce one-class subsets)."""
        features = np.random.default_rng(0).normal(size=(5, 2))
        model = LogisticRegression(n_classes=3).fit(features, np.zeros(5, dtype=int))
        assert np.all(model.predict(features) == 0)


class TestConvergenceReport:
    def test_converged_fit_sets_attributes_silently(self, rng):
        import warnings

        features, labels = blobs(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = LogisticRegression().fit(features, labels)
        assert model.converged_ is True
        assert model.n_iter_ >= 1

    def test_budget_exhausted_warns(self, rng):
        features, labels = blobs(rng, sep=1.0)
        with pytest.warns(
            RuntimeWarning, match=r"LogisticRegression: .* after 1 iterations"
        ):
            model = LogisticRegression(max_iter=1).fit(features, labels)
        assert model.converged_ is False
        assert model.n_iter_ == 1
