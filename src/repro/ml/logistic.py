"""Multinomial logistic (softmax) regression.

Optimised with scipy's L-BFGS-B on the exact convex objective

.. math::

    J(W, b) = -\\frac{1}{N} \\sum_i \\log p(y_i | x_i)
              + \\frac{\\lambda}{2} ||W||_F^2

with an analytic gradient.  Serves as the base classifier of the ICA,
Hcc and Hcc-ss baselines (a drop-in role the paper fills with standard
off-the-shelf learners).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from repro.errors import NotFittedError, ValidationError
from repro.utils.validation import check_positive_int


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for numerical stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class LogisticRegression:
    """L2-regularised multinomial logistic regression.

    Parameters
    ----------
    l2:
        Regularisation strength ``lambda`` (on weights, not bias).
    max_iter:
        L-BFGS iteration budget.
    n_classes:
        Optional fixed class-space size.  When given, labels are class
        indices into ``[0, n_classes)`` even if some classes are absent
        from the training data — essential for collective classifiers
        that retrain on subsets.

    After :meth:`fit`, ``converged_`` tells whether L-BFGS-B met its
    stopping rule and ``n_iter_`` how many iterations it took; a solve
    that did not converge also raises a ``RuntimeWarning``.
    """

    def __init__(self, *, l2: float = 1e-3, max_iter: int = 200, n_classes: int | None = None):
        if l2 < 0:
            raise ValidationError(f"l2 must be non-negative, got {l2}")
        self.l2 = float(l2)
        self.max_iter = check_positive_int(max_iter, "max_iter")
        if n_classes is not None:
            n_classes = check_positive_int(n_classes, "n_classes")
        self.n_classes = n_classes
        self.weights_: np.ndarray | None = None
        self.bias_: np.ndarray | None = None
        self.converged_: bool | None = None
        self.n_iter_: int | None = None

    # ------------------------------------------------------------------
    def fit(self, features, labels) -> "LogisticRegression":
        """Fit on ``(N, d)`` features and length-``N`` integer labels."""
        features, labels, q = _check_fit_inputs(features, labels, self.n_classes)
        n, d = features.shape
        onehot = np.zeros((n, q))
        onehot[np.arange(n), labels] = 1.0

        def objective(flat):
            weights = flat[: d * q].reshape(d, q)
            bias = flat[d * q:]
            logits = features @ weights + bias
            probs = softmax(np.asarray(logits))
            # Cross-entropy; clip avoids log(0) for extreme logits.
            loss = -np.log(np.clip(probs[np.arange(n), labels], 1e-300, None)).mean()
            loss += 0.5 * self.l2 * float((weights**2).sum())
            delta = (probs - onehot) / n
            grad_w = features.T @ delta + self.l2 * weights
            grad_b = delta.sum(axis=0)
            return loss, np.concatenate([np.asarray(grad_w).ravel(), grad_b])

        x0 = np.zeros(d * q + q)
        solution = minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.weights_ = solution.x[: d * q].reshape(d, q)
        self.bias_ = solution.x[d * q:]
        _record_solution(self, solution)
        return self

    # ------------------------------------------------------------------
    def decision_function(self, features) -> np.ndarray:
        """Raw class logits for ``features``."""
        if self.weights_ is None or self.bias_ is None:
            raise NotFittedError("LogisticRegression.fit must be called first")
        features = _as_matrix(features)
        if features.shape[1] != self.weights_.shape[0]:
            raise ValidationError(
                f"features have {features.shape[1]} columns, model expects "
                f"{self.weights_.shape[0]}"
            )
        return np.asarray(features @ self.weights_) + self.bias_

    def predict_proba(self, features) -> np.ndarray:
        """Class probabilities for ``features``."""
        return softmax(self.decision_function(features))

    def predict(self, features) -> np.ndarray:
        """Most probable class index per row."""
        return np.argmax(self.decision_function(features), axis=1)


def _as_matrix(features):
    """Accept dense or scipy-sparse features, coerce dense to float 2-D."""
    if sp.issparse(features):
        return sp.csr_matrix(features, dtype=float)
    arr = np.asarray(features, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"features must be 2-D, got shape {arr.shape}")
    return arr


def _check_fit_inputs(features, labels, n_classes: int | None):
    """Validate a ``fit`` call; return ``(features, labels, q)``."""
    features = _as_matrix(features)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size != features.shape[0]:
        raise ValidationError(
            "labels must be a 1-D integer array aligned with features rows"
        )
    if labels.size == 0:
        raise ValidationError("cannot fit on an empty training set")
    q = n_classes if n_classes is not None else int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= q:
        raise ValidationError(f"labels must lie in [0, {q})")
    return features, labels, q


def _record_solution(model, solution) -> None:
    """Store an L-BFGS-B result's convergence on ``model``; warn if it failed."""
    model.converged_ = bool(solution.success)
    model.n_iter_ = int(solution.nit)
    if not solution.success:
        warnings.warn(
            f"{type(model).__name__}: L-BFGS-B did not converge after "
            f"{model.n_iter_} iterations (max_iter={model.max_iter}): "
            f"{solution.message}",
            RuntimeWarning,
            stacklevel=3,
        )
