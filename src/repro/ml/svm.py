"""Linear support vector machine, one-vs-rest.

The paper's EMR baseline trains "an ICA classifier for each type of link
with SVM as the base classifier".  This is an L2-regularised *squared*
hinge loss linear SVM — squared hinge keeps the objective differentiable
so the same scipy L-BFGS-B machinery as
:class:`~repro.ml.logistic.LogisticRegression` applies; its solutions are
equivalent in practice to an off-the-shelf ``LinearSVC``.

All ``q`` one-vs-rest margins are fitted by one joint solve over the
``(d + 1) × q`` parameters ``[W; b]``: with the ``(n, q)`` target matrix
``T[i, c] = +1`` if ``y_i = c`` else ``-1``,

.. math::

    J(W, b) = \\sum_c \\Big( \\tfrac12 ||w_c||^2
              + \\frac{C}{n} \\sum_i \\max(0, 1 - T_{ic}(x_i^\\top w_c + b_c))^2 \\Big)

The objective is a sum of independent per-class terms, so its optimum is
the per-class optimum, while scipy's per-call overhead and the sparse
products ``X W`` / ``X^T G`` are paid once per fit instead of once per
class.  ``fit(..., init=(weights, bias))`` warm-starts the solve, which
the ICA rounds of :class:`~repro.baselines.emr.EMR` use to start each
round from the previous round's weights.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from repro.errors import NotFittedError, ValidationError
from repro.ml.logistic import _as_matrix, _check_fit_inputs, _record_solution, softmax
from repro.utils.validation import check_positive_int


class LinearSVM:
    """One-vs-rest linear SVM with squared hinge loss.

    Parameters
    ----------
    c:
        Inverse regularisation strength (larger = harder margins).
    max_iter:
        L-BFGS iteration budget of the joint solve over all classes.
    n_classes:
        Optional fixed class-space size (see
        :class:`~repro.ml.logistic.LogisticRegression`).

    After :meth:`fit`, ``converged_`` tells whether L-BFGS-B met its
    stopping rule and ``n_iter_`` how many iterations it took; a solve
    that did not converge also raises a ``RuntimeWarning``.
    """

    def __init__(self, *, c: float = 1.0, max_iter: int = 200, n_classes: int | None = None):
        if c <= 0:
            raise ValidationError(f"c must be positive, got {c}")
        self.c = float(c)
        self.max_iter = check_positive_int(max_iter, "max_iter")
        if n_classes is not None:
            n_classes = check_positive_int(n_classes, "n_classes")
        self.n_classes = n_classes
        self.weights_: np.ndarray | None = None
        self.bias_: np.ndarray | None = None
        self.converged_: bool | None = None
        self.n_iter_: int | None = None

    def fit(self, features, labels, *, init=None) -> "LinearSVM":
        """Fit one margin per class on integer labels, all in one solve.

        ``init`` is an optional ``(weights, bias)`` pair of shapes
        ``(d, q)`` and ``(q,)`` to start L-BFGS-B from instead of zero.
        """
        features, labels, q = _check_fit_inputs(features, labels, self.n_classes)
        n, d = features.shape
        x0 = np.zeros((d + 1, q))
        if init is not None:
            weights, bias = (np.asarray(part, dtype=float) for part in init)
            if weights.shape != (d, q) or bias.shape != (q,):
                raise ValidationError(
                    f"init must be (weights, bias) of shapes {(d, q)} and {(q,)}, "
                    f"got {weights.shape} and {bias.shape}"
                )
            x0[:d] = weights
            x0[d] = bias
        targets = np.where(labels[:, None] == np.arange(q), 1.0, -1.0)
        scale = -2.0 * self.c / n

        def objective(flat):
            params = flat.reshape(d + 1, q)
            w = params[:d]
            margins = targets * (np.asarray(features @ w) + params[d])
            slack = np.maximum(1.0 - margins, 0.0)
            loss = 0.5 * float((w * w).sum())
            loss += self.c * float((slack * slack).sum()) / n
            grad_scale = scale * slack * targets
            grad = np.empty_like(params)
            grad[:d] = w + np.asarray(features.T @ grad_scale)
            grad[d] = grad_scale.sum(axis=0)
            return loss, grad.ravel()

        solution = minimize(
            objective,
            x0.ravel(),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        params = solution.x.reshape(d + 1, q)
        self.weights_ = params[:d].copy()
        self.bias_ = params[d].copy()
        _record_solution(self, solution)
        return self

    def decision_function(self, features) -> np.ndarray:
        """Per-class margins for ``features``."""
        if self.weights_ is None or self.bias_ is None:
            raise NotFittedError("LinearSVM.fit must be called first")
        features = _as_matrix(features)
        if features.shape[1] != self.weights_.shape[0]:
            raise ValidationError(
                f"features have {features.shape[1]} columns, model expects "
                f"{self.weights_.shape[0]}"
            )
        return np.asarray(features @ self.weights_) + self.bias_

    def predict(self, features) -> np.ndarray:
        """Class with the largest margin per row."""
        return np.argmax(self.decision_function(features), axis=1)

    def predict_proba(self, features) -> np.ndarray:
        """Softmax over margins — calibrated enough for ensemble voting."""
        return softmax(self.decision_function(features))
