"""EMR — ensemble of per-link-type relational classifiers [6].

Preisach & Schmidt-Thieme's ensemble trains one collective classifier per
link type (the paper uses ICA with an SVM base) and combines their
predictions by voting, deliberately ignoring differences between link
types.  On dense, class-aligned relations this wastes information
(T-Mark wins); on very sparse relations — the Movies dataset — averaging
many weak per-relation views is robust, which is exactly the crossover
Table 4 reports.

Two shortcuts keep the ensemble cheap without changing what it
computes.  The content-only bootstrap fit is identical for every member,
so :meth:`EMR.fit_predict` fits it once and hands its clamped scores to
all members.  With the SVM base, each ICA round of a member starts its
solve from the previous round's weights; the first round starts from
the bootstrap's weights with zero rows for the new relational columns.
The warm start converges to the same optimum as a cold start (scores
agree to ~1e-5, argmax identical on the Table 3 grid).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (
    CollectiveClassifier,
    clamp_labeled,
    label_scores,
    neighbor_label_features,
    stack_features,
    training_pairs,
)
from repro.baselines.ica import BASE_CLASSIFIERS
from repro.errors import ValidationError
from repro.hin.graph import HIN
from repro.ml.svm import LinearSVM
from repro.utils.validation import check_positive_int


class EMR(CollectiveClassifier):
    """Ensemble of single-relation ICA classifiers, soft-vote combined.

    Parameters
    ----------
    n_iterations:
        ICA rounds inside each per-relation member.
    base:
        Base classifier for the members; the paper uses SVM.
    vote:
        ``"soft"`` averages member probabilities, ``"hard"`` counts
        member argmax votes.
    svm_c:
        Margin hardness of the member SVMs (only used with
        ``base="svm"``); member SVMs see sparse bag-of-words features
        and benefit from harder margins than the library default.
    """

    def __init__(
        self,
        *,
        n_iterations: int = 3,
        base: str = "svm",
        vote: str = "soft",
        svm_c: float = 10.0,
    ):
        self.n_iterations = check_positive_int(n_iterations, "n_iterations")
        if base not in BASE_CLASSIFIERS:
            raise ValidationError(
                f"base must be one of {sorted(BASE_CLASSIFIERS)}, got {base!r}"
            )
        if vote not in ("soft", "hard"):
            raise ValidationError(f"vote must be 'soft' or 'hard', got {vote!r}")
        if svm_c <= 0:
            raise ValidationError(f"svm_c must be positive, got {svm_c}")
        self.base = base
        self.vote = vote
        self.svm_c = float(svm_c)

    def _make_base(self, n_labels: int):
        if self.base == "svm":
            return LinearSVM(n_classes=n_labels, c=self.svm_c)
        return BASE_CLASSIFIERS[self.base](n_labels)

    def _member_scores(
        self, hin: HIN, relation: int, bootstrap, bootstrap_scores: np.ndarray
    ) -> np.ndarray:
        """One ICA member restricted to a single link type.

        ``bootstrap`` is the shared content-only classifier and
        ``bootstrap_scores`` its clamped scores, the member's round-0
        state.
        """
        adjacency = hin.tensor.relation_slice(relation)
        adjacency = (adjacency + adjacency.T).tocsr()
        content = hin.features
        train_rows, train_classes = training_pairs(hin)

        clf = bootstrap
        scores = bootstrap_scores
        for _ in range(self.n_iterations):
            relational = neighbor_label_features(adjacency, scores)
            combined = stack_features(content, relational)
            previous, clf = clf, self._make_base(hin.n_labels)
            if isinstance(clf, LinearSVM):
                # The bootstrap has no rows for the relational columns:
                # round 1 starts them at zero.
                weights = np.zeros((combined.shape[1], hin.n_labels))
                weights[: previous.weights_.shape[0]] = previous.weights_
                clf.fit(
                    combined[train_rows], train_classes, init=(weights, previous.bias_)
                )
            else:
                clf.fit(combined[train_rows], train_classes)
            scores = clamp_labeled(clf.predict_proba(combined), hin)
        return scores

    def fit_predict(self, hin: HIN, rng=None) -> np.ndarray:
        """Train one member per non-empty relation and vote."""
        del rng  # deterministic given the HIN
        label_scores(hin)  # validates that supervision exists
        i, j, k = hin.tensor.coords
        del i, j
        active = [rel for rel in range(hin.n_relations) if np.any(k == rel)]
        if not active:
            raise ValidationError("EMR needs at least one relation with links")
        # The content-only bootstrap is the same for every member: fit once.
        content = hin.features
        train_rows, train_classes = training_pairs(hin)
        bootstrap = self._make_base(hin.n_labels)
        bootstrap.fit(content[train_rows], train_classes)
        bootstrap_scores = clamp_labeled(bootstrap.predict_proba(content), hin)
        members = [
            self._member_scores(hin, rel, bootstrap, bootstrap_scores) for rel in active
        ]
        if self.vote == "soft":
            return np.mean(members, axis=0)
        votes = np.zeros((hin.n_nodes, hin.n_labels))
        for member in members:
            winners = np.argmax(member, axis=1)
            votes[np.arange(hin.n_nodes), winners] += 1.0
        return votes / len(members)
