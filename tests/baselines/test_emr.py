"""EMR's shared bootstrap and warm-started SVM rounds against cold references."""

import numpy as np
import pytest

from repro.baselines import EMR
from repro.baselines.base import clamp_labeled, training_pairs
from repro.datasets.registry import scaled_dblp
from repro.ml.splits import stratified_fraction_split
from repro.ml.svm import LinearSVM
from tests.conftest import small_labeled_hin
from tests.ml.test_svm import PerClassSVM


class ColdSVM(LinearSVM):
    """The joint solve with any warm start dropped."""

    def fit(self, features, labels, *, init=None):
        return super().fit(features, labels)


class ColdPerClassEMR(EMR):
    """EMR as it was: per-class SVMs, cold rounds."""

    def _make_base(self, n_labels):
        return PerClassSVM(n_classes=n_labels, c=self.svm_c)


class UnhoistedEMR(EMR):
    """Each member refits its own content-only bootstrap."""

    def _member_scores(self, hin, relation, bootstrap, bootstrap_scores):
        del bootstrap, bootstrap_scores
        rows, classes = training_pairs(hin)
        own = self._make_base(hin.n_labels).fit(hin.features[rows], classes)
        own_scores = clamp_labeled(own.predict_proba(hin.features), hin)
        return super()._member_scores(hin, relation, own, own_scores)


def active_relations(hin):
    return len(np.unique(hin.tensor.coords[2]))


@pytest.fixture(scope="module")
def dblp():
    return scaled_dblp(0.5, seed=0)


def train_view(hin, fraction):
    mask = stratified_fraction_split(hin.y, fraction, rng=np.random.default_rng(1))
    return hin.masked(mask)


def test_one_bootstrap_fit_per_fit_predict(dblp, monkeypatch):
    calls = []
    fit = LinearSVM.fit

    def counting_fit(self, *args, **kwargs):
        calls.append(kwargs.get("init") is not None)
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(LinearSVM, "fit", counting_fit)
    model = EMR(n_iterations=3)
    model.fit_predict(train_view(dblp, 0.5))
    members = active_relations(dblp)
    assert members > 1
    assert len(calls) == 1 + members * model.n_iterations
    # Only the bootstrap starts cold; every ICA round is warm-started.
    assert calls.count(False) == 1


@pytest.mark.parametrize("base", ["svm", "logistic"])
def test_hoisted_bootstrap_is_bitwise(base, monkeypatch):
    hin = small_labeled_hin(seed=3, n=40, q=3)
    mask = np.zeros(hin.n_nodes, dtype=bool)
    mask[::2] = True
    train = hin.masked(mask)
    assert active_relations(hin) > 1
    if base == "svm":
        monkeypatch.setattr(
            EMR, "_make_base", lambda self, q: ColdSVM(n_classes=q, c=self.svm_c)
        )
    hoisted = EMR(n_iterations=2, base=base).fit_predict(train)
    unhoisted = UnhoistedEMR(n_iterations=2, base=base).fit_predict(train)
    np.testing.assert_array_equal(hoisted, unhoisted)


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_scores_match_cold_per_class_reference(dblp, fraction):
    train = train_view(dblp, fraction)
    scores = EMR().fit_predict(train)
    reference = ColdPerClassEMR().fit_predict(train)
    np.testing.assert_allclose(scores, reference, atol=1e-4)
    np.testing.assert_array_equal(scores.argmax(axis=1), reference.argmax(axis=1))
