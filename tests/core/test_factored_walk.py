"""Tests for the exact factored cosine feature walk (FactoredCosineWalk).

The contract: for non-negative features the operator applies the Eq. 9
cosine ``W`` that :func:`feature_transition_matrix` materialises, to
``allclose`` at 1e-12, without an ``n x n`` array; ``build_operators``
picks it from the metric, ``top_k`` and the sign of the features alone;
and fits on it predict exactly what fits on the dense matrix predict.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core import TMark, TMarkOperators, build_operators
from repro.core.features import (
    FactoredCosineWalk,
    factored_walk_applies,
    feature_transition_matrix,
    unit_feature_rows,
)
from repro.errors import ShapeError, ValidationError


@st.composite
def nonnegative_features(draw):
    """Count-like features with some zero rows; n or d may be 1."""
    n = draw(st.integers(1, 25))
    d = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    feats = rng.poisson(0.8, size=(n, d)).astype(float) * rng.random((n, d))
    feats[rng.random(n) < 0.2] = 0.0
    return feats, rng


class TestAgainstDenseReference:
    @settings(max_examples=60, deadline=None)
    @given(nonnegative_features(), st.booleans())
    def test_products_match_eq9(self, case, sparse_input):
        feats, rng = case
        n = feats.shape[0]
        reference = feature_transition_matrix(feats)
        walk = FactoredCosineWalk.from_features(
            sp.csr_matrix(feats) if sparse_input else feats
        )
        X = rng.random((n, 3))
        X /= X.sum(axis=0)
        x = X[:, 0].copy()
        np.testing.assert_allclose(walk @ X, reference @ X, rtol=0, atol=1e-12)
        np.testing.assert_allclose(walk @ x, reference @ x, rtol=0, atol=1e-12)
        assert (walk @ x).shape == (n,)
        dense = walk @ np.eye(n)
        np.testing.assert_allclose(dense, reference, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(nonnegative_features())
    def test_sparse_and_dense_inputs_agree_bitwise(self, case):
        feats, rng = case
        dense = FactoredCosineWalk.from_features(feats)
        sparse = FactoredCosineWalk.from_features(sp.csr_matrix(feats))
        X = rng.random((feats.shape[0], 2))
        assert np.array_equal(dense @ X, sparse @ X)

    @settings(max_examples=30, deadline=None)
    @given(nonnegative_features())
    def test_columns_match_batched_product_bitwise(self, case):
        # Each output element is accumulated in a fixed order whatever the
        # batch width — the property the sharded and batched chains rely on.
        feats, rng = case
        walk = FactoredCosineWalk.from_features(feats)
        X = rng.random((feats.shape[0], 4))
        batched = walk @ X
        for c in range(X.shape[1]):
            assert np.array_equal(batched[:, c], walk @ X[:, c].copy())

    def test_zero_feature_columns_are_uniform(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        walk = FactoredCosineWalk.from_features(feats)
        assert walk.zero.tolist() == [True, False, False]
        np.testing.assert_allclose(walk @ np.array([1.0, 0.0, 0.0]), 1 / 3)

    def test_all_zero_features(self):
        walk = FactoredCosineWalk.from_features(np.zeros((4, 3)))
        np.testing.assert_allclose(walk @ np.eye(4), 0.25)

    def test_single_node(self):
        walk = FactoredCosineWalk.from_features(np.array([[2.0]]))
        assert walk.shape == (1, 1)
        np.testing.assert_allclose(walk @ np.array([0.7]), [0.7])

    def test_paper_example(self, worked_example):
        walk = FactoredCosineWalk.from_features(worked_example.features)
        np.testing.assert_allclose(
            walk @ np.eye(4),
            feature_transition_matrix(worked_example.features),
            rtol=0,
            atol=1e-15,
        )

    def test_shape_mismatch_rejected(self):
        walk = FactoredCosineWalk.from_features(np.eye(3))
        with pytest.raises(ShapeError):
            walk @ np.ones(4)

    def test_signed_features_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            FactoredCosineWalk.from_features(np.array([[1.0, -1.0]]))


class TestRowUpdates:
    @settings(max_examples=40, deadline=None)
    @given(nonnegative_features(), st.integers(0, 3), st.booleans())
    def test_with_rows_equals_cold_build_bitwise(self, case, n_grow, sparse_input):
        feats, rng = case
        n, d = feats.shape
        walk = FactoredCosineWalk.from_features(feats)
        changed = np.flatnonzero(rng.random(n) < 0.3)
        after = np.vstack([feats, np.zeros((n_grow, d))])
        kept = rng.random((changed.size, d)) < 0.7
        after[changed] = rng.random((changed.size, d)) * kept
        grown = np.arange(n, n + n_grow)
        after[grown[: n_grow // 2]] = rng.random((n_grow // 2, d))
        rows = np.concatenate([changed, grown])
        source = sp.csr_matrix(after) if sparse_input else after
        patched = walk.with_rows(rows, unit_feature_rows(source[rows]), n + n_grow)
        cold = FactoredCosineWalk.from_features(source)
        for got, ref in (
            (patched.unit.data, cold.unit.data),
            (patched.unit.indices, cold.unit.indices),
            (patched.unit.indptr, cold.unit.indptr),
            (patched.inv_mass, cold.inv_mass),
            (patched.zero, cold.zero),
        ):
            assert np.array_equal(got, ref)


class TestOperatorSelection:
    def test_applies_only_to_unclipped_cosine(self):
        feats = np.array([[1.0, 0.0], [0.5, 2.0]])
        assert factored_walk_applies(feats)
        assert factored_walk_applies(sp.csr_matrix(feats))
        assert not factored_walk_applies(-feats)
        assert not factored_walk_applies(sp.csr_matrix(-feats))
        assert not factored_walk_applies(feats, top_k=1)
        assert not factored_walk_applies(feats, metric="rbf")
        assert not factored_walk_applies(feats, metric="jaccard")

    def test_build_operators_picks_the_walk(self, worked_example):
        assert isinstance(
            build_operators(worked_example).w_matrix, FactoredCosineWalk
        )
        assert sp.issparse(
            build_operators(worked_example, similarity_top_k=2).w_matrix
        )
        assert isinstance(
            build_operators(worked_example, similarity_metric="rbf").w_matrix,
            np.ndarray,
        )

    def test_signed_features_keep_dense_w(self):
        from tests.conftest import small_labeled_hin

        hin = small_labeled_hin(seed=3, n=12, q=2)
        assert hin.features.min() < 0
        w = build_operators(hin).w_matrix
        assert isinstance(w, np.ndarray)
        assert np.array_equal(w, feature_transition_matrix(hin.features))


def _paper_hins():
    from repro.datasets import make_worked_example
    from repro.datasets.registry import (
        scaled_acm,
        scaled_dblp,
        scaled_movies,
        scaled_nus,
    )

    yield "example", make_worked_example()
    yield "dblp", scaled_dblp(seed=0)
    yield "movies", scaled_movies(seed=0)
    yield "nus-tagset1", scaled_nus(seed=0, tagset="tagset1")
    yield "nus-tagset2", scaled_nus(seed=0, tagset="tagset2")
    yield "acm", scaled_acm(seed=0)


PAPER_HINS = dict(_paper_hins())


class TestPaperDatasets:
    """Factored and dense W give the same predictions on every paper graph.

    The registered experiments all run T-Mark on these generators (the
    worked example, DBLP, Movies, NUS in both tag sets, ACM).
    """

    @pytest.mark.parametrize("name", sorted(PAPER_HINS))
    @pytest.mark.parametrize("gamma", [0.2, 0.6, 1.0])
    def test_argmax_identical_to_dense_path(self, name, gamma):
        hin = PAPER_HINS[name]
        assert factored_walk_applies(hin.features)
        rng = np.random.default_rng(0)
        mask = rng.random(hin.n_nodes) < 0.3
        mask[:2] = True
        train = hin.masked(mask) if hin.n_nodes > 4 else hin
        factored = build_operators(hin)
        assert isinstance(factored.w_matrix, FactoredCosineWalk)
        dense = TMarkOperators(
            o_tensor=factored.o_tensor,
            r_tensor=factored.r_tensor,
            w_matrix=feature_transition_matrix(hin.features),
            shape=factored.shape,
            similarity_top_k=None,
            similarity_metric="cosine",
        )
        got = TMark(alpha=0.8, gamma=gamma).fit(train, operators=factored)
        ref = TMark(alpha=0.8, gamma=gamma).fit(train, operators=dense)
        np.testing.assert_allclose(
            got.result_.node_scores, ref.result_.node_scores, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            got.result_.relation_scores,
            ref.result_.relation_scores,
            rtol=0,
            atol=1e-12,
        )
        assert np.array_equal(got.predict(), ref.predict())
