"""Tests for the HIN container."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError, ValidationError
from repro.hin.graph import HIN
from repro.tensor.sptensor import SparseTensor3


def make_hin(multilabel=False):
    tensor = SparseTensor3([0, 1], [1, 2], [0, 1], shape=(3, 3, 2))
    labels = np.array([[1, 0], [0, 1], [0, 0]], dtype=bool)
    if multilabel:
        labels = np.array([[1, 1], [0, 1], [0, 0]], dtype=bool)
    return HIN(
        tensor,
        ["r0", "r1"],
        np.eye(3),
        labels,
        ["a", "b"],
        node_names=["n0", "n1", "n2"],
        multilabel=multilabel,
        metadata={"origin": "test"},
    )


class TestConstruction:
    def test_shape_properties(self):
        hin = make_hin()
        assert (hin.n_nodes, hin.n_relations, hin.n_labels, hin.n_features) == (3, 2, 2, 3)

    def test_default_node_names(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 1))
        hin = HIN(tensor, ["r"], np.zeros((2, 1)), np.zeros((2, 1), bool), ["a"])
        assert hin.node_names == ("node_0", "node_1")

    def test_rejects_non_tensor(self):
        with pytest.raises(ValidationError):
            HIN(np.zeros((2, 2, 1)), ["r"], np.zeros((2, 1)), np.zeros((2, 1), bool), ["a"])

    def test_rejects_wrong_relation_count(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 2))
        with pytest.raises(ShapeError):
            HIN(tensor, ["r"], np.zeros((2, 1)), np.zeros((2, 1), bool), ["a"])

    def test_rejects_duplicate_relation_names(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 2))
        with pytest.raises(ValidationError):
            HIN(tensor, ["r", "r"], np.zeros((2, 1)), np.zeros((2, 1), bool), ["a"])

    def test_rejects_feature_row_mismatch(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 1))
        with pytest.raises(ShapeError):
            HIN(tensor, ["r"], np.zeros((3, 1)), np.zeros((2, 1), bool), ["a"])

    def test_rejects_label_shape_mismatch(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 1))
        with pytest.raises(ShapeError):
            HIN(tensor, ["r"], np.zeros((2, 1)), np.zeros((3, 1), bool), ["a"])

    def test_rejects_multilabel_rows_when_single(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 1))
        labels = np.array([[1, 1], [0, 0]], dtype=bool)
        with pytest.raises(ValidationError):
            HIN(tensor, ["r"], np.zeros((2, 1)), labels, ["a", "b"])

    def test_rejects_duplicate_node_names(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 1))
        with pytest.raises(ValidationError):
            HIN(
                tensor, ["r"], np.zeros((2, 1)), np.zeros((2, 1), bool), ["a"],
                node_names=["x", "x"],
            )

    def test_sparse_features_accepted(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 1))
        hin = HIN(
            tensor, ["r"], sp.eye(2, format="csr"), np.zeros((2, 1), bool), ["a"]
        )
        assert sp.issparse(hin.features)
        assert np.allclose(hin.features_dense(), np.eye(2))

    def test_label_matrix_is_readonly(self):
        hin = make_hin()
        with pytest.raises(ValueError):
            hin.label_matrix[0, 0] = False

    def test_repr_mentions_counts(self):
        assert "n_nodes=3" in repr(make_hin())


class TestLabelViews:
    def test_labeled_mask(self):
        assert np.array_equal(make_hin().labeled_mask, [True, True, False])

    def test_y_single_label(self):
        assert np.array_equal(make_hin().y, [0, 1, -1])

    def test_y_rejected_for_multilabel(self):
        with pytest.raises(ValidationError):
            make_hin(multilabel=True).y

    def test_index_lookups(self):
        hin = make_hin()
        assert hin.node_index("n1") == 1
        assert hin.relation_index("r1") == 1
        assert hin.label_index("b") == 1

    def test_unknown_names_raise(self):
        hin = make_hin()
        with pytest.raises(ValidationError):
            hin.node_index("nope")
        with pytest.raises(ValidationError):
            hin.relation_index("nope")
        with pytest.raises(ValidationError):
            hin.label_index("nope")


class TestDerivedHins:
    def test_masked_hides_labels(self):
        hin = make_hin()
        masked = hin.masked(np.array([True, False, False]))
        assert np.array_equal(masked.y, [0, -1, -1])
        # Original is untouched.
        assert np.array_equal(hin.y, [0, 1, -1])

    def test_masked_shape_check(self):
        with pytest.raises(ShapeError):
            make_hin().masked(np.ones(5, dtype=bool))

    def test_with_labels_replaces(self):
        hin = make_hin()
        new_labels = np.zeros((3, 2), dtype=bool)
        new_labels[2, 0] = True
        replaced = hin.with_labels(new_labels)
        assert np.array_equal(replaced.y, [-1, -1, 0])

    def test_with_relations_subsets(self):
        hin = make_hin()
        sub = hin.with_relations([1])
        assert sub.n_relations == 1
        assert sub.relation_names == ("r1",)
        assert sub.tensor.relation_slice(0).toarray()[1, 2] == 1.0

    def test_with_relations_rejects_bad_index(self):
        with pytest.raises(ValidationError):
            make_hin().with_relations([5])

    def test_with_relations_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            make_hin().with_relations([0, 0])

    def test_metadata_propagates(self):
        hin = make_hin()
        assert hin.masked(np.ones(3, bool)).metadata["origin"] == "test"


def with_features(hin, features):
    """``hin`` grown to ``features.shape[0]`` nodes carrying ``features``."""
    n = features.shape[0]
    labels = np.zeros((n, hin.n_labels), dtype=bool)
    labels[: hin.n_nodes] = hin.label_matrix
    return HIN(
        SparseTensor3([], [], [], shape=(n, n, hin.n_relations)),
        hin.relation_names,
        features,
        labels,
        hin.label_names,
    )


class TestFeaturesWithRows:
    def test_dense_edits_match_an_eager_copy(self):
        hin = make_hin()
        rows = {1: np.array([0.5, 0.0, 2.0]), 3: np.array([1.0, 1.0, 0.0])}
        grown = with_features(hin, hin.features_with_rows(rows, 5))
        expected = np.zeros((5, 3))
        expected[:3] = np.eye(3)
        expected[1] = rows[1]
        expected[3] = rows[3]
        assert grown.n_features == 3
        assert np.array_equal(grown.features, expected)
        assert np.array_equal(hin.features, np.eye(3))  # source untouched

    def test_chained_edits_fold_and_later_edits_win(self):
        hin = make_hin()
        first = with_features(hin, hin.features_with_rows({0: np.ones(3)}, 3))
        second = first.features_with_rows({0: np.full(3, 2.0), 2: np.ones(3)}, 3)
        expected = np.eye(3)
        expected[0] = 2.0
        expected[2] = 1.0
        assert np.array_equal(with_features(hin, second).features, expected)
        expected_first = np.eye(3)
        expected_first[0] = 1.0
        assert np.array_equal(first.features, expected_first)

    def test_derived_views_share_the_edited_matrix(self):
        hin = make_hin()
        grown = with_features(hin, hin.features_with_rows({2: np.ones(3)}, 3))
        view = grown.masked(np.ones(3, dtype=bool))
        assert view.features is grown.features

    def test_sparse_features_stay_csr(self):
        hin = HIN(
            make_hin().tensor,
            ["r0", "r1"],
            sp.csr_matrix(np.eye(3)),
            make_hin().label_matrix,
            ["a", "b"],
        )
        edited = hin.features_with_rows({0: np.array([0.0, 3.0, 0.0])}, 4)
        assert sp.issparse(edited)
        expected = np.zeros((4, 3))
        expected[:3] = np.eye(3)
        expected[0] = [0.0, 3.0, 0.0]
        assert np.array_equal(edited.toarray(), expected)

    def test_no_edits_share_the_matrix(self):
        hin = make_hin()
        assert hin.features_with_rows({}, 3) is hin.features
