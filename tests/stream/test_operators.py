"""Equivalence tests: IncrementalOperators vs a full operator rebuild.

The exactness contract of ``repro.stream.operators``: after
``ops.apply(batch)`` the cached triple equals ``build_operators`` on
``apply_batch(hin, batch)`` bitwise — for link-only batches (including
dangling gain/loss in both directions) and for feature edits, whose row
updates of the factored cosine walk leave its factors exactly as a cold
build makes them.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.features import FactoredCosineWalk
from repro.core.tmark import TMark, build_operators
from repro.errors import ValidationError
from repro.stream.delta import GraphDelta, apply_batch
from repro.stream.operators import IncrementalOperators
from repro.stream.workload import synthetic_delta_log
from tests.conftest import small_labeled_hin
from tests.stream.test_delta import small_hin


def w_parts(w):
    """``W`` as the arrays that define it: the factors when factored."""
    if isinstance(w, FactoredCosineWalk):
        unit = w.unit
        return (unit.data, unit.indices, unit.indptr, w.inv_mass, w.zero)
    return (w.toarray() if sp.issparse(w) else w,)


def assert_matches_rebuild(ops, expected_hin, **build_kwargs):
    """The incremental triple against a cold ``build_operators`` rebuild."""
    ref = build_operators(expected_hin, **build_kwargs)
    got = ops.operators
    assert got.shape == ref.shape
    assert np.array_equal(got.o_tensor.to_dense(), ref.o_tensor.to_dense())
    assert np.array_equal(got.r_tensor.to_dense(), ref.r_tensor.to_dense())
    assert type(got.w_matrix) is type(ref.w_matrix)
    for got_part, ref_part in zip(w_parts(got.w_matrix), w_parts(ref.w_matrix)):
        assert np.array_equal(got_part, ref_part)


def apply_and_check(hin, deltas, **build_kwargs):
    ops = IncrementalOperators(hin, **build_kwargs)
    new_hin = ops.apply(deltas)
    expected = apply_batch(hin, deltas)
    assert new_hin.node_names == expected.node_names
    assert new_hin.tensor == expected.tensor
    assert_matches_rebuild(ops, expected, **build_kwargs)
    return ops, expected


class TestLinkPatches:
    def test_initial_state_matches_full_build(self):
        hin = small_hin()
        ops = IncrementalOperators(hin)
        assert_matches_rebuild(ops, hin)

    def test_pure_addition_bitwise(self):
        apply_and_check(
            small_hin(),
            [
                GraphDelta.add_link("w", "u", "r2"),
                GraphDelta.add_link("u", "w", "r1", weight=0.5),
            ],
        )

    def test_pure_removal_bitwise(self):
        apply_and_check(small_hin(), [GraphDelta.remove_link("u", "v", "r1")])

    def test_mixed_batch_bitwise(self):
        apply_and_check(
            small_hin(),
            [
                GraphDelta.remove_link("v", "w", "r2", directed=True),
                GraphDelta.add_link("v", "w", "r2", weight=3.0, directed=True),
                GraphDelta.add_link("u", "w", "r1"),
            ],
        )

    def test_weight_accumulates_on_existing_link(self):
        apply_and_check(
            small_hin(),
            [
                GraphDelta.add_link("u", "v", "r1", weight=0.25),
                GraphDelta.add_link("u", "v", "r1", weight=0.75),
            ],
        )

    def test_column_gains_first_out_link(self):
        # r3 is empty: every (j, r3) column is dangling; the first link
        # flips two columns (undirected) from dangling to normalised.
        ops, expected = apply_and_check(
            small_hin(), [GraphDelta.add_link("u", "w", "r3")]
        )
        assert ops.operators.o_tensor.n_dangling < 3 * 3

    def test_column_loses_last_out_link(self):
        # u's only r1 partner is v; removing it re-danglifies both
        # (u, r1) and (v, r1) columns and unlinks the (u, v) pair.
        hin = small_hin()
        before = IncrementalOperators(hin).operators
        ops, _ = apply_and_check(hin, [GraphDelta.remove_link("u", "v", "r1")])
        after = ops.operators
        assert after.o_tensor.n_dangling > before.o_tensor.n_dangling
        assert after.r_tensor.n_linked_pairs < before.r_tensor.n_linked_pairs

    def test_dangling_round_trip(self):
        # Gain then lose the same link across two batches: back to the
        # seed operators, still bitwise against the rebuild at each step.
        hin = small_hin()
        ops = IncrementalOperators(hin)
        mid = ops.apply([GraphDelta.add_link("u", "w", "r3")])
        assert_matches_rebuild(ops, mid)
        final = ops.apply([GraphDelta.remove_link("u", "w", "r3")])
        assert_matches_rebuild(ops, final)
        assert final.tensor == hin.tensor

    def test_fibre_gains_and_loses_relation(self):
        # (v, w) is linked through r2 only; adding r1 makes the fibre
        # two-relation, removing r2 drops it back to one.
        apply_and_check(
            small_hin(),
            [
                GraphDelta.add_link("v", "w", "r1"),
                GraphDelta.remove_link("v", "w", "r2", directed=True),
            ],
        )

    def test_label_only_batch_leaves_operators_untouched(self):
        hin = small_hin()
        ops = IncrementalOperators(hin)
        o_before = ops.operators.o_tensor
        r_before = ops.operators.r_tensor
        w_before = ops.operators.w_matrix
        ops.apply([GraphDelta.set_label("w", ["a"])])
        assert ops.operators.o_tensor is o_before
        assert ops.operators.r_tensor is r_before
        assert ops.operators.w_matrix is w_before
        assert ops.hin.label_matrix[2, 0]


class TestNodeGrowth:
    def test_added_node_with_links(self):
        apply_and_check(
            small_hin(),
            [
                GraphDelta.add_node("x", features=[2.0, 1.0], labels=["b"]),
                GraphDelta.add_link("x", "u", "r1"),
                GraphDelta.add_link("w", "x", "r2", directed=True),
            ],
        )

    def test_isolated_node_growth(self):
        # A node with no links: every one of its columns/fibres is
        # dangling — growth alone must reshape the cached slices.
        apply_and_check(
            small_hin(),
            [GraphDelta.add_node("x", features=[0.5, 0.5])],
        )

    def test_link_isolated_node_in_later_batch(self):
        # Dangling gain on a grown index: the column belongs to a node
        # that did not exist when the operators were built.
        hin = small_hin()
        ops = IncrementalOperators(hin)
        mid = ops.apply([GraphDelta.add_node("x", features=[0.5, 0.5])])
        assert_matches_rebuild(ops, mid)
        final = ops.apply([GraphDelta.add_link("x", "v", "r2", directed=True)])
        assert_matches_rebuild(ops, final)


class TestFeaturePatches:
    def test_feature_update_close(self):
        apply_and_check(
            small_hin(),
            [GraphDelta.update_features("u", [3.0, 1.0])],
        )

    def test_feature_update_to_zero_vector(self):
        # Zero features: the node's column falls back to uniform.
        apply_and_check(
            small_hin(),
            [GraphDelta.update_features("v", [0.0, 0.0])],
        )

    def test_link_only_batch_keeps_w_object(self):
        hin = small_hin()
        ops = IncrementalOperators(hin)
        w_before = ops.operators.w_matrix
        ops.apply([GraphDelta.add_link("u", "w", "r3")])
        assert ops.operators.w_matrix is w_before

    def test_sparse_features_full_recompute_bitwise(self):
        # Sparse features take the same row update of the factored walk
        # as dense ones: bitwise against the rebuild.
        apply_and_check(
            small_hin(sparse_features=True),
            [GraphDelta.update_features("u", [3.0, 1.0])],
        )

    def test_rbf_metric_full_recompute_bitwise(self):
        apply_and_check(
            small_hin(),
            [GraphDelta.update_features("u", [3.0, 1.0])],
            similarity_metric="rbf",
        )

    def test_top_k_full_recompute_bitwise(self):
        apply_and_check(
            small_hin(),
            [GraphDelta.update_features("u", [3.0, 1.0])],
            similarity_top_k=2,
        )


    def test_signed_update_switches_to_dense_and_back(self):
        hin = small_hin()
        ops = IncrementalOperators(hin)
        assert isinstance(ops.operators.w_matrix, FactoredCosineWalk)
        signed = ops.apply([GraphDelta.update_features("u", [-1.0, 2.0])])
        assert isinstance(ops.operators.w_matrix, np.ndarray)
        assert_matches_rebuild(ops, signed)
        back = ops.apply([GraphDelta.update_features("u", [1.0, 2.0])])
        assert isinstance(ops.operators.w_matrix, FactoredCosineWalk)
        assert_matches_rebuild(ops, back)


def nonnegative(hin, *, sparse=False):
    """``hin`` with absolute-valued (optionally CSR) features."""
    from repro.hin.graph import HIN

    features = np.abs(hin.features)
    return HIN(
        hin.tensor,
        hin.relation_names,
        sp.csr_matrix(features) if sparse else features,
        hin.label_matrix,
        hin.label_names,
        node_names=hin.node_names,
    )


class TestRandomizedSequences:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_nonnegative_journal_row_updates_bitwise(self, sparse):
        from repro.obs import ListRecorder

        hin = nonnegative(small_labeled_hin(seed=5, n=20, q=3, m=3), sparse=sparse)
        log = synthetic_delta_log(hin, 60, batch_size=10, seed=5)
        ops = IncrementalOperators(hin)
        recorder = ListRecorder()
        current = hin
        for batch in log.batches():
            current = apply_batch(current, batch)
            ops.apply(batch, recorder=recorder)
            assert isinstance(ops.operators.w_matrix, FactoredCosineWalk)
            assert_matches_rebuild(ops, current)
        events = recorder.events_of("operator_patch")
        assert events and not any(e["full_w_recompute"] for e in events)


    @pytest.mark.parametrize("seed", [1, 17, 99])
    def test_synthetic_journal_batchwise_equivalence(self, seed):
        hin = small_labeled_hin(seed=seed, n=20, q=3, m=3)
        log = synthetic_delta_log(hin, 50, batch_size=10, seed=seed)
        ops = IncrementalOperators(hin)
        current = hin
        for batch in log.batches():
            current = apply_batch(current, batch)
            got = ops.apply(batch)
            assert got.tensor == current.tensor
            # Feature/node deltas appear in the mix; W stays bitwise too.
            assert_matches_rebuild(ops, current)

    def test_link_only_journal_stays_bitwise(self):
        hin = small_labeled_hin(seed=4, n=20, q=3, m=3)
        log = synthetic_delta_log(
            hin,
            40,
            batch_size=8,
            seed=13,
            op_weights={"add_link": 0.6, "remove_link": 0.4},
        )
        ops = IncrementalOperators(hin)
        current = hin
        for batch in log.batches():
            current = apply_batch(current, batch)
            ops.apply(batch)
            assert_matches_rebuild(ops, current)


class TestInterfaces:
    def test_rejects_non_hin(self):
        with pytest.raises(ValidationError):
            IncrementalOperators({"not": "a hin"})

    def test_operators_feed_tmark_fit(self):
        hin = small_labeled_hin(seed=2, n=16, q=2, m=2)
        ops = IncrementalOperators(hin)
        ops.apply([GraphDelta.add_link("v0", "v5", "r1")])
        model = TMark(update_labels=False)
        model.fit(ops.hin, operators=ops.operators)
        reference = TMark(update_labels=False).fit(ops.hin)
        np.testing.assert_allclose(
            model.result_.node_scores,
            reference.result_.node_scores,
            rtol=1e-12,
            atol=1e-15,
        )

    def test_patch_event_emitted(self):
        from repro.obs import ListRecorder

        hin = small_hin()
        ops = IncrementalOperators(hin)
        recorder = ListRecorder()
        ops.apply([GraphDelta.add_link("u", "w", "r3")], recorder=recorder)
        (event,) = recorder.events_of("operator_patch")
        assert event["n_link_ops"] == 2  # undirected: two tensor entries
        assert event["touched_columns"] == 2
        assert event["touched_fibres"] == 2
        assert not event["full_w_recompute"]
        assert recorder.counters["operator_patches"] == 1
