"""The :class:`HIN` container: adjacency tensor + features + labels + names.

The paper's problem setting (section 3): ``n`` nodes of the target type,
``m`` link types among them, each node carries a feature vector
``f_i in R^d`` and is associated with at least one of ``q`` class labels.
Labels are known for a subset of nodes (the training set); the task is to
predict the rest and rank the link types per class.

Labels are stored canonically as an ``(n, q)`` boolean matrix so the same
container serves single-label (DBLP, Movies, NUS) and multi-label (ACM)
experiments.  A row of all ``False`` means *unknown*.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError, ValidationError
from repro.tensor.sptensor import SparseTensor3


class _RowEditedFeatures:
    """Dense features: a base matrix with some rows replaced or appended.

    Made by :meth:`HIN.features_with_rows`.  The ``(n, d)`` copy is made
    on the first read of :attr:`HIN.features` instead of once per delta
    batch, so a consumer that needs only the edited rows (the streaming
    feature walk) never pays for it.  Edits on top of an unread instance
    fold into it, so the base is always a real array.
    """

    __slots__ = ("_base", "_rows", "shape", "_dense")

    def __init__(self, base, rows: dict, n_rows: int):
        if isinstance(base, _RowEditedFeatures):
            if base._dense is None:
                rows = {**base._rows, **rows}
                base = base._base
            else:
                base = base._dense
        self._base = base
        self._rows = rows
        self.shape = (n_rows, base.shape[1])
        self._dense = None

    def dense(self) -> np.ndarray:
        """The materialised matrix (built once, then cached)."""
        if self._dense is None:
            dense = np.empty(self.shape)
            n_base = self._base.shape[0]
            dense[:n_base] = self._base
            dense[n_base:] = 0.0
            for idx, row in self._rows.items():
                dense[idx] = row
            self._dense = dense
        return self._dense


class HIN:
    """An attributed heterogeneous information network over one node type.

    Parameters
    ----------
    tensor:
        The ``(n, n, m)`` adjacency tensor; ``tensor[i, j, k]`` is the
        weight of the link ``j -> i`` through relation ``k``.
    relation_names:
        ``m`` distinct names for the link types.
    features:
        ``(n, d)`` dense array or scipy sparse matrix of node features.
    label_matrix:
        ``(n, q)`` boolean matrix; ``label_matrix[i, c]`` marks node ``i``
        as belonging to class ``c``.  All-``False`` rows are unlabeled.
    label_names:
        ``q`` distinct class names.
    node_names:
        Optional ``n`` distinct node names; defaults to ``"node_<idx>"``.
    multilabel:
        Whether nodes may carry several labels (ACM).  When ``False``,
        rows of ``label_matrix`` must contain at most one ``True``.
    metadata:
        Free-form dict for generator ground truth (e.g. the conference ->
        area map behind Table 2).
    _features_checked:
        Internal: the feature values are known finite (a derived HIN
        reusing validated rows), so the ``O(n d)`` scan is skipped.
    """

    def __init__(
        self,
        tensor: SparseTensor3,
        relation_names: Sequence[str],
        features,
        label_matrix,
        label_names: Sequence[str],
        *,
        node_names: Sequence[str] | None = None,
        multilabel: bool = False,
        metadata: dict | None = None,
        _features_checked: bool = False,
    ):
        if not isinstance(tensor, SparseTensor3):
            raise ValidationError(
                f"tensor must be a SparseTensor3, got {type(tensor).__name__}"
            )
        n, _, m = tensor.shape

        relation_names = [str(r) for r in relation_names]
        if len(relation_names) != m:
            raise ShapeError(
                f"expected {m} relation names (tensor has {m} relations), "
                f"got {len(relation_names)}"
            )
        if len(set(relation_names)) != m:
            raise ValidationError("relation names must be distinct")

        if isinstance(features, _RowEditedFeatures):
            pass  # base rows from a HIN, edited rows from validated deltas
        elif sp.issparse(features):
            features = sp.csr_matrix(features, dtype=float)
            if (
                not _features_checked
                and features.nnz
                and not np.all(np.isfinite(features.data))
            ):
                raise ValidationError("features contain non-finite values")
        else:
            features = np.asarray(features, dtype=float)
            if features.ndim != 2:
                raise ShapeError(f"features must be 2-D, got shape {features.shape}")
            if (
                not _features_checked
                and features.size
                and not np.all(np.isfinite(features))
            ):
                raise ValidationError("features contain non-finite values")
        if features.shape[0] != n:
            raise ShapeError(
                f"features has {features.shape[0]} rows, expected {n} (one per node)"
            )

        label_matrix = np.asarray(label_matrix, dtype=bool)
        if label_matrix.ndim != 2 or label_matrix.shape[0] != n:
            raise ShapeError(
                f"label_matrix must be (n, q) = ({n}, q), got {label_matrix.shape}"
            )
        q = label_matrix.shape[1]
        label_names = [str(c) for c in label_names]
        if len(label_names) != q:
            raise ShapeError(
                f"expected {q} label names (label_matrix has {q} columns), "
                f"got {len(label_names)}"
            )
        if len(set(label_names)) != q:
            raise ValidationError("label names must be distinct")
        if not multilabel and np.any(label_matrix.sum(axis=1) > 1):
            raise ValidationError(
                "label_matrix has rows with multiple labels; pass multilabel=True"
            )

        if node_names is None:
            node_names = [f"node_{idx}" for idx in range(n)]
        else:
            node_names = [str(v) for v in node_names]
            if len(node_names) != n:
                raise ShapeError(f"expected {n} node names, got {len(node_names)}")
            if len(set(node_names)) != n:
                raise ValidationError("node names must be distinct")

        self._tensor = tensor
        self._relation_names = tuple(relation_names)
        self._features = features
        self._label_matrix = label_matrix
        self._label_matrix.setflags(write=False)
        self._label_names = tuple(label_names)
        self._node_names = tuple(node_names)
        self._multilabel = bool(multilabel)
        self.metadata = dict(metadata or {})
        self._node_index = {name: idx for idx, name in enumerate(node_names)}
        self._relation_index = {name: idx for idx, name in enumerate(relation_names)}

    # ------------------------------------------------------------------
    # Shape properties
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._tensor.n_nodes

    @property
    def n_relations(self) -> int:
        """Number of link types ``m``."""
        return self._tensor.n_relations

    @property
    def n_labels(self) -> int:
        """Number of classes ``q``."""
        return len(self._label_names)

    @property
    def n_features(self) -> int:
        """Feature dimensionality ``d``."""
        return self._features.shape[1]

    @property
    def multilabel(self) -> bool:
        """Whether nodes may carry several labels."""
        return self._multilabel

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    @property
    def tensor(self) -> SparseTensor3:
        """The adjacency tensor ``A``."""
        return self._tensor

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Names of the ``m`` link types."""
        return self._relation_names

    @property
    def label_names(self) -> tuple[str, ...]:
        """Names of the ``q`` classes."""
        return self._label_names

    @property
    def node_names(self) -> tuple[str, ...]:
        """Names of the ``n`` nodes."""
        return self._node_names

    @property
    def features(self):
        """The ``(n, d)`` feature matrix (dense ndarray or CSR)."""
        if isinstance(self._features, _RowEditedFeatures):
            self._features = self._features.dense()
        return self._features

    @property
    def label_matrix(self) -> np.ndarray:
        """The ``(n, q)`` boolean label matrix (read-only)."""
        return self._label_matrix

    def features_dense(self) -> np.ndarray:
        """Return the feature matrix as a dense array."""
        features = self.features
        if sp.issparse(features):
            return features.toarray()
        return np.asarray(features)

    def features_with_rows(self, rows: dict, n_rows: int):
        """These features with ``rows`` (node index -> vector) replaced or appended.

        The feature matrix for a derived ``n_rows``-node HIN: CSR when the
        features are sparse; for dense features a deferred matrix that the
        new HIN builds on the first read of :attr:`features`, so editing a
        few rows does not copy all ``n x d`` values up front.  Appended
        rows missing from ``rows`` are zero.
        """
        if not rows and n_rows == self.n_nodes:
            return self._features
        if sp.issparse(self._features):
            features = sp.lil_matrix((n_rows, self.n_features), dtype=float)
            features[: self.n_nodes] = self._features
            for idx, row in rows.items():
                features[idx] = row
            return features.tocsr()
        return _RowEditedFeatures(self._features, rows, n_rows)

    # ------------------------------------------------------------------
    # Label views
    # ------------------------------------------------------------------
    @property
    def labeled_mask(self) -> np.ndarray:
        """Boolean mask of nodes carrying at least one label."""
        return self._label_matrix.any(axis=1)

    @property
    def y(self) -> np.ndarray:
        """Single-label view: class index per node, ``-1`` for unlabeled.

        Raises
        ------
        ValidationError
            If the HIN is multi-label.
        """
        if self._multilabel:
            raise ValidationError(
                "y is only defined for single-label HINs; use label_matrix"
            )
        result = np.full(self.n_nodes, -1, dtype=np.int64)
        rows, cols = np.nonzero(self._label_matrix)
        result[rows] = cols
        return result

    def node_index(self, name: str) -> int:
        """Resolve a node name to its index."""
        try:
            return self._node_index[name]
        except KeyError:
            raise ValidationError(f"unknown node name: {name!r}") from None

    def relation_index(self, name: str) -> int:
        """Resolve a relation name to its index."""
        try:
            return self._relation_index[name]
        except KeyError:
            raise ValidationError(f"unknown relation name: {name!r}") from None

    def label_index(self, name: str) -> int:
        """Resolve a class name to its index."""
        try:
            return self._label_names.index(name)
        except ValueError:
            raise ValidationError(f"unknown label name: {name!r}") from None

    # ------------------------------------------------------------------
    # Derived HINs
    # ------------------------------------------------------------------
    def with_labels(self, label_matrix: np.ndarray) -> "HIN":
        """Return a copy of this HIN with a different label matrix.

        Used by the experiment harness to mask test labels: structure,
        features and names are shared, only supervision changes.
        """
        return HIN(
            self._tensor,
            self._relation_names,
            self._features,
            label_matrix,
            self._label_names,
            node_names=self._node_names,
            multilabel=self._multilabel,
            metadata=self.metadata,
            _features_checked=True,
        )

    def masked(self, train_mask: np.ndarray) -> "HIN":
        """Return a copy keeping labels only where ``train_mask`` is True."""
        train_mask = np.asarray(train_mask, dtype=bool)
        if train_mask.shape != (self.n_nodes,):
            raise ShapeError(
                f"train_mask must have shape ({self.n_nodes},), got {train_mask.shape}"
            )
        masked = self._label_matrix.copy()
        masked[~train_mask] = False
        return self.with_labels(masked)

    def with_relations(self, relation_indices: Sequence[int], names=None) -> "HIN":
        """Return a copy restricted to a subset of link types.

        This is the *link selection* operation behind section 6.3
        (Tagset1 vs Tagset2 on NUS).
        """
        indices = [int(k) for k in relation_indices]
        for k in indices:
            if not 0 <= k < self.n_relations:
                raise ValidationError(
                    f"relation index {k} out of range [0, {self.n_relations})"
                )
        if len(set(indices)) != len(indices):
            raise ValidationError("relation indices must be distinct")
        slices = [self._tensor.relation_slice(k) for k in indices]
        tensor = SparseTensor3.from_slices(slices, n=self.n_nodes)
        if names is None:
            names = [self._relation_names[k] for k in indices]
        return HIN(
            tensor,
            names,
            self._features,
            self._label_matrix,
            self._label_names,
            node_names=self._node_names,
            multilabel=self._multilabel,
            metadata=self.metadata,
            _features_checked=True,
        )

    def __repr__(self) -> str:
        kind = "multi-label" if self._multilabel else "single-label"
        return (
            f"HIN(n_nodes={self.n_nodes}, n_relations={self.n_relations}, "
            f"n_labels={self.n_labels}, n_features={self.n_features}, {kind}, "
            f"nnz={self._tensor.nnz})"
        )
