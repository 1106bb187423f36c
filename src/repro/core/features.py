"""The feature-based transition matrix ``W`` (section 4.2, Eq. 9).

``C[i, j] = cos(f_i, f_j)`` is the cosine similarity between node feature
vectors; ``W`` column-normalises ``C`` so each column is a probability
distribution over nodes.  The T-Mark update mixes ``W x`` into the walk
with weight ``beta = gamma * (1 - alpha)``.

Practical details the paper leaves implicit, resolved here:

* negative similarities (possible with signed features) are clipped to
  zero — transition probabilities cannot be negative;
* a node with a zero feature vector has an undefined cosine; its
  similarities are zero and its *column* falls back to the uniform
  distribution, mirroring the dangling convention of Eq. 1;
* dense ``C`` is O(n^2) memory; ``top_k`` keeps only the strongest ``k``
  similarities per column (plus the diagonal) for large networks — an
  ablation bench quantifies the accuracy cost.

For non-negative features — the bag-of-words features of every paper
dataset — the clip is a no-op and cosine ``W`` factors exactly:
with ``N`` the row-normalised features and ``s = N (N^T 1)`` the column
masses, ``W X = N (N^T (X / s))`` plus a uniform term for the
zero-feature columns.  :class:`FactoredCosineWalk` applies that form in
``O(nnz(N) q)`` per product without ever holding an ``n x n`` array;
:func:`feature_transition_matrix` stays the dense reference.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError, ValidationError
from repro.utils.validation import check_positive_int


def cosine_similarity_matrix(features, *, clip_negative: bool = True) -> np.ndarray:
    """Dense pairwise cosine similarity ``C`` of node features.

    Rows with zero norm yield zero similarity against everything
    (including themselves).
    """
    if sp.issparse(features):
        feats = sp.csr_matrix(features, dtype=float)
        norms = np.sqrt(np.asarray(feats.multiply(feats).sum(axis=1)).ravel())
        safe = np.where(norms > 0, norms, 1.0)
        normalized = sp.diags(1.0 / safe) @ feats
        sims = (normalized @ normalized.T).toarray()
    else:
        feats = np.asarray(features, dtype=float)
        if feats.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {feats.shape}")
        norms = np.linalg.norm(feats, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        normalized = feats / safe[:, None]
        # einsum, not GEMM: a fixed per-element summation order keeps
        # these values bit-consistent with the chunked panels of
        # topk_cosine_transition_matrix, so top-k ties resolve the same
        # way on both paths.
        sims = np.einsum("nd,cd->nc", normalized, normalized)
    zero = norms == 0
    if np.any(zero):
        sims[zero, :] = 0.0
        sims[:, zero] = 0.0
    if clip_negative:
        np.clip(sims, 0.0, None, out=sims)
    return sims


def rbf_similarity_matrix(features, *, bandwidth: float | None = None) -> np.ndarray:
    """Gaussian (RBF) similarity ``exp(-||f_i - f_j||^2 / (2 sigma^2))``.

    ``bandwidth`` (sigma) defaults to the median pairwise distance —
    the standard median heuristic.  One of the metric-learning style
    alternatives section 4.2 mentions for the node-similarity graph.
    """
    feats = features.toarray() if sp.issparse(features) else np.asarray(features, float)
    if feats.ndim != 2:
        raise ValidationError(f"features must be 2-D, got shape {feats.shape}")
    squared_norms = (feats**2).sum(axis=1)
    distances_sq = squared_norms[:, None] + squared_norms[None, :] - 2 * feats @ feats.T
    np.clip(distances_sq, 0.0, None, out=distances_sq)
    if bandwidth is None:
        off_diagonal = distances_sq[~np.eye(len(feats), dtype=bool)]
        median_sq = float(np.median(off_diagonal)) if off_diagonal.size else 1.0
        bandwidth = np.sqrt(median_sq) if median_sq > 0 else 1.0
    elif bandwidth <= 0:
        raise ValidationError(f"bandwidth must be positive, got {bandwidth}")
    return np.exp(-distances_sq / (2.0 * bandwidth**2))


def jaccard_similarity_matrix(features) -> np.ndarray:
    """Generalised Jaccard similarity ``sum min / sum max`` of count rows.

    Natural for bag-of-words features; requires non-negative entries.
    Two all-zero rows have similarity 0 (unknown, like the cosine case).
    """
    feats = features.toarray() if sp.issparse(features) else np.asarray(features, float)
    if feats.ndim != 2:
        raise ValidationError(f"features must be 2-D, got shape {feats.shape}")
    if feats.size and feats.min() < 0:
        raise ValidationError("jaccard similarity requires non-negative features")
    n = feats.shape[0]
    # sum(min(a, b)) + sum(max(a, b)) == sum(a) + sum(b), so only the
    # min-sums need an explicit pass; computed in row blocks to bound
    # the (n, block, d) broadcast at ~8 MB.
    row_sums = feats.sum(axis=1)
    sims = np.zeros((n, n))
    block = max(1, int(1e6 / max(feats.shape[1], 1)))
    for start in range(0, n, block):
        stop = min(start + block, n)
        min_sums = np.minimum(feats[None, start:stop, :], feats[:, None, :]).sum(axis=2)
        max_sums = row_sums[:, None] + row_sums[None, start:stop] - min_sums
        with np.errstate(invalid="ignore", divide="ignore"):
            sims[:, start:stop] = np.where(
                max_sums > 0, min_sums / np.where(max_sums > 0, max_sums, 1.0), 0.0
            )
    return sims


#: Similarity functions selectable in :func:`feature_transition_matrix`.
SIMILARITY_METRICS = ("cosine", "rbf", "jaccard")


def topk_cosine_transition_matrix(
    features, top_k: int, *, chunk_size: int = 512
) -> sp.csr_matrix:
    """Chunked top-k cosine ``W`` without the dense ``n x n`` similarity.

    Equivalent to ``feature_transition_matrix(features, top_k=top_k)``
    but computes similarities in column blocks of ``chunk_size``, so peak
    memory is ``O(n * chunk_size)`` instead of ``O(n^2)`` — the path for
    networks with tens of thousands of nodes.

    The output is bit-identical for every valid ``chunk_size`` (a
    property test pins ``chunk_size`` in ``{1, 7, 512, n}``): each
    column's top-k selection and values depend only on that column's
    similarity panel, and similarity panels are reduced with a fixed
    per-element summation order (``np.einsum`` rather than a BLAS GEMM,
    whose kernel choice — and last-bit rounding — varies with panel
    width).  The out-of-core operator builds (:mod:`repro.ooc.build`)
    rely on this invariant.
    """
    top_k = check_positive_int(top_k, "top_k")
    chunk_size = check_positive_int(chunk_size, "chunk_size")
    if sp.issparse(features):
        feats = sp.csr_matrix(features, dtype=float)
        norms = np.sqrt(np.asarray(feats.multiply(feats).sum(axis=1)).ravel())
        safe = np.where(norms > 0, norms, 1.0)
        normalized = sp.diags(1.0 / safe) @ feats
    else:
        feats = np.asarray(features, dtype=float)
        if feats.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {feats.shape}")
        norms = np.linalg.norm(feats, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        normalized = feats / safe[:, None]
    n = feats.shape[0]
    zero_rows = norms == 0
    k = min(top_k, n)

    rows_out: list[np.ndarray] = []
    cols_out: list[np.ndarray] = []
    data_out: list[np.ndarray] = []
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        block = normalized[start:stop]
        if sp.issparse(normalized):
            # Sparse matmul accumulates each output element in the fixed
            # order of the left operand's row, independent of panel width.
            sims = np.asarray((normalized @ block.T).todense())
        else:
            # einsum, not GEMM: BLAS kernels round differently per panel
            # width, which would break chunk-size bit-identity.
            sims = np.einsum("nd,cd->nc", normalized, block)
        np.clip(sims, 0.0, None, out=sims)
        sims[zero_rows, :] = 0.0
        sims[:, zero_rows[start:stop]] = 0.0
        # Force the diagonal in so self-similarity always survives
        # (featureless nodes excluded: their columns stay empty and fall
        # back to the uniform distribution below, matching the dense path).
        local = np.arange(start, stop)
        with_features = ~zero_rows[start:stop]
        sims[local[with_features], (local - start)[with_features]] = np.maximum(
            sims[local[with_features], (local - start)[with_features]], 1e-12
        )
        if k < n:
            top_rows = np.argpartition(-sims, k - 1, axis=0)[:k, :]
        else:
            top_rows = np.tile(np.arange(n)[:, None], (1, stop - start))
        block_cols = np.repeat(np.arange(start, stop)[None, :], top_rows.shape[0], 0)
        values = sims[top_rows, block_cols - start]
        keep = values > 0
        rows_out.append(top_rows[keep])
        cols_out.append(block_cols[keep])
        data_out.append(values[keep])
    matrix = sp.csr_matrix(
        (
            np.concatenate(data_out),
            (np.concatenate(rows_out), np.concatenate(cols_out)),
        ),
        shape=(n, n),
    )
    col_sums = np.asarray(matrix.sum(axis=0)).ravel()
    empty = col_sums == 0
    if np.any(empty):
        # Featureless columns: uniform, as elsewhere.
        uniform = sp.csr_matrix(
            (
                np.full(int(empty.sum()) * n, 1.0),
                (
                    np.tile(np.arange(n), int(empty.sum())),
                    np.repeat(np.flatnonzero(empty), n),
                ),
            ),
            shape=(n, n),
        )
        matrix = matrix + uniform
        col_sums = np.asarray(matrix.sum(axis=0)).ravel()
    return (matrix @ sp.diags(1.0 / col_sums)).tocsr()


def feature_transition_matrix(
    features, *, top_k: int | None = None, metric: str = "cosine"
):
    """The column-stochastic ``W`` of Eq. 9.

    Parameters
    ----------
    features:
        ``(n, d)`` dense array or scipy sparse matrix.
    top_k:
        When given, keep only the ``top_k`` largest similarities per
        column (the diagonal always survives) before normalising.  Returns
        a CSR matrix in that case, a dense array otherwise.
    metric:
        Node-similarity function: ``"cosine"`` (the paper's choice),
        ``"rbf"`` or ``"jaccard"`` (section 4.2 notes that any distance
        metric can drive the feature graph; an ablation bench compares
        them).

    Returns
    -------
    ``(n, n)`` column-stochastic matrix: every column is non-negative and
    sums to one (zero-similarity columns become uniform).
    """
    if metric == "cosine":
        sims = cosine_similarity_matrix(features)
    elif metric == "rbf":
        sims = rbf_similarity_matrix(features)
    elif metric == "jaccard":
        sims = jaccard_similarity_matrix(features)
    else:
        raise ValidationError(
            f"metric must be one of {SIMILARITY_METRICS}, got {metric!r}"
        )
    n = sims.shape[0]
    if top_k is not None:
        top_k = check_positive_int(top_k, "top_k")
        if top_k < n:
            # Zero out everything below each column's top_k values,
            # keeping the diagonal so self-similarity always survives.
            keep = np.zeros_like(sims, dtype=bool)
            idx = np.argpartition(-sims, top_k - 1, axis=0)[:top_k, :]
            keep[idx, np.arange(n)[None, :].repeat(top_k, axis=0)] = True
            keep[np.diag_indices(n)] = True
            sims = np.where(keep, sims, 0.0)
    col_sums = sims.sum(axis=0)
    zero_cols = col_sums == 0
    if np.any(zero_cols):
        # Featureless nodes: uniform column, as with dangling fibres.
        sims[:, zero_cols] = 1.0
        col_sums = sims.sum(axis=0)
    result = sims / col_sums[None, :]
    if top_k is not None:
        return sp.csr_matrix(result)
    return result


def factored_walk_applies(
    features, *, top_k: int | None = None, metric: str = "cosine"
) -> bool:
    """Whether :class:`FactoredCosineWalk` is the exact ``W`` for these settings.

    True for cosine similarity without ``top_k`` on non-negative
    features, dense or sparse.  Signed features need Eq. 9's clip of
    negative similarities, which has no low-rank form; rbf, jaccard and
    top-k have none either.
    """
    if metric != "cosine" or top_k is not None:
        return False
    if sp.issparse(features):
        return features.nnz == 0 or features.min() >= 0
    feats = np.asarray(features)
    return feats.size == 0 or bool(feats.min() >= 0)


def unit_feature_rows(features) -> sp.csr_matrix:
    """Row-normalised features ``N`` as canonical CSR (zero rows stay empty).

    Every row's norm and entries depend on that row alone (a sequential
    per-row sum of squares), so rows normalised one at a time carry the
    same bits as rows normalised with the whole matrix — what lets the
    streaming layer replace rows of ``N`` instead of rebuilding it.
    """
    if sp.issparse(features):
        unit = sp.csr_matrix(features, dtype=float, copy=True)
        unit.sum_duplicates()
        unit.eliminate_zeros()
    else:
        feats = np.asarray(features, dtype=float)
        if feats.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {feats.shape}")
        unit = sp.csr_matrix(feats)
    rows = np.repeat(np.arange(unit.shape[0]), np.diff(unit.indptr))
    norms = np.sqrt(
        np.bincount(rows, weights=unit.data * unit.data, minlength=unit.shape[0])
    )
    unit.data /= norms[rows]
    return unit


class FactoredCosineWalk:
    """The cosine ``W`` of Eq. 9 in exact factored form, applied by ``@``.

    For non-negative features ``W = N N^T diag(1/s)`` on the columns of
    nodes with features and ``1/n`` on the columns of zero-feature
    nodes, where ``N`` is :func:`unit_feature_rows` and ``s = N (N^T 1)``.
    ``W @ X`` therefore costs two sparse products with ``N`` instead of an
    ``n x n`` GEMM, and the operator holds ``O(nnz(N) + n)`` memory.
    Every output element is accumulated in a fixed order whatever the
    number of columns of ``X``, so products are reproducible bit for bit
    across batch widths and shard counts.

    Build with :meth:`from_features`; ``feature_transition_matrix`` is
    the dense reference it equals to rounding (about ``1e-17``).
    """

    __slots__ = ("unit", "inv_mass", "zero", "_unit_t", "_zero_indicator")

    def __init__(self, unit: sp.csr_matrix):
        unit = sp.csr_matrix(unit)
        n, d = unit.shape
        #: ``(n, d)`` row-normalised features ``N``.
        self.unit = unit
        #: Nodes without features: their ``W`` columns are uniform.
        self.zero = np.diff(unit.indptr) == 0
        # s = N (N^T 1): bincount sums each feature column in node order,
        # the CSR matvec each node's row in feature order.
        mass = unit @ np.bincount(unit.indices, weights=unit.data, minlength=d)
        #: Reciprocal column masses ``1/s``; zero on zero-feature columns.
        self.inv_mass = np.zeros(n)
        self.inv_mass[~self.zero] = 1.0 / mass[~self.zero]
        self._unit_t = unit.T.tocsr()
        self._zero_indicator = sp.csr_matrix(self.zero[None, :].astype(float))

    @classmethod
    def from_features(cls, features) -> "FactoredCosineWalk":
        """The operator for an ``(n, d)`` non-negative feature matrix."""
        if not factored_walk_applies(features):
            raise ValidationError(
                "the factored cosine walk requires non-negative features"
            )
        return cls(unit_feature_rows(features))

    @property
    def shape(self) -> tuple[int, int]:
        """Logical matrix shape ``(n, n)``."""
        n = self.unit.shape[0]
        return (n, n)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        n = self.unit.shape[0]
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ShapeError(
                f"W @ x needs x of shape ({n},) or ({n}, q), got {x.shape}"
            )
        scale = self.inv_mass if x.ndim == 1 else self.inv_mass[:, None]
        out = self.unit @ (self._unit_t @ (x * scale))
        if self._zero_indicator.nnz:
            out += (self._zero_indicator @ x) / n
        return out

    def with_rows(
        self, rows, unit_rows: sp.csr_matrix, n: int
    ) -> "FactoredCosineWalk":
        """The operator after replacing rows of ``N`` and growing it to ``n``.

        ``rows`` (sorted, unique, each ``< n``) index the nodes whose
        features changed or that are new; ``unit_rows`` holds their
        normalised features in the same order.  Rows past the current
        count that are not listed stay empty (zero-feature nodes).  The
        masses are recomputed in ``O(nnz)``, so the result equals
        :meth:`from_features` on the new feature matrix bit for bit.
        """
        old = self.unit
        n_old = old.shape[0]
        counts = np.zeros(n, dtype=np.int64)
        counts[:n_old] = np.diff(old.indptr)
        data, indices = [], []
        copied = 0  # old rows [0, copied) are already placed
        for pos, row in enumerate(np.asarray(rows, dtype=np.int64).tolist()):
            stop = min(row, n_old)
            if copied < stop:
                lo, hi = old.indptr[copied], old.indptr[stop]
                data.append(old.data[lo:hi])
                indices.append(old.indices[lo:hi])
            lo, hi = unit_rows.indptr[pos], unit_rows.indptr[pos + 1]
            data.append(unit_rows.data[lo:hi])
            indices.append(unit_rows.indices[lo:hi])
            counts[row] = hi - lo
            copied = max(copied, min(row + 1, n_old))
        data.append(old.data[old.indptr[copied] :])
        indices.append(old.indices[old.indptr[copied] :])
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return type(self)(
            sp.csr_matrix(
                (np.concatenate(data), np.concatenate(indices), indptr),
                shape=(n, old.shape[1]),
            )
        )
