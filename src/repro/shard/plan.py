"""Shard planning: contiguous balanced-nnz partitions of the node set.

A :class:`ShardPlan` splits the node axis into K contiguous ranges so a
fit can advance all per-class chains shard by shard in fork workers
(:mod:`repro.shard.engine`).  Two policies exist, selected by the
operator kind:

* ``"rows"`` — in-memory :class:`~repro.tensor.transition` operators.
  Shard ``s`` owns output rows ``[start, stop)`` of every per-iteration
  product; the planner balances the summed per-row stored-entry counts
  of the O/R slices (plus the feature-walk matrix when it is a stored
  sparse matrix; other walks run on the coordinator), because
  a row's propagation cost is proportional to its entries.  CSR row
  blocks reproduce the corresponding rows of the full products
  bit-for-bit, which is what lets the engine promise bit-identical
  scores for *any* shard count.
* ``"columns"`` — out-of-core :class:`~repro.ooc.operators.ChunkedOperators`.
  Shard ``s`` owns input columns ``[start, stop)`` of the on-disk CSC
  operators and contributes a partial product over all rows; boundaries
  are aligned to multiples of the store's ``chunk_size`` whenever the
  requested shard count allows it, so each worker streams whole mmap
  chunks (shards map 1:1 onto chunk runs).  Column partials are merged
  in fixed shard order — deterministic for a given K, argmax-identical
  across K (the same accumulation-order caveat the chunked operators
  already document versus the in-RAM path).

The *halo* of a rows-shard is the set of node indices outside its own
range that its operator blocks reference — the rows of ``x`` that must
cross the shard boundary each iteration.  The engine ships them through
shared memory, so the halo is what sizes the per-iteration
``boundary_exchange`` telemetry rather than an explicit copy loop.
Column shards consume the full iterate by construction and carry an
empty halo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError
from repro.utils.validation import check_positive_int

#: The two partitioning policies (see the module docstring).
SHARD_POLICIES = ("rows", "columns")


@dataclass(frozen=True, eq=False)
class Shard:
    """One contiguous node range owned by a worker.

    Attributes
    ----------
    index:
        Position in the plan; also the merge order of this shard's
        contributions (the fixed-order merge the determinism contract
        rests on).
    start, stop:
        The half-open node range ``[start, stop)``.
    nnz:
        Summed stored-entry count of the shard's operator rows/columns —
        the load-balance weight it was placed by.
    halo:
        Sorted node indices outside ``[start, stop)`` that this shard's
        operator blocks read (empty for column shards).
    """

    index: int
    start: int
    stop: int
    nnz: int
    halo: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        """Number of nodes in the shard."""
        return self.stop - self.start

    @property
    def halo_size(self) -> int:
        """Number of boundary rows this shard reads from other shards."""
        return int(self.halo.size)


@dataclass(frozen=True)
class ShardPlan:
    """A full partition of the node axis into contiguous shards."""

    policy: str
    n: int
    m: int
    shards: tuple[Shard, ...]

    @property
    def n_shards(self) -> int:
        """Number of shards (may be below the requested K on tiny graphs)."""
        return len(self.shards)

    @property
    def halo_total(self) -> int:
        """Summed halo sizes — the per-iteration boundary-exchange rows."""
        return sum(shard.halo_size for shard in self.shards)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """The ``n_shards + 1`` partition boundaries, ``0 .. n``."""
        return tuple(s.start for s in self.shards) + (self.n,)


def _balanced_boundaries(weights: np.ndarray, n_parts: int) -> np.ndarray:
    """Contiguous boundaries splitting ``weights`` into balanced prefix sums.

    Returns a strictly increasing int array ``[0, ..., n]`` with at most
    ``n_parts`` parts; degenerate targets (empty ranges from skewed
    weights) are dropped rather than padded, so every returned shard is
    non-empty.
    """
    n = int(weights.size)
    n_parts = min(n_parts, n)
    cum = np.cumsum(weights, dtype=np.float64)
    total = float(cum[-1]) if n else 0.0
    if total > 0.0:
        targets = total * np.arange(1, n_parts) / n_parts
        inner = np.searchsorted(cum, targets, side="left") + 1
        bounds = np.concatenate(([0], inner, [n]))
    else:
        bounds = np.linspace(0, n, n_parts + 1).round().astype(np.int64)
    bounds = np.minimum(np.maximum.accumulate(bounds), n)
    return np.unique(bounds)


def _align_to_chunks(bounds: np.ndarray, n: int, chunk: int) -> np.ndarray:
    """Snap inner boundaries to chunk multiples when that keeps them distinct.

    Chunk-aligned shards stream whole mmap chunks (the 1:1 shard/chunk
    mapping); when the graph has fewer chunks than shards the raw
    balanced boundaries are kept instead — ``_csc_block`` is correct at
    any split point, alignment is purely a locality optimisation.
    """
    if chunk <= 0:
        return bounds
    aligned = bounds.astype(np.int64).copy()
    aligned[1:-1] = np.round(aligned[1:-1] / chunk).astype(np.int64) * chunk
    aligned = np.minimum(np.maximum.accumulate(aligned), n)
    aligned = np.unique(aligned)
    if aligned.size == bounds.size:
        return aligned
    return bounds


def _row_halo(start: int, stop: int, blocks, n: int) -> np.ndarray:
    """Out-of-range node indices referenced by a shard's CSR row blocks."""
    pieces = []
    for block in blocks:
        if sp.issparse(block):
            if block.nnz:
                pieces.append(block.indices)
        elif block is not None:
            # Dense feature-walk rows read every node.
            return np.concatenate(
                (np.arange(0, start), np.arange(stop, n))
            ).astype(np.int64)
    if not pieces:
        return np.empty(0, dtype=np.int64)
    cols = np.unique(np.concatenate(pieces)).astype(np.int64)
    return cols[(cols < start) | (cols >= stop)]


def plan_shards(o_tensor, r_tensor, w_matrix, n_shards: int) -> ShardPlan:
    """Partition the node axis of an operator triple into ``n_shards``.

    The policy is inferred from the operator kind: in-memory tensors
    (exposing ``row_blocks``) get the bit-identical ``"rows"`` policy,
    chunked store-backed operators (exposing ``column_nnz`` only) get
    the ``"columns"`` policy with chunk-aligned boundaries.  The
    returned plan may hold fewer shards than requested when the graph is
    too small to fill them.
    """
    n_shards = check_positive_int(n_shards, "shards")
    n = o_tensor.shape[0]
    m = o_tensor.shape[2]
    if hasattr(o_tensor, "row_blocks"):
        policy = "rows"
        weights = o_tensor.row_nnz() + r_tensor.row_nnz()
        if w_matrix is not None and sp.issparse(w_matrix):
            weights = weights + np.diff(w_matrix.tocsr().indptr)
        # Every row carries at least unit weight so all-dangling stretches
        # still spread across shards instead of collapsing into one.
        bounds = _balanced_boundaries(weights + 1, n_shards)
    elif hasattr(o_tensor, "column_nnz"):
        policy = "columns"
        weights = o_tensor.column_nnz() + r_tensor.column_nnz()
        bounds = _balanced_boundaries(weights + 1, n_shards)
        bounds = _align_to_chunks(bounds, n, int(o_tensor.chunk_size))
        weights = weights + 1
    else:
        raise ValidationError(
            "cannot plan shards: the O operator exposes neither row_blocks "
            f"(in-memory) nor column_nnz (chunked); got {type(o_tensor).__name__}"
        )
    if policy == "rows":
        weights = weights + 1
    shards = []
    for index, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        start, stop = int(start), int(stop)
        nnz = int(weights[start:stop].sum() - (stop - start))
        if policy == "rows":
            blocks = list(o_tensor.row_blocks(start, stop))
            blocks += list(r_tensor.row_blocks(start, stop))
            blocks.append(r_tensor.pair_rows(start, stop))
            if sp.issparse(w_matrix) or isinstance(w_matrix, np.ndarray):
                blocks.append(w_matrix[start:stop])
            halo = _row_halo(start, stop, blocks, n)
        else:
            halo = np.empty(0, dtype=np.int64)
        shards.append(
            Shard(index=index, start=start, stop=stop, nnz=nnz, halo=halo)
        )
    return ShardPlan(policy=policy, n=n, m=m, shards=tuple(shards))
