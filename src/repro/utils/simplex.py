"""Probability-simplex helpers.

T-Mark's stationary vectors live on probability simplices (Theorem 1 of the
paper).  These helpers centralise construction, validation and repair of
such vectors so numerical drift is handled in exactly one place.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError

#: Default tolerance when checking that a vector sums to one.
SUM_TOL = 1e-8


def uniform_distribution(size: int) -> np.ndarray:
    """Return the uniform distribution over ``size`` outcomes."""
    if size <= 0:
        raise ValidationError(f"size must be positive, got {size}")
    return np.full(size, 1.0 / size)


def is_distribution(vector: np.ndarray, tol: float = SUM_TOL) -> bool:
    """Return ``True`` when ``vector`` is a probability distribution.

    A distribution is a 1-D array of non-negative entries summing to one
    within ``tol``.
    """
    arr = np.asarray(vector, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        return False
    if np.any(arr < -tol):
        return False
    return bool(abs(arr.sum() - 1.0) <= tol)


def normalize_distribution(vector: np.ndarray) -> np.ndarray:
    """Scale a non-negative vector to sum to one.

    A vector of all zeros becomes the uniform distribution, matching the
    paper's dangling-node convention (an equal chance of every outcome).

    Raises
    ------
    ValidationError
        If any entry is negative.
    ShapeError
        If the input is not 1-D.
    """
    arr = np.asarray(vector, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError("cannot normalise an empty vector")
    if np.any(arr < 0):
        raise ValidationError("cannot normalise a vector with negative entries")
    total = arr.sum()
    if total == 0.0:
        return uniform_distribution(arr.size)
    return arr / total


def project_to_simplex(vector: np.ndarray) -> np.ndarray:
    """Clip tiny negative drift and renormalise onto the simplex.

    Intended for iterates that are mathematically on the simplex but have
    accumulated floating-point error; large violations are a bug and raise.
    """
    arr = np.asarray(vector, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ShapeError(f"expected a non-empty 1-D vector, got shape {arr.shape}")
    if np.any(arr < -1e-6):
        raise ValidationError(
            "vector is far outside the simplex (negative entries below -1e-6); "
            "this indicates a bug upstream, not numerical drift"
        )
    clipped = np.clip(arr, 0.0, None)
    return normalize_distribution(clipped)


def project_columns_to_simplex(matrix: np.ndarray) -> np.ndarray:
    """:func:`project_to_simplex` applied to every column of ``matrix``.

    Bit-identical to the per-column loop: each column is clipped, summed
    as a 1-D vector (numpy's pairwise sum, whatever the column stride)
    and divided by its total, and all-zero columns become uniform.
    Returns a new C-ordered ``(n, k)`` array.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"expected a non-empty 2-D matrix, got shape {arr.shape}")
    if np.any(arr < -1e-6):
        raise ValidationError(
            "matrix is far outside the simplex (negative entries below -1e-6); "
            "this indicates a bug upstream, not numerical drift"
        )
    clipped = np.clip(arr, 0.0, None)
    totals = np.array([clipped[:, c].sum() for c in range(clipped.shape[1])])
    empty = totals == 0.0
    totals[empty] = 1.0
    clipped /= totals
    clipped[:, empty] = 1.0 / arr.shape[0]
    return clipped


def simplex_deviation(matrix: np.ndarray) -> tuple[float, float, int]:
    """How far the columns of ``matrix`` stray from the simplex.

    Returns ``(mass drift, min entry, negative count)``: the largest
    ``|column sum - 1|``, the smallest entry and the number of negative
    entries.  A diagnostic for the ``invariant_probe`` events — the
    column masses come from one BLAS product, which is much cheaper on
    a tall, narrow matrix than numpy's axis-0 reduction.
    """
    arr = np.asarray(matrix, dtype=float)
    mass = np.ones(arr.shape[0]) @ arr
    smallest = float(arr.min())
    negative = int((arr < 0.0).sum()) if smallest < 0.0 else 0
    return float(np.abs(mass - 1.0).max()), smallest, negative
