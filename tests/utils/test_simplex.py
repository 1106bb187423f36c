"""Tests for repro.utils.simplex, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ShapeError, ValidationError
from repro.utils.simplex import (
    is_distribution,
    normalize_distribution,
    project_columns_to_simplex,
    project_to_simplex,
    uniform_distribution,
)

nonneg_vectors = arrays(
    dtype=float,
    shape=st.integers(1, 30),
    elements=st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
)


class TestUniformDistribution:
    def test_values(self):
        assert np.allclose(uniform_distribution(4), 0.25)

    def test_sums_to_one(self):
        assert uniform_distribution(7).sum() == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            uniform_distribution(0)


class TestIsDistribution:
    def test_accepts_uniform(self):
        assert is_distribution(uniform_distribution(5))

    def test_rejects_negative(self):
        assert not is_distribution(np.array([0.5, 0.6, -0.1]))

    def test_rejects_wrong_sum(self):
        assert not is_distribution(np.array([0.5, 0.6]))

    def test_rejects_2d(self):
        assert not is_distribution(np.eye(2))

    def test_rejects_empty(self):
        assert not is_distribution(np.array([]))

    def test_tolerates_drift(self):
        assert is_distribution(np.array([0.5, 0.5 + 1e-12]))


class TestNormalizeDistribution:
    def test_basic(self):
        assert np.allclose(normalize_distribution([1, 3]), [0.25, 0.75])

    def test_zero_vector_becomes_uniform(self):
        assert np.allclose(normalize_distribution([0.0, 0.0]), [0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            normalize_distribution([-1.0, 2.0])

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            normalize_distribution(np.eye(2))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            normalize_distribution(np.array([]))

    @given(nonneg_vectors)
    def test_property_output_is_distribution(self, vector):
        assert is_distribution(normalize_distribution(vector))


class TestProjectToSimplex:
    def test_repairs_tiny_negative(self):
        result = project_to_simplex(np.array([1.0, -1e-9]))
        assert is_distribution(result)
        assert result[1] == 0.0

    def test_rejects_large_negative(self):
        with pytest.raises(ValidationError):
            project_to_simplex(np.array([1.0, -0.5]))

    def test_identity_on_simplex(self):
        x = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_to_simplex(x), x)

    @given(nonneg_vectors)
    def test_property_idempotent(self, vector):
        once = project_to_simplex(vector)
        twice = project_to_simplex(once)
        assert np.allclose(once, twice)


nonneg_matrices = arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 40), st.integers(1, 6)),
    elements=st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
)


class TestProjectColumnsToSimplex:
    @given(nonneg_matrices)
    def test_property_bitwise_equal_to_column_loop(self, matrix):
        matrix[:, 0] = 0.0  # an all-zero column becomes uniform
        matrix[0, -1] = -1e-9  # tiny drift is clipped
        got = project_columns_to_simplex(matrix)
        expected = np.column_stack(
            [project_to_simplex(matrix[:, c]) for c in range(matrix.shape[1])]
        )
        assert np.array_equal(got, expected)
        assert got.flags.c_contiguous

    def test_rejects_large_negative(self):
        with pytest.raises(ValidationError):
            project_columns_to_simplex(np.array([[1.0], [-0.5]]))

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeError):
            project_columns_to_simplex(np.array([1.0, 2.0]))
