"""Tests for the Eq. 4 temporal graph and the sparse matrix support."""

import numpy as np
import pytest

from repro.graph import (
    SparseMatrix,
    build_temporal_adjacency,
    normalized_temporal_adjacency,
    normalized_temporal_csr,
    sparse_matmul,
    split_temporal_index,
    temporal_node_index,
)
from repro.tensor import Tensor


def path_adjacency(n=4):
    adjacency = np.zeros((n, n))
    for i in range(n - 1):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    return adjacency


class TestTemporalGraph:
    def test_shape_and_symmetry(self):
        temporal = build_temporal_adjacency(path_adjacency(4), num_steps=3)
        assert temporal.shape == (12, 12)
        assert np.allclose(temporal, temporal.T)

    def test_spatial_blocks_match_road_network_with_self_loops(self):
        adjacency = path_adjacency(4)
        temporal = build_temporal_adjacency(adjacency, num_steps=2)
        block = temporal[:4, :4]
        assert np.allclose(block, adjacency + np.eye(4))

    def test_temporal_edges_connect_same_location_consecutive_steps(self):
        adjacency = path_adjacency(3)
        temporal = build_temporal_adjacency(adjacency, num_steps=3)
        n = 3
        for t in range(2):
            for node in range(n):
                assert temporal[t * n + node, (t + 1) * n + node] == 1.0
        # No edge between non-consecutive time steps.
        assert temporal[0, 2 * n] == 0.0

    def test_eq4_cases(self):
        """Check the three cases of Eq. 4 explicitly."""
        adjacency = path_adjacency(3)
        temporal = build_temporal_adjacency(adjacency, num_steps=2)
        n = 3
        # t == t': spatial weight A_ij.
        assert temporal[0, 1] == adjacency[0, 1]
        # i == j, t' = t + 1: temporal edge of weight 1.
        assert temporal[1, n + 1] == 1.0
        # otherwise: zero (different node, different time step).
        assert temporal[0, n + 2] == 0.0

    def test_normalised_rows_sum_to_one(self):
        normalised = normalized_temporal_adjacency(path_adjacency(5), num_steps=4)
        assert np.allclose(normalised.sum(axis=1), 1.0)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            build_temporal_adjacency(path_adjacency(3), num_steps=0)
        with pytest.raises(ValueError):
            normalized_temporal_csr(path_adjacency(3), num_steps=0)

    @pytest.mark.parametrize("kind", ["binary", "weighted", "isolated"])
    def test_sparse_build_equals_the_dense_path_bit_for_bit(self, kind):
        rng = np.random.default_rng(7)
        n = 47  # from T = 6 on, T * n rows span several degree chunks
        adjacency = (rng.random((n, n)) < 0.15).astype(float)
        if kind != "binary":
            adjacency *= rng.random((n, n)) * 3.7
        if kind == "isolated":
            adjacency[4, :] = adjacency[:, 4] = 0.0
        for num_steps in range(1, 13):
            dense = SparseMatrix(normalized_temporal_adjacency(adjacency, num_steps)).csr
            built = normalized_temporal_csr(adjacency, num_steps)
            sparse = SparseMatrix(built).csr
            assert built.has_sorted_indices
            for name in ("indptr", "indices", "data"):
                expected, got = getattr(dense, name), getattr(sparse, name)
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes(), (num_steps, name)

    def test_index_roundtrip(self):
        index = temporal_node_index(time_step=2, location=1, num_nodes=5)
        assert index == 11
        assert split_temporal_index(index, num_nodes=5) == (2, 1)

    def test_index_validation(self):
        with pytest.raises(IndexError):
            temporal_node_index(0, 9, num_nodes=5)
        with pytest.raises(IndexError):
            temporal_node_index(-1, 0, num_nodes=5)
        with pytest.raises(IndexError):
            split_temporal_index(-1, num_nodes=5)


class TestSparseMatrix:
    def test_round_trip_and_nnz(self):
        dense = np.array([[0.0, 2.0], [0.0, 0.0]])
        sparse = SparseMatrix(dense)
        assert sparse.nnz == 1
        assert sparse.density == pytest.approx(0.25)
        assert np.allclose(sparse.to_dense(), dense)
        assert np.allclose(sparse.transpose().to_dense(), dense.T)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            SparseMatrix(np.zeros(3))

    def test_sparse_matmul_matches_dense_2d(self):
        rng = np.random.default_rng(0)
        dense_matrix = (rng.random((6, 6)) < 0.3) * rng.random((6, 6))
        operand = rng.normal(size=(6, 4))
        x = Tensor(operand.copy(), requires_grad=True)
        out = sparse_matmul(SparseMatrix(dense_matrix), x)
        assert np.allclose(out.numpy(), dense_matrix @ operand)
        out.sum().backward()
        assert np.allclose(x.grad, dense_matrix.T @ np.ones((6, 4)))

    def test_sparse_matmul_matches_dense_batched(self):
        rng = np.random.default_rng(1)
        dense_matrix = (rng.random((5, 5)) < 0.4) * rng.random((5, 5))
        operand = rng.normal(size=(3, 5, 2))
        x = Tensor(operand.copy(), requires_grad=True)
        out = sparse_matmul(SparseMatrix(dense_matrix), x)
        expected = np.einsum("ij,bjf->bif", dense_matrix, operand)
        assert np.allclose(out.numpy(), expected)
        out.sum().backward()
        assert x.grad.shape == operand.shape

    def test_sparse_matmul_batched_gradcheck(self):
        """Central finite differences of a weighted loss over (B, K, F) input."""
        rng = np.random.default_rng(2)
        matrix = SparseMatrix((rng.random((4, 6)) < 0.5) * rng.normal(size=(4, 6)))
        operand = rng.normal(size=(3, 6, 2))
        weights = rng.normal(size=(3, 4, 2))

        def loss() -> float:
            return float((sparse_matmul(matrix, Tensor(operand)).numpy() * weights).sum())

        x = Tensor(operand.copy(), requires_grad=True)
        (sparse_matmul(matrix, x) * Tensor(weights)).sum().backward()
        eps = 1e-6
        numeric = np.zeros_like(operand)
        for index in np.ndindex(operand.shape):
            original = operand[index]
            operand[index] = original + eps
            plus = loss()
            operand[index] = original - eps
            minus = loss()
            operand[index] = original
            numeric[index] = (plus - minus) / (2.0 * eps)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-6, atol=1e-8)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            sparse_matmul(SparseMatrix(np.eye(3)), Tensor(np.zeros((4, 2))))
        with pytest.raises(ValueError):
            sparse_matmul(SparseMatrix(np.eye(3)), Tensor(np.zeros((2, 4, 2))))

    def test_wrong_types_raise(self):
        with pytest.raises(TypeError):
            sparse_matmul(np.eye(3), Tensor(np.zeros((3, 2))))
        with pytest.raises(ValueError):
            sparse_matmul(SparseMatrix(np.eye(3)), Tensor(np.zeros(3)))
