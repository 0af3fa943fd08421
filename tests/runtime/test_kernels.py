"""Kernel-layer contracts: out= buffers, fused primitives, gradients.

The kernels in :mod:`repro.tensor.kernels` are the single numerical source
of truth for both execution modes, so two properties are load-bearing:

* writing into a preallocated ``out`` buffer must produce exactly the same
  bits as the allocating call (the runtime replays every op through ``out``);
* the new fused primitives (softmax, log_softmax, layer_norm) must have
  analytic gradients that match central finite differences, because the
  autograd engine no longer composes them from elementary ops.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse as sp

from repro.graph.sparse import SparseMatrix
from repro.tensor import Tensor, kernels as K, ops


RNG = np.random.default_rng(42)


def _numerical_grad(array: np.ndarray, loss_fn, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(array)
    flat, grad_flat = array.reshape(-1), grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = loss_fn()
        flat[index] = original - eps
        minus = loss_fn()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2.0 * eps)
    return grad


class TestOutBufferEquivalence:
    """out= writes must be bit-identical to the allocating call."""

    @pytest.mark.parametrize(
        "name, build",
        [
            ("add", lambda: (RNG.normal(size=(3, 4)), RNG.normal(size=(4,)))),
            ("sub", lambda: (RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4)))),
            ("mul", lambda: (RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4,)))),
            ("div", lambda: (RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4)) + 2.0)),
            ("neg", lambda: (RNG.normal(size=(5,)),)),
            ("exp", lambda: (RNG.normal(size=(3, 3)),)),
            ("log", lambda: (RNG.random((3, 3)) + 0.5,)),
            ("sqrt", lambda: (RNG.random((3, 3)) + 0.1,)),
            ("abs", lambda: (RNG.normal(size=(3, 3)),)),
            ("tanh", lambda: (RNG.normal(size=(3, 3)),)),
            ("sigmoid", lambda: (RNG.normal(size=(3, 3)),)),
            ("relu", lambda: (RNG.normal(size=(3, 3)),)),
            ("maximum", lambda: (RNG.normal(size=(3, 3)), RNG.normal(size=(3, 3)))),
            ("matmul", lambda: (RNG.normal(size=(4, 3, 5)), RNG.normal(size=(5, 2)))),
        ],
    )
    def test_elementwise_and_matmul(self, name, build):
        arrays = build()
        kernel = K.KERNELS[name]
        expected = kernel(*arrays)
        out = np.empty_like(expected)
        result = kernel(*arrays, out=out)
        assert result is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("axis, keepdims", [(None, False), (0, False), ((0, 2), True)])
    def test_reductions(self, axis, keepdims):
        a = RNG.normal(size=(3, 4, 5))
        for name in ("sum", "mean", "max"):
            kernel = K.KERNELS[name]
            expected = np.asarray(kernel(a, axis=axis, keepdims=keepdims))
            out = np.empty(expected.shape, dtype=expected.dtype)
            kernel(a, out=out, axis=axis, keepdims=keepdims)
            assert np.array_equal(out, expected)

    def test_softmax_and_log_softmax(self):
        a = RNG.normal(size=(4, 6)) * 3.0
        for name in ("softmax", "log_softmax"):
            kernel = K.KERNELS[name]
            expected = kernel(a, axis=-1)
            out = np.empty_like(expected)
            kernel(a, out=out, axis=-1)
            assert np.array_equal(out, expected)

    def test_softmax_matches_historical_composition(self):
        a = RNG.normal(size=(4, 6)) * 3.0
        shifted = a - a.max(axis=-1, keepdims=True)
        exps = np.exp(shifted)
        assert np.array_equal(K.softmax(a, axis=-1), exps / exps.sum(axis=-1, keepdims=True))

    def test_layer_norm_out_matches_stats_path(self):
        a = RNG.normal(size=(2, 5, 8))
        weight = RNG.normal(size=(8,))
        bias = RNG.normal(size=(8,))
        expected = K.layer_norm(a, weight, bias, axes=(2,), eps=1e-5)
        out = np.empty_like(a)
        K.layer_norm(a, weight, bias, out=out, axes=(2,), eps=1e-5)
        assert np.array_equal(out, expected)

    def test_pad_out_matches_np_pad(self):
        a = RNG.normal(size=(3, 4))
        pad_width = ((1, 2), (0, 3))
        expected = np.pad(a, pad_width, mode="constant", constant_values=1.5)
        out = np.empty(expected.shape)
        K.pad(a, out=out, pad_width=pad_width, value=1.5)
        assert np.array_equal(out, expected)

    def test_concat_and_stack_out(self):
        parts = [RNG.normal(size=(2, 3)) for _ in range(3)]
        expected = np.concatenate(parts, axis=1)
        out = np.empty_like(expected)
        K.concat(*parts, out=out, axis=1)
        assert np.array_equal(out, expected)
        expected = np.stack(parts, axis=0)
        out = np.empty_like(expected)
        K.stack(*parts, out=out, axis=0)
        assert np.array_equal(out, expected)

    def test_reshape_copy_from_non_contiguous(self):
        a = RNG.normal(size=(3, 4, 5)).transpose(2, 0, 1)
        expected = a.reshape(5, 12)
        out = np.empty((5, 12))
        K.reshape_copy(a, out=out, shape=(5, 12))
        assert np.array_equal(out, expected)

    def test_spmm_out_matches_scipy_product(self):
        dense_matrix = (RNG.random((7, 7)) < 0.4) * RNG.normal(size=(7, 7))
        matrix = SparseMatrix(dense_matrix)
        operand = np.ascontiguousarray(RNG.normal(size=(7, 9)))
        expected = matrix.csr @ operand
        out = np.empty((7, 9))
        K.spmm(operand, out=out, matrix=matrix)
        assert np.array_equal(out, expected)
        # Non-contiguous operand falls back to the copying path.
        strided = np.asfortranarray(operand)
        out2 = np.empty((7, 9))
        K.spmm(strided, out=out2, matrix=matrix)
        assert np.allclose(out2, expected, atol=1e-12)


class TestBatchedSpmm:
    """3-D ``spmm`` against the product of the flattened ``(K, B*F)`` operand."""

    @staticmethod
    def _flattened(matrix, operand):
        batch, rows, features = operand.shape
        flat = np.ascontiguousarray(operand.transpose(1, 0, 2)).reshape(rows, batch * features)
        product = matrix.with_dtype(operand.dtype).csr @ flat
        return np.ascontiguousarray(
            product.reshape(matrix.shape[0], batch, features).transpose(1, 0, 2)
        )

    @pytest.fixture()
    def matrix(self):
        rng = np.random.default_rng(3)
        return SparseMatrix((rng.random((11, 8)) < 0.35) * rng.normal(size=(11, 8)))

    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_float64_is_bit_identical(self, matrix, batch):
        operand = np.random.default_rng(batch).normal(size=(batch, 8, 5))
        expected = self._flattened(matrix, operand)
        assert np.array_equal(K.spmm(operand, matrix=matrix), expected)
        out = np.full((batch, 11, 5), np.nan)
        assert K.spmm(operand, out=out, matrix=matrix) is out
        assert np.array_equal(out, expected)

    def test_float32_matches(self, matrix):
        operand = np.random.default_rng(4).normal(size=(6, 8, 5)).astype(np.float32)
        produced = K.spmm(operand, matrix=matrix)
        assert produced.dtype == np.float32
        np.testing.assert_allclose(produced, self._flattened(matrix, operand), rtol=1e-6, atol=1e-6)

    def test_non_contiguous_operand_and_out(self, matrix):
        base = np.random.default_rng(5).normal(size=(4, 5, 8))
        operand = base.transpose(0, 2, 1)  # (4, 8, 5) strided view
        assert not operand.flags.c_contiguous
        expected = self._flattened(matrix, operand)
        assert np.array_equal(K.spmm(operand, matrix=matrix), expected)
        holder = np.full((4, 5, 11), np.nan)
        out = holder.transpose(0, 2, 1)  # (4, 11, 5) strided view
        assert K.spmm(operand, out=out, matrix=matrix) is out
        assert np.array_equal(out, expected)

    def test_2d_is_the_single_batch_row(self, matrix):
        operand = np.random.default_rng(6).normal(size=(8, 5))
        assert np.array_equal(K.spmm(operand, matrix=matrix), K.spmm(operand[None], matrix=matrix)[0])

    def test_dimension_mismatch_raises(self, matrix):
        with pytest.raises(ValueError, match="dimension mismatch"):
            K.spmm(np.zeros((2, 11, 5)), matrix=matrix)

    def test_public_operator_fallback_is_bit_identical(self, matrix, monkeypatch):
        operand = np.random.default_rng(7).normal(size=(3, 8, 5))
        expected = K.spmm(operand, matrix=matrix)
        monkeypatch.setattr(K, "_CSR_MATVECS", K._csr_matvecs_fallback)
        assert np.array_equal(K.spmm(operand, matrix=matrix), expected)


class TestFusedPrimitiveGradients:
    """Analytic backward of the new primitives vs. finite differences."""

    def test_softmax_gradient(self):
        value = RNG.normal(size=(3, 5))
        weights = np.cos(np.arange(15.0)).reshape(3, 5) + 0.4

        x = Tensor(value.copy(), requires_grad=True)
        (x.softmax(axis=-1) * Tensor(weights)).sum().backward()

        def loss():
            return float((K.softmax(value, axis=-1) * weights).sum())

        numeric = _numerical_grad(value, loss)
        assert np.allclose(x.grad, numeric, atol=1e-6)

    def test_log_softmax_gradient(self):
        value = RNG.normal(size=(4, 3))
        weights = np.sin(np.arange(12.0)).reshape(4, 3) + 0.7

        x = Tensor(value.copy(), requires_grad=True)
        (x.log_softmax(axis=-1) * Tensor(weights)).sum().backward()

        def loss():
            return float((K.log_softmax(value, axis=-1) * weights).sum())

        numeric = _numerical_grad(value, loss)
        assert np.allclose(x.grad, numeric, atol=1e-6)

    def test_layer_norm_gradients(self):
        value = RNG.normal(size=(2, 3, 6))
        weight_value = RNG.normal(size=(6,)) + 1.0
        bias_value = RNG.normal(size=(6,))
        loss_weights = np.cos(np.arange(36.0)).reshape(2, 3, 6) + 0.5

        x = Tensor(value.copy(), requires_grad=True)
        weight = Tensor(weight_value.copy(), requires_grad=True)
        bias = Tensor(bias_value.copy(), requires_grad=True)
        (ops.layer_norm(x, weight, bias) * Tensor(loss_weights)).sum().backward()

        def loss():
            return float(
                (K.layer_norm(value, weight_value, bias_value, axes=(2,), eps=1e-5) * loss_weights).sum()
            )

        for array, analytic in ((value, x.grad), (weight_value, weight.grad), (bias_value, bias.grad)):
            numeric = _numerical_grad(array, loss)
            assert np.allclose(analytic, numeric, atol=1e-6)

    def test_layer_norm_matches_composed_forward(self):
        """The fused forward must equal the historical composed formulation."""
        x = Tensor(RNG.normal(size=(3, 4, 8)))
        weight = Tensor(RNG.normal(size=(8,)))
        bias = Tensor(RNG.normal(size=(8,)))
        mean = x.mean(axis=(2,), keepdims=True)
        variance = x.var(axis=(2,), keepdims=True)
        composed = (x - mean) / (variance + 1e-5).sqrt() * weight + bias
        fused = ops.layer_norm(x, weight, bias, eps=1e-5)
        assert np.array_equal(fused.data, composed.data)

    def test_layer_norm_shape_validation(self):
        x = Tensor(RNG.normal(size=(2, 4)))
        with pytest.raises(ValueError):
            ops.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        with pytest.raises(ValueError):
            ops.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(3)))
