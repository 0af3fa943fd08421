"""Sparse matrix support for constant graph structures.

The temporal-graph adjacency of Eq. 4 has ``(T*N)^2`` entries but only
``O(T * (||A||_0 + N))`` of them are non-zero.  Storing it sparsely and
multiplying it against activation tensors keeps both the memory footprint
and the per-layer cost linear in the graph size, which is the complexity the
paper claims for DyHSL (Section IV-D).

Only *constant* (non-learnable) matrices are stored sparsely; gradients flow
through the dense operand of :func:`sparse_matmul`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import sparse as sp

from ..tensor import Tensor, kernels

__all__ = ["SparseMatrix", "sparse_matmul"]


class SparseMatrix:
    """Immutable CSR wrapper around a constant sparse matrix.

    Parameters
    ----------
    matrix:
        Dense array or any ``scipy.sparse`` matrix.  Dense input is
        converted; explicitly stored zeros are pruned.
    """

    def __init__(self, matrix) -> None:
        if sp.issparse(matrix):
            csr = matrix.tocsr().astype(float)
        else:
            dense = np.asarray(matrix, dtype=float)
            if dense.ndim != 2:
                raise ValueError("SparseMatrix requires a 2-D matrix")
            csr = sp.csr_matrix(dense)
        csr.eliminate_zeros()
        self._matrix = csr

    @property
    def shape(self) -> Tuple[int, int]:
        """Shape of the matrix."""
        return self._matrix.shape

    @property
    def csr(self):
        """The underlying ``scipy.sparse.csr_matrix`` (treat as read-only)."""
        return self._matrix

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries (``||A||_0`` in the paper)."""
        return int(self._matrix.nnz)

    @property
    def density(self) -> float:
        """Fraction of non-zero entries."""
        rows, cols = self.shape
        total = rows * cols
        return self.nnz / total if total else 0.0

    def to_dense(self) -> np.ndarray:
        """Return a dense copy of the matrix."""
        return self._matrix.toarray()

    def transpose(self) -> "SparseMatrix":
        """Return the transposed matrix."""
        return SparseMatrix(self._matrix.T)

    def transposed(self) -> "SparseMatrix":
        """The transpose, built once and cached on the instance.

        Every ``spmm`` backward multiplies by the transpose; rebuilding the
        CSR transpose per call would cost O(nnz) each time, and caching on
        the (immutable) matrix keeps the lifetime tied to the matrix itself
        rather than any global registry.
        """
        cached = self.__dict__.get("_transposed")
        if cached is None:
            cached = self.transpose()
            self.__dict__["_transposed"] = cached
        return cached

    def with_dtype(self, dtype) -> "SparseMatrix":
        """This matrix with its values cast to ``dtype``, cached per dtype.

        The compiled runtime's float32 execution mode multiplies plan
        buffers against graph constants; casting the CSR value array per
        call would cost O(nnz) on every ``spmm`` step, so the cast copy is
        built once and cached on the (immutable) instance — same lifetime
        rationale as :meth:`transposed`.  The float64 request returns
        ``self`` so the double-precision path keeps its exact arrays.
        """
        dtype = np.dtype(dtype)
        if dtype == self._matrix.dtype:
            return self
        cache = self.__dict__.setdefault("_dtype_variants", {})
        variant = cache.get(dtype)
        if variant is None:
            # Built around the constructor: __init__ coerces values to
            # float64 (the autograd engine's dtype), which would undo the
            # cast this method exists to provide.
            variant = SparseMatrix.__new__(SparseMatrix)
            variant._matrix = self._matrix.astype(dtype)
            cache[dtype] = variant
        return variant

    def __repr__(self) -> str:
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def sparse_matmul(matrix: SparseMatrix, dense: Tensor) -> Tensor:
    """Compute ``matrix @ dense`` with gradients flowing into ``dense``.

    Parameters
    ----------
    matrix:
        Constant sparse matrix of shape ``(M, K)``.
    dense:
        Tensor of shape ``(K, F)`` or ``(B, K, F)``.

    Returns
    -------
    Tensor
        Result of shape ``(M, F)`` or ``(B, M, F)``.

    Either shape is one ``spmm`` op: :func:`repro.tensor.kernels.spmm`
    multiplies every batch row into its slice of a contiguous result with
    no transpose or copy of the operand, and the gradient is the same
    kernel applied with :meth:`SparseMatrix.transposed`.
    """
    if not isinstance(matrix, SparseMatrix):
        raise TypeError("matrix must be a SparseMatrix")
    if not isinstance(dense, Tensor):
        dense = Tensor(dense)
    data = kernels.spmm(dense.data, matrix=matrix)  # validates the operand shape
    return Tensor._make(data, (dense,), op=("spmm", {"matrix": matrix}))
