"""Shared ndarray kernels: the single numerical source of truth.

Every operation of the library exists in exactly one place — here — as a
plain function over ``numpy.ndarray`` operands.  Two execution modes consume
these kernels:

* the **autograd engine** (:class:`repro.tensor.Tensor`): each ``Tensor`` op
  calls the kernel for its forward payload and records the op, whose
  backward is its entry in :data:`repro.tensor.gradients.GRADIENTS`;
* the **graph-free inference runtime** (:mod:`repro.runtime`): a compiled
  plan replays the recorded kernel calls directly on raw arrays with
  preallocated output buffers, paying no ``Tensor`` construction or parent
  bookkeeping per op.

Because both modes run the *same* kernel code in the *same* order, a
float64 compiled forward pass is bit-identical to the autograd forward pass
(max|diff| == 0; see ``tests/runtime/test_fusion.py`` and
``tests/runtime/test_sparse_aggregation.py``).  A float32 plan
stays within rtol/atol 1e-4 of it (``tests/runtime/test_precision.py``).

Conventions
-----------
* Kernels take their array operands positionally, then ``out`` (an optional
  preallocated result buffer), then constant keyword arguments.
* When ``out`` is ``None`` the kernel allocates; otherwise it writes into
  ``out`` and returns it.  View-producing kernels (``reshape``,
  ``transpose``, ``squeeze``, ``unsqueeze``, ``getitem``) ignore ``out`` and
  return a (possibly zero-copy) view of their input.
* The :data:`KERNELS` registry maps the op names recorded by the autograd
  layer (see ``Tensor._make``) to the kernel callables, which is what the
  runtime compiler resolves against.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "KERNELS",
    "VIEW_OPS",
    "FUSABLE_ELEMENTWISE",
    "add",
    "reshape_copy",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_scalar",
    "matmul",
    "spmm",
    "reshape",
    "transpose",
    "squeeze",
    "unsqueeze",
    "broadcast",
    "getitem",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "exp",
    "log",
    "sqrt",
    "absolute",
    "tanh",
    "sigmoid",
    "relu",
    "leaky_relu",
    "clip",
    "maximum",
    "where",
    "concat",
    "stack",
    "pad",
    "softmax",
    "log_softmax",
    "layer_norm",
    "layer_norm_stats",
    "fused_elementwise",
    "tanh_backward",
    "sigmoid_backward",
    "softmax_backward",
    "log_softmax_backward",
    "layer_norm_backward",
]


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def add(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Element-wise ``a + b`` with NumPy broadcasting."""
    return np.add(a, b, out=out)


def sub(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Element-wise ``a - b``."""
    return np.subtract(a, b, out=out)


def mul(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Element-wise ``a * b``."""
    return np.multiply(a, b, out=out)


def div(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Element-wise ``a / b``."""
    return np.divide(a, b, out=out)


def neg(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Element-wise negation."""
    return np.negative(a, out=out)


def pow_scalar(a: np.ndarray, out: Optional[np.ndarray] = None, *, exponent: float = 1.0) -> np.ndarray:
    """Element-wise power with a Python scalar exponent."""
    return np.power(a, exponent, out=out)


def matmul(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Matrix product supporting 1-D, 2-D and batched operands."""
    if out is None:
        return a @ b
    return np.matmul(a, b, out=out)


def _csr_matvecs_fallback(n_row, n_col, n_vecs, indptr, indices, data, x, y):
    """``y += A @ x`` through the public SciPy operator (same signature)."""
    from scipy import sparse as sp

    csr = sp.csr_matrix((data, indices, indptr), shape=(n_row, n_col))
    y += (csr @ x.reshape(n_col, n_vecs)).ravel()


def _probe_csr_matvecs():
    """Resolve SciPy's raw CSR multi-vector product, verified by a self-test.

    ``csr_matvecs`` is the exact routine ``csr_matrix @ dense`` dispatches
    to, so calling it directly (accumulating into a preallocated, zeroed
    output) is bit-identical to the SciPy operator while skipping the
    wrapper's result allocation.  Falls back to the operator itself when
    the private routine is unavailable.
    """
    try:
        from scipy import sparse as sp
        from scipy.sparse import _sparsetools

        probe = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        x = np.array([[1.0], [2.0]])
        y = np.zeros((2, 1))
        _sparsetools.csr_matvecs(2, 2, 1, probe.indptr, probe.indices, probe.data, x.ravel(), y.ravel())
        if np.array_equal(y, probe @ x):
            return _sparsetools.csr_matvecs
    except Exception:
        pass
    return _csr_matvecs_fallback


_CSR_MATVECS = _probe_csr_matvecs()


def spmm(dense: np.ndarray, out: Optional[np.ndarray] = None, *, matrix=None) -> np.ndarray:
    """Constant-sparse times dense: ``matrix @ dense``, batched over rows.

    ``matrix`` is a :class:`repro.graph.sparse.SparseMatrix` of shape
    ``(M, K)`` captured as a plan constant; ``dense`` is ``(K, F)`` or
    ``(B, K, F)`` and the result ``(M, F)`` or ``(B, M, F)``.  Each batch
    row accumulates straight into ``out[b]`` through SciPy's
    ``csr_matvecs`` (the routine the ``@`` operator itself uses), so no
    layout change is made on either side; a 2-D ``dense`` is the ``B = 1``
    view of the same loop.  Every output element sums the same terms in the
    same order as the product of the flattened ``(K, B*F)`` operand, so the
    numbers equal that product bit for bit.  A non-contiguous ``dense`` is
    copied once, and a non-contiguous ``out`` receives a contiguous result.

    Dtype-polymorphic: a non-float64 ``dense`` (a float32 precision-policy
    plan) multiplies against the matrix's cached same-dtype value array
    (:meth:`~repro.graph.sparse.SparseMatrix.with_dtype`) so the whole
    product — values, accumulator, result — runs at the plan's precision
    instead of silently upcasting the hot path.
    """
    if matrix.csr.dtype != dense.dtype:
        matrix = matrix.with_dtype(dense.dtype)
    csr = matrix.csr
    rows, cols = csr.shape
    if dense.ndim not in (2, 3) or dense.shape[-2] != cols:
        raise ValueError(
            f"dimension mismatch: sparse {csr.shape} @ dense {dense.shape} "
            "(dense must be (K, F) or (B, K, F))"
        )
    batch = dense.shape[0] if dense.ndim == 3 else 1
    features = dense.shape[-1]
    shape = dense.shape[:-2] + (rows, features)
    if out is None:
        out = np.empty(shape, dtype=dense.dtype)
    target = out
    if not (out.flags.c_contiguous and out.dtype == dense.dtype):
        target = np.empty(shape, dtype=dense.dtype)
    source = np.ascontiguousarray(dense).reshape(batch, cols * features)
    result = target.reshape(batch, rows * features)
    result.fill(0.0)
    for b in range(batch):
        _CSR_MATVECS(rows, cols, features, csr.indptr, csr.indices, csr.data, source[b], result[b])
    if target is not out:
        np.copyto(out, target)
    return out


# ----------------------------------------------------------------------
# Views / structural reshaping (ignore ``out``; may return views)
# ----------------------------------------------------------------------
def reshape(a: np.ndarray, out: Optional[np.ndarray] = None, *, shape: Tuple[int, ...] = ()) -> np.ndarray:
    """Reshape to ``shape`` (zero-copy for contiguous input)."""
    return a.reshape(shape)


def reshape_copy(a: np.ndarray, out: Optional[np.ndarray] = None, *, shape: Tuple[int, ...] = ()) -> np.ndarray:
    """Reshape that must copy (non-contiguous source), buffer-friendly.

    The runtime compiler rewrites ``reshape`` steps whose traced result was
    a copy to this kernel so the copy lands in the reused workspace buffer
    instead of a fresh allocation per call.
    """
    if out is None:
        return a.reshape(shape)
    np.copyto(out.reshape(a.shape), a)
    return out


def transpose(a: np.ndarray, out: Optional[np.ndarray] = None, *, axes: Tuple[int, ...] = ()) -> np.ndarray:
    """Permute axes (always a view)."""
    return a.transpose(axes)


def squeeze(a: np.ndarray, out: Optional[np.ndarray] = None, *, axis=None) -> np.ndarray:
    """Drop length-one axes (a view)."""
    return a.squeeze() if axis is None else a.squeeze(axis)


def unsqueeze(a: np.ndarray, out: Optional[np.ndarray] = None, *, axis: int = 0) -> np.ndarray:
    """Insert a length-one axis (a view)."""
    return np.expand_dims(a, axis)


def broadcast(a: np.ndarray, out: Optional[np.ndarray] = None, *, shape: Tuple[int, ...] = ()) -> np.ndarray:
    """Materialised broadcast of ``a`` to ``shape``."""
    if out is None:
        return np.broadcast_to(a, shape).copy()
    np.copyto(out, a)
    return out


def getitem(a: np.ndarray, out: Optional[np.ndarray] = None, *, index=None) -> np.ndarray:
    """Basic or advanced indexing (a view for basic slices)."""
    return a[index]


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def reduce_sum(a: np.ndarray, out: Optional[np.ndarray] = None, *, axis=None, keepdims: bool = False) -> np.ndarray:
    """Sum over ``axis`` (or all elements)."""
    return np.sum(a, axis=axis, keepdims=keepdims, out=out)


def reduce_mean(a: np.ndarray, out: Optional[np.ndarray] = None, *, axis=None, keepdims: bool = False) -> np.ndarray:
    """Arithmetic mean over ``axis`` (or all elements)."""
    return np.mean(a, axis=axis, keepdims=keepdims, out=out)


def reduce_max(a: np.ndarray, out: Optional[np.ndarray] = None, *, axis=None, keepdims: bool = False) -> np.ndarray:
    """Maximum over ``axis`` (or all elements)."""
    return np.max(a, axis=axis, keepdims=keepdims, out=out)


# ----------------------------------------------------------------------
# Element-wise functions
# ----------------------------------------------------------------------
def exp(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Element-wise exponential."""
    return np.exp(a, out=out)


def log(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Element-wise natural logarithm."""
    return np.log(a, out=out)


def sqrt(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Element-wise square root."""
    return np.sqrt(a, out=out)


def absolute(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Element-wise absolute value."""
    return np.abs(a, out=out)


def tanh(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Element-wise hyperbolic tangent."""
    return np.tanh(a, out=out)


def sigmoid(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-a))``.

    The op sequence (negate, exp, add 1, reciprocal-divide) mirrors the
    original autograd expression exactly so both modes agree bit-for-bit.
    """
    if out is None:
        return 1.0 / (1.0 + np.exp(-a))
    np.negative(a, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)
    return out


def relu(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Rectified linear unit as a mask multiply (matches the autograd op).

    The mask stays boolean: ``float * bool`` promotes each element to the
    identical 0.0/1.0 factor the autograd op uses, with an 8x smaller
    temporary.
    """
    return np.multiply(a, a > 0, out=out)


def leaky_relu(a: np.ndarray, out: Optional[np.ndarray] = None, *, negative_slope: float = 0.01) -> np.ndarray:
    """Leaky ReLU via the same slope-mask multiply the autograd op uses.

    The mask is built in ``a``'s dtype: ``np.where(a > 0, 1.0, slope)``
    would materialise a float64 mask for a float32 operand and upcast the
    multiply off the precision policy's bandwidth budget.
    """
    mask = np.where(a > 0, a.dtype.type(1.0), a.dtype.type(negative_slope))
    return np.multiply(a, mask, out=out)


def clip(a: np.ndarray, out: Optional[np.ndarray] = None, *, minimum=None, maximum=None) -> np.ndarray:
    """Clamp values into ``[minimum, maximum]``."""
    return np.clip(a, minimum, maximum, out=out)


def maximum(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Element-wise maximum."""
    return np.maximum(a, b, out=out)


def where(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None, *, condition=None) -> np.ndarray:
    """Select ``a`` where ``condition`` holds, else ``b`` (condition constant)."""
    result = np.where(condition, a, b)
    if out is None:
        return result
    np.copyto(out, result)
    return out


# ----------------------------------------------------------------------
# Multi-operand structural ops
# ----------------------------------------------------------------------
def concat(*arrays: np.ndarray, out: Optional[np.ndarray] = None, axis: int = 0) -> np.ndarray:
    """Concatenate along an existing axis."""
    return np.concatenate(arrays, axis=axis, out=out)


def stack(*arrays: np.ndarray, out: Optional[np.ndarray] = None, axis: int = 0) -> np.ndarray:
    """Stack along a new axis."""
    return np.stack(arrays, axis=axis, out=out)


def pad(a: np.ndarray, out: Optional[np.ndarray] = None, *, pad_width=(), value: float = 0.0) -> np.ndarray:
    """Constant-pad ``a`` (NumPy ``pad_width`` convention)."""
    if out is None:
        return np.pad(a, pad_width, mode="constant", constant_values=value)
    out.fill(value)
    interior = tuple(
        slice(before, out.shape[axis] - after) for axis, (before, after) in enumerate(pad_width)
    )
    out[interior] = a
    return out


# ----------------------------------------------------------------------
# Fused elementwise chains
# ----------------------------------------------------------------------

#: Ops the runtime compiler may merge into one ``fused_elementwise`` step.
#: All of them are shape-preserving elementwise kernels whose ``out=`` form
#: may alias an input, which is what lets a chain run in a single buffer.
FUSABLE_ELEMENTWISE = frozenset(
    {
        "add", "sub", "mul", "div", "neg", "pow", "exp", "sqrt", "abs",
        "tanh", "sigmoid", "relu", "leaky_relu", "clip",
    }
)

#: Block size (elements) of the chain interpreter and the blocked
#: ``layer_norm``: 65536 float64 = 512 KiB, small enough to stay resident
#: in L2 across every instruction of a chain while amortising the
#: per-block ufunc dispatch (measured best on the benchmark box among
#: 4K-1M element blocks).
_BLOCK_ELEMENTS = 65536


def fused_elementwise(*arrays, out: Optional[np.ndarray] = None, chain=()) -> np.ndarray:
    """Run a pre-compiled chain of elementwise kernels in one buffer.

    ``chain`` is a tuple of ``(name, kernel, operand_refs, kwargs)``
    instructions produced by the runtime compiler's fusion pass.  An operand
    reference is an index into ``arrays`` (the chain's external inputs) or
    ``-1`` for the running value of the chain.  Every instruction writes
    into the same destination, so a chain of N ops allocates nothing and —
    on the blocked path — touches main memory like a single pass: the
    destination is processed in L2-sized row blocks, and all N instructions
    run on a block while it is cache-resident before moving on.

    Because every instruction executes the same kernel on the same operand
    values as the unfused plan (NumPy elementwise ufuncs are well-defined
    under output aliasing and independent across elements), fused results
    are bit-identical to the unfused — and therefore to the autograd —
    forward pass.

    The blocked path requires external operands that either match the
    output shape (sliced along axis 0 with the block) or broadcast without
    involving axis 0 (passed whole); anything else falls back to whole-array
    execution, which is numerically identical.
    """
    if out is None:
        _, kernel, refs, kwargs = chain[0]
        acc = kernel(*[arrays[ref] for ref in refs], **kwargs)
        for _, kernel, refs, kwargs in chain[1:]:
            kernel(*[acc if ref < 0 else arrays[ref] for ref in refs], out=acc, **kwargs)
        return acc

    rows = out.shape[0] if out.ndim else 0
    row_elements = out.size // rows if rows else 0
    blockable = (
        rows > 1
        and row_elements > 0
        and out.flags.c_contiguous
        and out.size > _BLOCK_ELEMENTS
    )
    sliced: Tuple[bool, ...] = ()
    if blockable:
        flags = []
        for array in arrays:
            if array.shape == out.shape:
                flags.append(True)
            elif array.ndim < out.ndim or array.ndim == 0 or array.shape[0] == 1:
                flags.append(False)  # broadcasts identically within any block
            else:
                blockable = False
                break
        sliced = tuple(flags)

    if not blockable:
        for _, kernel, refs, kwargs in chain:
            kernel(*[out if ref < 0 else arrays[ref] for ref in refs], out=out, **kwargs)
        return out

    step = max(1, _BLOCK_ELEMENTS // row_elements)
    for start in range(0, rows, step):
        window = slice(start, start + step)
        acc = out[window]
        for _, kernel, refs, kwargs in chain:
            kernel(
                *[
                    acc if ref < 0 else (arrays[ref][window] if sliced[ref] else arrays[ref])
                    for ref in refs
                ],
                out=acc,
                **kwargs,
            )
    return out


# ----------------------------------------------------------------------
# Fused neural-network kernels
# ----------------------------------------------------------------------

def _reduce_dtype(dtype) -> Optional[np.dtype]:
    """Accumulator dtype for numerically sensitive reductions.

    Float32 plans (the runtime's precision policy) keep every elementwise
    pass and matmul at single precision for bandwidth, but the *reductions*
    inside softmax / log-softmax / layer norm — exp-sums and variances over
    hundreds of elements — accumulate in float64 and cast the (small,
    keepdims-shaped) result back.  The extra cost is one double-width
    accumulator register per lane; the alternative is a relative error that
    grows with the reduction length.  Float64 inputs return ``None`` so the
    double-precision path stays byte-for-byte what it always was.
    """
    return np.float64 if dtype == np.float32 else None


def softmax(a: np.ndarray, out: Optional[np.ndarray] = None, *, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    The shift / exp / normalise sequence reproduces the historical composed
    implementation (``x - max``, ``exp``, ``/ sum``) operation for operation.
    Float32 operands accumulate the exp-sum in float64 (see
    :func:`_reduce_dtype`).
    """
    shift = np.max(a, axis=axis, keepdims=True)
    if out is None:
        out = np.subtract(a, shift)
    else:
        np.subtract(a, shift, out=out)
    np.exp(out, out=out)
    accumulator = _reduce_dtype(out.dtype)
    if accumulator is None:
        total = np.sum(out, axis=axis, keepdims=True)
    else:
        total = np.sum(out, axis=axis, keepdims=True, dtype=accumulator).astype(out.dtype)
    np.divide(out, total, out=out)
    return out


def log_softmax(a: np.ndarray, out: Optional[np.ndarray] = None, *, axis: int = -1) -> np.ndarray:
    """Logarithm of the softmax along ``axis`` (stable shifted form).

    Float32 operands accumulate the exp-sum in float64 (see
    :func:`_reduce_dtype`).
    """
    shift = np.max(a, axis=axis, keepdims=True)
    if out is None:
        out = np.subtract(a, shift)
    else:
        np.subtract(a, shift, out=out)
    accumulator = _reduce_dtype(out.dtype)
    if accumulator is None:
        total = np.sum(np.exp(out), axis=axis, keepdims=True)
        np.subtract(out, np.log(total), out=out)
    else:
        total = np.sum(np.exp(out), axis=axis, keepdims=True, dtype=accumulator)
        np.subtract(out, np.log(total).astype(out.dtype), out=out)
    return out


def layer_norm_stats(a: np.ndarray, axes: Tuple[int, ...], eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(x_hat, sigma)`` of layer normalisation over ``axes``.

    ``x_hat`` is the normalised input and ``sigma`` the (biased) standard
    deviation with ``keepdims`` shape — the two quantities both the forward
    pass and the analytic backward need.  The op sequence matches the
    historical composed implementation (mean, centred square mean, sqrt).
    """
    mean = np.mean(a, axis=axes, keepdims=True)
    centered = a - mean
    variance = np.mean(centered * centered, axis=axes, keepdims=True)
    sigma = np.sqrt(variance + eps)
    return centered / sigma, sigma


def layer_norm(
    a: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    out: Optional[np.ndarray] = None,
    *,
    axes: Tuple[int, ...] = (),
    eps: float = 1e-5,
) -> np.ndarray:
    """Fused layer normalisation ``x_hat * weight + bias`` over ``axes``.

    With ``out`` the centring, normalisation and affine steps run in place
    in the buffer (one full-size temporary instead of three); the op
    sequence is the same as :func:`layer_norm_stats`, so the results agree
    bit for bit.
    """
    axes = tuple(axes)
    if out is None:
        x_hat, _ = layer_norm_stats(a, axes, eps)
        out = np.multiply(x_hat, weight)
        np.add(out, bias, out=out)
        return out
    # Rows (leading axis entries) are normalised independently whenever the
    # reduction axes exclude axis 0, so the five passes below can run on
    # L2-sized row blocks: every pass over a block hits cache instead of
    # main memory, and the per-row reductions are untouched, keeping the
    # result bit-identical to the whole-array sequence.
    rows = a.shape[0] if a.ndim else 0
    row_elements = a.size // rows if rows else 0
    if (
        rows > 1
        and row_elements > 0
        and a.size > _BLOCK_ELEMENTS
        and all(axis > 0 for axis in axes)
    ):
        step = max(1, _BLOCK_ELEMENTS // row_elements)
        if step < rows:
            # One squared-values scratch reused by every block: the
            # centred-square pass would otherwise allocate a block-sized
            # temporary per block (tens of MB of allocator traffic per
            # forward at PEMS08 scale).
            square = np.empty((step,) + a.shape[1:], dtype=out.dtype)
            for start in range(0, rows, step):
                window = slice(start, start + step)
                block = out[window]
                _layer_norm_into(
                    a[window], weight, bias, block, axes, eps,
                    square=square[: block.shape[0]],
                )
            return out
    _layer_norm_into(a, weight, bias, out, axes, eps)
    return out


def _layer_norm_into(
    a: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    out: np.ndarray,
    axes: Tuple[int, ...],
    eps: float,
    square: Optional[np.ndarray] = None,
) -> None:
    """The in-buffer layer-norm pass sequence (centre, scale, affine).

    Float32 buffers accumulate the mean and variance in float64 (see
    :func:`_reduce_dtype`); the five full-size passes stay at the buffer's
    precision.
    """
    accumulator = _reduce_dtype(out.dtype)
    if accumulator is None:
        np.subtract(a, np.mean(a, axis=axes, keepdims=True), out=out)
        squared = np.multiply(out, out, out=square)
        variance = np.mean(squared, axis=axes, keepdims=True)
        np.divide(out, np.sqrt(variance + eps), out=out)
    else:
        mean = np.mean(a, axis=axes, keepdims=True, dtype=accumulator).astype(out.dtype)
        np.subtract(a, mean, out=out)
        squared = np.multiply(out, out, out=square)
        variance = np.mean(squared, axis=axes, keepdims=True, dtype=accumulator)
        np.divide(out, np.sqrt(variance + eps).astype(out.dtype), out=out)
    np.multiply(out, weight, out=out)
    np.add(out, bias, out=out)


# ----------------------------------------------------------------------
# Analytic backwards of the gradient table (repro.tensor.gradients).  Each
# maps the output gradient plus the saved forward values to the input
# gradient.  They are not plan kernels and stay out of KERNELS.
# ----------------------------------------------------------------------
def tanh_backward(grad: np.ndarray, output: np.ndarray) -> np.ndarray:
    """``d tanh``: ``g * (1 - y^2)`` from the saved output ``y``."""
    return grad * (1.0 - output ** 2)


def sigmoid_backward(grad: np.ndarray, output: np.ndarray) -> np.ndarray:
    """``d sigmoid``: ``g * y * (1 - y)`` from the saved output ``y``."""
    return grad * output * (1.0 - output)


def softmax_backward(grad: np.ndarray, output: np.ndarray, *, axis: int = -1) -> np.ndarray:
    """``d softmax``: the classic ``y * (g - sum(g * y))`` along ``axis``."""
    inner = (grad * output).sum(axis=axis, keepdims=True)
    return output * (grad - inner)


def log_softmax_backward(grad: np.ndarray, output: np.ndarray, *, axis: int = -1) -> np.ndarray:
    """``d log_softmax``: ``g - exp(y) * sum(g)`` along ``axis``."""
    return grad - np.exp(output) * grad.sum(axis=axis, keepdims=True)


def layer_norm_backward(
    grad: np.ndarray,
    x_hat: np.ndarray,
    sigma: np.ndarray,
    weight: np.ndarray,
    *,
    axes: Tuple[int, ...],
) -> np.ndarray:
    """Input gradient of the fused layer norm from its saved statistics."""
    g_w = grad * weight
    mean_g = g_w.mean(axis=axes, keepdims=True)
    mean_gx = (g_w * x_hat).mean(axis=axes, keepdims=True)
    return (g_w - mean_g - x_hat * mean_gx) / sigma


#: Op name (as recorded by the autograd layer) -> kernel callable.
KERNELS: Dict[str, object] = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "div": div,
    "neg": neg,
    "pow": pow_scalar,
    "matmul": matmul,
    "spmm": spmm,
    "reshape": reshape,
    "reshape_copy": reshape_copy,
    "transpose": transpose,
    "squeeze": squeeze,
    "unsqueeze": unsqueeze,
    "broadcast": broadcast,
    "getitem": getitem,
    "sum": reduce_sum,
    "mean": reduce_mean,
    "max": reduce_max,
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
    "abs": absolute,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "relu": relu,
    "leaky_relu": leaky_relu,
    "clip": clip,
    "maximum": maximum,
    "where": where,
    "concat": concat,
    "stack": stack,
    "pad": pad,
    "softmax": softmax,
    "log_softmax": log_softmax,
    "layer_norm": layer_norm,
    "fused_elementwise": fused_elementwise,
}

#: Ops whose kernels return views of their input — the runtime allocates no
#: workspace buffer for them.
VIEW_OPS = frozenset({"reshape", "transpose", "squeeze", "unsqueeze", "getitem"})
