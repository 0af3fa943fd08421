"""Structural tensor operations used by the models.

These free functions complement the methods defined on
:class:`repro.tensor.Tensor` with operations that combine several tensors
(concatenation, stacking) or reshape data in ways that appear in the DyHSL
architecture and the baselines (padding for temporal convolutions, unfolding
for pooling windows, one-hot encodings for embeddings).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import kernels as K
from .tensor import Tensor

__all__ = [
    "concatenate",
    "stack",
    "split",
    "pad",
    "where",
    "outer",
    "unfold_windows",
    "one_hot",
    "dot",
    "matmul",
    "tensordot_last",
    "layer_norm",
]


def _coerce(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis.

    The gradient of the result is split back along ``axis`` and routed to
    each input tensor.
    """
    tensors = [_coerce(t) for t in tensors]
    if not tensors:
        raise ValueError("concatenate() requires at least one tensor")
    data = K.concat(*[t.data for t in tensors], axis=axis)
    return Tensor._make(data, tuple(tensors), op=("concat", {"axis": axis}))


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [_coerce(t) for t in tensors]
    if not tensors:
        raise ValueError("stack() requires at least one tensor")
    data = K.stack(*[t.data for t in tensors], axis=axis)
    return Tensor._make(data, tuple(tensors), op=("stack", {"axis": axis}))


def split(tensor: Tensor, sections: int, axis: int = 0) -> List[Tensor]:
    """Split a tensor into ``sections`` equal chunks along ``axis``."""
    tensor = _coerce(tensor)
    size = tensor.shape[axis]
    if size % sections != 0:
        raise ValueError(f"axis of size {size} cannot be split into {sections} equal sections")
    chunk = size // sections
    outputs = []
    for i in range(sections):
        slicer = [slice(None)] * tensor.ndim
        slicer[axis] = slice(i * chunk, (i + 1) * chunk)
        outputs.append(tensor[tuple(slicer)])
    return outputs


def pad(tensor: Tensor, pad_width: Sequence[Tuple[int, int]], value: float = 0.0) -> Tensor:
    """Pad a tensor with a constant value.

    ``pad_width`` follows the NumPy convention: one ``(before, after)`` pair
    per axis.
    """
    tensor = _coerce(tensor)
    pad_width = tuple(tuple(p) for p in pad_width)
    if len(pad_width) != tensor.ndim:
        raise ValueError(
            f"pad_width has {len(pad_width)} entries but the tensor has {tensor.ndim} dimensions"
        )
    data = K.pad(tensor.data, pad_width=pad_width, value=value)
    return Tensor._make(data, (tensor,), op=("pad", {"pad_width": pad_width, "value": value}))


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Element-wise selection: ``a`` where ``condition`` is true, else ``b``.

    ``condition`` is treated as a constant (no gradient flows through it).
    """
    a, b = _coerce(a), _coerce(b)
    condition = np.asarray(condition, dtype=bool)
    data = K.where(a.data, b.data, condition=condition)
    return Tensor._make(data, (a, b), op=("where", {"condition": condition}))


def outer(a: Tensor, b: Tensor) -> Tensor:
    """Outer product of two 1-D tensors."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("outer() expects two 1-D tensors")
    return a.unsqueeze(1).matmul(b.unsqueeze(0))


def unfold_windows(tensor: Tensor, window: int, axis: int) -> Tensor:
    """Split ``axis`` into non-overlapping windows of length ``window``.

    The axis length must be divisible by ``window``; the result replaces the
    axis with two axes ``(length // window, window)``.  This is the primitive
    behind the temporal pooling of the multi-scale module (Section IV-D of
    the paper).
    """
    tensor = _coerce(tensor)
    axis = axis % tensor.ndim
    length = tensor.shape[axis]
    if length % window != 0:
        raise ValueError(
            f"axis length {length} is not divisible by the window size {window}"
        )
    new_shape = tensor.shape[:axis] + (length // window, window) + tensor.shape[axis + 1:]
    return tensor.reshape(*new_shape)


def one_hot(indices: np.ndarray, num_classes: int) -> Tensor:
    """Return a constant one-hot tensor for integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    flat = indices.reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() >= num_classes):
        raise ValueError("indices out of range for one_hot encoding")
    encoded = np.zeros((flat.size, num_classes))
    encoded[np.arange(flat.size), flat] = 1.0
    return Tensor(encoded.reshape(indices.shape + (num_classes,)))


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product of two 1-D tensors."""
    a, b = _coerce(a), _coerce(b)
    return (a * b).sum()


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Functional form of :meth:`Tensor.matmul`."""
    return _coerce(a).matmul(b)


def tensordot_last(a: Tensor, b: Tensor) -> Tensor:
    """Contract the last axis of ``a`` with the first axis of ``b``.

    Equivalent to ``numpy.tensordot(a, b, axes=1)`` and used where models mix
    features with a weight matrix while keeping arbitrary leading axes.

    Inputs of 3+ dimensions keep their batch axis: one ``(R, K)`` GEMM per
    batch row, so BLAS cannot pick a batch-size-dependent path and a row's
    output never depends on its batch.  ``R`` is explicit because an empty
    batch cannot resolve ``-1``.
    """
    a, b = _coerce(a), _coerce(b)
    lead_shape = a.shape[:-1]
    if a.ndim >= 3:
        grouped = a.reshape(lead_shape[0], int(np.prod(lead_shape[1:])), a.shape[-1])
    else:
        grouped = a.reshape(-1, a.shape[-1])
    return grouped.matmul(b).reshape(*lead_shape, b.shape[-1])


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the trailing ``weight.ndim`` axes of ``x``.

    A fused primitive: the forward payload is a single
    :func:`repro.tensor.kernels.layer_norm` call (one plan step in the
    inference runtime instead of the ~10 primitive ops of the composed
    mean/var/sqrt formulation) with the analytic backward

    .. math::
        g_x = \\frac{1}{\\sigma}\\big(g_w - \\overline{g_w}
              - \\hat{x}\\, \\overline{g_w \\hat{x}}\\big), \\qquad
        g_w = g \\odot w

    where the overline denotes the mean over the normalised axes.  The
    forward op sequence matches the historical composed implementation
    bit for bit.
    """
    x, weight, bias = _coerce(x), _coerce(weight), _coerce(bias)
    if weight.shape != bias.shape:
        raise ValueError(f"weight shape {weight.shape} does not match bias shape {bias.shape}")
    if x.ndim < weight.ndim or x.shape[x.ndim - weight.ndim:] != weight.shape:
        raise ValueError(
            f"input trailing shape {x.shape} does not end with normalized shape {weight.shape}"
        )
    axes = tuple(range(x.ndim - weight.ndim, x.ndim))
    x_hat, sigma = K.layer_norm_stats(x.data, axes, eps)
    data = np.multiply(x_hat, weight.data)
    np.add(data, bias.data, out=data)
    return Tensor._make(
        data, (x, weight, bias), op=("layer_norm", {"axes": axes, "eps": eps}), saved=(x_hat, sigma)
    )
