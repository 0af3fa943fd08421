"""The gradient table: every op's backward, defined once.

:data:`GRADIENTS` maps the op names recorded by ``Tensor._make`` (the
kernel names of :data:`repro.tensor.kernels.KERNELS`) to one gradient
function per op input::

    fn(grad, inputs, output, kwargs, saved) -> contribution

``grad`` is the gradient of the op's output, ``inputs`` the op's input
arrays as they were at forward time, ``output`` its result, ``kwargs`` its
constant keyword arguments and ``saved`` whatever the forward kept for the
backward (layer norm's ``(x_hat, sigma)``; ``None`` for every other op).
The contribution has the input's shape: broadcast axes are summed away
here.

Two consumers call the same entries: :meth:`repro.tensor.Tensor.backward`
walks the autograd graph, and the compiled training tape
(:mod:`repro.runtime.training`) walks a lowered plan in reverse.  Each
consumer calls an entry only for inputs that need a gradient.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from . import kernels as K

__all__ = ["GRADIENTS", "GradientFn"]

#: ``(grad, inputs, output, kwargs, saved) -> contribution`` for one input.
GradientFn = Callable[..., np.ndarray]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    NumPy broadcasting expands operands during the forward pass; the gradient
    of a broadcast operand is the sum of the output gradient over the
    broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class _EachInput:
    """Entry of a variadic op: input ``i``'s function is ``fn(i, ...)``."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[..., np.ndarray]) -> None:
        self._fn = fn

    def __getitem__(self, index: int) -> GradientFn:
        fn = self._fn
        return lambda grad, inputs, output, kwargs, saved: fn(index, grad, inputs, output, kwargs, saved)


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def _first(grad, inputs, output, kwargs, saved):
    return _unbroadcast(grad, inputs[0].shape)


def _second(grad, inputs, output, kwargs, saved):
    return _unbroadcast(grad, inputs[1].shape)


def _sub_b(grad, inputs, output, kwargs, saved):
    return _unbroadcast(-grad, inputs[1].shape)


def _mul_a(grad, inputs, output, kwargs, saved):
    return _unbroadcast(grad * inputs[1], inputs[0].shape)


def _mul_b(grad, inputs, output, kwargs, saved):
    return _unbroadcast(grad * inputs[0], inputs[1].shape)


def _div_a(grad, inputs, output, kwargs, saved):
    return _unbroadcast(grad / inputs[1], inputs[0].shape)


def _div_b(grad, inputs, output, kwargs, saved):
    a, b = inputs
    return _unbroadcast(-grad * a / (b ** 2), b.shape)


def _neg(grad, inputs, output, kwargs, saved):
    return -grad


def _pow(grad, inputs, output, kwargs, saved):
    exponent = kwargs["exponent"]
    return grad * exponent * np.power(inputs[0], exponent - 1)


def _matmul_a(grad, inputs, output, kwargs, saved):
    a, b = inputs
    if b.ndim == 1 and a.ndim == 1:
        return grad * b
    if b.ndim == 1:
        result = np.expand_dims(grad, -1) * b
    elif a.ndim == 1:
        result = (grad[..., None, :] * b).sum(axis=-1)
    else:
        result = grad @ np.swapaxes(b, -1, -2)
    return _unbroadcast(result, a.shape)


def _matmul_b(grad, inputs, output, kwargs, saved):
    a, b = inputs
    if a.ndim == 1 and b.ndim == 1:
        return grad * a
    if a.ndim == 1:
        result = np.expand_dims(a, -1) * np.expand_dims(grad, -2)
    elif b.ndim == 1:
        result = (np.swapaxes(a, -1, -2) @ np.expand_dims(grad, -1))[..., 0]
    else:
        result = np.swapaxes(a, -1, -2) @ grad
    return _unbroadcast(result, b.shape)


def _spmm(grad, inputs, output, kwargs, saved):
    return K.spmm(grad, matrix=kwargs["matrix"].transposed())


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
def _reshape(grad, inputs, output, kwargs, saved):
    return grad.reshape(inputs[0].shape)


def _transpose(grad, inputs, output, kwargs, saved):
    return grad.transpose(np.argsort(kwargs["axes"]))


def _getitem(grad, inputs, output, kwargs, saved):
    full = np.zeros(inputs[0].shape, dtype=np.float64)
    np.add.at(full, kwargs["index"], grad)
    return full


def _concat(index, grad, inputs, output, kwargs, saved):
    axis = kwargs["axis"]
    start = sum(array.shape[axis] for array in inputs[:index])
    slicer = [slice(None)] * grad.ndim
    slicer[axis] = slice(start, start + inputs[index].shape[axis])
    return grad[tuple(slicer)]


def _stack(index, grad, inputs, output, kwargs, saved):
    return np.take(grad, index, axis=kwargs["axis"])


def _pad(grad, inputs, output, kwargs, saved):
    slicer = tuple(
        slice(before, grad.shape[axis] - after)
        for axis, (before, after) in enumerate(kwargs["pad_width"])
    )
    return grad[slicer]


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _sum(grad, inputs, output, kwargs, saved):
    axis = kwargs["axis"]
    if axis is not None and not kwargs["keepdims"]:
        grad = np.expand_dims(grad, axis)
    return np.broadcast_to(grad, inputs[0].shape).copy()


def _mean(grad, inputs, output, kwargs, saved):
    shape = inputs[0].shape
    axis = kwargs["axis"]
    if axis is None:
        return np.broadcast_to(grad / inputs[0].size, shape).copy()
    count = 1
    for ax in axis if isinstance(axis, tuple) else (axis,):
        count *= shape[ax]
    if not kwargs["keepdims"]:
        grad = np.expand_dims(grad, axis)
    return np.broadcast_to(grad / count, shape).copy()


def _max(grad, inputs, output, kwargs, saved):
    original = inputs[0]
    axis = kwargs["axis"]
    if axis is None:
        mask = (original == original.max()).astype(np.float64)
        mask /= mask.sum()
        return mask * grad
    mask = (original == original.max(axis=axis, keepdims=True)).astype(np.float64)
    mask /= mask.sum(axis=axis, keepdims=True)
    return mask * (grad if kwargs["keepdims"] else np.expand_dims(grad, axis))


# ----------------------------------------------------------------------
# Element-wise functions
# ----------------------------------------------------------------------
def _exp(grad, inputs, output, kwargs, saved):
    return grad * output


def _log(grad, inputs, output, kwargs, saved):
    return grad / inputs[0]


def _sqrt(grad, inputs, output, kwargs, saved):
    return grad * 0.5 / output


def _abs(grad, inputs, output, kwargs, saved):
    return grad * np.sign(inputs[0])


def _tanh(grad, inputs, output, kwargs, saved):
    return K.tanh_backward(grad, output)


def _sigmoid(grad, inputs, output, kwargs, saved):
    return K.sigmoid_backward(grad, output)


def _relu(grad, inputs, output, kwargs, saved):
    return grad * (inputs[0] > 0)


def _leaky_relu(grad, inputs, output, kwargs, saved):
    return grad * np.where(inputs[0] > 0, 1.0, kwargs["negative_slope"])


def _clip(grad, inputs, output, kwargs, saved):
    minimum, maximum = kwargs["minimum"], kwargs["maximum"]
    lower = -np.inf if minimum is None else minimum
    upper = np.inf if maximum is None else maximum
    return grad * ((inputs[0] >= lower) & (inputs[0] <= upper)).astype(np.float64)


def _maximum_mask(mine: np.ndarray, theirs: np.ndarray) -> np.ndarray:
    """Where ``mine`` wins the maximum; ties split the gradient equally."""
    return (mine > theirs).astype(np.float64) + (mine == theirs).astype(np.float64) * 0.5


def _maximum_a(grad, inputs, output, kwargs, saved):
    a, b = inputs
    return _unbroadcast(grad * _maximum_mask(a, b), a.shape)


def _maximum_b(grad, inputs, output, kwargs, saved):
    a, b = inputs
    return _unbroadcast(grad * _maximum_mask(b, a), b.shape)


def _where_a(grad, inputs, output, kwargs, saved):
    return _unbroadcast(grad * kwargs["condition"], inputs[0].shape)


def _where_b(grad, inputs, output, kwargs, saved):
    return _unbroadcast(grad * (~kwargs["condition"]), inputs[1].shape)


def _softmax(grad, inputs, output, kwargs, saved):
    return K.softmax_backward(grad, output, axis=kwargs["axis"])


def _log_softmax(grad, inputs, output, kwargs, saved):
    return K.log_softmax_backward(grad, output, axis=kwargs["axis"])


# ----------------------------------------------------------------------
# Layer norm: ``saved`` is the forward's ``(x_hat, sigma)``.
# ----------------------------------------------------------------------
def _layer_norm_x(grad, inputs, output, kwargs, saved):
    x_hat, sigma = saved
    return K.layer_norm_backward(grad, x_hat, sigma, inputs[1], axes=kwargs["axes"])


def _layer_norm_weight(grad, inputs, output, kwargs, saved):
    return _unbroadcast(grad * saved[0], inputs[1].shape)


def _layer_norm_bias(grad, inputs, output, kwargs, saved):
    return _unbroadcast(grad, inputs[2].shape)


#: Op name -> one gradient function per input (indexable by input
#: position).  ``reshape_copy`` is never recorded by ``Tensor._make``; the
#: plan compiler renames non-view reshapes to it, and the training tape
#: looks its steps up here.
GRADIENTS: Dict[str, Sequence[GradientFn]] = {
    "add": (_first, _second),
    "sub": (_first, _sub_b),
    "mul": (_mul_a, _mul_b),
    "div": (_div_a, _div_b),
    "neg": (_neg,),
    "pow": (_pow,),
    "matmul": (_matmul_a, _matmul_b),
    "spmm": (_spmm,),
    "reshape": (_reshape,),
    "reshape_copy": (_reshape,),
    "squeeze": (_reshape,),
    "unsqueeze": (_reshape,),
    "transpose": (_transpose,),
    "broadcast": (_first,),
    "getitem": (_getitem,),
    "concat": _EachInput(_concat),
    "stack": _EachInput(_stack),
    "pad": (_pad,),
    "sum": (_sum,),
    "mean": (_mean,),
    "max": (_max,),
    "exp": (_exp,),
    "log": (_log,),
    "sqrt": (_sqrt,),
    "abs": (_abs,),
    "tanh": (_tanh,),
    "sigmoid": (_sigmoid,),
    "relu": (_relu,),
    "leaky_relu": (_leaky_relu,),
    "clip": (_clip,),
    "maximum": (_maximum_a, _maximum_b),
    "where": (_where_a, _where_b),
    "softmax": (_softmax,),
    "log_softmax": (_log_softmax,),
    "layer_norm": (_layer_norm_x, _layer_norm_weight, _layer_norm_bias),
}
