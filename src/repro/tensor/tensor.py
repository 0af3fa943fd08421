"""Reverse-mode automatic differentiation on top of NumPy.

This module provides the :class:`Tensor` class, the foundation of the
``repro`` neural-network substrate.  The original DyHSL implementation is
built on PyTorch; this environment has no PyTorch, so the library ships its
own small but complete autograd engine.  A ``Tensor`` wraps a
``numpy.ndarray`` and records the operations applied to it so that
:meth:`Tensor.backward` can propagate gradients back to every leaf tensor
that has ``requires_grad=True``.

The engine supports broadcasting (gradients are automatically reduced back to
the operand's shape), slicing, matrix multiplication with batched operands,
reductions with ``axis``/``keepdims``, and the element-wise functions needed
by DyHSL and the baseline models.

Example
-------
>>> from repro.tensor import Tensor
>>> x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
>>> y = (x * x).sum()
>>> y.backward()
>>> x.grad
array([[2., 4.],
       [6., 8.]])
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import kernels as K
from .gradients import GRADIENTS

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

# Scalars and anything numpy can coerce are accepted wherever a Tensor is
# expected in arithmetic.
ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

#: Op record attached to every ``Tensor._make`` call: the kernel name in
#: :data:`repro.tensor.kernels.KERNELS` plus the constant (non-tensor)
#: keyword arguments of the call.  The inference runtime's tracer consumes
#: these records to rebuild the forward pass as a flat kernel plan.
OpSpec = Tuple[str, Dict[str, Any]]

_DEFAULT_DTYPE = np.float64

# Autograd switch, toggled by the ``no_grad`` context manager.  The state
# is **thread-local**: concurrent serving threads (shard workers, linger
# flushers, micro-batcher callers) each run their own no_grad blocks, and
# with a process-global flag two interleaved blocks can restore each
# other's saved state — leaving gradients disabled (or enabled) for every
# thread long after both blocks exited.  Each thread starts with gradients
# enabled (the class attribute default).
class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()

# Trace hooks installed by the runtime compiler, keyed by thread id so a
# compilation only records ops executed by its own thread — tensor work on
# other threads (training, autograd serving) must never leak into a plan.
# Signature: hook(op, parents, out) -> None.  The dict is empty outside
# compilation, which keeps the per-op check in ``_make`` one falsy test.
_TRACE_HOOKS: Dict[int, Callable[[Optional[OpSpec], Tuple["Tensor", ...], "Tensor"], None]] = {}


def _set_trace_hook(hook: Optional[Callable]) -> Optional[Callable]:
    """Install a trace hook for the calling thread (runtime-internal).

    Returns the thread's previous hook; pass it back to restore.
    """
    ident = threading.get_ident()
    previous = _TRACE_HOOKS.get(ident)
    if hook is None:
        _TRACE_HOOKS.pop(ident, None)
    else:
        _TRACE_HOOKS[ident] = hook
    return previous


class no_grad:
    """Context manager that disables gradient tracking.

    Mirrors ``torch.no_grad``: operations executed inside the block do not
    build a computation graph, which makes inference cheaper and prevents
    training-time state from leaking into evaluation code.

    Example
    -------
    >>> with no_grad():
    ...     y = model(x)
    """

    def __enter__(self) -> "no_grad":
        self._previous = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _GRAD_MODE.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return ``True`` when operations on this thread record gradients."""
    return _GRAD_MODE.enabled


def _as_array(value: ArrayLike, dtype=_DEFAULT_DTYPE) -> np.ndarray:
    """Coerce ``value`` into a NumPy array of the engine's default dtype."""
    if isinstance(value, Tensor):
        return value.data
    array = np.asarray(value, dtype=dtype)
    return array


class Tensor:
    """A NumPy-backed array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts (nested lists, scalars, arrays or
        another :class:`Tensor`, whose buffer is then shared).
    requires_grad:
        When ``True`` the tensor participates in the autograd graph and
        accumulates gradients into :attr:`grad` when :meth:`backward` is
        called on a downstream scalar.
    name:
        Optional human-readable label used in error messages and parameter
        listings.
    """

    __slots__ = (
        "data", "requires_grad", "grad", "_parents", "_op", "_inputs", "_saved", "name",
        "_trace_slot",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            self.data = data.data
        else:
            self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        # (input position, parent) for every parent that requires grad.
        # ``_make`` sets it on outputs that require grad, together with the
        # node's ``_op`` spec, ``_inputs`` (every input array as it was at
        # forward time) and ``_saved`` (what the forward kept for the
        # backward, see repro.tensor.gradients); those three slots stay
        # unset on every other tensor.  ``_trace_slot`` is set only by the
        # runtime compiler, on the tensors a trace gives a plan slot.
        self._parents: Tuple[Tuple[int, "Tensor"], ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Return a tensor of zeros with the given shape."""
        return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Return a tensor of ones with the given shape."""
        return Tensor(np.ones(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def full(shape: Sequence[int], fill_value: float, requires_grad: bool = False) -> "Tensor":
        """Return a tensor filled with ``fill_value``."""
        return Tensor(np.full(shape, fill_value, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def eye(n: int, requires_grad: bool = False) -> "Tensor":
        """Return the ``n`` x ``n`` identity matrix."""
        return Tensor(np.eye(n, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def from_numpy(array: np.ndarray, requires_grad: bool = False) -> "Tensor":
        """Wrap an existing NumPy array (copying to the default dtype)."""
        return Tensor(array, requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """Data type of the underlying array."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transpose of a 2-D tensor (alias of :meth:`transpose`)."""
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing the same data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a new tensor with copied data, detached from the graph."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Autograd plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        op: OpSpec,
        saved: Any = None,
    ) -> "Tensor":
        """Create an output tensor wired to its parents.

        ``op`` identifies the kernel that produced ``data`` (name plus
        constant kwargs); its entry in
        :data:`repro.tensor.gradients.GRADIENTS` is the backward.  When the
        output requires grad it keeps the op, every parent's array and
        ``saved`` (whatever the forward kept for the backward); parents
        that do not require gradients get none.

        When the runtime compiler has installed a trace hook, every op is
        also reported to it so the forward pass can be replayed without the
        autograd layer.
        """
        requires_grad = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires_grad)
        if requires_grad:
            out._parents = tuple(
                (position, parent) for position, parent in enumerate(parents) if parent.requires_grad
            )
            out._op = op
            out._inputs = tuple(parent.data for parent in parents)
            out._saved = saved
        if _TRACE_HOOKS:
            hook = _TRACE_HOOKS.get(threading.get_ident())
            if hook is not None:
                hook(op, tuple(parents), out)
        return out

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate gradients from this tensor to all graph leaves.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective with respect to this tensor.
            Defaults to ``1`` which is only valid for scalar tensors (the
            usual case: a loss value).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient is only supported "
                    f"for scalar tensors; got shape {self.shape}"
                )
            grad_array = np.ones_like(self.data)
        else:
            grad_array = _as_array(grad)
            if grad_array.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad_array.shape} does not match tensor shape {self.shape}"
                )

        # Topologically order the graph so every node's gradient is complete
        # before it is propagated to its parents.
        topo_order: List[Tensor] = []
        visited: set = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo_order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for _, parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict = {id(self): grad_array}
        for node in reversed(topo_order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._parents:
                name, kwargs = node._op
                entry = GRADIENTS[name]
                inputs, output, saved = node._inputs, node.data, node._saved
                for position, parent in node._parents:
                    contribution = entry[position](node_grad, inputs, output, kwargs, saved)
                    existing = grads.get(id(parent))
                    if existing is None:
                        grads[id(parent)] = contribution
                    else:
                        grads[id(parent)] = existing + contribution
            else:
                # Leaf tensor: accumulate into .grad like PyTorch does.
                if node.grad is None:
                    node.grad = np.array(node_grad, dtype=_DEFAULT_DTYPE, copy=True)
                else:
                    node.grad = node.grad + node_grad
        # The root may itself be a leaf (e.g. loss = parameter.sum() on a leaf).
        if not self._parents and self.grad is None:
            self.grad = grad_array

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(K.add(self.data, other.data), (self, other), op=("add", {}))

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(K.sub(self.data, other.data), (self, other), op=("sub", {}))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(K.mul(self.data, other.data), (self, other), op=("mul", {}))

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        return Tensor._make(K.div(self.data, other.data), (self, other), op=("div", {}))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor._make(K.neg(self.data), (self,), op=("neg", {}))

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log instead")
        exponent = float(exponent)
        data = K.pow_scalar(self.data, exponent=exponent)
        return Tensor._make(data, (self,), op=("pow", {"exponent": exponent}))

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).matmul(self)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product supporting 1-D, 2-D and batched operands."""
        other = self._coerce(other)
        return Tensor._make(K.matmul(self.data, other.data), (self, other), op=("matmul", {}))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Return a tensor with the same data and a new shape."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = K.reshape(self.data, shape=shape)
        return Tensor._make(data, (self,), op=("reshape", {"shape": shape}))

    def transpose(self, *axes: int) -> "Tensor":
        """Permute the axes of the tensor.

        Without arguments this reverses the axes (matrix transpose for 2-D
        tensors).  With arguments it behaves like ``numpy.transpose``.
        """
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = K.transpose(self.data, axes=axes)
        return Tensor._make(data, (self,), op=("transpose", {"axes": axes}))

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Swap two axes of the tensor."""
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        """Remove axes of length one."""
        data = K.squeeze(self.data, axis=axis)
        return Tensor._make(data, (self,), op=("squeeze", {"axis": axis}))

    def unsqueeze(self, axis: int) -> "Tensor":
        """Insert a new axis of length one at ``axis``."""
        data = K.unsqueeze(self.data, axis=axis)
        return Tensor._make(data, (self,), op=("unsqueeze", {"axis": axis}))

    def expand(self, *shape: int) -> "Tensor":
        """Broadcast the tensor to ``shape`` (read-only expansion)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = K.broadcast(self.data, shape=shape)
        return Tensor._make(data, (self,), op=("broadcast", {"shape": shape}))

    def __getitem__(self, index) -> "Tensor":
        data = K.getitem(self.data, index=index)
        return Tensor._make(data, (self,), op=("getitem", {"index": index}))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum of elements over the given axis (or all elements)."""
        data = K.reduce_sum(self.data, axis=axis, keepdims=keepdims)
        return Tensor._make(data, (self,), op=("sum", {"axis": axis, "keepdims": keepdims}))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over the given axis (or all elements)."""
        data = K.reduce_mean(self.data, axis=axis, keepdims=keepdims)
        return Tensor._make(data, (self,), op=("mean", {"axis": axis, "keepdims": keepdims}))

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Biased variance over the given axis (population variance)."""
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        squared = centered * centered
        return squared.mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over the given axis; gradients flow to the arg-max entries."""
        data = K.reduce_max(self.data, axis=axis, keepdims=keepdims)
        return Tensor._make(data, (self,), op=("max", {"axis": axis, "keepdims": keepdims}))

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum over the given axis; gradients flow to the arg-min entries."""
        return (-(-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Element-wise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Element-wise exponential."""
        return Tensor._make(K.exp(self.data), (self,), op=("exp", {}))

    def log(self) -> "Tensor":
        """Element-wise natural logarithm."""
        return Tensor._make(K.log(self.data), (self,), op=("log", {}))

    def sqrt(self) -> "Tensor":
        """Element-wise square root."""
        return Tensor._make(K.sqrt(self.data), (self,), op=("sqrt", {}))

    def abs(self) -> "Tensor":
        """Element-wise absolute value (sub-gradient 0 at zero)."""
        return Tensor._make(K.absolute(self.data), (self,), op=("abs", {}))

    def tanh(self) -> "Tensor":
        """Element-wise hyperbolic tangent."""
        return Tensor._make(K.tanh(self.data), (self,), op=("tanh", {}))

    def sigmoid(self) -> "Tensor":
        """Element-wise logistic sigmoid."""
        return Tensor._make(K.sigmoid(self.data), (self,), op=("sigmoid", {}))

    def relu(self) -> "Tensor":
        """Element-wise rectified linear unit."""
        return Tensor._make(K.relu(self.data), (self,), op=("relu", {}))

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        """Element-wise leaky ReLU."""
        data = K.leaky_relu(self.data, negative_slope=negative_slope)
        return Tensor._make(data, (self,), op=("leaky_relu", {"negative_slope": negative_slope}))

    def clip(self, minimum: Optional[float] = None, maximum: Optional[float] = None) -> "Tensor":
        """Clamp values into ``[minimum, maximum]``; gradient is zero outside."""
        data = K.clip(self.data, minimum=minimum, maximum=maximum)
        return Tensor._make(data, (self,), op=("clip", {"minimum": minimum, "maximum": maximum}))

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Element-wise maximum with ties splitting the gradient equally."""
        other = self._coerce(other)
        return Tensor._make(K.maximum(self.data, other.data), (self, other), op=("maximum", {}))

    def minimum(self, other: ArrayLike) -> "Tensor":
        """Element-wise minimum with ties splitting the gradient equally."""
        other = self._coerce(other)
        return -((-self).maximum(-other))

    # ------------------------------------------------------------------
    # Softmax-style primitives used throughout the models
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along ``axis``.

        A primitive op (not composed from exp/sum) so the max-shift does not
        bake an input-dependent constant into runtime traces; the gradient is
        the classic ``y * (g - sum(g * y))``.
        """
        data = K.softmax(self.data, axis=axis)
        return Tensor._make(data, (self,), op=("softmax", {"axis": axis}))

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Logarithm of the softmax along ``axis`` (primitive, see softmax)."""
        data = K.log_softmax(self.data, axis=axis)
        return Tensor._make(data, (self,), op=("log_softmax", {"axis": axis}))


def _ensure_tensor(value: ArrayLike) -> Tensor:
    """Module-level coercion helper shared with :mod:`repro.tensor.ops`."""
    return value if isinstance(value, Tensor) else Tensor(value)
