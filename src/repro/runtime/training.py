"""Compiled training forwards: replay the kernel plan, tape the backward.

The inference runtime (:mod:`repro.runtime.engine`) cannot serve training:
constant folding bakes parameter-derived values into the plan, pooled
buffers overwrite the intermediate activations the backward pass needs, and
there is no gradient path at all.  This module compiles the *training*
variant of a module's forward:

* **no constant folding** — parameters stay live slots captured by
  reference, so in-place optimiser updates (``parameter.data -= ...``,
  ``load_state_dict``) are visible to the plan without recompilation and
  gradients can be routed back to them;
* **dedicated buffers** — every buffered step owns its output array for the
  life of the plan (allocated once, reused across batches), so the forward
  values are still there when the backward tape replays in reverse —
  cheaper than an autograd forward, which allocates every intermediate
  fresh per batch;
* **fused chains stay fused, and save their intermediates** — the forward
  runs each ``fused_elementwise`` chain link by link into dedicated
  per-link buffers (bit-identical to the blocked single-buffer
  interpreter, which runs the same kernels on the same operand values), so
  the backward reads the saved chain values instead of recomputing the
  whole chain per step — memory traded for epoch time;
* **recorded-tape backward** — the lowered step list *is* the tape: walking
  it in reverse and applying each kernel's analytic backward (the same
  formulas the autograd closures use, shared via
  ``repro.tensor.kernels.*_backward`` where they exist) accumulates
  gradients into the originating :class:`~repro.nn.Parameter` objects, so
  optimisers and gradient clipping work unchanged.

Autograd re-attaches only at the **loss boundary**: the caller wraps the
returned predictions in a leaf ``Tensor(requires_grad=True)``, computes the
loss with ordinary autograd ops, and hands ``predictions.grad`` back to
:meth:`TrainingStep.backward`.

Eligibility (:func:`plan_trainable`): the traced forward must equal the
training forward.  Dropout with ``p > 0`` samples a fresh mask per batch
and batch norm updates running statistics in training mode — both would be
frozen by the trace, so such modules fall back to autograd training.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..tensor import kernels as K
from ..tensor.tensor import _unbroadcast

from .compiler import CompileError, classify_steps, lower_module
from .engine import PlanStats, pad_batch_to_bucket, resolve_bucket_cap

__all__ = [
    "CompiledTrainingModel",
    "TrainingPlan",
    "TrainingStep",
    "compile_training_model",
    "compile_training_plan",
    "plan_trainable",
]


def plan_trainable(module) -> Tuple[bool, str]:
    """Whether ``module``'s training forward can be replayed from a trace.

    Returns ``(ok, reason)``; ``reason`` names the first offending
    submodule when ``ok`` is false.  A forward is replayable when it is the
    same deterministic dataflow in training and evaluation mode — dropout
    layers with ``p > 0`` (fresh random mask per batch) and batch
    normalisation (running-statistics updates) break that equivalence.
    """
    from ..nn.layers import BatchNorm1d, Dropout

    for name, submodule in module.named_modules():
        label = name or type(submodule).__name__
        if isinstance(submodule, Dropout) and getattr(submodule, "p", 0.0) > 0.0:
            return False, (
                f"submodule {label!r} applies dropout (p={submodule.p}); its "
                "per-batch random mask cannot be baked into a compiled plan"
            )
        if isinstance(submodule, BatchNorm1d):
            return False, (
                f"submodule {label!r} is a batch norm; its training-mode "
                "running-statistics update cannot be replayed from a trace"
            )
    return True, ""


# ----------------------------------------------------------------------
# Elementwise VJPs, shared between standalone steps and fused-chain
# instructions.  Each maps (grad, input arrays, output array, kwargs) to
# one gradient per input, mirroring the autograd closures in
# repro.tensor.tensor op for op (broadcast reduction happens at the
# accumulation site, where the target shape is known).
# ----------------------------------------------------------------------
def _clip_ew_vjp(grad, args, output, kwargs):
    minimum, maximum = kwargs.get("minimum"), kwargs.get("maximum")
    lower = -np.inf if minimum is None else minimum
    upper = np.inf if maximum is None else maximum
    return (grad * ((args[0] >= lower) & (args[0] <= upper)),)


_EW_VJPS: Dict[str, Callable] = {
    "add": lambda grad, args, output, kwargs: (grad, grad),
    "sub": lambda grad, args, output, kwargs: (grad, -grad),
    "mul": lambda grad, args, output, kwargs: (grad * args[1], grad * args[0]),
    "div": lambda grad, args, output, kwargs: (
        grad / args[1],
        -grad * args[0] / (args[1] ** 2),
    ),
    "neg": lambda grad, args, output, kwargs: (-grad,),
    "pow": lambda grad, args, output, kwargs: (
        grad * kwargs["exponent"] * np.power(args[0], kwargs["exponent"] - 1),
    ),
    "exp": lambda grad, args, output, kwargs: (grad * output,),
    "log": lambda grad, args, output, kwargs: (grad / args[0],),
    "sqrt": lambda grad, args, output, kwargs: (grad * 0.5 / output,),
    "abs": lambda grad, args, output, kwargs: (grad * np.sign(args[0]),),
    "tanh": lambda grad, args, output, kwargs: (K.tanh_backward(grad, output),),
    "sigmoid": lambda grad, args, output, kwargs: (K.sigmoid_backward(grad, output),),
    "relu": lambda grad, args, output, kwargs: (K.relu_backward(grad, args[0]),),
    "leaky_relu": lambda grad, args, output, kwargs: (
        K.leaky_relu_backward(grad, args[0], **kwargs),
    ),
    "clip": _clip_ew_vjp,
}


# ----------------------------------------------------------------------
# Step VJPs: op name -> vjp(grad, inputs, output, kwargs, needed) returning
# one gradient (or None) per input slot.  ``needed[i]`` is False when input
# i does not require a gradient; the expensive VJPs honour it.
# ----------------------------------------------------------------------
def _elementwise_vjp(name: str) -> Callable:
    base = _EW_VJPS[name]

    def vjp(grad, inputs, output, kwargs, needed):
        contributions = base(grad, inputs, output, kwargs)
        return tuple(
            _unbroadcast(contribution, inputs[index].shape)
            if needed[index] and contribution is not None
            else None
            for index, contribution in enumerate(contributions)
        )

    return vjp


def _fused_elementwise_vjp(grad, inputs, output, kwargs, needed, saved=None):
    """Backward of a fused chain from saved (or recomputed) intermediates.

    A :class:`TrainingPlan` forward runs each chain link into a dedicated
    buffer and hands the per-link outputs in as ``saved``, so the backward
    consumes them directly.  Without ``saved`` (the inference-style fused
    forward overwrote every interior value in its single buffer) the chain
    is re-run — allocating this time — from the saved external inputs.
    Either way the per-instruction elementwise VJPs see exactly the values
    the unfused tape would have.
    """
    chain = kwargs["chain"]
    if saved is not None:
        intermediates: List[np.ndarray] = list(saved)
    else:
        intermediates = []
        acc: Optional[np.ndarray] = None
        for _, kernel, refs, instruction_kwargs in chain:
            arguments = [acc if ref < 0 else inputs[ref] for ref in refs]
            acc = kernel(*arguments, **instruction_kwargs)
            intermediates.append(acc)

    grads_in: List[Optional[np.ndarray]] = [None] * len(inputs)
    grad_acc: Optional[np.ndarray] = grad
    for index in range(len(chain) - 1, -1, -1):
        name, _, refs, instruction_kwargs = chain[index]
        previous = intermediates[index - 1] if index > 0 else None
        arguments = [previous if ref < 0 else inputs[ref] for ref in refs]
        contributions = _EW_VJPS[name](grad_acc, arguments, intermediates[index], instruction_kwargs)
        next_grad_acc: Optional[np.ndarray] = None
        for ref, contribution in zip(refs, contributions):
            if ref < 0:
                next_grad_acc = (
                    contribution if next_grad_acc is None else next_grad_acc + contribution
                )
            elif needed[ref]:
                contribution = _unbroadcast(contribution, inputs[ref].shape)
                grads_in[ref] = (
                    contribution if grads_in[ref] is None else grads_in[ref] + contribution
                )
        grad_acc = next_grad_acc
    return tuple(grads_in)


def _matmul_vjp(grad, inputs, output, kwargs, needed):
    a, b = inputs
    grad_a = grad_b = None
    if needed[0]:
        if b.ndim == 1 and a.ndim == 1:
            grad_a = grad * b
        elif b.ndim == 1:
            grad_a = _unbroadcast(np.expand_dims(grad, -1) * b, a.shape)
        elif a.ndim == 1:
            grad_a = _unbroadcast((grad[..., None, :] * b).sum(axis=-1), a.shape)
        else:
            grad_a = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
    if needed[1]:
        if a.ndim == 1 and b.ndim == 1:
            grad_b = grad * a
        elif a.ndim == 1:
            grad_b = _unbroadcast(np.expand_dims(a, -1) * np.expand_dims(grad, -2), b.shape)
        elif b.ndim == 1:
            grad_b = _unbroadcast((np.swapaxes(a, -1, -2) @ np.expand_dims(grad, -1))[..., 0], b.shape)
        else:
            grad_b = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
    return grad_a, grad_b


def _spmm_vjp(grad, inputs, output, kwargs, needed):
    if not needed[0]:
        return (None,)
    return (K.spmm(grad, matrix=kwargs["matrix"].transposed()),)


def _reshape_vjp(grad, inputs, output, kwargs, needed):
    return (grad.reshape(inputs[0].shape),) if needed[0] else (None,)


def _transpose_vjp(grad, inputs, output, kwargs, needed):
    if not needed[0]:
        return (None,)
    return (grad.transpose(np.argsort(kwargs["axes"])),)


def _broadcast_vjp(grad, inputs, output, kwargs, needed):
    return (_unbroadcast(grad, inputs[0].shape),) if needed[0] else (None,)


def _getitem_vjp(grad, inputs, output, kwargs, needed):
    if not needed[0]:
        return (None,)
    # Gradient dtype follows the tape's values (float64 today) instead of
    # hard-coding it, so a reduced-precision tape would not silently upcast.
    full = np.zeros(inputs[0].shape, dtype=grad.dtype)
    np.add.at(full, kwargs["index"], grad)
    return (full,)


def _sum_vjp(grad, inputs, output, kwargs, needed):
    if not needed[0]:
        return (None,)
    a = inputs[0]
    axis, keepdims = kwargs.get("axis"), kwargs.get("keepdims", False)
    if axis is None:
        return (np.broadcast_to(grad, a.shape).copy(),)
    expanded = grad if keepdims else np.expand_dims(grad, axis)
    return (np.broadcast_to(expanded, a.shape).copy(),)


def _mean_vjp(grad, inputs, output, kwargs, needed):
    if not needed[0]:
        return (None,)
    a = inputs[0]
    axis, keepdims = kwargs.get("axis"), kwargs.get("keepdims", False)
    if axis is None:
        return (np.broadcast_to(grad / a.size, a.shape).copy(),)
    axes = axis if isinstance(axis, tuple) else (axis,)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    expanded = grad if keepdims else np.expand_dims(grad, axis)
    return (np.broadcast_to(expanded / count, a.shape).copy(),)


def _max_vjp(grad, inputs, output, kwargs, needed):
    if not needed[0]:
        return (None,)
    a = inputs[0]
    axis, keepdims = kwargs.get("axis"), kwargs.get("keepdims", False)
    if axis is None:
        mask = (a == a.max()).astype(grad.dtype)
        mask /= mask.sum()
        return (mask * grad,)
    expanded_max = a.max(axis=axis, keepdims=True)
    mask = (a == expanded_max).astype(grad.dtype)
    mask /= mask.sum(axis=axis, keepdims=True)
    expanded = grad if keepdims else np.expand_dims(grad, axis)
    return (mask * expanded,)


def _maximum_vjp(grad, inputs, output, kwargs, needed):
    a, b = inputs
    self_mask = (a > b).astype(grad.dtype)
    tie_mask = (a == b).astype(grad.dtype) * 0.5
    other_mask = (b > a).astype(grad.dtype)
    grad_a = _unbroadcast(grad * (self_mask + tie_mask), a.shape) if needed[0] else None
    grad_b = _unbroadcast(grad * (other_mask + tie_mask), b.shape) if needed[1] else None
    return grad_a, grad_b


def _where_vjp(grad, inputs, output, kwargs, needed):
    condition = kwargs["condition"]
    grad_a = _unbroadcast(grad * condition, inputs[0].shape) if needed[0] else None
    grad_b = _unbroadcast(grad * (~condition), inputs[1].shape) if needed[1] else None
    return grad_a, grad_b


def _concat_vjp(grad, inputs, output, kwargs, needed):
    axis = kwargs.get("axis", 0)
    grads = []
    start = 0
    for index, array in enumerate(inputs):
        stop = start + array.shape[axis]
        if needed[index]:
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            grads.append(grad[tuple(slicer)])
        else:
            grads.append(None)
        start = stop
    return tuple(grads)


def _stack_vjp(grad, inputs, output, kwargs, needed):
    axis = kwargs.get("axis", 0)
    return tuple(
        np.take(grad, index, axis=axis) if needed[index] else None
        for index in range(len(inputs))
    )


def _pad_vjp(grad, inputs, output, kwargs, needed):
    if not needed[0]:
        return (None,)
    pad_width = kwargs["pad_width"]
    slicer = tuple(
        slice(before, grad.shape[axis] - after)
        for axis, (before, after) in enumerate(pad_width)
    )
    return (grad[slicer],)


def _softmax_vjp(grad, inputs, output, kwargs, needed):
    if not needed[0]:
        return (None,)
    return (K.softmax_backward(grad, output, axis=kwargs["axis"]),)


def _log_softmax_vjp(grad, inputs, output, kwargs, needed):
    if not needed[0]:
        return (None,)
    return (K.log_softmax_backward(grad, output, axis=kwargs["axis"]),)


def _layer_norm_vjp(grad, inputs, output, kwargs, needed):
    return _layer_norm_vjp_saved(grad, inputs, kwargs, needed, None)


def _layer_norm_vjp_saved(grad, inputs, kwargs, needed, saved):
    """Layer-norm VJP, from forward-saved ``(x_hat, sigma)`` when available."""
    x, weight, bias = inputs
    axes = tuple(kwargs["axes"])
    x_hat, sigma = saved if saved is not None else K.layer_norm_stats(x, axes, kwargs["eps"])
    grad_x = K.layer_norm_backward(grad, x_hat, sigma, weight, axes=axes) if needed[0] else None
    grad_weight = _unbroadcast(grad * x_hat, weight.shape) if needed[1] else None
    grad_bias = _unbroadcast(grad, bias.shape) if needed[2] else None
    return grad_x, grad_weight, grad_bias


#: Op name -> step VJP.  Everything the kernel registry can record must
#: have an entry here for the training compiler to accept it.
VJPS: Dict[str, Callable] = {
    **{name: _elementwise_vjp(name) for name in _EW_VJPS},
    "fused_elementwise": _fused_elementwise_vjp,
    "matmul": _matmul_vjp,
    "spmm": _spmm_vjp,
    "reshape": _reshape_vjp,
    "reshape_copy": _reshape_vjp,
    "squeeze": _reshape_vjp,
    "unsqueeze": _reshape_vjp,
    "transpose": _transpose_vjp,
    "broadcast": _broadcast_vjp,
    "getitem": _getitem_vjp,
    "sum": _sum_vjp,
    "mean": _mean_vjp,
    "max": _max_vjp,
    "maximum": _maximum_vjp,
    "where": _where_vjp,
    "concat": _concat_vjp,
    "stack": _stack_vjp,
    "pad": _pad_vjp,
    "softmax": _softmax_vjp,
    "log_softmax": _log_softmax_vjp,
    "layer_norm": _layer_norm_vjp,
}


class TrainingPlan:
    """One compiled training forward + recorded-tape backward, one shape.

    Not thread-safe and strictly one step in flight: :meth:`forward` leaves
    every intermediate in its dedicated buffer for :meth:`backward` to
    consume; a second forward overwrites them.
    """

    def __init__(self, steps, values, input_slot, output_slot, param_slots, requires, stats,
                 chain_buffers: Optional[Dict[int, List[np.ndarray]]] = None) -> None:
        self._steps = steps  # (name, kernel, in_slots, kwargs, out_slot, buffer)
        self._values = values
        self._input_slot = input_slot
        self._output_slot = output_slot
        self._param_slots = param_slots  # slot -> Parameter
        self._requires = requires  # slot -> needs a gradient
        #: out_slot -> (x_hat, sigma) saved by layer-norm forwards, exactly
        #: like the autograd closure saves them — recomputing the statistics
        #: in the backward would cost a second normalisation pass per layer.
        self._layer_norm_stats: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: out_slot -> dedicated per-link buffers for fused-chain steps: the
        #: forward writes every chain intermediate into its own buffer (the
        #: tail link shares the step's main buffer) so the backward reads
        #: the saved values instead of recomputing the whole chain.
        self._chain_buffers = chain_buffers or {}
        #: out_slot -> per-link forward values (the buffers above, in chain
        #: order), populated by :meth:`forward` and consumed once by
        #: :meth:`backward`.
        self._fused_saved: Dict[int, List[np.ndarray]] = {}
        #: Slots rewritten per run: the input and every step output.  View
        #: and alloc steps store arrays aliasing (or derived from) the
        #: caller's batch, so all of them are cleared by :meth:`release` —
        #: an idle plan must hold only its constants and owned buffers.
        self._transient_slots = [input_slot] + [step[4] for step in steps]
        self.stats = stats

    @property
    def output_shape(self) -> Tuple[int, ...]:
        for name, kernel, in_slots, kwargs, out_slot, buffer in reversed(self._steps):
            if out_slot == self._output_slot and buffer is not None:
                return buffer.shape
        return np.asarray(self._values[self._output_slot]).shape

    def forward(self, array: np.ndarray) -> np.ndarray:
        """Replay the plan; the result aliases plan buffers (copy to keep)."""
        values = self._values
        saved_stats = self._layer_norm_stats
        values[self._input_slot] = array
        for name, kernel, in_slots, kwargs, out_slot, buffer in self._steps:
            if name == "fused_elementwise":
                # Run the chain link by link into the dedicated per-link
                # buffers (the tail is the step's main buffer) and save the
                # intermediates for the backward — same kernels on the same
                # operand values as the blocked single-buffer interpreter,
                # so the tail is bit-identical; the backward then skips the
                # chain recompute entirely.
                link_buffers = self._chain_buffers[out_slot]
                accumulator: Optional[np.ndarray] = None
                saved: List[np.ndarray] = []
                for link, link_buffer in zip(kwargs["chain"], link_buffers):
                    _, link_kernel, refs, link_kwargs = link
                    arguments = [
                        accumulator if ref < 0 else values[in_slots[ref]] for ref in refs
                    ]
                    accumulator = link_kernel(*arguments, out=link_buffer, **link_kwargs)
                    saved.append(accumulator)
                self._fused_saved[out_slot] = saved
                values[out_slot] = accumulator
                continue
            if name == "layer_norm":
                # Compute through the stats form (bit-identical to the
                # kernel's in-buffer sequence) and save (x_hat, sigma) for
                # the backward, mirroring the autograd closure.
                x, weight, bias = (values[i] for i in in_slots)
                x_hat, sigma = K.layer_norm_stats(x, tuple(kwargs["axes"]), kwargs["eps"])
                np.multiply(x_hat, weight, out=buffer)
                np.add(buffer, bias, out=buffer)
                saved_stats[out_slot] = (x_hat, sigma)
                values[out_slot] = buffer
                continue
            values[out_slot] = kernel(*[values[i] for i in in_slots], out=buffer, **kwargs)
        return values[self._output_slot]

    def backward(self, grad: np.ndarray) -> None:
        """Propagate ``d loss / d output`` back to the parameters.

        Walks the tape in reverse, applying each kernel's analytic VJP to
        the forward values still sitting in the plan's buffers, and
        accumulates the resulting leaf gradients into ``Parameter.grad``
        (summing with any existing gradient, like autograd leaves).
        """
        values = self._values
        requires = self._requires
        grads: Dict[int, np.ndarray] = {self._output_slot: np.asarray(grad, dtype=np.float64)}
        for name, kernel, in_slots, kwargs, out_slot, buffer in reversed(self._steps):
            output_grad = grads.pop(out_slot, None)
            if output_grad is None:
                continue
            needed = tuple(requires[slot] for slot in in_slots)
            if not any(needed):
                continue
            inputs = [values[slot] for slot in in_slots]
            if name == "layer_norm":
                contributions = _layer_norm_vjp_saved(
                    output_grad, inputs, kwargs, needed,
                    self._layer_norm_stats.pop(out_slot, None),
                )
            elif name == "fused_elementwise":
                contributions = _fused_elementwise_vjp(
                    output_grad, inputs, values[out_slot], kwargs, needed,
                    saved=self._fused_saved.pop(out_slot, None),
                )
            else:
                contributions = VJPS[name](output_grad, inputs, values[out_slot], kwargs, needed)
            for slot, contribution in zip(in_slots, contributions):
                if contribution is None:
                    continue
                existing = grads.get(slot)
                grads[slot] = contribution if existing is None else existing + contribution
        for slot, parameter in self._param_slots.items():
            contribution = grads.get(slot)
            if contribution is None:
                continue
            if parameter.grad is None:
                parameter.grad = np.array(contribution, dtype=np.float64, copy=True)
            else:
                parameter.grad = parameter.grad + contribution

    def release(self) -> None:
        """Drop all per-run slot values so the plan pins no served batch.

        Buffered slots re-point at their plan-owned buffers on the next
        forward; view slots would otherwise keep aliasing the last caller's
        input array for the life of the plan cache.
        """
        values = self._values
        for slot in self._transient_slots:
            values[slot] = None
        self._layer_norm_stats.clear()
        self._fused_saved.clear()


def compile_training_plan(module, example: np.ndarray, fuse: bool = True) -> TrainingPlan:
    """Compile ``module``'s forward for training on ``example``'s shape.

    Unlike :func:`~repro.runtime.compiler.compile_plan`: constants are never
    folded (parameters must stay differentiable, live slots), and every
    buffered step gets its own dedicated buffer instead of a pooled one
    (the backward tape reads the forward values after the forward
    finishes).  The module may be in training mode; it is traced in
    evaluation mode and restored — :func:`plan_trainable` guarantees the
    two are the same dataflow.
    """
    trainable, reason = plan_trainable(module)
    if not trainable:
        raise CompileError(f"module cannot be compiled for training: {reason}")
    was_training = bool(getattr(module, "training", False))
    if was_training:
        module.eval()
    try:
        lowered = lower_module(module, example, fold_constants=False, fuse=fuse)
    finally:
        if was_training:
            module.train(True)

    classified = classify_steps(lowered.steps, lowered.values, lowered.input_value)
    steps: List[Tuple] = []
    chain_buffers: Dict[int, List[np.ndarray]] = {}
    workspace_bytes = 0
    for kind, step in classified:
        buffer = None
        if kind == "buffered":
            buffer = np.empty(step.out.data.shape, dtype=step.out.data.dtype)
            workspace_bytes += buffer.nbytes
            if step.name == "fused_elementwise":
                # One dedicated buffer per chain link (every link produces
                # the step's output shape — the fusion invariant), the tail
                # sharing the step's main buffer: the forward saves every
                # chain intermediate here so the tape backward reads them
                # instead of recomputing the chain per step (the
                # memory-for-epoch-time trade from the roadmap).
                links = step.kwargs["chain"]
                interiors = [np.empty_like(buffer) for _ in range(len(links) - 1)]
                workspace_bytes += sum(interior.nbytes for interior in interiors)
                chain_buffers[step.out_slot] = interiors + [buffer]
        steps.append((step.name, K.KERNELS[step.name], step.in_slots, step.kwargs, step.out_slot, buffer))
        missing = VJPS.get(step.name) is None
        if missing:
            raise CompileError(f"op {step.name!r} has no training backward (VJP)")

    requires = [False] * len(lowered.values)
    for slot in lowered.param_slots:
        requires[slot] = True
    for name, kernel, in_slots, kwargs, out_slot, buffer in steps:
        if any(requires[slot] for slot in in_slots):
            requires[out_slot] = True

    stats = PlanStats(
        input_shape=tuple(np.asarray(example).shape),
        traced_ops=lowered.traced_ops,
        steps=len(steps),
        folded=lowered.folded,
        pruned=lowered.pruned,
        workspace_bytes=workspace_bytes,
        steps_unfused=lowered.steps_unfused,
        fused_chain_lengths=lowered.chain_lengths,
    )
    return TrainingPlan(
        steps, lowered.values, 0, lowered.output_slot, lowered.param_slots, requires, stats,
        chain_buffers=chain_buffers,
    )


class TrainingStep:
    """Handle tying one forward's predictions to its pending backward."""

    def __init__(self, plan: TrainingPlan, predictions: np.ndarray, batch: int, padded: int) -> None:
        self.predictions = predictions  # (batch, ...) fresh copy, raw rows only
        self._plan = plan
        self._batch = batch
        self._padded = padded

    def backward(self, grad: np.ndarray) -> None:
        """Run the tape backward from ``d loss / d predictions``.

        When the forward was padded to a bucket, the gradient is embedded
        into zero rows for the padding — replicated rows therefore
        contribute exactly nothing to any parameter gradient.
        """
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.predictions.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match predictions "
                f"shape {self.predictions.shape}"
            )
        if self._padded != self._batch:
            full = np.zeros((self._padded,) + grad.shape[1:], dtype=np.float64)
            full[: self._batch] = grad
            grad = full
        self._plan.backward(grad)
        self._plan.release()


class CompiledTrainingModel:
    """Per-shape cache of :class:`TrainingPlan` over one module.

    The training-loop counterpart of :class:`~repro.runtime.engine.CompiledModel`:
    one plan per batch shape, parameters captured by reference — optimiser
    steps and ``load_state_dict`` need no recompile.  Strictly sequential:
    run one :meth:`step`'s backward before starting the next.

    Bucketing defaults to **off** here, unlike serving: an epoch sees O(1)
    distinct shapes (the full batch plus one ragged tail), so the plan
    cache needs no bounding, and padding a non-power-of-two training batch
    would pay the padded cost in the forward *and* the tape backward on
    every step.  Pass ``bucket_batches=True`` (or a cap) only when feeding
    genuinely ragged training batches.
    """

    def __init__(self, module, max_plans: int = 8, fuse: bool = True,
                 bucket_batches=False) -> None:
        trainable, reason = plan_trainable(module)
        if not trainable:
            raise CompileError(f"module cannot be compiled for training: {reason}")
        if max_plans <= 0:
            raise ValueError("max_plans must be positive")
        self._module = module
        self._fuse = fuse
        self._bucket_cap = resolve_bucket_cap(bucket_batches)
        self._max_plans = max_plans
        self._plans: "OrderedDict[Tuple[int, ...], TrainingPlan]" = OrderedDict()
        self._lock = threading.Lock()

    @property
    def module(self):
        """The wrapped module."""
        return self._module

    def step(self, inputs) -> TrainingStep:
        """Run one compiled forward; returns predictions plus the tape handle."""
        array = np.asarray(inputs, dtype=np.float64)
        array, trim = pad_batch_to_bucket(array, self._bucket_cap)
        padded = array.shape[0] if array.ndim else 0
        batch = trim if trim is not None else padded
        plan = self._get_or_compile(array)
        predictions = plan.forward(array)[:batch].copy()
        return TrainingStep(plan, predictions, batch, padded)

    def _get_or_compile(self, array: np.ndarray) -> TrainingPlan:
        with self._lock:
            plan = self._plans.get(array.shape)
            if plan is not None:
                self._plans.move_to_end(array.shape)
                return plan
            plan = compile_training_plan(self._module, array, fuse=self._fuse)
            self._plans[array.shape] = plan
            while len(self._plans) > self._max_plans:
                self._plans.popitem(last=False)
            return plan

    def plan_stats(self) -> List[PlanStats]:
        """Stats of every cached training plan."""
        with self._lock:
            return [plan.stats for plan in self._plans.values()]


def compile_training_model(module, **kwargs) -> CompiledTrainingModel:
    """Build a :class:`CompiledTrainingModel` (raises ``CompileError`` when
    the module has train-only stochastic behaviour; see :func:`plan_trainable`)."""
    return CompiledTrainingModel(module, **kwargs)
