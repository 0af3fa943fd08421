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
  it in reverse and applying each op's entries from the gradient table
  (:data:`repro.tensor.gradients.GRADIENTS`, the same functions
  ``Tensor.backward`` calls) accumulates gradients into the originating
  :class:`~repro.nn.Parameter` objects, so optimisers and gradient
  clipping work unchanged.

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
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..tensor import kernels as K
from ..tensor.gradients import GRADIENTS

from .compiler import CompileError, lower_module
from .engine import PlanStats

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


def _chain_backward(grad, inputs, chain, needed, intermediates):
    """Backward of one fused chain from its saved per-link values.

    Walks the links in reverse, applying each link's entries from the
    gradient table: the accumulator's gradient carries to the previous
    link, and external inputs that need a gradient collect theirs.
    Returns one gradient (or ``None``) per step input.
    """
    grads_in: List[Optional[np.ndarray]] = [None] * len(inputs)
    for index in range(len(chain) - 1, -1, -1):
        name, _, refs, link_kwargs = chain[index]
        entry = GRADIENTS[name]
        previous = intermediates[index - 1] if index > 0 else None
        arguments = [previous if ref < 0 else inputs[ref] for ref in refs]
        carried: Optional[np.ndarray] = None
        for position, ref in enumerate(refs):
            if ref >= 0 and not needed[ref]:
                continue
            contribution = entry[position](grad, arguments, intermediates[index], link_kwargs, None)
            if ref < 0:
                carried = contribution if carried is None else carried + contribution
            else:
                grads_in[ref] = contribution if grads_in[ref] is None else grads_in[ref] + contribution
        grad = carried
    return grads_in


class TrainingPlan:
    """One compiled training forward + recorded-tape backward, one shape.

    Not thread-safe and strictly one step in flight: :meth:`forward` leaves
    every intermediate in its dedicated buffer for :meth:`backward` to
    consume; a second forward overwrites them.
    """

    def __init__(self, steps, values, input_slot, output_slot, param_slots, requires, stats,
                 chain_buffers: Dict[int, List[np.ndarray]]) -> None:
        self._steps = steps  # (name, kernel, in_slots, kwargs, out_slot, buffer)
        self._values = values
        self._input_slot = input_slot
        self._output_slot = output_slot
        self._param_slots = param_slots  # slot -> Parameter
        self._requires = requires  # slot -> needs a gradient
        #: out_slot -> what the forward kept for the backward: layer norm's
        #: (x_hat, sigma), exactly like the autograd op keeps them, and a
        #: fused chain's per-link values.
        self._saved: Dict[int, object] = {}
        #: out_slot -> dedicated per-link buffers for fused-chain steps: the
        #: forward writes every chain intermediate into its own buffer (the
        #: tail link shares the step's main buffer) so the backward reads
        #: the saved values instead of recomputing the whole chain.
        self._chain_buffers = chain_buffers
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
        saved = self._saved
        values[self._input_slot] = array
        for name, kernel, in_slots, kwargs, out_slot, buffer in self._steps:
            if name == "fused_elementwise":
                # Run the chain link by link into the dedicated per-link
                # buffers (the tail is the step's main buffer) and save the
                # intermediates for the backward — same kernels on the same
                # operand values as the blocked single-buffer interpreter,
                # so the tail is bit-identical; the backward then skips the
                # chain recompute entirely.
                accumulator: Optional[np.ndarray] = None
                links: List[np.ndarray] = []
                for link, link_buffer in zip(kwargs["chain"], self._chain_buffers[out_slot]):
                    _, link_kernel, refs, link_kwargs = link
                    arguments = [
                        accumulator if ref < 0 else values[in_slots[ref]] for ref in refs
                    ]
                    accumulator = link_kernel(*arguments, out=link_buffer, **link_kwargs)
                    links.append(accumulator)
                saved[out_slot] = links
                values[out_slot] = accumulator
                continue
            if name == "layer_norm":
                # Compute through the stats form (bit-identical to the
                # kernel's in-buffer sequence) and save (x_hat, sigma) for
                # the backward, like the autograd op.
                x, weight, bias = (values[i] for i in in_slots)
                x_hat, sigma = K.layer_norm_stats(x, kwargs["axes"], kwargs["eps"])
                np.multiply(x_hat, weight, out=buffer)
                np.add(buffer, bias, out=buffer)
                saved[out_slot] = (x_hat, sigma)
                values[out_slot] = buffer
                continue
            values[out_slot] = kernel(*[values[i] for i in in_slots], out=buffer, **kwargs)
        return values[self._output_slot]

    def backward(self, grad: np.ndarray) -> None:
        """Propagate ``d loss / d output`` back to the parameters.

        Walks the tape in reverse, applying each op's entries from the
        gradient table (:data:`repro.tensor.gradients.GRADIENTS`) to the
        forward values still sitting in the plan's buffers, and accumulates
        the resulting leaf gradients into ``Parameter.grad`` (summing with
        any existing gradient, like autograd leaves).
        """
        values = self._values
        requires = self._requires
        grads: Dict[int, np.ndarray] = {self._output_slot: np.asarray(grad, dtype=np.float64)}
        for name, kernel, in_slots, kwargs, out_slot, buffer in reversed(self._steps):
            output_grad = grads.pop(out_slot, None)
            if output_grad is None:
                continue
            needed = [requires[slot] for slot in in_slots]
            if not any(needed):
                continue
            inputs = [values[slot] for slot in in_slots]
            saved = self._saved.pop(out_slot, None)
            if name == "fused_elementwise":
                contributions = _chain_backward(output_grad, inputs, kwargs["chain"], needed, saved)
            else:
                entry = GRADIENTS[name]
                output = values[out_slot]
                contributions = [
                    entry[position](output_grad, inputs, output, kwargs, saved) if need else None
                    for position, need in enumerate(needed)
                ]
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
        """Drop all per-run slot values so the plan pins no trained batch.

        Buffered slots re-point at their plan-owned buffers on the next
        forward; view slots would otherwise keep aliasing the last caller's
        input array for the life of the plan cache.
        """
        values = self._values
        for slot in self._transient_slots:
            values[slot] = None
        self._saved.clear()


def compile_training_plan(module, example: np.ndarray) -> TrainingPlan:
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
        lowered = lower_module(module, example, fold_constants=False)
    finally:
        if was_training:
            module.train(True)

    steps: List[Tuple] = []
    chain_buffers: Dict[int, List[np.ndarray]] = {}
    workspace_bytes = 0
    for step in lowered.steps:
        ops = [link[0] for link in step.kwargs["chain"]] if step.name == "fused_elementwise" else [step.name]
        missing = [op for op in ops if op not in GRADIENTS]
        if missing:
            raise CompileError(f"op {missing[0]!r} has no entry in the gradient table")
        buffer = None
        if step.kind == "buffered":
            buffer = np.empty(step.shape)
            workspace_bytes += buffer.nbytes
            if step.name == "fused_elementwise":
                # One dedicated buffer per chain link (every link produces
                # the step's output shape — the fusion invariant), the tail
                # sharing the step's main buffer: the forward saves every
                # chain intermediate here so the tape backward reads them
                # instead of recomputing the chain per step (the
                # memory-for-epoch-time trade from the roadmap).
                interiors = [np.empty_like(buffer) for _ in range(len(ops) - 1)]
                workspace_bytes += sum(interior.nbytes for interior in interiors)
                chain_buffers[step.out_slot] = interiors + [buffer]
        steps.append((step.name, K.KERNELS[step.name], step.in_slots, step.kwargs, step.out_slot, buffer))

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
        chain_buffers,
    )


class TrainingStep:
    """Handle tying one forward's predictions to its pending backward."""

    def __init__(self, plan: TrainingPlan, predictions: np.ndarray) -> None:
        self.predictions = predictions  # fresh copy of the plan output
        self._plan = plan

    def backward(self, grad: np.ndarray) -> None:
        """Run the tape backward from ``d loss / d predictions``."""
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.predictions.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match predictions "
                f"shape {self.predictions.shape}"
            )
        self._plan.backward(grad)
        self._plan.release()


class CompiledTrainingModel:
    """Per-shape cache of :class:`TrainingPlan` over one module.

    The training-loop counterpart of :class:`~repro.runtime.engine.CompiledModel`:
    one plan per batch shape, parameters captured by reference — optimiser
    steps and ``load_state_dict`` need no recompile.  Strictly sequential:
    run one :meth:`step`'s backward before starting the next.

    Batches run at their exact shape: an epoch sees O(1) distinct shapes
    (the full batch plus one ragged tail), so the cache of
    :data:`MAX_PLANS` never churns, and padding a batch would pay the
    padded rows in the forward *and* the tape backward.
    """

    #: Plans kept per model, least recently used evicted first.
    MAX_PLANS = 8

    def __init__(self, module) -> None:
        trainable, reason = plan_trainable(module)
        if not trainable:
            raise CompileError(f"module cannot be compiled for training: {reason}")
        self._module = module
        self._plans: "OrderedDict[Tuple[int, ...], TrainingPlan]" = OrderedDict()
        self._lock = threading.Lock()

    @property
    def module(self):
        """The wrapped module."""
        return self._module

    def step(self, inputs) -> TrainingStep:
        """Run one compiled forward; returns predictions plus the tape handle."""
        array = np.asarray(inputs, dtype=np.float64)
        plan = self._get_or_compile(array)
        return TrainingStep(plan, plan.forward(array).copy())

    def _get_or_compile(self, array: np.ndarray) -> TrainingPlan:
        """Fetch the plan for ``array.shape``, compiling outside the cache
        lock; if two callers race on a new shape, the first insert wins."""
        with self._lock:
            plan = self._plans.get(array.shape)
            if plan is not None:
                self._plans.move_to_end(array.shape)
                return plan
        plan = compile_training_plan(self._module, array)
        with self._lock:
            plan = self._plans.setdefault(array.shape, plan)
            self._plans.move_to_end(array.shape)
            while len(self._plans) > self.MAX_PLANS:
                self._plans.popitem(last=False)
            return plan

    def plan_stats(self) -> List[PlanStats]:
        """Stats of every cached training plan."""
        with self._lock:
            return [plan.stats for plan in self._plans.values()]


def compile_training_model(module) -> CompiledTrainingModel:
    """Build a :class:`CompiledTrainingModel` (raises ``CompileError`` when
    the module has train-only stochastic behaviour; see :func:`plan_trainable`)."""
    return CompiledTrainingModel(module)
