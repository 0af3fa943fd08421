"""Module compiler: trace a forward pass, emit a flat kernel plan.

Compilation runs the module's forward once on an example input with a trace
hook installed in the autograd layer.  Every primitive op reports
``(kernel name, constant kwargs, parent tensors, output tensor)`` through
``Tensor._make``; because hooks fire in execution order, the lowered step
list is already a topological order of the dataflow and can be replayed
linearly.

The passes that turn the forward into a :class:`~repro.runtime.engine.Plan`:

1. **lowering, as the forward runs** — the hook turns each op into a plan
   step while its tensors are still alive, and keeps none of them:

   * *slot assignment* — every tensor becomes a slot: the input
     placeholder, a captured constant (parameters, buffers, literals
     created inside ``forward``) or a step output;
   * *constant folding* — a step whose inputs are all constants already
     computed its value (embedding lookups of fixed indices, learned
     adjacencies like ``softmax(relu(E Eᵀ))``, scale-fusion weights); the
     value is promoted to a constant and no step is emitted;
   * *view classification* — a view op whose output shares memory with its
     parent needs no buffer; a copying ``reshape`` becomes the
     buffer-friendly ``reshape_copy``.

   A step keeps only its output shape and kind, so the trace holds about
   one forward's memory, not every intermediate at once;
2. **dead-step pruning** — steps that do not reach the output are removed;
3. **elementwise-chain fusion** — single-consumer runs of shape-preserving
   elementwise steps (add/mul/tanh/relu/… — see
   :data:`repro.tensor.kernels.FUSABLE_ELEMENTWISE`) collapse into one
   ``fused_elementwise`` step executed as a blocked chain in a single
   buffer, turning N memory passes over large intermediates into one
   cache-resident sweep;
4. **workspace allocation** — every surviving non-view step gets a
   preallocated output buffer, pooled by liveness so the working set stays
   at the peak live size.

Passes 1-3 are :func:`lower_module` (the trace), pass 4 is
:func:`layout_plan`.  Between them, a :class:`Rebatcher` keeps the
lowerings traced at one and two rows and derives the lowering at any
other batch size from them: every int that is ``a`` at b1 and ``2a`` at
b2 becomes ``a·B``, and a model whose two traces differ in any other way
falls back to a trace per size, counted and named.

Plans also carry an execution **precision policy** (``dtype``): tracing
always runs the float64 autograd engine, but the emitted plan may bind its
constants and workspace buffers at float32, halving the memory traffic the
fused kernels are bound by (see :func:`repro.runtime.engine.resolve_precision`).

Tracing requirements (all satisfied by the models in this library):

* the module must be in **evaluation mode** — training-time behaviour
  (dropout masks, batch-norm statistics updates) would bake per-trace
  randomness into the plan;
* the forward must be a fixed dataflow for a fixed input *shape* — Python
  loops over time steps are fine (they unroll), but branching on input
  *values* would freeze the traced branch;
* every op must go through the kernel layer (``Tensor._make`` with an op
  spec) — raw ``numpy`` detours on ``.data`` would bake input-dependent
  constants, and the tracer rejects spec-less ops loudly.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor, no_grad
from ..tensor import kernels as K
from ..tensor.tensor import _set_trace_hook

from .engine import Plan, PlanSpec, PlanStats, StepSpec, bind_plan

__all__ = [
    "CompileError", "Rebatcher", "build_plan_spec", "compile_plan", "layout_plan", "lower_module",
]

#: Serialises compilations.  Trace hooks are keyed by thread, so tensor ops
#: on other threads can never leak into a plan; the lock additionally keeps
#: concurrent compilations from interleaving their (GIL-shared) module
#: state, e.g. running the same module's forward twice at once.
_COMPILE_LOCK = threading.Lock()


class CompileError(RuntimeError):
    """The module's forward pass cannot be captured as a kernel plan."""


class _Step:
    """One lowered plan step before kernel binding.

    ``kind`` is ``view`` (the kernel returned a view of its first input:
    no buffer, and for liveness the output aliases the input's storage),
    ``buffered`` (the kernel writes into a preallocated output buffer) or
    ``alloc`` (the kernel allocates its result per call — advanced
    indexing; rare, and usually constant-folded away).
    """

    __slots__ = ("name", "kwargs", "in_slots", "out_slot", "shape", "kind")

    def __init__(self, name, kwargs, in_slots, out_slot, shape, kind) -> None:
        self.name = name
        self.kwargs = kwargs
        self.in_slots = in_slots
        self.out_slot = out_slot
        self.shape = shape
        self.kind = kind


class _Lowered:
    """A forward lowered to slots and steps, shared by the inference and
    training compilers.

    While tracing, the instance is the thread's trace hook and lowers each
    op as it runs (pass 1 of the module docstring).  A tensor's slot is
    marked on the tensor itself, tagged with a token unique to this trace:
    intermediates are freed as the forward goes, so a tensor created later
    may reuse a freed one's ``id()``, and a mark left by an earlier trace
    (or copied along with a pickled module) must not match.
    """

    __slots__ = (
        "steps", "values", "is_const", "output_slot", "param_slots", "fold_constants",
        "traced_ops", "folded", "pruned", "steps_unfused", "chain_lengths", "_token",
    )

    def __init__(self, fold_constants: bool) -> None:
        self.steps: List[_Step] = []
        self.values: List[Optional[np.ndarray]] = [None]  # slot 0 is the input
        self.is_const: List[bool] = [False]
        self.output_slot = 0
        #: slot -> leaf Tensor for constants that are learnable parameters
        #: (consumed by the training compiler to route gradients).
        self.param_slots: Dict[int, Tensor] = {}
        self.fold_constants = fold_constants
        self.traced_ops = 0
        self.folded = 0
        self.pruned = 0
        self.steps_unfused = 0
        self.chain_lengths: Tuple[int, ...] = ()
        self._token = object()

    def new_slot(self, tensor: Tensor, value: Optional[np.ndarray]) -> int:
        """Give ``tensor`` a new slot: a constant ``value``, or ``None`` for
        a step output."""
        self.values.append(value)
        self.is_const.append(value is not None)
        slot = len(self.values) - 1
        tensor._trace_slot = (self._token, slot)
        return slot

    def slot_of(self, tensor: Tensor) -> Optional[int]:
        """The slot this trace gave ``tensor``, or ``None``."""
        mark = getattr(tensor, "_trace_slot", None)
        return mark[1] if mark is not None and mark[0] is self._token else None

    def _input_slot(self, parent: Tensor) -> int:
        slot = self.slot_of(parent)
        if slot is None:
            # First sight of a tensor no step produced: a captured constant.
            slot = self.new_slot(parent, parent.data)
            if parent.requires_grad:
                self.param_slots[slot] = parent
        return slot

    def __call__(self, op, parents: Tuple[Tensor, ...], out: Tensor) -> None:
        if op is None:
            raise CompileError(
                "encountered an autograd op without a kernel spec; every "
                "primitive consumed by the runtime must pass op=(name, kwargs) "
                "to Tensor._make"
            )
        name, kwargs = op
        if name not in K.KERNELS:
            raise CompileError(f"op {name!r} has no kernel in repro.tensor.kernels.KERNELS")
        self.traced_ops += 1
        in_slots = tuple(self._input_slot(parent) for parent in parents)
        if self.fold_constants and all(self.is_const[slot] for slot in in_slots):
            # The traced output already holds the folded value.
            self.new_slot(out, out.data)
            self.folded += 1
            return
        kind = "buffered"
        if name in K.VIEW_OPS:
            # Probe against the parent while both arrays are alive: a
            # copying reshape returns a *view of a fresh copy* (``base``
            # set, no memory shared), which would otherwise allocate that
            # copy again on every call.
            if np.may_share_memory(out.data, parents[0].data):
                kind = "view"
            elif name == "reshape":
                name = "reshape_copy"
            else:
                kind = "alloc"
        out_slot = self.new_slot(out, None)
        self.steps.append(_Step(name, kwargs, in_slots, out_slot, out.data.shape, kind))


def lower_module(module, example: np.ndarray, fold_constants: bool = True,
                 fuse: bool = True) -> _Lowered:
    """Trace ``module`` on ``example`` and run the graph passes (lower, prune, fuse).

    The result is backend-neutral: :func:`compile_plan` binds it to pooled
    workspace buffers for inference, the training compiler
    (:mod:`repro.runtime.training`) to dedicated live buffers plus a
    gradient tape.
    """
    if getattr(module, "training", False):
        raise CompileError(
            "cannot compile a module in training mode; call module.eval() first"
        )
    placeholder = Tensor(np.asarray(example, dtype=np.float64))
    lowered = _Lowered(fold_constants)
    placeholder._trace_slot = (lowered._token, 0)
    with _COMPILE_LOCK:
        previous = _set_trace_hook(lowered)
        try:
            with no_grad():
                output = module(placeholder)
        finally:
            _set_trace_hook(previous)
    if not isinstance(output, Tensor):
        raise CompileError(
            f"module forward returned {type(output).__name__}; a single Tensor is required"
        )
    output_slot = lowered.slot_of(output)
    if output_slot is None:
        # The forward returned a tensor that never went through the kernel
        # layer (a constant built inside forward); capture it directly.
        output_slot = lowered.new_slot(output, output.data)
    raw_steps = lowered.steps

    # ------------------------------------------------------------------
    # Pass 2: dead-step pruning (backward reachability from the output).
    # ------------------------------------------------------------------
    needed = {output_slot}
    kept_flags = [False] * len(raw_steps)
    for index in range(len(raw_steps) - 1, -1, -1):
        step = raw_steps[index]
        if step.out_slot in needed:
            kept_flags[index] = True
            needed.update(step.in_slots)
    lowered.pruned = len(raw_steps) - sum(kept_flags)
    kept = [step for keep, step in zip(kept_flags, raw_steps) if keep]
    lowered.steps_unfused = len(kept)

    # ------------------------------------------------------------------
    # Pass 3: elementwise-chain fusion.
    # ------------------------------------------------------------------
    if fuse:
        kept, lowered.chain_lengths = _fuse_elementwise(kept, output_slot)

    lowered.steps = kept
    lowered.output_slot = output_slot
    return lowered


def _fuse_elementwise(steps: List[_Step], output_slot: int) -> Tuple[List[_Step], Tuple[int, ...]]:
    """Collapse single-consumer runs of elementwise steps into fused steps.

    A step joins the chain of its predecessor when it is elementwise
    (:data:`~repro.tensor.kernels.FUSABLE_ELEMENTWISE`), directly follows it
    in plan order, is the predecessor's *only* consumer, and produces the
    same output shape — the invariants that let the whole chain run
    in-place in one buffer.  Interior slots disappear from the plan; the
    fused step reads the union of the chain's external inputs and writes
    the tail's slot.
    """
    consumer_count: Dict[int, int] = {}
    for step in steps:
        for slot in set(step.in_slots):
            consumer_count[slot] = consumer_count.get(slot, 0) + 1

    fused: List[_Step] = []
    chain_lengths: List[int] = []
    index = 0
    while index < len(steps):
        step = steps[index]
        if step.name not in K.FUSABLE_ELEMENTWISE:
            fused.append(step)
            index += 1
            continue
        chain = [step]
        cursor = index
        while cursor + 1 < len(steps):
            tail, candidate = steps[cursor], steps[cursor + 1]
            if (
                candidate.name in K.FUSABLE_ELEMENTWISE
                and tail.out_slot in candidate.in_slots
                and consumer_count.get(tail.out_slot) == 1
                and tail.out_slot != output_slot
                and candidate.shape == tail.shape
            ):
                chain.append(candidate)
                cursor += 1
            else:
                break
        if len(chain) == 1:
            fused.append(step)
            index += 1
            continue
        # Build the instruction list: operand references are indices into
        # the fused step's external input tuple, or -1 for the running
        # value (the previous instruction's output).
        external: List[int] = []
        position: Dict[int, int] = {}
        instructions = []
        previous_slot: Optional[int] = None
        for link in chain:
            refs = []
            for slot in link.in_slots:
                if slot == previous_slot:
                    refs.append(-1)
                    continue
                if slot not in position:
                    position[slot] = len(external)
                    external.append(slot)
                refs.append(position[slot])
            instructions.append((link.name, K.KERNELS[link.name], tuple(refs), link.kwargs))
            previous_slot = link.out_slot
        tail = chain[-1]
        fused.append(
            _Step(
                "fused_elementwise",
                {"chain": tuple(instructions)},
                tuple(external),
                tail.out_slot,
                tail.shape,
                "buffered",
            )
        )
        chain_lengths.append(len(chain))
        index = cursor + 1
    return fused, tuple(sorted(chain_lengths))


def build_plan_spec(
    module,
    example: np.ndarray,
    fuse: bool = True,
    dtype=np.float64,
):
    """Trace and lower ``module`` into a serialisable plan description.

    Returns ``(spec, values)``: a :class:`~repro.runtime.engine.PlanSpec`
    holding the step list (fused chains unbound), the pooled workspace
    layout as storage ids and the plan stats — plus the full slot table
    with the constants already cast to the plan dtype.
    :func:`~repro.runtime.engine.bind_plan` materialises the pair into an
    executable :class:`Plan`; :mod:`repro.runtime.artifacts` persists it to
    disk.  Every structural decision (folding, pruning, fusion, pooling)
    happens here, so a bound artifact replays exactly the plan a fresh
    compile would produce.

    The two halves are :func:`lower_module` (the trace) and
    :func:`layout_plan` (liveness, pooling and stats).
    """
    return layout_plan(lower_module(module, example, fuse=fuse), np.shape(example), dtype)


def layout_plan(lowered: _Lowered, input_shape: Tuple[int, ...], dtype=np.float64):
    """Lay ``lowered`` out as a plan for ``input_shape``: returns ``(spec, values)``.

    Runs liveness analysis, pools workspace storages by byte size and
    fills in the plan stats; the constants are cast to ``dtype``.
    ``lowered`` may come from a trace at ``input_shape`` or from
    :class:`Rebatcher` (see :func:`build_plan_spec` for the pair returned).
    """
    dtype = np.dtype(dtype)
    steps = lowered.steps
    output_slot = lowered.output_slot

    # A fresh slot table: the plan writes step outputs into it as it runs,
    # and one lowering may be laid out many times.  Every floating constant
    # (parameters, folded values) is cast to the policy dtype once;
    # non-float constants (none today) pass through.
    values: List[Optional[np.ndarray]] = []
    for value, const in zip(lowered.values, lowered.is_const):
        if const and dtype != np.float64 and np.issubdtype(value.dtype, np.floating):
            value = value.astype(dtype)
        values.append(value if const else None)

    # ------------------------------------------------------------------
    # Liveness analysis over underlying buffers.
    #
    # Each buffered step's output gets a storage token; view steps propagate
    # their input's token (a view must pin the storage it aliases).  A token
    # is dead after the last step that reads any slot carrying it, at which
    # point its buffer returns to the pool for a later step — this keeps the
    # working set at the peak *live* size (cache-warm), not the sum of all
    # intermediates.
    # ------------------------------------------------------------------
    token_of_slot: Dict[int, Optional[int]] = {}
    last_use: Dict[int, int] = {}
    next_token = 0

    for index, step in enumerate(steps):
        for slot in step.in_slots:
            token = token_of_slot.get(slot)
            if token is not None:
                last_use[token] = index
        if step.kind == "view":
            token_of_slot[step.out_slot] = token_of_slot.get(step.in_slots[0])
        elif step.kind == "buffered":
            token_of_slot[step.out_slot] = next_token
            next_token += 1
        else:  # alloc: fresh array per call, nothing to pool or pin
            token_of_slot[step.out_slot] = None
    output_token = token_of_slot.get(output_slot)
    if output_token is not None:
        last_use[output_token] = len(steps)  # never recycled

    # ------------------------------------------------------------------
    # Workspace layout (pooled by byte size), expressed as storage ids.
    #
    # Replay is index-ordered, so any storage freed by an earlier step is
    # safe to reuse.  No memory is allocated here — steps reference
    # storages by id and :func:`bind_plan` materialises them, so the
    # aliasing structure survives serialisation byte for byte.
    # ------------------------------------------------------------------
    step_specs: List[StepSpec] = []
    pool: Dict[int, List[int]] = {}
    storage_of_token: Dict[int, int] = {}
    storage_sizes: List[int] = []
    for index, step in enumerate(steps):
        storage_id: Optional[int] = None
        if step.kind == "buffered":
            nbytes = math.prod(step.shape) * dtype.itemsize
            bucket = pool.get(nbytes)
            if bucket:
                storage_id = bucket.pop()
            else:
                storage_id = len(storage_sizes)
                storage_sizes.append(nbytes)
            token = token_of_slot[step.out_slot]
            storage_of_token[token] = storage_id
        kwargs = step.kwargs
        if step.name == "fused_elementwise":
            # Strip the bound kernel functions out of the chain: the spec
            # stores (name, refs, kwargs) and bind_plan re-resolves names.
            kwargs = {
                "chain": tuple(
                    (name, refs, instruction_kwargs)
                    for name, _kernel, refs, instruction_kwargs in step.kwargs["chain"]
                )
            }
        step_specs.append(
            StepSpec(
                name=step.name,
                in_slots=tuple(step.in_slots),
                kwargs=kwargs,
                out_slot=step.out_slot,
                out_shape=tuple(step.shape),
                storage=storage_id,
            )
        )
        # Recycle storages whose last reader was this step.  (Allocation
        # happens first, so a step's output never aliases its inputs.)
        for slot in set(step.in_slots):
            token = token_of_slot.get(slot)
            if token is not None and last_use.get(token) == index:
                freed = storage_of_token.pop(token, None)
                if freed is not None:
                    pool.setdefault(storage_sizes[freed], []).append(freed)

    stats = PlanStats(
        input_shape=tuple(int(dim) for dim in input_shape),
        traced_ops=lowered.traced_ops,
        steps=len(step_specs),
        folded=lowered.folded,
        pruned=lowered.pruned,
        workspace_bytes=sum(storage_sizes),
        steps_unfused=lowered.steps_unfused,
        fused_chain_lengths=lowered.chain_lengths,
        dtype=str(dtype),
    )
    spec = PlanSpec(
        dtype=str(dtype),
        input_slot=0,
        output_slot=output_slot,
        num_slots=len(values),
        const_slots=tuple(
            slot for slot, const in enumerate(lowered.is_const) if const
        ),
        steps=step_specs,
        storage_sizes=storage_sizes,
        stats=stats,
    )
    return spec, values


# ----------------------------------------------------------------------
# Rebatching: every batch size's lowering from the b1 and b2 traces.
# ----------------------------------------------------------------------
class _Mismatch(Exception):
    """The b1 and b2 lowerings differ by more than their batch dimension."""


class _PerRow:
    """An int that is ``rows`` per batch row: ``rows`` at b1, ``2 * rows`` at b2."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        self.rows = rows


def _describe(value) -> str:
    if isinstance(value, np.ndarray):
        return f"array{value.shape}"
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _pattern(at_b1, at_b2):
    """``at_b1`` with every int that doubles at b2 replaced by a :class:`_PerRow`.

    Tuples, dicts and slices are walked; arrays must match byte for byte,
    other values compare equal (or are the same object).  Any other
    difference raises :class:`_Mismatch`.  A part without a :class:`_PerRow`
    comes back as the b1 object itself.
    """
    if at_b1 is at_b2:
        return at_b1
    kind = type(at_b1)
    if kind is type(at_b2):
        if kind is int:
            if at_b1 == at_b2:
                return at_b1
            if at_b1 != 0 and at_b2 == 2 * at_b1:
                return _PerRow(at_b1)
        elif kind is tuple:
            if len(at_b1) == len(at_b2):
                parts = tuple(_pattern(one, two) for one, two in zip(at_b1, at_b2))
                if all(part is one for part, one in zip(parts, at_b1)):
                    return at_b1
                return parts
        elif kind is dict:
            if list(at_b1) == list(at_b2):
                parts = {key: _pattern(at_b1[key], at_b2[key]) for key in at_b1}
                if all(parts[key] is at_b1[key] for key in at_b1):
                    return at_b1
                return parts
        elif kind is slice:
            bounds = (at_b1.start, at_b1.stop, at_b1.step)
            parts = _pattern(bounds, (at_b2.start, at_b2.stop, at_b2.step))
            return at_b1 if parts is bounds else slice(*parts)
        elif kind is np.ndarray:
            if (
                at_b1.shape == at_b2.shape
                and at_b1.dtype == at_b2.dtype
                and np.array_equal(
                    np.ascontiguousarray(at_b1).reshape(-1).view(np.uint8),
                    np.ascontiguousarray(at_b2).reshape(-1).view(np.uint8),
                )
            ):
                return at_b1
        elif kind in (bool, float, str):
            if at_b1 == at_b2:
                return at_b1
    raise _Mismatch(f"{_describe(at_b1)} at b1, {_describe(at_b2)} at b2")


def _fill(pattern, batch: int):
    """``pattern`` with every :class:`_PerRow` written out for ``batch`` rows."""
    kind = type(pattern)
    if kind is _PerRow:
        return pattern.rows * batch
    if kind is tuple:
        return tuple(_fill(part, batch) for part in pattern)
    if kind is dict:
        return {key: _fill(part, batch) for key, part in pattern.items()}
    if kind is slice:
        return slice(*_fill((pattern.start, pattern.stop, pattern.step), batch))
    return pattern


#: ``_Lowered`` slot layout and counts that must match between b1 and b2;
#: a rebatched lowering shares them, and the constants, with b1.
_SHARED_FIELDS = (
    "is_const", "output_slot", "param_slots", "traced_ops", "folded", "pruned",
    "steps_unfused", "chain_lengths",
)


def _batch_rule(b1: _Lowered, b2: _Lowered) -> List[Tuple[_Step, object, object]]:
    """Each b1 step with its shape and kwargs patterns (``None`` when they
    hold no batch dimension); raises :class:`_Mismatch` naming the first
    difference between the lowerings that is not a batch dimension."""
    for name in _SHARED_FIELDS:
        one, two = getattr(b1, name), getattr(b2, name)
        if name == "param_slots":
            one, two = sorted(one), sorted(two)
        if one != two:
            raise _Mismatch(f"{name}: {_describe(one)} at b1, {_describe(two)} at b2")
    for slot, (one, two) in enumerate(zip(b1.values, b2.values)):
        if b1.is_const[slot]:
            try:
                same = _pattern(one, two) is one
            except _Mismatch:
                same = False
            if not same:
                raise _Mismatch(
                    f"constant slot {slot}: {_describe(one)} at b1, {_describe(two)} at b2"
                )
    if len(b1.steps) != len(b2.steps):
        raise _Mismatch(f"{len(b1.steps)} steps at b1, {len(b2.steps)} at b2")
    rule = []
    for index, (one, two) in enumerate(zip(b1.steps, b2.steps)):
        try:
            head_one = (one.name, one.kind, one.in_slots, one.out_slot)
            head_two = (two.name, two.kind, two.in_slots, two.out_slot)
            if head_one != head_two:
                raise _Mismatch(f"{head_one} at b1, {head_two} at b2")
            shape = _pattern(one.shape, two.shape)
            kwargs = _pattern(one.kwargs, two.kwargs)
        except _Mismatch as error:
            raise _Mismatch(f"step {index} ({one.name}): {error}") from None
        rule.append((
            one,
            None if shape is one.shape else shape,
            None if kwargs is one.kwargs else kwargs,
        ))
    return rule


def _rebatched(b1: _Lowered, rule, batch: int) -> _Lowered:
    """The lowering at ``batch`` rows: b1's slots and constants, with every
    batch dimension in ``rule`` written out for ``batch``."""
    lowered = _Lowered(b1.fold_constants)
    for name in _SHARED_FIELDS + ("values",):
        setattr(lowered, name, getattr(b1, name))
    lowered.steps = [
        step if shape is None and kwargs is None else _Step(
            step.name,
            step.kwargs if kwargs is None else _fill(kwargs, batch),
            step.in_slots,
            step.out_slot,
            step.shape if shape is None else _fill(shape, batch),
            step.kind,
        )
        for step, shape, kwargs in rule
    ]
    return lowered


class Rebatcher:
    """Lowers one module at any batch size from two traces per input tail.

    The lowerings traced at one and at two rows are kept.  When they
    differ only in ints that double — batch dimensions of step shapes and
    of reshape targets, slices and other kwargs — the lowering at ``B``
    rows is the b1 lowering with each such int ``a`` written as ``a·B``:
    steps, slots and constants (shared with b1) stay as they are, so
    :func:`layout_plan` gives the spec a trace at ``B`` would.  Any other
    difference (a constant shaped by the batch, a reshape that is a view
    at b1 but a copy at b2, …) is a *fallback*: every other size is traced
    at its own shape, counted in :attr:`fallbacks`, and the first
    difference is named in :attr:`fallback`.

    One instance serves one module, with one ``fuse`` setting and one set
    of weights; :meth:`clear` drops its traces after a weight change.
    Thread-safe: traces run outside the lock and the first insert wins.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._traces: Dict[Tuple[Tuple[int, ...], int], _Lowered] = {}
        #: input tail -> (b1 lowering, batch rule), or the fallback reason.
        self._rules: Dict[Tuple[int, ...], object] = {}
        #: Lowerings derived without a trace.
        self.rebatched = 0
        #: Lowerings traced at their own batch size because of a fallback.
        self.fallbacks = 0
        #: Why the first fallback happened, or ``None``.
        self.fallback: Optional[str] = None

    def lower(self, module, example: np.ndarray, fuse: bool = True) -> _Lowered:
        """``module`` lowered at ``example``'s shape: traced at one or two
        rows, rebatched from those traces otherwise."""
        batch = example.shape[0]
        if batch <= 2:
            return self._trace(module, example, fuse)
        rule = self._rule(module, example, fuse)
        rebatch = not isinstance(rule, str)
        with self._lock:
            if rebatch:
                self.rebatched += 1
            else:
                self.fallbacks += 1
        return _rebatched(*rule, batch) if rebatch else lower_module(module, example, fuse=fuse)

    def counts(self) -> Tuple[int, int, Optional[str]]:
        """``(rebatched, fallbacks, fallback)``, read together."""
        with self._lock:
            return self.rebatched, self.fallbacks, self.fallback

    def clear(self) -> None:
        """Drop every kept trace (the module's weights changed)."""
        with self._lock:
            self._traces.clear()
            self._rules.clear()

    def _trace(self, module, rows: np.ndarray, fuse: bool) -> _Lowered:
        key = (tuple(rows.shape[1:]), rows.shape[0])
        with self._lock:
            lowered = self._traces.get(key)
        if lowered is None:
            traced = lower_module(module, rows, fuse=fuse)
            with self._lock:
                lowered = self._traces.setdefault(key, traced)
        return lowered

    def _rule(self, module, example: np.ndarray, fuse: bool):
        tail = tuple(example.shape[1:])
        with self._lock:
            rule = self._rules.get(tail)
        if rule is None:
            b1 = self._trace(module, example[:1], fuse)
            b2 = self._trace(module, example[:2], fuse)
            try:
                built = (b1, _batch_rule(b1, b2))
            except _Mismatch as error:
                shape = ", ".join(["B", *map(str, tail)])
                built = f"{type(module).__name__} at input ({shape}): {error}"
            with self._lock:
                rule = self._rules.setdefault(tail, built)
                if isinstance(rule, str) and self.fallback is None:
                    self.fallback = rule
        return rule


def compile_plan(
    module,
    example: np.ndarray,
    fuse: bool = True,
    dtype=np.float64,
    rebatcher: Optional[Rebatcher] = None,
    workspace=None,
) -> Plan:
    """Compile ``module``'s forward into a :class:`Plan` for one input shape.

    ``dtype`` is the plan's execution precision (the trace itself always
    runs the float64 autograd engine): constants are cast once at compile
    time, workspace buffers are allocated at the policy's itemsize, and the
    engine casts the input on entry and the output back to float64 on exit.

    The plan is :func:`layout_plan` over a lowering, followed by
    :func:`~repro.runtime.engine.bind_plan` (buffer and kernel binding) —
    the same two halves an on-disk plan artifact goes through, so loaded
    plans are structurally identical to compiled ones.  Without a
    ``rebatcher`` the lowering is a trace at ``example``'s own shape, so the
    whole is :func:`build_plan_spec` plus ``bind_plan``: this is how to get
    an exact-shape plan, or an unfused one (``fuse=False``), as a
    reference.  With a ``rebatcher`` (one per module) the lowering comes
    from :meth:`Rebatcher.lower`, which traces the module at one and two
    rows only.  ``workspace`` is passed on to ``bind_plan``.
    """
    example = np.asarray(example)
    if rebatcher is None:
        lowered = lower_module(module, example, fuse=fuse)
    else:
        lowered = rebatcher.lower(module, example, fuse)
    return bind_plan(*layout_plan(lowered, example.shape, dtype), workspace=workspace)

