"""Plan execution: flat kernel replay over preallocated workspace buffers.

A :class:`Plan` is the compiled form of one module forward pass for one
input shape: a linear sequence of kernel calls (no graph walking — the
trace order is already topological) over a slot table holding the input,
the captured constants and the intermediate buffers.

Per call, the engine pays one Python-level dispatch per surviving kernel
step and **zero allocations for intermediates**: every non-view step writes
into a buffer allocated once at compile time and reused across calls
(view steps — reshape, transpose, slicing — produce zero-copy views and
need no buffer at all).  This is the difference to an autograd forward
under ``no_grad``, which still builds a ``Tensor`` and an op record per op
and allocates every intermediate array.
"""

from __future__ import annotations

import mmap
import os
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..tensor import Tensor, no_grad
from ..tensor import kernels as K

__all__ = [
    "Plan",
    "PlanCacheInfo",
    "PlanSpec",
    "PlanStats",
    "StepSpec",
    "bind_plan",
    "CompiledModel",
    "DEFAULT_BUCKET_CAP",
    "MAX_PLAN_LANES",
    "MIN_LANE_ROWS",
    "PRECISION_ENV_VAR",
    "PRECISIONS",
    "WORKSPACE_ALIGN",
    "plan_workspace_nbytes",
    "resolve_bucket_cap",
    "resolve_precision",
    "batch_pieces",
    "lane_pieces",
    "bucket_batch_size",
    "pad_batch_to_bucket",
]

#: Bucket cap of the padded reference replay (:func:`bucket_batch_size`);
#: serving splits batches of any size into pieces and has no cap.
DEFAULT_BUCKET_CAP = 1024

#: Environment variable selecting the default execution precision (see
#: :func:`resolve_precision`).
PRECISION_ENV_VAR = "REPRO_RUNTIME_PRECISION"

#: Supported precision policies: plan execution dtypes by policy name.
PRECISIONS = ("float64", "float32")

def resolve_precision(policy: Union[None, str, np.dtype] = None) -> np.dtype:
    """Resolve a precision policy to the plan execution dtype.

    ``policy`` may be ``"float64"`` / ``"float32"`` (or the corresponding
    NumPy dtype), or ``None`` to consult the ``REPRO_RUNTIME_PRECISION``
    environment variable (defaulting to float64 — the bit-parity mode).
    """
    if policy is None:
        policy = os.environ.get(PRECISION_ENV_VAR, "").strip().lower() or "float64"
    name = np.dtype(policy).name if not isinstance(policy, str) else policy.lower()
    if name not in PRECISIONS:
        raise ValueError(
            f"unknown precision policy {policy!r}; expected one of {PRECISIONS} "
            f"(set via argument or the {PRECISION_ENV_VAR} environment variable)"
        )
    return np.dtype(name)


def resolve_bucket_cap(policy: None = None) -> int:
    """The padded reference replay's bucket cap, :data:`DEFAULT_BUCKET_CAP`.

    Kept, with :func:`bucket_batch_size` and :func:`pad_batch_to_bucket`,
    for the benchmark's padded reference replay only: no serving path
    calls them, and none of them reads the environment.
    """
    return DEFAULT_BUCKET_CAP


def batch_pieces(batch: int) -> List[int]:
    """Row counts of the plans that serve a ``batch``-row request.

    A batch runs as its binary decomposition into power-of-two pieces,
    largest first (19 rows run as 16 + 2 + 1), so a ragged stream of sizes
    replays O(log max_batch) plans and computes no padding row.  Splitting
    is exact because no forward here lets a row depend on its batch
    (``docs/runtime.md`` §Batch pieces).  Serving keeps the pieces: for
    perfbench's backfill mix they need 6 plans where exact-shape plans
    need 13, in the same workspace (``benchmarks/BENCH_runtime.json``
    ``ragged_cycle``).
    """
    return [1 << bit for bit in reversed(range(batch.bit_length())) if batch >> bit & 1]


#: Rows per lane chunk that a split aims for at least (see
#: :func:`lane_pieces`): two rows split 1 | 1 ran slower than one 2-row plan
#: (``benchmarks/BENCH_runtime.json`` ``lane_parallel``), because a 1-row
#: forward is bound by per-step dispatch, which holds the interpreter lock.
MIN_LANE_ROWS = 2

#: Most row lanes an inline serving worker runs: two lanes is the measured
#: configuration (``benchmarks/BENCH_runtime.json`` ``lane_parallel``, two
#: cores); more lanes on a wider host are unmeasured.
MAX_PLAN_LANES = 2


def lane_pieces(batch: int, lanes: int) -> List[List[int]]:
    """Plan pieces of each row lane serving a ``batch``-row request.

    The batch splits into at most ``lanes`` row-contiguous chunks whose
    sizes differ by at most one (larger first), and each chunk runs as its
    :func:`batch_pieces` decomposition: 19 rows on two lanes run as
    ``[[8, 2], [8, 1]]``.  No more chunks are used than give each
    :data:`MIN_LANE_ROWS` rows (rounding up), so 2 rows stay on one lane
    and 5 rows on three lanes run as 2 | 2 | 1; no lane is ever empty.
    """
    lanes = max(1, min(lanes, -(-batch // MIN_LANE_ROWS)))
    rows, extra = divmod(batch, lanes)
    return [batch_pieces(rows + (lane < extra)) for lane in range(lanes)]


def _probe(array: np.ndarray) -> np.ndarray:
    """One zero row shaped like a row of ``array``: how an empty batch is served."""
    return np.zeros((1,) + array.shape[1:], dtype=array.dtype)


def bucket_batch_size(batch: int, cap: Optional[int]) -> int:
    """The next power-of-two bucket of ``batch`` under cap ``cap``.

    Serving does not pad (see :func:`batch_pieces`); the benchmark's
    reference replay does (:func:`pad_batch_to_bucket`), since a row's
    output does not depend on its batch.  Batches above the cap, and any
    batch when ``cap`` is ``None``, keep their exact size.
    """
    if cap is None or batch <= 1 or batch > cap:
        return batch
    return min(1 << (batch - 1).bit_length(), cap)


def pad_batch_to_bucket(array: np.ndarray, cap: Optional[int]):
    """Pad axis 0 of ``array`` up to its bucket; returns ``(array, trim)``.

    ``trim`` is the original batch size when padding happened, ``None``
    when the array is returned as-is (an empty batch, a batch already at
    its bucket, or one above the cap).  Padding rows replicate the first
    row, so they can never produce the NaN/Inf a zero row might (e.g.
    through a division).
    """
    if array.ndim == 0 or array.shape[0] == 0:
        return array, None
    batch = array.shape[0]
    target = bucket_batch_size(batch, cap)
    if target == batch:
        return array, None
    padded = np.empty((target,) + array.shape[1:], dtype=array.dtype)
    padded[:batch] = array
    padded[batch:] = array[0]
    return padded, batch


@dataclass(frozen=True)
class PlanStats:
    """Size and provenance counters of one compiled plan."""

    input_shape: Tuple[int, ...]
    traced_ops: int
    steps: int
    folded: int
    pruned: int
    workspace_bytes: int
    #: Step count after folding/pruning but before elementwise-chain fusion.
    steps_unfused: int = 0
    #: Length of every fused chain (sorted); empty when fusion was off or
    #: found nothing.
    fused_chain_lengths: Tuple[int, ...] = field(default=())
    #: Execution precision of the plan's constants and workspace buffers.
    dtype: str = "float64"

    @property
    def fused_chains(self) -> int:
        """Number of elementwise chains collapsed into fused steps."""
        return len(self.fused_chain_lengths)

    @property
    def fused_chain_histogram(self) -> Dict[int, int]:
        """Chain length -> number of chains of that length."""
        histogram: Dict[int, int] = {}
        for length in self.fused_chain_lengths:
            histogram[length] = histogram.get(length, 0) + 1
        return histogram

    def __str__(self) -> str:
        fused = ""
        if self.fused_chain_lengths:
            histogram = ", ".join(
                f"{length}x{count}" for length, count in sorted(self.fused_chain_histogram.items())
            )
            fused = f", fused={self.steps_unfused}->{self.steps} (chains {histogram})"
        return (
            f"Plan(input={self.input_shape}, dtype={self.dtype}, steps={self.steps}, "
            f"folded={self.folded}, pruned={self.pruned}, "
            f"workspace={self.workspace_bytes / 1024:.1f} KiB{fused})"
        )


@dataclass(frozen=True)
class PlanCacheInfo:
    """Provenance counters of a :class:`CompiledModel`'s plan cache.

    ``compiles`` counts plans built by the compiler, whether traced at
    their own batch size or lowered from the b1 and b2 traces (those are
    also counted in ``rebatched``); ``artifact_loads`` counts plans rebuilt
    from the artifact store without any trace/fuse/layout work.  A
    warm-started worker therefore shows ``compiles == 0`` — the
    machine-checkable "zero retraces" contract of the cold-start
    benchmarks and the CI round-trip job.
    """

    plans: int
    compiles: int
    artifact_loads: int
    artifact_rejects: int
    artifact_saves: int
    #: Plans statically verified under ``REPRO_RUNTIME_VERIFY=1`` (one per
    #: fresh compile while the gate is on; artifact loads verify in the
    #: store — see :class:`~repro.runtime.artifacts.ArtifactStoreStats`).
    verifies: int = 0
    #: Fresh compiles (counted in ``compiles``) lowered from the module's
    #: b1 and b2 traces instead of a trace of their own.
    rebatched: int = 0
    #: Fresh compiles above two rows traced at their own batch size
    #: because the b1 and b2 traces differ beyond the batch dimension.
    rebatch_fallbacks: int = 0
    #: That difference, named, or ``None``.
    rebatch_fallback: Optional[str] = None
    #: Bytes of plan workspace the model holds: its lanes' arenas plus the
    #: own workspace of every cached 1-row plan and its lane copies, each
    #: at its :func:`plan_workspace_nbytes` layout.
    workspace_bytes: int = 0


@dataclass(frozen=True)
class StepSpec:
    """One plan step in backend-neutral, serialisable form.

    ``kwargs`` holds only plain data (scalars, tuples, ndarrays, sparse
    constants) — kernel *functions* are never stored.  Fused steps keep
    their chain as unbound ``(name, operand_refs, kwargs)`` instructions;
    :func:`bind_plan` resolves every name through
    :data:`repro.tensor.kernels.KERNELS` at bind time, which is what makes
    a plan loadable in a process that never ran the trace.
    """

    name: str
    in_slots: Tuple[int, ...]
    kwargs: Dict
    out_slot: int
    #: Shape of the step output at trace time (the buffer view shape).
    out_shape: Tuple[int, ...]
    #: Byte offset of the step's output in the plan workspace (a multiple
    #: of :data:`WORKSPACE_ALIGN`), or ``None`` for view/alloc steps.
    storage: Optional[int] = None


@dataclass
class PlanSpec:
    """The complete, serialisable description of one compiled plan.

    Everything :class:`Plan` execution needs *except* live memory: the step
    list (with fused chains unbound), the workspace layout — each buffered
    step's byte offset (``StepSpec.storage``) into one flat buffer of
    ``workspace_nbytes`` bytes, so buffers that are never live at the same
    step share bytes, and that sharing survives serialisation — the
    slot-table geometry and the :class:`PlanStats`.  Together with the
    constant slot values (cast to the plan dtype) this rebuilds a
    bit-identical plan via :func:`bind_plan` — the foundation of the
    on-disk plan artifacts in :mod:`repro.runtime.artifacts`.
    """

    dtype: str
    input_slot: int
    output_slot: int
    num_slots: int
    #: Slots whose values are plan constants (parameters, folded values).
    const_slots: Tuple[int, ...]
    steps: List[StepSpec]
    #: Bytes of the flat workspace every step offset points into.
    workspace_nbytes: int
    stats: PlanStats


#: Byte alignment of every buffered step's offset inside a plan
#: workspace.  A buffer is cache-line aligned in memory only when the
#: workspace's base is (a shared-memory segment's base is page-aligned).
#: The artifact pack uses the same offset alignment, but a loaded plan's
#: constants are not cache-line aligned: the base of the blob ``np.load``
#: returns is not.
WORKSPACE_ALIGN = 64


def plan_workspace_nbytes(spec: PlanSpec) -> int:
    """Bytes a workspace must provide for ``spec``'s buffers.

    The compiler places every buffered step at a :data:`WORKSPACE_ALIGN`
    multiple by liveness (:func:`~repro.runtime.compiler.layout_plan`);
    this is the end of the highest buffer, exactly what :func:`bind_plan`
    needs of its ``workspace=`` argument.  Callers preallocating
    shared-memory segments size them with this.
    """
    return spec.workspace_nbytes


def _step_buffers(spec: PlanSpec, workspace: np.ndarray) -> List[Optional[np.ndarray]]:
    """Each step's output buffer viewed in ``workspace``, or ``None``: a
    buffered step's output is the plan dtype at the step's shape, at the
    step's byte offset."""
    dtype = np.dtype(spec.dtype)
    return [
        None
        if step.storage is None
        else np.ndarray(step.out_shape, dtype, workspace, step.storage)
        for step in spec.steps
    ]


def _anonymous_map(nbytes: int) -> mmap.mmap:
    """``nbytes`` of zeroed anonymous memory, private to this process: where
    the platform has ``MAP_PRIVATE`` a forked child writing it leaves the
    parent's copy alone (the default, shared, would not)."""
    private = getattr(mmap, "MAP_PRIVATE", None)
    if private is None:  # Windows: an anonymous map is the process's own
        return mmap.mmap(-1, nbytes)
    return mmap.mmap(-1, nbytes, flags=private)


class _PlanArena:
    """One workspace buffer, and one execution lock, shared by the plans bound into it.

    A plan needs its workspace only while it runs, so plans that never run
    at the same time can share one buffer.  :class:`CompiledModel` binds
    every multi-row plan of a row lane, and that plan's lane copies, into
    the lane's arena (``docs/runtime.md`` §Plan workspace per lane).  The
    arena's lock is the execution lock of every plan bound into it
    (:meth:`Plan.call`), held for one plan execution at a time.

    The buffer is sized to the largest plan bound so far.  Binding a larger
    plan allocates a bigger buffer and re-carves every plan carved from the
    old one, in place and under the lock, so cached plans keep their
    identity.  A plan carves its buffers on its first :meth:`Plan.call`, so
    an ascending warm-up ladder that binds without running carves each plan
    once.  Each buffer is an anonymous memory map, so an outgrown one goes
    back to the operating system as soon as no plan views it: a lane that
    binds its copies on first use grows its arena under traffic, and heap
    buffers freed there stayed resident (``docs/runtime.md`` §Plan
    workspace per lane).
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._buffer = np.empty(0, dtype=np.uint8)
        self._plans: "weakref.WeakSet[Plan]" = weakref.WeakSet()

    @property
    def nbytes(self) -> int:
        """Size of the current buffer."""
        return self._buffer.nbytes

    def add(self, plan: "Plan") -> "Plan":
        """Bind uncarved ``plan`` to this arena, growing it first if the plan
        needs more; the arena's lock becomes the plan's."""
        needed = plan_workspace_nbytes(plan.spec)
        with self.lock:
            if needed > self._buffer.nbytes:
                self._buffer = np.frombuffer(_anonymous_map(needed), dtype=np.uint8)
                for bound in list(self._plans):
                    if bound._carved is not None:
                        bound._carve(self._buffer)
            plan.arena, plan._exec_lock = self, self.lock
            self._plans.add(plan)
        return plan


def bind_plan(
    spec: PlanSpec,
    values: List[Optional[np.ndarray]],
    workspace: Union[None, np.ndarray, _PlanArena] = None,
) -> "Plan":
    """Materialise a :class:`Plan` from its spec and constant slot table.

    Allocates one workspace buffer of :func:`plan_workspace_nbytes` bytes,
    views each buffered step's output in it at the step's byte offset and
    the plan dtype, and binds every step (and fused chain instruction) to
    its kernel by name.  ``values`` must be the full slot table with the
    constants filled in (non-constant slots ``None``); it is used as the
    plan's live slot table, not copied.

    ``workspace`` — a flat ``uint8`` buffer of at least
    :func:`plan_workspace_nbytes` bytes — replaces that allocation: step
    outputs become :data:`WORKSPACE_ALIGN`-aligned views *into the given
    buffer*, so a plan can execute entirely inside a
    ``multiprocessing.shared_memory`` segment and its outputs are published
    to other processes without a copy (the process-tier hand-off in
    :mod:`repro.serving.process_tier`).  Buffer placement never changes the
    arithmetic, so a workspace-bound plan stays bit-identical to a
    heap-bound one.  A :class:`CompiledModel` lane's arena as ``workspace``
    binds the plan to the arena (growing it first): the plan takes the
    arena's lock and carves its buffers from the arena's buffer on its
    first call.

    Raises :class:`KeyError` when a step names a kernel this build does not
    provide — an artifact from an incompatible library version; callers
    loading artifacts treat that as a validation failure and recompile.
    """
    if len(values) != spec.num_slots:
        raise ValueError(
            f"slot table has {len(values)} entries; plan spec expects {spec.num_slots}"
        )
    if workspace is not None and not isinstance(workspace, _PlanArena):
        workspace = np.asarray(workspace)
        if workspace.ndim != 1 or workspace.dtype != np.uint8:
            raise ValueError(
                f"workspace must be a flat uint8 buffer; got {workspace.dtype} "
                f"with shape {workspace.shape}"
            )
        if not workspace.flags.writeable:
            raise ValueError(
                "workspace buffer is read-only; plan replay writes every "
                "step buffer in place"
            )
        if not workspace.flags.c_contiguous:
            raise ValueError(
                "workspace buffer is not contiguous; the byte-offset "
                "layout assumes a dense byte range"
            )
        needed = plan_workspace_nbytes(spec)
        if workspace.nbytes < needed:
            raise ValueError(
                f"workspace of {workspace.nbytes} bytes is smaller than the "
                f"plan's {needed}-byte layout"
            )
    steps: List[Tuple] = []
    for step in spec.steps:
        if step.name not in K.KERNELS:
            raise KeyError(f"plan step names unknown kernel {step.name!r}")
        kwargs = step.kwargs
        if step.name == "fused_elementwise":
            for name, _refs, _kw in step.kwargs["chain"]:
                if name not in K.KERNELS:
                    raise KeyError(f"fused chain names unknown kernel {name!r}")
            kwargs = {
                "chain": tuple(
                    (name, K.KERNELS[name], tuple(refs), kw)
                    for name, refs, kw in step.kwargs["chain"]
                )
            }
        steps.append((K.KERNELS[step.name], step.in_slots, kwargs, step.out_slot, None))
    plan = Plan(steps, values, spec.input_slot, spec.output_slot, spec.stats, dtype=spec.dtype)
    plan.spec = spec
    return _place(plan, workspace)


def _place(plan: "Plan", workspace: Union[None, np.ndarray, _PlanArena]) -> "Plan":
    """Carve ``plan``'s workspace from ``workspace``: an arena (on the
    plan's first call), a caller's buffer, or (``None``) a buffer of the
    plan's own."""
    if isinstance(workspace, _PlanArena):
        return workspace.add(plan)
    if workspace is None:
        workspace = np.empty(plan_workspace_nbytes(plan.spec), dtype=np.uint8)
    plan._carve(workspace)
    return plan


class Plan:
    """One compiled forward pass, specialised to a single input shape.

    Parameters
    ----------
    steps:
        ``(kernel, input_slots, kwargs, out_slot, buffer)`` tuples in
        execution order.  ``buffer`` is the preallocated output array, or
        ``None`` for view-producing kernels.
    values:
        Slot table with constants prefilled; intermediate slots are
        overwritten on every call.
    input_slot / output_slot:
        Where the caller's array goes in and where the result comes out.

    All steps share one workspace, so :meth:`call` serialises executions
    on the workspace's lock: the plan's own, or, for a plan bound into a
    lane arena (:class:`CompiledModel`), the arena's, which every plan
    sharing that buffer takes too.  Plans with disjoint workspaces run concurrently.
    :meth:`execute` is the raw, unlocked replay for single-threaded callers.

    ``dtype`` is the plan's execution precision.
    """

    def __init__(
        self,
        steps: List[Tuple],
        values: List,
        input_slot: int,
        output_slot: int,
        stats: PlanStats,
        dtype=np.float64,
    ) -> None:
        self._steps = steps
        self._values = values
        self._input_slot = input_slot
        self._output_slot = output_slot
        self.dtype = np.dtype(dtype)
        # Slots rewritten on every run: the input and each step output
        # (including views of the input).  Cleared after a locked call so an
        # idle plan holds only its constants and workspace, not the
        # last batch it served.
        self._transient_slots = [input_slot] + [step[3] for step in steps]
        self._exec_lock = threading.Lock()
        #: The :class:`_PlanArena` whose buffer this plan's workspace is
        #: carved from, or ``None`` for a workspace of its own.
        self.arena: Optional[_PlanArena] = None
        # The buffer the step outputs are carved from; None until carved
        # (an arena-bound plan carves on its first call) or when the steps
        # came with their own buffers.
        self._carved: Optional[np.ndarray] = None
        self.stats = stats
        #: The serialisable :class:`PlanSpec` this plan was bound from
        #: (set by the compiler / :func:`bind_plan`); what
        #: :mod:`repro.runtime.artifacts` persists.
        self.spec: Optional[PlanSpec] = None
        #: Set on artifact-loaded plans that have not yet served a
        #: parity-validated result; :class:`CompiledModel` checks row 0 of
        #: the first result against the autograd forward *before returning
        #: it* and clears the flag (or rejects the plan and recompiles).
        #: Deferring the check onto the first real result keeps the warm
        #: start to one plan execution instead of two.
        self.pending_parity = False
        # Row lane -> this plan's copy for it (see lane_copy).
        self._lane_copies: Dict[int, "Plan"] = {}

    def lane_copy(self, lane: int, arena: Optional[_PlanArena] = None) -> "Plan":
        """The plan row lane ``lane`` replays: this plan for lane 0, else a copy.

        A copy replays this plan's bound kernels with its constants, so it
        needs no retrace, no artifact and no kernel lookup; it shares the
        constants, and lives exactly as long as this plan.  Its workspace is
        carved from
        ``arena`` (the lane's), or is its own when ``arena`` is ``None``;
        ``arena`` is only read when the copy is first bound.  Only
        :class:`CompiledModel` calls this, never on a plan whose parity spot
        check is still pending.
        """
        if lane == 0:
            return self
        copy = self._lane_copies.get(lane)
        if copy is None:
            values: List[Optional[np.ndarray]] = [None] * self.spec.num_slots
            for slot, value in self.constants().items():
                values[slot] = value
            # The same bound kernels; _place gives the copy its own buffers.
            steps = [step[:4] + (None,) for step in self._steps]
            copy = Plan(steps, values, self._input_slot, self._output_slot, self.stats, self.dtype)
            copy.spec = self.spec
            copy = self._lane_copies.setdefault(lane, _place(copy, arena))
        return copy

    def _carve(self, workspace: np.ndarray) -> None:
        """Point every buffered step into ``workspace``.  The caller holds
        the execution lock, or the plan is not yet shared."""
        buffers = _step_buffers(self.spec, workspace)
        self._steps = [step[:4] + (buffer,) for step, buffer in zip(self._steps, buffers)]
        self._carved = workspace

    def constants(self) -> Dict[int, np.ndarray]:
        """Constant slot values (already cast to the plan dtype), by slot.

        Constants survive the per-call transient-slot clearing, so this is
        valid at any time; it is the value half of what an artifact saves
        (the structure half being :attr:`spec`).
        """
        if self.spec is None:
            raise ValueError("plan carries no spec; it was not built by the compiler")
        return {slot: self._values[slot] for slot in self.spec.const_slots}

    def execute(self, array: np.ndarray) -> np.ndarray:
        """Run the plan in trace order; the result may alias workspace
        (copy to retain).  A plan bound into a lane arena is carved by its
        first :meth:`call`; before that its outputs are allocated."""
        values = self._values
        values[self._input_slot] = array
        for kernel, in_slots, kwargs, out_slot, buffer in self._steps:
            values[out_slot] = kernel(*[values[i] for i in in_slots], out=buffer, **kwargs)
        return values[self._output_slot]

    def call(self, array: np.ndarray) -> np.ndarray:
        """Thread-safe execution returning a fresh float64 output copy.

        A reduced-precision plan casts its output back to float64 here (the
        exit half of the precision policy; the cast replaces the copy, so
        it is free).

        References to the caller's input (and all per-run step outputs) are
        dropped from the slot table after the run so an idle plan does not
        pin the last batch it served.
        """
        with self._exec_lock:
            if self._carved is None and self.arena is not None:
                self._carve(self.arena._buffer)
            try:
                result = self.execute(array)
                # astype always copies here, so both branches detach the
                # result from the reused workspace.
                result = (
                    result.copy()
                    if result.dtype == np.float64
                    else result.astype(np.float64)
                )
            finally:
                values = self._values
                for slot in self._transient_slots:
                    values[slot] = None
            return result


class CompiledModel:
    """Graph-free inference wrapper around a :class:`~repro.nn.Module`.

    The first call for each input shape compiles a :class:`Plan`; later
    calls with the same shape replay the plan on raw arrays.  The module's
    forward is traced at one and at two rows only, and every other batch
    size is lowered from those two traces (``docs/runtime.md`` §One trace
    per model; a model they cannot serve is traced per size, and
    :meth:`cache_info` says why).  Outputs are returned as fresh copies so
    they never alias the reused workspace.

    Weights are captured **by reference** at compile time, but constant
    folding bakes derived values (embedding lookups, learned adjacencies)
    into the plan — after mutating parameters call :meth:`recompile`.

    The plan cache is a small LRU over input shapes (:attr:`MAX_PLANS`): a
    micro-batcher produces coalesced batches of many different sizes under
    bursty traffic, so an unbounded cache would grow for the life of the
    service.  **Batch pieces** bound what that cache has to hold: a ragged
    batch runs as power-of-two pieces along axis 0, largest first (19 rows as
    16 + 2 + 1, see :func:`batch_pieces`), whose outputs are concatenated.
    The LRU sees O(log max_batch) distinct shapes instead of one per
    observed size, and no padding row is ever computed.  The split is
    bit-exact because a row's output never depends on the other rows of
    its batch.  Plans are always fused; unfused and exact-shape reference
    plans come from :func:`~repro.runtime.compiler.compile_plan`.

    **Row lanes** (``lanes=L``, default 1) spend several cores on one
    batch: its rows split into at most L row-contiguous chunks of
    near-equal size (:func:`lane_pieces`), chunk 0 runs on the caller's thread and chunks
    1..L-1 on L-1 lane threads, each lane replaying its own copy of the
    shape's plan (:meth:`Plan.lane_copy`).  The split is exact for the
    same reason the pieces are.  The model leaves the BLAS thread count
    alone: a service pins OpenBLAS at one thread when it is built
    (:mod:`repro.runtime.blas`), so L lanes use L cores.  :meth:`close`
    stops the lane threads.

    **One workspace per lane.**  A lane runs one plan at a time, so every
    plan of a lane that runs more than one row is bound into the lane's
    arena, one buffer sized to the largest of them; the arena's lock
    serialises those plans, one piece at a time.  Concurrent callers with
    multi-row pieces therefore take turns on a lane.  1-row plans keep a
    workspace and a lock of their own, so an interactive one-row forecast
    never waits behind a bulk piece (``docs/runtime.md`` §Plan workspace
    per lane).

    ``precision`` selects the plans' execution dtype: ``"float64"`` (the
    default, bit-identical to autograd) or ``"float32"`` (~2x memory
    bandwidth).  Calls may override it, and ``None`` consults the
    ``REPRO_RUNTIME_PRECISION`` environment variable (see
    ``docs/runtime.md`` §Precision).

    **Plan artifacts** (``artifact_dir=``, a directory or a shared
    :class:`~repro.runtime.artifacts.ArtifactStore`) make compiles durable:
    plan-cache misses first try to rebuild the plan from a stored artifact
    (trace-hash keyed, checksum- and parity-validated, falling back to
    compiling on any mismatch) and fresh compiles are written through, so a
    restarted process — or the N workers of a sharded service — trace each
    shape once ever instead of once per process.  See
    ``docs/runtime.md`` §Plan artifacts.

    Example
    -------
    >>> compiled = CompiledModel(model)          # switches model to eval
    >>> forecast = compiled(window[None])        # (1, T', N) ndarray
    >>> assert np.allclose(forecast, model(Tensor(window[None])).data)
    """

    #: Plans the LRU keeps; a process worker's bind cache keeps as many.
    MAX_PLANS = 16

    def __init__(
        self,
        module,
        precision: Union[None, str, np.dtype] = None,
        artifact_dir=None,
        lanes: int = 1,
    ) -> None:
        if lanes <= 0:
            raise ValueError("lanes must be positive")
        module.eval()
        self._module = module
        self._dtype = resolve_precision(precision)
        self._plans: "OrderedDict[Tuple, Plan]" = OrderedDict()
        # Per-trailing-shape output shapes learned from the first empty-batch
        # probe, so repeated B == 0 calls answer without running the model.
        self._empty_output_shapes: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._lock = threading.Lock()
        self._artifacts = self._as_store(artifact_dir)
        # Weights content hash keying artifacts; computed lazily, dropped on
        # recompile() (the declared way to pick up mutated parameters).
        self._weights_fp: Optional[str] = None
        self._compiles = 0
        self._artifact_loads = 0
        self._artifact_rejects = 0
        self._artifact_saves = 0
        self._verifies = 0
        self._lanes = int(lanes)
        # Lane k's workspace for its multi-row plans (see _arena).
        self._arenas = [_PlanArena() for _ in range(self._lanes)]
        from .compiler import Rebatcher

        # Keeps the b1 and b2 traces every other batch size is lowered from.
        self._rebatcher = Rebatcher()
        # The lane threads, started on the first split batch; after close()
        # every lane runs on the caller's thread.
        self._lane_pool: Optional[ThreadPoolExecutor] = None
        self._closed = False

    @staticmethod
    def _as_store(artifact_dir):
        if artifact_dir is None:
            return None
        from .artifacts import ArtifactStore

        if isinstance(artifact_dir, ArtifactStore):
            return artifact_dir
        return ArtifactStore(artifact_dir)

    @property
    def module(self):
        """The wrapped module (left in evaluation mode)."""
        return self._module

    @property
    def precision(self) -> str:
        """Default execution precision policy (``"float64"`` / ``"float32"``)."""
        return self._dtype.name

    @property
    def bucket_cap(self) -> int:
        """:data:`DEFAULT_BUCKET_CAP`, for the benchmark's padded reference
        replay; serving splits every batch into pieces, with no cap."""
        return DEFAULT_BUCKET_CAP

    def _plan_key(self, shape: Tuple[int, ...], dtype: np.dtype) -> Tuple:
        """Plan-cache key: input shape and execution dtype.

        The dtype tag keeps a float32 plan and the float64 SLA plan of the
        same batch shape disjoint (they differ in every constant and
        buffer).
        """
        return (shape, dtype.name)

    def _resolve_call_dtype(self, precision) -> np.dtype:
        return self._dtype if precision is None else resolve_precision(precision)

    def _as_call_array(self, x, precision) -> np.ndarray:
        """``x`` as an array of the call's plan dtype (cast on entry)."""
        dtype = self._resolve_call_dtype(precision)
        array = x.data if isinstance(x, Tensor) else np.asarray(x)
        return array if array.dtype == dtype else array.astype(dtype)

    def __call__(self, x, precision: Union[None, str, np.dtype] = None) -> np.ndarray:
        """Forward ``x`` (Tensor or array-like); returns a fresh float64 ndarray.

        ``precision`` overrides the model's default policy for this call
        only — the per-request escape hatch back to the bit-exact float64
        path (or down to float32) without a second :class:`CompiledModel`.
        The input is cast to the plan dtype on entry (a float32 input under
        a float32 policy is served zero-copy, never bounced through
        float64) and the output is cast back to float64 on exit.

        A ragged batch runs as power-of-two plan pieces, split across the
        row lanes, whose outputs are concatenated in row order (see
        :func:`lane_pieces`), so callers (micro-batcher, serving paths) can
        pass any batch through unchanged.  The pieces run through an inner
        method, so wrappers of this call see one forward per request batch.
        The model-wide lock only guards plan-cache lookups and inserts —
        never a compile and never an execution — so requests for already
        compiled shapes proceed while a new shape compiles.  Each piece
        holds its workspace's lock while it runs: a lane's arena for a
        multi-row piece, so concurrent multi-row requests take turns on a
        lane one piece at a time, and a 1-row plan's own lock for a 1-row
        piece, which therefore never waits behind a multi-row one.

        Edge shapes are hardened rather than special plans: an empty batch
        (``B == 0``) replays the single-row plan on a probe row and trims
        everything back off — tracing a degenerate ``(0, ...)`` shape or
        letting it churn the plan LRU would buy nothing.
        """
        array = self._as_call_array(x, precision)
        if array.shape[0] == 0:
            tail = array.shape[1:]
            known = self._empty_output_shapes.get(tail)
            if known is None:
                probe = _probe(array)
                known = self._get_or_compile(probe).call(probe).shape[1:]
                self._empty_output_shapes[tail] = known
            return np.empty((0,) + known, dtype=np.float64)
        outputs = self._run_lanes(self._pieces(array))
        return outputs[0] if len(outputs) == 1 else np.concatenate(outputs)

    def _pieces(self, array: np.ndarray) -> List[List[np.ndarray]]:
        """Views of ``array`` along axis 0: each lane's plan pieces (see :func:`lane_pieces`)."""
        lanes, start = [], 0
        for pieces in lane_pieces(array.shape[0], self._lanes):
            views = []
            for rows in pieces:
                views.append(array[start : start + rows])
                start += rows
            lanes.append(views)
        return lanes

    def _run_lanes(self, lanes: List[List[np.ndarray]]) -> List[np.ndarray]:
        """Every piece's output in row order; lane k > 0 runs on a lane thread.

        Every lane finishes before this returns or raises, and the first
        error in row order is the one raised.
        """
        if len(lanes) == 1:
            return [self._run(piece) for piece in lanes[0]]
        futures = self._submit_lanes(lanes[1:])
        if futures is None:
            return [self._run(piece) for pieces in lanes for piece in pieces]
        try:
            outputs = [self._run(piece) for piece in lanes[0]]
        finally:
            wait(futures)
        for future in futures:
            outputs.extend(future.result())
        return outputs

    def _submit_lanes(self, lanes: List[List[np.ndarray]]):
        """Start lanes 1.. on the lane threads; ``None`` once closed."""
        # Build and spot-check every plan the lanes replay here first, so
        # lanes never race to compile one shape and never copy a plan whose
        # artifact is unchecked.
        for piece in {piece.shape: piece for pieces in lanes for piece in pieces}.values():
            self._validated_plan(piece)
        with self._lock:
            if self._closed:
                return None
            if self._lane_pool is None:
                self._lane_pool = ThreadPoolExecutor(
                    self._lanes - 1, thread_name_prefix="plan-lane"
                )
            return [
                self._lane_pool.submit(self._run_lane, pieces, lane)
                for lane, pieces in enumerate(lanes, 1)
            ]

    def _run_lane(self, pieces: List[np.ndarray], lane: int) -> List[np.ndarray]:
        return [self._run(piece, lane) for piece in pieces]

    def _run(self, array: np.ndarray, lane: int = 0) -> np.ndarray:
        """Serve one plan piece on ``lane``, spot-checking an artifact-loaded plan first."""
        plan = self._get_or_compile(array)
        if plan.pending_parity:
            return self._confirm_parity(plan, array, plan.call(array))
        return plan.lane_copy(lane, self._arena(array.shape[0], lane)).call(array)

    def _arena(self, rows: int, lane: int) -> Optional[_PlanArena]:
        """Where lane ``lane`` binds a ``rows``-row plan: the lane's arena,
        or ``None`` (a workspace of its own) for a 1-row plan."""
        return self._arenas[lane] if rows > 1 else None

    def _validated_plan(self, array: np.ndarray) -> Plan:
        """The plan for ``array``'s shape, its parity spot check done."""
        plan = self._get_or_compile(array)
        if plan.pending_parity:
            probe = np.ascontiguousarray(array)
            self._confirm_parity(plan, probe, plan.call(probe))
            # A failed check replaced the plan (and its artifact) with a
            # fresh compile; re-fetch whichever plan now serves the shape.
            plan = self._get_or_compile(array)
        return plan

    def close(self) -> None:
        """Stop the lane threads; idempotent.

        The model keeps serving: later calls run every lane's pieces on the
        caller's thread.
        """
        with self._lock:
            self._closed = True
            pool, self._lane_pool = self._lane_pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _get_or_compile(self, array: np.ndarray) -> Plan:
        """Fetch the plan for ``array.shape``, compiling outside the cache lock.

        The array's dtype *is* the plan dtype (the caller cast on entry).
        Two threads racing on the same fresh shape may both compile; the
        first insert wins and the duplicate is dropped — wasted work, never
        wrong results, and no stall for shapes that are already cached.

        With an artifact store attached, a cache miss first tries to rebuild
        the plan from a stored artifact (validated by trace hash and
        integrity checksum here, plus a one-row parity spot check against
        the autograd forward on the first result it serves — any failure
        falls back to compiling), and every freshly compiled plan is written
        through to the store so sibling workers and future processes skip
        the trace.
        """
        key = self._plan_key(array.shape, array.dtype)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
        plan = self._load_artifact(array) if self._artifacts is not None else None
        return self._insert(key, plan if plan is not None else self._compile(array))

    def _insert(self, key: Tuple, plan: Plan) -> Plan:
        """Cache ``plan`` under ``key`` unless a racing insert won; returns
        the cached plan, evicting the least recently used past :attr:`MAX_PLANS`."""
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                self._plans.move_to_end(key)
                return existing
            self._plans[key] = plan
            while len(self._plans) > self.MAX_PLANS:
                self._plans.popitem(last=False)
            return plan

    # ------------------------------------------------------------------
    def _compile(self, array: np.ndarray) -> Plan:
        """Trace a fresh plan for ``array``, count it, and write it through
        to the artifact store."""
        from .compiler import compile_plan

        plan = compile_plan(
            self._module,
            array,
            dtype=array.dtype,
            rebatcher=self._rebatcher,
            workspace=self._arena(array.shape[0], 0),
        )
        from .verify import verify_enabled

        if verify_enabled():
            # A finding on a fresh compile is a compiler bug, and there is
            # no safe fallback — refuse to serve the plan.
            from .verify import VerifyError, verify_plan

            report = verify_plan(plan)
            with self._lock:
                self._verifies += 1
            if not report.ok:
                raise VerifyError(report)
        with self._lock:
            self._compiles += 1
        if self._artifacts is not None:
            self._publish(plan)
        return plan

    # ------------------------------------------------------------------
    # Plan artifacts (see repro.runtime.artifacts and docs/runtime.md)
    # ------------------------------------------------------------------
    @property
    def artifact_store(self):
        """The attached :class:`~repro.runtime.artifacts.ArtifactStore`, if any."""
        return self._artifacts

    def _trace_key(self, shape: Tuple[int, ...], dtype: np.dtype) -> str:
        """Artifact key for one trace; caches the weights fingerprint."""
        from .artifacts import trace_hash, weights_fingerprint

        with self._lock:
            fingerprint = self._weights_fp
        if fingerprint is None:
            fingerprint = weights_fingerprint(self._module)
            with self._lock:
                self._weights_fp = fingerprint
        return trace_hash(self._module, shape, dtype, weights=fingerprint)

    def _artifact_meta(self) -> Dict[str, str]:
        module = self._module
        return {
            "module": f"{type(module).__module__}.{type(module).__qualname__}",
            "weights": self._weights_fp or "",
        }

    def _confirm_parity(self, plan: Plan, array: np.ndarray, result: np.ndarray) -> np.ndarray:
        """Validate the first result served by an artifact-loaded plan.

        Row 0 of ``result`` is compared against the autograd forward of
        ``array``'s row 0 *before the result is returned* — an unvalidated
        artifact never answers a request — and piggybacking on the result
        the request computed anyway keeps the warm start to one plan
        execution plus one 1-row autograd forward.  On a mismatch the plan
        is discarded (the store entry with it) and the request is served by
        a fresh compile.

        Float64 plans must agree to near machine precision; float32 plans
        to the documented tolerance contract (rtol = atol = 1e-4).  The
        hair of float64 tolerance is deliberate: BLAS may pick a different
        (equally valid) accumulation order for the 1-row autograd GEMM than
        for the batched plan kernel.  Real corruption (wrong constants,
        stale weights smuggled past the hash) is orders of magnitude
        outside either band.
        """
        row = np.ascontiguousarray(array[:1], dtype=np.float64)
        # Whatever the caller's grad mode, the check builds no graph.
        with no_grad():
            expected = self._module(Tensor(row)).data[0]
        got = result[0]
        if plan.dtype == np.float64:
            tolerance = dict(rtol=1e-9, atol=1e-12)
        else:
            tolerance = dict(rtol=1e-4, atol=1e-4)
        if got.shape == expected.shape and bool(
            np.allclose(got, expected, equal_nan=True, **tolerance)
        ):
            plan.pending_parity = False
            return result
        # Rejected: drop the plan and its artifact, serve a fresh compile.
        key = self._plan_key(array.shape, array.dtype)
        with self._lock:
            self._artifact_rejects += 1
            self._artifact_loads -= 1
            if self._plans.get(key) is plan:
                del self._plans[key]
        if self._artifacts is not None:
            self._artifacts.forget(self._trace_key(array.shape, array.dtype))
        fresh = self._compile(array)
        self._insert(key, fresh)
        return fresh.call(array)

    def _load_artifact(self, array: np.ndarray) -> Optional[Plan]:
        """Rebuild the plan for ``array`` from the store, or ``None``.

        Every validation failure — unreadable/corrupted/stale file, unknown
        kernel name, shape/dtype mismatch — lands here as a rejection: the
        bad entry is dropped from the store's memo and the caller compiles
        instead.  Artifacts accelerate, never gate.  The surviving plan is
        still marked :attr:`Plan.pending_parity`: row 0 of the first result
        it computes is checked against the autograd forward before being
        served (see :meth:`_confirm_parity`), which catches corruption the
        structural checks cannot — without a throwaway warm-up execution.
        """
        from .artifacts import ArtifactError

        key = self._trace_key(array.shape, array.dtype)
        try:
            loaded = self._artifacts.load(key)
            if loaded is None:
                return None
            spec, values, _meta = loaded
            if spec.dtype != array.dtype.name or tuple(spec.stats.input_shape) != array.shape:
                raise ArtifactError(
                    f"artifact {key} describes shape {spec.stats.input_shape} dtype "
                    f"{spec.dtype}; requested {array.shape} {array.dtype.name}"
                )
            plan = bind_plan(spec, values, self._arena(array.shape[0], 0))
        except (ArtifactError, KeyError, ValueError):
            with self._lock:
                self._artifact_rejects += 1
            self._artifacts.forget(key)
            return None
        plan.pending_parity = True
        with self._lock:
            self._artifact_loads += 1
        return plan

    def _publish(self, plan: Plan) -> None:
        """Write a freshly compiled plan through to the attached store."""
        from .artifacts import ArtifactError

        if plan.spec is None:
            return
        key = self._trace_key(plan.spec.stats.input_shape, np.dtype(plan.spec.dtype))
        try:
            self._artifacts.save(key, plan.spec, plan.constants(), meta=self._artifact_meta())
        except ArtifactError:
            return  # plan kwargs this store cannot serialise; fast-path unavailable
        with self._lock:
            self._artifact_saves += 1

    def save_artifacts(self, path=None) -> List:
        """Persist every cached plan as an on-disk artifact.

        ``path`` may be a directory or an
        :class:`~repro.runtime.artifacts.ArtifactStore`; omitted, the store
        attached at construction (``artifact_dir=``) is used.  Returns the
        written paths.  This is the AOT half of warm starts: compile (or
        :meth:`compile_for`) the shapes you serve, save, and any fresh
        process pointed at the same directory binds the plans without a
        single trace.
        """
        store = self._as_store(path) if path is not None else self._artifacts
        if store is None:
            raise ValueError(
                "no artifact store: pass save_artifacts(path) or construct "
                "the model with artifact_dir="
            )
        with self._lock:
            plans = list(self._plans.values())
        written = []
        for plan in plans:
            if plan.spec is None:
                continue
            key = self._trace_key(plan.spec.stats.input_shape, np.dtype(plan.spec.dtype))
            result = store.save(key, plan.spec, plan.constants(), meta=self._artifact_meta())
            with self._lock:
                self._artifact_saves += 1
            if result is not None:
                written.append(result)
        return written

    def cache_info(self) -> PlanCacheInfo:
        """Plan-cache provenance counters (see :class:`PlanCacheInfo`)."""
        rebatched, fallbacks, fallback = self._rebatcher.counts()
        with self._lock:
            own = sum(
                plan_workspace_nbytes(bound.spec)
                for plan in self._plans.values()
                for bound in (plan, *plan._lane_copies.values())
                if bound.arena is None
            )
            return PlanCacheInfo(
                plans=len(self._plans),
                compiles=self._compiles,
                artifact_loads=self._artifact_loads,
                artifact_rejects=self._artifact_rejects,
                artifact_saves=self._artifact_saves,
                verifies=self._verifies,
                rebatched=rebatched,
                rebatch_fallbacks=fallbacks,
                rebatch_fallback=fallback,
                workspace_bytes=own + sum(arena.nbytes for arena in self._arenas),
            )

    def compile_for(self, example, precision: Union[None, str, np.dtype] = None) -> PlanStats:
        """Eagerly compile the plans that would serve ``example``'s shape.

        The example is split into lanes and plan pieces and precision-cast
        exactly like a live request, so requests of this size (and policy)
        find every plan they run on; lanes bind their copies on first use.
        An empty example prepares the 1-row plan that serves it.  Returns
        the stats of the largest piece's plan.
        """
        return self._prepare(example, precision, self._get_or_compile)

    def _prepare(self, example, precision, get) -> PlanStats:
        """``get`` every piece's plan for ``example`` (the probe row's if empty)."""
        array = self._as_call_array(example, precision)
        if array.shape[0] == 0:
            array = _probe(array)
        return [get(piece) for pieces in self._pieces(array) for piece in pieces][0].stats

    def artifact_key(self, shape: Tuple[int, ...], precision: Union[None, str, np.dtype] = None) -> str:
        """The artifact trace hash of the plan serving one piece's input shape.

        This is the name under which :meth:`save_artifacts` / the
        write-through publish stores the plan — the lookup handle a
        *different process* (a forked shard worker) uses to bind the same
        plan from a shared :class:`~repro.runtime.artifacts.ArtifactStore`
        without ever seeing this model object.
        """
        dtype = self._resolve_call_dtype(precision)
        return self._trace_key(tuple(int(dim) for dim in shape), dtype)

    def ensure_validated(self, example, precision: Union[None, str, np.dtype] = None) -> PlanStats:
        """Ensure parity-confirmed plans exist for ``example``'s shape.

        Like :meth:`compile_for`, but an artifact-loaded plan is also taken
        through its deferred row-0 parity spot check here (executing the
        example once), instead of on the first live request.  The process
        tier calls this before telling worker processes to bind a key: a
        child replays plans blindly, so every artifact it may bind must
        already be spot-checked — or rejected and republished — by the
        parent.
        """
        return self._prepare(example, precision, self._validated_plan)

    def recompile(self) -> None:
        """Drop all cached plans, their lane copies and the kept traces
        (required after parameter updates); the lanes keep their arenas."""
        self._rebatcher.clear()
        with self._lock:
            self._plans.clear()
            self._empty_output_shapes.clear()
            # Weights changed (that is what recompile signals), so the old
            # fingerprint — and any artifact keyed by it — no longer applies.
            self._weights_fp = None

    def plan_stats(self) -> List[PlanStats]:
        """Stats of every cached plan (one per input shape seen)."""
        with self._lock:
            return [plan.stats for plan in self._plans.values()]

    def __repr__(self) -> str:
        with self._lock:
            shapes = sorted(self._plans)
        return f"CompiledModel({type(self._module).__name__}, plans={shapes})"
