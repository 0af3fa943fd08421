"""Static analyses over :class:`~repro.runtime.engine.PlanSpec`.

Every rule re-derives an invariant the compiler is supposed to establish
and checks the spec against it — without executing a single kernel — so a
compiler regression, a corrupted artifact, or a hand-mutated plan is
caught before it can serve a wrong answer.

Rule catalogue
--------------

``P-LIFE``
    The lifetime checker: plan slots are written once (SSA), every slot a
    step reads must be dominated by a write (an earlier step's output) or
    be a constant/input slot, and no step may read a slot whose pooled
    storage has since been reassigned to another slot (use-after-release).
``P-DTYPE``
    The dtype-flow audit: the plan dtype is a supported precision, every
    floating constant is stored at the plan dtype (a float64 constant in
    a float32 plan is the "dropped cast" corruption), and float32 plans
    that reduce through softmax / log_softmax / layer_norm do so with the
    :func:`repro.tensor.kernels._reduce_dtype` float64-accumulation
    contract intact.  (The float64 exit cast itself lives in
    ``Plan.call`` and is covered by the engine's parity tests.)
``P-FUSE``
    Fusion legality: fused elementwise chains reference only supported,
    fusable kernels, their operand references are well-formed (the head
    never consumes the running value, every later link does — the
    single-consumer adjacency invariant), and every external operand
    broadcasts to the chain's output shape.
``P-LAYOUT``
    Workspace carving: every buffered step's storage id is in range and
    its output byte span exactly fills the storage's 64-byte-aligned
    interval — a shrunk or aliased interval would overlap the next
    storage in the carved workspace (the rule reports both byte ranges).

All rules report structured :class:`Diagnostic` records; none of them
assert or raise (except :func:`verify_store` reporting unreadable
artifacts as ``P-ARTIFACT`` findings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ...tensor import kernels as K
from ..engine import WORKSPACE_ALIGN, PlanSpec

__all__ = [
    "PLAN_RULES",
    "Diagnostic",
    "VerifyError",
    "VerifyReport",
    "storage_layout",
    "verify_plan",
    "verify_spec",
    "verify_store",
]

#: Rule ids of the plan analyses, in the order they run.
PLAN_RULES = ("P-LAYOUT", "P-LIFE", "P-DTYPE", "P-FUSE")

#: Kernels whose float32 execution must accumulate in float64
#: (the ``_reduce_dtype`` contract of :mod:`repro.tensor.kernels`).
_CONTRACT_REDUCTIONS = ("softmax", "log_softmax", "layer_norm")


@dataclass(frozen=True)
class Diagnostic:
    """One verification finding: rule id plus machine-usable locus.

    ``steps`` are plan step indices; ``byte_range`` is a half-open
    ``[lo, hi)`` interval into the carved workspace (absolute offsets of
    the deterministic :func:`storage_layout`).  Lint findings reuse the
    same record with ``path``/``line`` set instead.
    """

    rule: str
    message: str
    steps: Tuple[int, ...] = ()
    storage: Optional[int] = None
    byte_range: Optional[Tuple[int, int]] = None
    path: Optional[str] = None
    line: Optional[int] = None

    def __str__(self) -> str:
        locus = ""
        if self.path is not None:
            locus = f"{self.path}:{self.line}: "
        elif self.steps:
            locus = f"steps {list(self.steps)}: "
        extra = ""
        if self.byte_range is not None:
            extra = f" [bytes {self.byte_range[0]}:{self.byte_range[1]})"
        return f"{self.rule}: {locus}{self.message}{extra}"


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one plan verification: findings plus what was checked."""

    findings: Tuple[Diagnostic, ...]
    checked_rules: Tuple[str, ...] = PLAN_RULES
    dtype: str = ""
    steps: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_rule(self, rule: str) -> Tuple[Diagnostic, ...]:
        return tuple(finding for finding in self.findings if finding.rule == rule)

    def summary(self) -> str:
        if self.ok:
            return f"OK ({self.steps} steps, rules {'/'.join(self.checked_rules)})"
        rules = sorted({finding.rule for finding in self.findings})
        head = "; ".join(str(finding) for finding in self.findings[:3])
        more = f" (+{len(self.findings) - 3} more)" if len(self.findings) > 3 else ""
        return f"{len(self.findings)} finding(s) [{', '.join(rules)}]: {head}{more}"


class VerifyError(RuntimeError):
    """A freshly compiled plan failed static verification.

    Raised (only) by the ``REPRO_RUNTIME_VERIFY`` compile gate: unlike an
    artifact finding — which falls back to a fresh compile — a finding on
    the compile output itself means the compiler produced a provably
    unsafe plan, and serving it would be serving the bug.
    """

    def __init__(self, report: VerifyReport) -> None:
        super().__init__(f"compiled plan failed static verification: {report.summary()}")
        self.report = report


# ----------------------------------------------------------------------
# Shared reconstruction helpers
# ----------------------------------------------------------------------

def storage_layout(storage_sizes: Sequence[int]) -> List[Tuple[int, int]]:
    """``(offset, nbytes)`` of every storage in the carved workspace.

    Mirrors the deterministic id-order, 64-byte-aligned carving of
    :func:`~repro.runtime.engine.plan_workspace_nbytes` /
    :func:`~repro.runtime.engine.bind_plan`, so diagnostics can report
    absolute byte intervals into an external workspace buffer.
    """
    intervals: List[Tuple[int, int]] = []
    offset = 0
    for nbytes in storage_sizes:
        offset += (-offset) % WORKSPACE_ALIGN
        intervals.append((offset, int(nbytes)))
        offset += int(nbytes)
    return intervals


def _is_basic_index(index) -> bool:
    """Whether a ``getitem`` index is basic slicing (a true view)."""
    items = index if isinstance(index, tuple) else (index,)
    for item in items:
        if item is None or item is Ellipsis:
            continue
        if isinstance(item, slice):
            continue
        if isinstance(item, (bool, np.bool_)):
            return False  # boolean scalar index is advanced
        if isinstance(item, (int, np.integer)):
            continue
        return False  # array / list / mask -> advanced indexing (alloc)
    return True


def _is_view_step(step) -> bool:
    """Whether a storage-less step's output aliases its first input.

    ``transpose`` / ``squeeze`` / ``unsqueeze`` / ``reshape`` kernels
    always return views (copying reshapes were rewritten to the buffered
    ``reshape_copy`` at compile time); ``getitem`` is a view only for
    basic slicing — advanced indexing allocates per call and aliases
    nothing.
    """
    if step.storage is not None or step.name not in K.VIEW_OPS:
        return False
    if step.name == "getitem":
        return _is_basic_index(step.kwargs.get("index"))
    return True


def _slot_storages(spec: PlanSpec) -> Dict[int, Optional[int]]:
    """slot id -> pooled storage id backing it (``None`` = unpooled).

    Buffered steps bind their output slot to their storage; view steps
    alias their input's storage; alloc steps (and the input/constant
    slots) are unpooled.  Slots are written once (SSA), so the mapping is
    temporal-free — lifetime questions are handled separately.
    """
    mapping: Dict[int, Optional[int]] = {}
    for step in spec.steps:
        if step.storage is not None:
            mapping[step.out_slot] = step.storage
        elif _is_view_step(step):
            mapping[step.out_slot] = mapping.get(step.in_slots[0])
        else:
            mapping[step.out_slot] = None
    return mapping


def _chain_of(step) -> List[Tuple[str, Tuple[int, ...], Dict]]:
    """The (name, refs, kwargs) triples of a fused step, tolerant of
    list/tuple round-trip differences in deserialised kwargs."""
    chain = step.kwargs.get("chain", ())
    triples = []
    for instruction in chain:
        parts = list(instruction)
        if len(parts) != 3:
            return []  # malformed; the caller reports it
        name, refs, kwargs = parts
        triples.append((name, tuple(refs), kwargs))
    return triples


# ----------------------------------------------------------------------
# The analyses
# ----------------------------------------------------------------------

def _check_layout(spec: PlanSpec, out: List[Diagnostic]) -> None:
    intervals = storage_layout(spec.storage_sizes)
    itemsize = np.dtype(spec.dtype).itemsize
    for storage, (offset, nbytes) in enumerate(intervals):
        if nbytes <= 0:
            out.append(Diagnostic(
                "P-LAYOUT",
                f"storage {storage} has non-positive size {nbytes}",
                storage=storage,
            ))
        if offset % WORKSPACE_ALIGN:
            out.append(Diagnostic(
                "P-LAYOUT",
                f"storage {storage} starts at offset {offset}, not "
                f"{WORKSPACE_ALIGN}-byte aligned",
                storage=storage,
                byte_range=(offset, offset + nbytes),
            ))
    for index, step in enumerate(spec.steps):
        if step.storage is None:
            continue
        if not 0 <= step.storage < len(spec.storage_sizes):
            out.append(Diagnostic(
                "P-LAYOUT",
                f"step {index} ({step.name}) references storage {step.storage}; "
                f"the plan carves only {len(spec.storage_sizes)}",
                steps=(index,),
                storage=step.storage,
            ))
            continue
        offset, nbytes = intervals[step.storage]
        needed = int(np.prod(step.out_shape, dtype=np.int64)) * itemsize
        if needed != nbytes:
            out.append(Diagnostic(
                "P-LAYOUT",
                f"step {index} ({step.name}) writes {needed} bytes into storage "
                f"{step.storage} carved at {nbytes} bytes — the view would "
                f"overlap the adjacent storage interval",
                steps=(index,),
                storage=step.storage,
                byte_range=(offset, offset + max(needed, nbytes)),
            ))


def _check_lifetime(
    spec: PlanSpec,
    slot_storage: Dict[int, Optional[int]],
    producer: Dict[int, int],
    out: List[Diagnostic],
) -> None:
    defined: Set[int] = {spec.input_slot} | set(spec.const_slots)
    alias: Dict[int, Set[int]] = {}  # storage -> slots currently backed by it
    stale: Set[int] = set()          # slots whose storage was reassigned
    for index, step in enumerate(spec.steps):
        for slot in step.in_slots:
            if slot not in defined:
                source = producer.get(slot)
                where = f"step {source}" if source is not None else "no step"
                out.append(Diagnostic(
                    "P-LIFE",
                    f"step {index} ({step.name}) reads slot {slot}, which is "
                    f"neither input, constant, nor dominated by a write "
                    f"({where} produces it)",
                    steps=(index,) if source is None else (source, index),
                ))
            elif slot in stale:
                storage = slot_storage.get(slot)
                out.append(Diagnostic(
                    "P-LIFE",
                    f"step {index} ({step.name}) reads slot {slot} after its "
                    f"pooled storage {storage} was reassigned to another slot "
                    f"(use-after-release)",
                    steps=(index,),
                    storage=storage,
                ))
        if step.storage is not None:
            previous = alias.get(step.storage)
            if previous:
                stale.update(previous)
            alias[step.storage] = {step.out_slot}
        elif _is_view_step(step):
            storage = slot_storage.get(step.out_slot)
            if storage is not None:
                alias.setdefault(storage, set()).add(step.out_slot)
        defined.add(step.out_slot)


def _check_dtype_flow(
    spec: PlanSpec,
    values: Optional[Sequence[Optional[np.ndarray]]],
    out: List[Diagnostic],
) -> None:
    try:
        dtype = np.dtype(spec.dtype)
    except TypeError:
        out.append(Diagnostic("P-DTYPE", f"unknown plan dtype {spec.dtype!r}"))
        return
    if dtype.name not in ("float64", "float32"):
        out.append(Diagnostic(
            "P-DTYPE",
            f"plan dtype {dtype.name} is not a supported execution precision",
        ))
    if spec.stats.dtype != spec.dtype:
        out.append(Diagnostic(
            "P-DTYPE",
            f"plan stats declare dtype {spec.stats.dtype}; the spec executes "
            f"at {spec.dtype}",
        ))
    if values is not None:
        for slot in spec.const_slots:
            if not 0 <= slot < len(values):
                continue  # num_slots mismatch is caught at bind time
            value = values[slot]
            if value is None or not np.issubdtype(np.asarray(value).dtype, np.floating):
                continue
            if np.asarray(value).dtype != dtype:
                out.append(Diagnostic(
                    "P-DTYPE",
                    f"constant slot {slot} holds {np.asarray(value).dtype.name} "
                    f"in a {dtype.name} plan — the compile-time cast was dropped",
                ))
    if dtype == np.float32:
        names = [step.name for step in spec.steps]
        reducers = tuple(
            index for index, name in enumerate(names) if name in _CONTRACT_REDUCTIONS
        )
        if reducers and K._reduce_dtype(dtype) != np.float64:
            out.append(Diagnostic(
                "P-DTYPE",
                "float32 plan reduces through "
                f"{sorted({names[i] for i in reducers})} but the kernel "
                "library's _reduce_dtype contract no longer accumulates in "
                "float64",
                steps=reducers,
            ))


def _check_fusion(
    spec: PlanSpec,
    values: Optional[Sequence[Optional[np.ndarray]]],
    producer: Dict[int, int],
    out: List[Diagnostic],
) -> None:
    # Shape environment: input slot + produced slots always known;
    # constant slots known when the values table is supplied.
    shapes: Dict[int, Tuple[int, ...]] = {
        spec.input_slot: tuple(spec.stats.input_shape)
    }
    if values is not None:
        for slot in spec.const_slots:
            if 0 <= slot < len(values) and values[slot] is not None:
                shapes[slot] = tuple(np.shape(values[slot]))
    for step in spec.steps:
        shapes[step.out_slot] = tuple(step.out_shape)

    for index, step in enumerate(spec.steps):
        if step.name != "fused_elementwise":
            continue
        chain = _chain_of(step)
        if not chain:
            out.append(Diagnostic(
                "P-FUSE",
                f"step {index} carries a malformed or empty fused chain",
                steps=(index,),
            ))
            continue
        arity = len(step.in_slots)
        for position, (name, refs, _kwargs) in enumerate(chain):
            if name not in K.KERNELS:
                out.append(Diagnostic(
                    "P-FUSE",
                    f"step {index} chain[{position}] names unknown kernel {name!r}",
                    steps=(index,),
                ))
                continue
            if name not in K.FUSABLE_ELEMENTWISE:
                out.append(Diagnostic(
                    "P-FUSE",
                    f"step {index} chain[{position}] fuses {name!r}, which is "
                    f"not a fusable elementwise kernel",
                    steps=(index,),
                ))
            bad_refs = [ref for ref in refs if not (-1 <= int(ref) < arity)]
            if bad_refs:
                out.append(Diagnostic(
                    "P-FUSE",
                    f"step {index} chain[{position}] references operands "
                    f"{bad_refs}; the step has {arity} external inputs",
                    steps=(index,),
                ))
            if position == 0 and any(int(ref) == -1 for ref in refs):
                out.append(Diagnostic(
                    "P-FUSE",
                    f"step {index} chain head consumes the running value, "
                    f"which does not exist yet",
                    steps=(index,),
                ))
            if position > 0 and all(int(ref) != -1 for ref in refs):
                out.append(Diagnostic(
                    "P-FUSE",
                    f"step {index} chain[{position}] ignores the running value "
                    f"— the chain is not a single-consumer pipeline",
                    steps=(index,),
                ))
        out_shape = tuple(step.out_shape)
        for slot in step.in_slots:
            shape = shapes.get(slot)
            if shape is None:
                continue
            try:
                broadcast = np.broadcast_shapes(shape, out_shape)
            except ValueError:
                broadcast = None
            if broadcast != out_shape:
                out.append(Diagnostic(
                    "P-FUSE",
                    f"step {index} external operand slot {slot} has shape "
                    f"{shape}, which does not broadcast to the chain output "
                    f"{out_shape}",
                    steps=(index,),
                ))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def verify_spec(
    spec: PlanSpec,
    values: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> VerifyReport:
    """Run every plan analysis over ``spec``; returns the findings.

    ``values`` — the constant slot table as produced by
    :func:`~repro.runtime.compiler.build_plan_spec` or an artifact load —
    enables the constant-dtype and constant-shape checks; without it those
    sub-checks are skipped (everything structural still runs).
    """
    findings: List[Diagnostic] = []
    producer: Dict[int, int] = {}
    duplicate: List[int] = []
    for index, step in enumerate(spec.steps):
        if step.out_slot in producer:
            duplicate.append(index)
        producer[step.out_slot] = index
    for index in duplicate:
        findings.append(Diagnostic(
            "P-LIFE",
            f"step {index} rewrites slot {spec.steps[index].out_slot}; plan "
            f"slots are written once",
            steps=(producer[spec.steps[index].out_slot], index),
        ))
    slot_storage = _slot_storages(spec)

    _check_layout(spec, findings)
    _check_lifetime(spec, slot_storage, producer, findings)
    _check_dtype_flow(spec, values, findings)
    _check_fusion(spec, values, producer, findings)
    return VerifyReport(
        findings=tuple(findings),
        checked_rules=PLAN_RULES,
        dtype=str(spec.dtype),
        steps=len(spec.steps),
    )


def verify_plan(plan) -> VerifyReport:
    """Verify a bound :class:`~repro.runtime.engine.Plan` via its spec."""
    spec = getattr(plan, "spec", None)
    if spec is None:
        return VerifyReport(
            findings=(Diagnostic(
                "P-LIFE",
                "plan carries no PlanSpec (hand-built); nothing to verify",
            ),),
            checked_rules=(),
        )
    return verify_spec(spec, getattr(plan, "_values", None))


def verify_store(store: Union[str, Path, "object"]) -> Dict[str, VerifyReport]:
    """Audit every artifact in a store; one report per trace hash.

    Accepts an :class:`~repro.runtime.ArtifactStore` or a directory path.
    Unreadable/corrupt artifacts surface as a single ``P-ARTIFACT``
    finding instead of raising, so one bad file never hides the verdicts
    of the rest.  Reads are stat-neutral (no load/memo counters move) and
    bypass the ``REPRO_RUNTIME_VERIFY`` load gate — the audit must report
    findings itself, not trip over them.
    """
    from ..artifacts import ArtifactStore

    if not isinstance(store, ArtifactStore):
        store = ArtifactStore(store, readonly=True)
    reports: Dict[str, VerifyReport] = {}
    for key in store.keys():
        try:
            spec, constants, _meta = store._read(store.path_for(key), key)
        except Exception as error:
            reports[key] = VerifyReport(
                findings=(Diagnostic(
                    "P-ARTIFACT", f"artifact unreadable: {error}"
                ),),
                checked_rules=("P-ARTIFACT",),
            )
            continue
        reports[key] = verify_spec(spec, store._values_from(spec, constants))
    return reports
