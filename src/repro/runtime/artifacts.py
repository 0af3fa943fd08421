"""Durable, versioned plan artifacts: kill fleet-wide compile cold start.

Every worker in a sharded service used to re-trace, re-fuse and re-lay-out
identical kernel plans on its first request — per plan piece and per
precision policy, again on every restart and every fork.  This module makes
a compiled plan a *durable artifact*: the complete
:class:`~repro.runtime.engine.PlanSpec` (step list with fused chains,
workspace byte offsets, dtype policy,
:class:`~repro.runtime.engine.PlanStats`) plus the constant slot values are
serialised into one ``.npz`` file keyed by a **trace hash** over

* the module architecture (class + config + parameter names/shapes/dtypes),
* the parameter *values* (constant folding bakes weights into plans, so a
  weight change must change the key),
* the input shape (one plan piece's) and the execution precision.

A fresh process — a restarted worker, a newly forked shard — looks the
artifact up by recomputing the hash from its live module, so a stale
artifact (older weights, different architecture) can never be *found*, let
alone served.  What is found is still validated before use:

* **format version** — artifacts from an incompatible layout are rejected;
* **integrity checksum** — a SHA-256 over the spec, the array layout table
  and the packed array blob detects corrupted or truncated files;
* **trace-hash echo** — the stored key must match the requested one
  (catches renamed/moved files);
* **parity spot check** — the caller (:class:`~repro.runtime.CompiledModel`)
  marks the bound plan ``pending_parity`` and compares row 0 of the *first
  result it serves* against the autograd forward — bit-exact tolerances for
  float64 plans, the documented tolerance contract for float32 — rejecting
  the plan and recompiling before anything wrong is returned.  Deferring
  the check onto the first real request keeps the warm start to a single
  plan execution instead of a throwaway validation replay.

Any failure falls back to a normal compile — artifacts are a pure
fast-path, never a correctness dependency.

The :class:`ArtifactStore` also keeps an in-process memo of parsed specs
and constants, so the N workers of a replica-sharded service parse and
load each trace once and share the (read-only) constant arrays.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from .engine import PlanSpec, PlanStats, StepSpec

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactError",
    "ArtifactStore",
    "ArtifactStoreStats",
    "trace_hash",
    "weights_fingerprint",
]

#: Version of the on-disk artifact layout.  Bump on any incompatible change
#: to the spec encoding, and whenever lowering changes the step list of an
#: unchanged trace (an old artifact would otherwise keep replaying the old
#: plan); loaders reject artifacts from other versions (the cost is one
#: recompile, never a wrong plan).
ARTIFACT_FORMAT_VERSION = 5

_SPEC_KEY = "__plan_spec__"
_META_KEY = "__artifact_meta__"
#: All value arrays (constants + kwargs auxiliaries) are packed into ONE
#: contiguous byte blob with a JSON layout table, so a load reads four zip
#: entries instead of ~100 — per-entry zipfile overhead (open, header
#: parse, CRC bookkeeping) dominated artifact load time, and load time is
#: the whole point (see the cold-start benchmark).
_ARRAYS_KEY = "__array_table__"
_LAYOUT_KEY = "__array_layout__"

#: Pack alignment: every array starts at a multiple of 64 bytes from the
#: start of the blob.  That does not make the zero-copy views carved out of
#: a loaded blob cache-line aligned, because the base of the blob
#: ``np.load`` returns is not; a loaded plan replays as fast as a compiled
#: one all the same.
_PACK_ALIGN = 64


class ArtifactError(RuntimeError):
    """An artifact is invalid (corrupted, truncated, stale, or unsupported)."""


# ----------------------------------------------------------------------
# Trace hashing
# ----------------------------------------------------------------------

def weights_fingerprint(module) -> str:
    """Content hash of a module's parameters and buffers.

    Plans bake parameter values in (constant folding), so the artifact key
    must change whenever any weight changes — an in-process
    ``weights_version`` counter cannot provide that across restarts, a
    content hash can.
    """
    digest = hashlib.sha256()
    for name, value in sorted(module.state_dict().items()):
        value = np.ascontiguousarray(value)
        digest.update(name.encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(value.tobytes())
    return digest.hexdigest()


def _describe_config(module) -> str:
    """A stable, architecture-identifying description of ``module.config``."""
    config = getattr(module, "config", None)
    if config is None:
        return ""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return json.dumps(dataclasses.asdict(config), sort_keys=True, default=str)
    return repr(config)


def trace_hash(
    module,
    input_shape: Tuple[int, ...],
    dtype,
    *,
    weights: Optional[str] = None,
) -> str:
    """The artifact key for one ``(module, shape, precision)`` trace.

    ``weights`` lets callers pass a cached :func:`weights_fingerprint`
    (hashing all parameters per lookup would defeat the point of a cache);
    when omitted it is computed here.
    """
    digest = hashlib.sha256()
    parts = (
        f"format:{ARTIFACT_FORMAT_VERSION}",
        f"class:{type(module).__module__}.{type(module).__qualname__}",
        f"config:{_describe_config(module)}",
        f"weights:{weights if weights is not None else weights_fingerprint(module)}",
        f"shape:{tuple(int(dim) for dim in input_shape)}",
        f"dtype:{np.dtype(dtype).name}",
        # Inference plans always fold and fuse, and split batches into
        # pieces with no cap; the literals keep keys byte-identical to
        # stores written while those were options.
        "fold:True",
        "fuse:True",
        "bucket_cap:1024",
    )
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Kwargs / value encoding
#
# Step kwargs are almost always plain scalars and tuples, but a few
# kernels carry structured constants: ``where`` a boolean mask ndarray,
# ``getitem`` an arbitrary index expression (ints, slices, Ellipsis,
# index arrays), ``spmm`` a CSR SparseMatrix.  Values encode to a JSON
# tree; ndarrays (and CSR components) are hoisted into the archive's
# array table and referenced by name, so nothing is ever pickled
# (``allow_pickle=False`` end to end).
# ----------------------------------------------------------------------

def _content_key(value: np.ndarray) -> Tuple[str, Tuple[int, ...], str]:
    """A content-identity key for deduplicating auxiliary arrays."""
    value = np.ascontiguousarray(value)
    digest = hashlib.blake2b(value.tobytes(), digest_size=16).hexdigest()
    return (value.dtype.str, tuple(value.shape), digest)


def _encode(
    value: Any,
    arrays: Dict[str, np.ndarray],
    dedup: Optional[Dict[Any, str]] = None,
) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)) and not isinstance(
        value, (np.generic,)
    ):
        return value
    if isinstance(value, np.generic):
        return {"__k": "npnum", "dtype": value.dtype.name, "v": value.item()}
    if isinstance(value, tuple):
        return {"__k": "tuple", "v": [_encode(item, arrays, dedup) for item in value]}
    if isinstance(value, list):
        return {"__k": "list", "v": [_encode(item, arrays, dedup) for item in value]}
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise ArtifactError("only string-keyed dicts are serialisable in plan kwargs")
        return {
            "__k": "dict",
            "v": {key: _encode(item, arrays, dedup) for key, item in value.items()},
        }
    if isinstance(value, slice):
        return {"__k": "slice", "v": [_encode(value.start, arrays, dedup),
                                      _encode(value.stop, arrays, dedup),
                                      _encode(value.step, arrays, dedup)]}
    if value is Ellipsis:
        return {"__k": "ellipsis"}
    if isinstance(value, np.dtype):
        return {"__k": "dtype", "v": value.name}
    if isinstance(value, np.ndarray):
        # The same mask/index array reappears in many steps (one per scale,
        # per fused chain); deduplicating by content keeps each distinct
        # array in the archive exactly once.
        key = ("ndarray",) + _content_key(value) if dedup is not None else None
        if key is not None and key in dedup:
            return {"__k": "ndarray", "ref": dedup[key]}
        ref = f"aux_{len(arrays)}"
        arrays[ref] = value
        if key is not None:
            dedup[key] = ref
        return {"__k": "ndarray", "ref": ref}
    if type(value).__name__ == "SparseMatrix":
        csr = value.csr
        shape = [int(csr.shape[0]), int(csr.shape[1])]
        components = (
            np.asarray(csr.data), np.asarray(csr.indices), np.asarray(csr.indptr)
        )
        key = None
        if dedup is not None:
            key = ("csr", tuple(shape)) + tuple(
                _content_key(component) for component in components
            )
            if key in dedup:
                return {"__k": "csr", "ref": dedup[key], "shape": shape}
        base = f"aux_{len(arrays)}"
        for suffix, component in zip(("data", "indices", "indptr"), components):
            arrays[f"{base}_{suffix}"] = component
        if key is not None:
            dedup[key] = base
        return {"__k": "csr", "ref": base, "shape": shape}
    raise ArtifactError(
        f"plan kwargs value of type {type(value).__name__!r} is not serialisable"
    )


def _decode(value: Any, arrays: Dict[str, np.ndarray]) -> Any:
    if not isinstance(value, dict):
        return value
    kind = value.get("__k")
    if kind == "npnum":
        return np.dtype(value["dtype"]).type(value["v"])
    if kind == "tuple":
        return tuple(_decode(item, arrays) for item in value["v"])
    if kind == "list":
        return [_decode(item, arrays) for item in value["v"]]
    if kind == "dict":
        return {key: _decode(item, arrays) for key, item in value["v"].items()}
    if kind == "slice":
        start, stop, step = (_decode(item, arrays) for item in value["v"])
        return slice(start, stop, step)
    if kind == "ellipsis":
        return Ellipsis
    if kind == "dtype":
        return np.dtype(value["v"])
    if kind == "ndarray":
        return arrays[value["ref"]]
    if kind == "csr":
        from scipy import sparse as sp

        from ..graph.sparse import SparseMatrix

        base = value["ref"]
        csr = sp.csr_matrix(
            (arrays[f"{base}_data"], arrays[f"{base}_indices"], arrays[f"{base}_indptr"]),
            shape=tuple(value["shape"]),
        )
        matrix = SparseMatrix.__new__(SparseMatrix)
        matrix._matrix = csr
        return matrix
    raise ArtifactError(f"unknown encoded value kind {kind!r}")


def _spec_to_payload(spec: PlanSpec) -> Tuple[bytes, Dict[str, np.ndarray]]:
    """Encode a :class:`PlanSpec` as (JSON bytes, auxiliary array table)."""
    arrays: Dict[str, np.ndarray] = {}
    dedup: Dict[Any, str] = {}
    steps = [
        {
            "name": step.name,
            "in_slots": list(step.in_slots),
            "kwargs": _encode(dict(step.kwargs), arrays, dedup),
            "out_slot": step.out_slot,
            "out_shape": list(step.out_shape),
            "storage": step.storage,
        }
        for step in spec.steps
    ]
    stats = dataclasses.asdict(spec.stats)
    stats["input_shape"] = list(spec.stats.input_shape)
    stats["fused_chain_lengths"] = list(spec.stats.fused_chain_lengths)
    document = {
        "format": ARTIFACT_FORMAT_VERSION,
        "dtype": spec.dtype,
        "input_slot": spec.input_slot,
        "output_slot": spec.output_slot,
        "num_slots": spec.num_slots,
        "const_slots": list(spec.const_slots),
        "workspace_nbytes": spec.workspace_nbytes,
        "steps": steps,
    }
    document["stats"] = stats
    return json.dumps(document, sort_keys=True).encode("utf-8"), arrays


def _spec_from_payload(blob: bytes, arrays: Dict[str, np.ndarray]) -> PlanSpec:
    document = json.loads(blob.decode("utf-8"))
    if document.get("format") != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(
            f"artifact format {document.get('format')!r} does not match "
            f"this build's {ARTIFACT_FORMAT_VERSION}"
        )
    steps = [
        StepSpec(
            name=entry["name"],
            in_slots=tuple(entry["in_slots"]),
            kwargs=_decode(entry["kwargs"], arrays),
            out_slot=entry["out_slot"],
            out_shape=tuple(entry["out_shape"]),
            storage=entry["storage"],
        )
        for entry in document["steps"]
    ]
    stats_doc = dict(document["stats"])
    stats_doc["input_shape"] = tuple(stats_doc["input_shape"])
    stats_doc["fused_chain_lengths"] = tuple(stats_doc["fused_chain_lengths"])
    stats = PlanStats(**stats_doc)
    return PlanSpec(
        dtype=document["dtype"],
        input_slot=document["input_slot"],
        output_slot=document["output_slot"],
        num_slots=document["num_slots"],
        const_slots=tuple(document["const_slots"]),
        steps=steps,
        workspace_nbytes=int(document["workspace_nbytes"]),
        stats=stats,
    )


def _pack_arrays(arrays: Dict[str, np.ndarray]) -> Tuple[np.ndarray, bytes]:
    """Pack every value array into one contiguous byte blob + layout table.

    The layout (JSON) records ``name``/``dtype``/``shape``/``offset`` per
    array; offsets are multiples of :data:`_PACK_ALIGN` from the start of
    the blob.
    """
    chunks: List[bytes] = []
    layout: List[Dict[str, Any]] = []
    offset = 0
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        padding = (-offset) % _PACK_ALIGN
        if padding:
            chunks.append(b"\x00" * padding)
            offset += padding
        data = value.tobytes()
        layout.append(
            {
                "name": name,
                "dtype": value.dtype.name,
                "shape": list(value.shape),
                "offset": offset,
                "nbytes": len(data),
            }
        )
        chunks.append(data)
        offset += len(data)
    blob = np.frombuffer(b"".join(chunks), dtype=np.uint8)
    return blob, json.dumps(layout, sort_keys=True).encode("utf-8")


def _unpack_arrays(blob: np.ndarray, layout_blob: bytes) -> Dict[str, np.ndarray]:
    """Carve the packed blob back into named arrays (zero-copy views).

    The returned arrays are marked read-only: constants are shared across
    every plan bound from the store's memo, so nothing may mutate them.
    """
    layout = json.loads(layout_blob.decode("utf-8"))
    buffer = np.ascontiguousarray(blob, dtype=np.uint8)
    arrays: Dict[str, np.ndarray] = {}
    for entry in layout:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        nbytes = int(entry["nbytes"])
        offset = int(entry["offset"])
        if offset + nbytes > buffer.nbytes:
            raise ArtifactError(
                f"array {entry['name']!r} extends past the packed blob (truncated?)"
            )
        if nbytes == 0:
            value = np.empty(shape, dtype=dtype)
        else:
            count = nbytes // dtype.itemsize
            value = np.frombuffer(
                buffer.data, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
        value.flags.writeable = False
        arrays[entry["name"]] = value
    return arrays


def _checksum(spec_blob: bytes, layout_blob: bytes, blob: np.ndarray) -> str:
    """Integrity hash over the spec document, layout table and packed data."""
    digest = hashlib.sha256()
    digest.update(spec_blob)
    digest.update(b"\x00")
    digest.update(layout_blob)
    digest.update(b"\x00")
    digest.update(np.ascontiguousarray(blob, dtype=np.uint8).data)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ArtifactStoreStats:
    """Counters of one artifact store (process-local)."""

    saves: int
    loads: int
    memo_hits: int
    misses: int
    rejects: int
    #: Artifacts statically verified at load under ``REPRO_RUNTIME_VERIFY=1``
    #: (disk reads only — memo hits were verified when first parsed).
    verifies: int = 0

    @property
    def disk_loads(self) -> int:
        """Loads that actually parsed a file (memo hits excluded)."""
        return self.loads - self.memo_hits


class ArtifactStore:
    """Directory-backed store of compiled plan artifacts.

    One store can (and in a sharded service, should) be shared by many
    :class:`~repro.runtime.CompiledModel` instances: the on-disk file makes
    plans survive restarts, and the in-process memo makes N replica workers
    parse each trace once and share the read-only constant arrays.

    Parameters
    ----------
    root:
        Directory holding the ``<trace_hash>.plan.npz`` files (created on
        first use).
    readonly:
        When true, :meth:`save` is a no-op — e.g. serving fleets pointed at
        an artifact volume they must not mutate.

    Example
    -------
    >>> store = ArtifactStore("checkpoints/dyhsl.artifacts")
    >>> compiled = CompiledModel(model, artifact_dir=store)
    >>> compiled(windows)            # first call loads the plan, no trace
    """

    def __init__(self, root: Union[str, Path], readonly: bool = False) -> None:
        self.root = Path(root)
        self.readonly = bool(readonly)
        if not self.readonly:
            self.root.mkdir(parents=True, exist_ok=True)
        self._memo: Dict[str, Tuple[PlanSpec, Dict[int, np.ndarray]]] = {}
        self._lock = threading.Lock()
        self._saves = 0
        self._loads = 0
        self._memo_hits = 0
        self._misses = 0
        self._rejects = 0
        self._verifies = 0

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """The on-disk artifact file for one trace hash."""
        return self.root / f"{key}.plan.npz"

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memo:
                return True
        return self.path_for(key).exists()

    def keys(self) -> List[str]:
        """Trace hashes of every artifact currently on disk."""
        return sorted(path.name[: -len(".plan.npz")] for path in self.root.glob("*.plan.npz"))

    # ------------------------------------------------------------------
    def save(
        self,
        key: str,
        spec: PlanSpec,
        constants: Dict[int, np.ndarray],
        meta: Optional[Dict[str, Any]] = None,
    ) -> Optional[Path]:
        """Persist one plan under its trace hash; returns the path.

        Writes are atomic (temp file + ``os.replace``), so concurrent
        workers racing to publish the same trace can never leave a torn
        file; last writer wins with identical content.  Read-only stores
        skip the disk write but still memoise, so replica workers sharing
        the store object reuse the parsed plan either way.
        """
        spec_blob, arrays = _spec_to_payload(spec)
        tables: Dict[str, np.ndarray] = dict(arrays)
        for slot, value in constants.items():
            tables[f"const_{slot}"] = np.asarray(value)
        blob, layout_blob = _pack_arrays(tables)
        document = dict(meta or {})
        document.update(
            {
                "format": ARTIFACT_FORMAT_VERSION,
                "trace_hash": key,
                "checksum": _checksum(spec_blob, layout_blob, blob),
            }
        )
        with self._lock:
            self._memo[key] = (spec, dict(constants))
            self._saves += 1
        if self.readonly:
            return None
        payload = {
            _SPEC_KEY: np.frombuffer(spec_blob, dtype=np.uint8),
            _LAYOUT_KEY: np.frombuffer(layout_blob, dtype=np.uint8),
            _ARRAYS_KEY: blob,
            _META_KEY: np.frombuffer(
                json.dumps(document, sort_keys=True).encode("utf-8"), dtype=np.uint8
            ),
        }
        path = self.path_for(key)
        # pid AND thread id: two shard workers racing to publish the same
        # trace (replica fleets compile concurrently) must never share a
        # temp file, or one thread's os.replace steals the other's.
        temporary = path.with_name(
            f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
        )
        # The directory may have been removed since construction (e.g. a
        # process tier closing while this save was under way); recreate it
        # rather than failing the compile that got us here.
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            with open(temporary, "wb") as handle:
                np.savez(handle, **payload)
            os.replace(temporary, path)
        finally:
            if temporary.exists():  # a failed write never leaves debris
                temporary.unlink()
        return path

    # ------------------------------------------------------------------
    def peek(self, key: str):
        """Stat-neutral memo lookup: ``(spec, constants)`` or ``None``.

        Unlike :meth:`load` this never touches the disk and never moves
        the load/memo-hit counters — infrastructure that merely inspects
        an already-ensured plan (e.g. sizing a shared-memory segment from
        its buffer layout) should not distort warm-start accounting.
        """
        with self._lock:
            return self._memo.get(key)

    def load(self, key: str):
        """Fetch ``(spec, values, meta)`` for one trace hash.

        Returns ``None`` when no artifact exists for the key.  Raises
        :class:`ArtifactError` when one exists but fails validation
        (unreadable, truncated, checksum mismatch, wrong format version,
        or a trace-hash echo that does not match the filename) — callers
        fall back to compiling.  ``values`` is a fresh full-length slot
        table; the constant arrays themselves are shared with the memo
        (plans never write constant slots).
        """
        with self._lock:
            memo = self._memo.get(key)
            if memo is not None:
                self._loads += 1
                self._memo_hits += 1
                spec, constants = memo
                return spec, self._values_from(spec, constants), {"trace_hash": key}
        path = self.path_for(key)
        if not path.exists():
            with self._lock:
                self._misses += 1
            return None
        try:
            spec, constants, meta = self._read(path, key)
        except ArtifactError:
            with self._lock:
                self._rejects += 1
            raise
        except Exception as error:
            with self._lock:
                self._rejects += 1
            raise ArtifactError(f"artifact {path} is unreadable: {error}") from error
        from .verify import verify_enabled

        if verify_enabled():
            # Static audit of the freshly parsed plan, ahead of the deferred
            # parity spot check.  A finding rejects the artifact the same way
            # a checksum failure would — callers fall back to a fresh
            # (itself verified) compile.  Memo hits skip this: they were
            # verified when first parsed.
            from .verify import verify_spec

            report = verify_spec(spec, self._values_from(spec, constants))
            with self._lock:
                self._verifies += 1
            if not report.ok:
                with self._lock:
                    self._rejects += 1
                raise ArtifactError(
                    f"artifact {path} failed static verification: {report.summary()}"
                )
        with self._lock:
            self._memo[key] = (spec, constants)
            self._loads += 1
        return spec, self._values_from(spec, constants), meta

    @staticmethod
    def _values_from(
        spec: PlanSpec, constants: Dict[int, np.ndarray]
    ) -> List[Optional[np.ndarray]]:
        values: List[Optional[np.ndarray]] = [None] * spec.num_slots
        for slot, value in constants.items():
            values[slot] = value
        return values

    def _read(self, path: Path, key: str):
        with np.load(path, allow_pickle=False) as archive:
            files = set(archive.files)
            required = (_META_KEY, _SPEC_KEY, _LAYOUT_KEY, _ARRAYS_KEY)
            if not all(name in files for name in required):
                raise ArtifactError(f"artifact {path} is missing its metadata/spec blobs")
            meta = json.loads(archive[_META_KEY].tobytes().decode("utf-8"))
            if meta.get("format") != ARTIFACT_FORMAT_VERSION:
                raise ArtifactError(
                    f"artifact {path} has format {meta.get('format')!r}; this build "
                    f"reads {ARTIFACT_FORMAT_VERSION}"
                )
            if meta.get("trace_hash") != key:
                raise ArtifactError(
                    f"artifact {path} declares trace hash {meta.get('trace_hash')!r}; "
                    f"expected {key}"
                )
            spec_blob = archive[_SPEC_KEY].tobytes()
            layout_blob = archive[_LAYOUT_KEY].tobytes()
            blob = archive[_ARRAYS_KEY]
            if meta.get("checksum") != _checksum(spec_blob, layout_blob, blob):
                raise ArtifactError(
                    f"artifact {path} failed its integrity checksum (corrupted file)"
                )
        arrays = _unpack_arrays(blob, layout_blob)
        aux = {name: value for name, value in arrays.items() if not name.startswith("const_")}
        spec = _spec_from_payload(spec_blob, aux)
        constants: Dict[int, np.ndarray] = {}
        for name, value in arrays.items():
            if name.startswith("const_"):
                constants[int(name[len("const_"):])] = value
        missing = set(spec.const_slots) - set(constants)
        if missing:
            raise ArtifactError(
                f"artifact {path} is missing constant slots {sorted(missing)} (truncated?)"
            )
        return spec, constants, meta

    def bind(self, key: str, workspace: Optional[np.ndarray] = None):
        """Load one artifact and materialise it as an executable plan.

        Returns ``None`` when no artifact exists for ``key``; propagates
        :class:`ArtifactError` on validation failure (callers fall back to
        compiling — or, in a worker process that must never trace, to
        reporting the key unavailable).  ``workspace`` is forwarded to
        :func:`~repro.runtime.engine.bind_plan`: a flat ``uint8`` buffer —
        e.g. a ``multiprocessing.shared_memory`` arena — that the plan's
        step buffers are viewed in instead of the heap.
        """
        from .engine import bind_plan

        loaded = self.load(key)
        if loaded is None:
            return None
        spec, values, _meta = loaded
        return bind_plan(spec, values, workspace=workspace)

    # ------------------------------------------------------------------
    def adopt(self, source: Union[str, Path, "ArtifactStore"]) -> List[str]:
        """Copy another store's artifacts this store does not have yet.

        The hot-swap ingredient: a new checkpoint ships its AOT plans in a
        sidecar directory (:func:`~repro.training.save_plan_artifacts`), but
        a live deployment — in particular its process-tier workers, whose
        store roots are fixed at spawn — only looks in the deployment store.
        Adopting copies the sidecar's ``.plan.npz`` files in (atomic temp +
        rename, like :meth:`save`), after which every worker can bind the
        new generation's plans without a single retrace.

        Files are copied verbatim: validation (format version, checksum,
        trace-hash echo) still happens at load time, so a corrupt source
        artifact degrades to a recompile exactly as if it sat in this store
        all along.  Returns the keys actually copied; existing keys are
        never overwritten.
        """
        root = source.root if isinstance(source, ArtifactStore) else Path(source)
        if self.readonly:
            return []
        if not Path(root).is_dir():
            return []
        adopted: List[str] = []
        self.root.mkdir(parents=True, exist_ok=True)
        for path in sorted(Path(root).glob("*.plan.npz")):
            key = path.name[: -len(".plan.npz")]
            destination = self.path_for(key)
            if destination.exists():
                continue
            temporary = destination.with_name(
                f"{destination.name}.tmp.{os.getpid()}.{threading.get_ident()}"
            )
            try:
                temporary.write_bytes(path.read_bytes())
                os.replace(temporary, destination)
            finally:
                if temporary.exists():
                    temporary.unlink()
            adopted.append(key)
        return adopted

    def forget(self, key: str) -> None:
        """Drop one key from the in-process memo (disk untouched)."""
        with self._lock:
            self._memo.pop(key, None)

    def stats(self) -> ArtifactStoreStats:
        """Snapshot of the store's save/load/miss/reject counters."""
        with self._lock:
            return ArtifactStoreStats(
                saves=self._saves,
                loads=self._loads,
                memo_hits=self._memo_hits,
                misses=self._misses,
                rejects=self._rejects,
                verifies=self._verifies,
            )

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r}, readonly={self.readonly})"
