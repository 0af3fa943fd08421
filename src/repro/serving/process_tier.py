"""Process-backed shard execution: shared-memory plan replay across cores.

Threads of one interpreter share its lock, so replicas computing on
threads would gain little on a single box once the kernels stop releasing
the GIL long enough.  :class:`ProcessShardExecutor` escapes that ceiling:
each serving shard owns a long-lived **worker process** that replays
compiled plans, and the service's batcher/worker split stays exactly as it
was — the executor slots in as the per-shard ``forward_fn``
(``ForecastService(num_shards=K)``, or ``executor="processes"``).

The tier holds no weights generation.  The service owns each one:
:meth:`ProcessShardExecutor.generation` builds a generation's parent-side
provider set, every replica forward (:meth:`~ProcessShardExecutor.proxy`)
pins one set, and every dispatch names the set it runs on.  A hot swap
builds new forwards over a new set, while work queued on the old forwards
settles on the old plans.

Three design rules keep the hot path cheap and the answers bit-identical:

**Never trace in the child.**  Workers only ever *bind* plans from a
:class:`~repro.runtime.ArtifactStore` — either the deployment's own store
or a parent-compiled, parity-spot-checked plan spilled to a temp store —
so a child is a dumb replayer: no tracing, no fusing, no layout, no
autograd, and a freshly (re)spawned worker is serving in milliseconds.

**No pickling of array payloads.**  Request windows and forecast outputs
travel through a preallocated ``multiprocessing.shared_memory`` segment
sized from the plan's workspace layout
(:func:`~repro.runtime.plan_workspace_nbytes`); the child binds its plans
*into* the segment's arena (``bind_plan(workspace=...)``), so a plan whose
output lands in the arena is published to the parent without a single
copy.  Only a compact fixed-size header (magic, kind, lane, dtype code,
seq, shape) plus a tiny control tuple cross the pipe per request.

**Spawn-safe by construction, fork as fast path.**  The worker entry point
is a module-level function taking only picklable arguments, so the tier
runs unchanged under ``spawn`` (the only method on Windows/macOS
defaults) — ``fork`` is merely faster to start and is the default where
available (``REPRO_PROCESS_START_METHOD`` overrides).

The executor provides **priority lanes**: ``lane="interactive"`` requests
— the streaming ``forecast_latest`` path — jump ahead of queued
``lane="bulk"`` backfill chunks on every worker.  Admission control over
those lanes lives in the front end (:class:`~repro.serving.ServiceOverloaded`).

Lifecycle is explicit: ``close()`` (or leaving the executor's context)
drains the dispatchers, stops the workers, and unlinks every shared-memory
segment; a worker that dies mid-batch is detected, its in-flight request
failed with partial-progress info, and the worker respawned on the same
segment.  A module-level ``atexit`` hook closes executors that were never
closed, so interpreter shutdown leaks neither orphaned processes nor
``/dev/shm`` segments — and the hook is pid-guarded so a *forked child*
exiting never tears down its parent's tier.
"""

from __future__ import annotations

import atexit
import os
import shutil
import struct
import tempfile
import threading
import time
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime import (
    ArtifactStore,
    CompiledModel,
    PlanStats,
    batch_pieces,
    bind_plan,
    blas,
    plan_workspace_nbytes,
    resolve_precision,
)
from .faults import FaultPlan, fault_point, install_fault_plan
from .resilience import Deadline, TransientError, WatchdogConfig, WorkerCrashed

__all__ = [
    "START_METHOD_ENV_VAR",
    "LANES",
    "ProcessTierStats",
    "ProcessShardExecutor",
    "resolve_start_method",
]

#: Environment variable selecting the worker start method (fork/spawn/...).
START_METHOD_ENV_VAR = "REPRO_PROCESS_START_METHOD"

#: Request-priority lanes, highest priority first.
LANES = ("interactive", "bulk")

_LANE_IDS = {lane: index for index, lane in enumerate(LANES)}
_LANE_NAMES = {index: lane for lane, index in _LANE_IDS.items()}


def resolve_start_method(method: Optional[str] = None) -> str:
    """Resolve the worker start method: argument > env var > fork > spawn.

    ``fork`` is the fast path (no interpreter boot, no module re-import);
    ``spawn`` is the portable contract the tier is written against — the
    worker entry point takes only picklable arguments, so every method in
    :func:`multiprocessing.get_all_start_methods` works.
    """
    import multiprocessing as mp

    if method is None:
        method = os.environ.get(START_METHOD_ENV_VAR, "").strip().lower() or None
    available = mp.get_all_start_methods()
    if method is None:
        return "fork" if "fork" in available else "spawn"
    method = method.lower()
    if method not in available:
        raise ValueError(
            f"start method {method!r} is not available on this platform; "
            f"expected one of {tuple(available)} (set via argument or the "
            f"{START_METHOD_ENV_VAR} environment variable)"
        )
    return method


@dataclass(frozen=True)
class ProcessTierStats:
    """Operational counters of a running process tier."""

    start_method: str
    workers: int
    respawns: int
    interactive_batches: int
    bulk_batches: int
    interactive_rows: int
    bulk_rows: int
    segment_nbytes: int
    escalations: int = 0
    hung_detections: int = 0
    #: Plans a worker bound on its own heap because they did not fit its
    #: segment's arena: correct, but their outputs are copied out and
    #: their workspace is private (as of each worker's last beacon).
    heap_binds: int = 0


# ----------------------------------------------------------------------
# The shared-memory wire protocol.
#
# One segment per shard:
# ``[heartbeat block][request slots][response slots][plan arena]``.
# Each slot is a fixed 128-byte header followed by a payload region; the
# header records everything needed to view the payload as an ndarray (and
# for an arena-resident output, ``offset`` points straight into the arena
# — the zero-copy publish).  Slot index is ``seq % slots``; the dispatcher
# fully consumes a response before issuing the next request, so two slots
# are already one more than strictly required.
#
# The heartbeat block holds the worker's liveness beacon: a magic word,
# a monotonically-increasing beat counter, a ``time.monotonic()``
# timestamp (valid across processes on Linux — CLOCK_MONOTONIC is
# system-wide), the worker's live OpenBLAS thread count (-1: none
# found) and how many plans it has bound on its heap, not in the arena.
# The worker writes it from its *serve loop only* — never
# a side thread — so a wedged main loop (hang, deadlock, runaway compute)
# stops the beacon, which is exactly what the parent's watchdog watches.
# Corollary: a legitimate long plan replay also pauses the beacon, so the
# watchdog's ``hang_timeout_s`` must exceed worst-case single-chunk
# compute time (documented on :class:`~repro.serving.WatchdogConfig`).
# ----------------------------------------------------------------------
_MAGIC = 0x52504C4E  # "RPLN"
_HEADER = struct.Struct("<IBBBBQQQ8Q")  # magic kind lane dtype ndim seq nbytes offset dims[8]
_HEADER_NBYTES = 128
_ALIGN = 64
_KIND_REQ = 1
_KIND_OK = 2
_KIND_ERR = 3
_DTYPE_CODES = {"float64": 0, "float32": 1}
_DTYPE_BY_CODE = {code: np.dtype(name) for name, code in _DTYPE_CODES.items()}

_HB_MAGIC = 0x48425254  # "HBRT"
_HB_STRUCT = struct.Struct("<QQdqq")  # magic beat monotonic-timestamp blas-threads heap-binds
_HB_NBYTES = 64  # one aligned block at segment offset 0


def _write_heartbeat(shm, beat: int, blas_threads: int, heap_binds: int) -> None:
    shm.buf[0 : _HB_STRUCT.size] = _HB_STRUCT.pack(
        _HB_MAGIC, beat, time.monotonic(), blas_threads, heap_binds
    )


def _read_heartbeat(shm) -> Optional[Tuple[int, float, int, int]]:
    """``(beat, timestamp, blas_threads, heap_binds)`` of the worker's last
    beacon, or ``None``.

    The 40-byte read is not atomic against the worker's write; a torn read
    fails the magic check (or yields a slightly stale timestamp), both of
    which the watchdog tolerates — it only acts on *seconds* of silence.
    """
    magic, beat, stamp, threads, heap_binds = _HB_STRUCT.unpack(
        bytes(shm.buf[0 : _HB_STRUCT.size])
    )
    if magic != _HB_MAGIC:
        return None
    return beat, stamp, threads, heap_binds


def _align(nbytes: int) -> int:
    return nbytes + (-nbytes) % _ALIGN


@dataclass(frozen=True)
class _SegmentLayout:
    """Byte layout of one shard's shared-memory segment."""

    slots: int
    request_payload_cap: int
    response_payload_cap: int
    request_stride: int
    response_stride: int
    request_base: int
    response_base: int
    arena_offset: int
    arena_nbytes: int
    total_nbytes: int

    @classmethod
    def build(
        cls, request_payload_cap: int, response_payload_cap: int, arena_nbytes: int, slots: int = 2
    ) -> "_SegmentLayout":
        request_stride = _align(_HEADER_NBYTES + request_payload_cap)
        response_stride = _align(_HEADER_NBYTES + response_payload_cap)
        request_base = _HB_NBYTES
        response_base = request_base + slots * request_stride
        arena_offset = response_base + slots * response_stride
        return cls(
            slots=slots,
            request_payload_cap=request_payload_cap,
            response_payload_cap=response_payload_cap,
            request_stride=request_stride,
            response_stride=response_stride,
            request_base=request_base,
            response_base=response_base,
            arena_offset=arena_offset,
            arena_nbytes=arena_nbytes,
            total_nbytes=arena_offset + arena_nbytes,
        )

    def request_offset(self, slot: int) -> int:
        return self.request_base + slot * self.request_stride

    def response_offset(self, slot: int) -> int:
        return self.response_base + slot * self.response_stride


def _pack_header(kind, lane_id, dtype_code, seq, nbytes, offset, shape) -> bytes:
    dims = list(shape) + [0] * (8 - len(shape))
    return _HEADER.pack(
        _MAGIC, kind, lane_id, dtype_code, len(shape), seq, nbytes, offset, *dims
    )


def _unpack_header(raw: bytes):
    fields = _HEADER.unpack(raw[: _HEADER.size])
    magic, kind, lane_id, dtype_code, ndim = fields[:5]
    seq, nbytes, offset = fields[5:8]
    dims = fields[8:]
    return magic, kind, lane_id, dtype_code, ndim, seq, nbytes, offset, dims


# ----------------------------------------------------------------------
# Worker-process side.  Module-level and picklable-argument-only, so the
# tier is spawn-safe by construction; fork merely starts faster.
# ----------------------------------------------------------------------
def _worker_reply_error(conn, shm, layout, slot, seq, message: str) -> None:
    payload = message.encode("utf-8")[: layout.response_payload_cap]
    offset = layout.response_offset(slot) + _HEADER_NBYTES
    shm.buf[offset : offset + len(payload)] = payload
    header = _pack_header(_KIND_ERR, 0, 0, seq, len(payload), offset, ())
    base = layout.response_offset(slot)
    shm.buf[base : base + _HEADER.size] = header
    conn.send(("res", seq, slot))


def _worker_get_plan(plans, stores, key, arena, heap_binds):
    """Bind (or fetch) the plan for one artifact key — never trace.

    A plan larger than the segment's arena binds on the worker's heap,
    counted in ``heap_binds[0]``."""
    plan = plans.get(key)
    if plan is not None:
        plans.move_to_end(key)
        return plan
    fault_point("artifact.load")
    spec = values = None
    last_error: Optional[Exception] = None
    for store in stores:
        try:
            loaded = store.load(key)
        except Exception as error:  # ArtifactError: unreadable/corrupt file
            last_error = error
            continue
        if loaded is not None:
            spec, values, _meta = loaded
            break
    if spec is None:
        detail = f" ({last_error})" if last_error is not None else ""
        raise KeyError(f"no artifact for plan key {key}{detail}")
    workspace = arena if plan_workspace_nbytes(spec) <= arena.nbytes else None
    if workspace is None:
        heap_binds[0] += 1
    plan = bind_plan(spec, values, workspace=workspace)
    plans[key] = plan
    while len(plans) > CompiledModel.MAX_PLANS:
        plans.popitem(last=False)
    return plan


def _worker_serve_one(
    conn, shm, seg_addr, plans, stores, arena, heap_binds, layout, message
) -> None:
    tag, seq, slot, key = message
    base = layout.request_offset(slot)
    try:
        magic, kind, _lane_id, dtype_code, ndim, hdr_seq, nbytes, offset, dims = _unpack_header(
            bytes(shm.buf[base : base + _HEADER.size])
        )
        if magic != _MAGIC:
            raise ValueError(f"bad request magic 0x{magic:08x}")
        if kind != _KIND_REQ:
            raise ValueError(f"bad request kind {kind}")
        if hdr_seq != seq:
            raise ValueError(f"request header seq {hdr_seq} != control seq {seq}")
        if dtype_code not in _DTYPE_BY_CODE:
            raise ValueError(f"unknown dtype code {dtype_code}")
        if not 1 <= ndim <= 8:
            raise ValueError(f"bad request ndim {ndim}")
        dtype = _DTYPE_BY_CODE[dtype_code]
        shape = tuple(int(dim) for dim in dims[:ndim])
        expected = int(np.prod(shape)) * dtype.itemsize
        if expected != nbytes:
            raise ValueError(f"shape {shape} x {dtype.name} is {expected} bytes, header says {nbytes}")
        if offset + nbytes > layout.total_nbytes:
            raise ValueError(f"payload [{offset}, {offset + nbytes}) overruns the segment")
        window = np.frombuffer(shm.buf, dtype=dtype, count=int(np.prod(shape)), offset=offset).reshape(shape)
        fault_point("worker.dispatch", window)
        plan = _worker_get_plan(plans, stores, key, arena, heap_binds)
        if plan.spec.dtype != dtype.name or tuple(plan.spec.stats.input_shape) != shape:
            raise ValueError(
                f"plan {key} expects {tuple(plan.spec.stats.input_shape)} "
                f"{plan.spec.dtype}; request is {shape} {dtype.name}"
            )
        result = plan.execute(window)
    except Exception as error:
        _worker_reply_error(conn, shm, layout, slot, seq, f"{type(error).__name__}: {error}")
        return
    result = np.ascontiguousarray(result)
    addr = result.__array_interface__["data"][0]
    if seg_addr <= addr and addr + result.nbytes <= seg_addr + layout.total_nbytes:
        # Zero-copy publish: the plan's output already lives in the arena.
        out_offset = addr - seg_addr
    else:
        out_offset = layout.response_offset(slot) + _HEADER_NBYTES
        if result.nbytes > layout.response_payload_cap:
            _worker_reply_error(
                conn, shm, layout, slot, seq,
                f"result of {result.nbytes} bytes exceeds the "
                f"{layout.response_payload_cap}-byte response slot",
            )
            return
        np.frombuffer(shm.buf, dtype=result.dtype, count=result.size, offset=out_offset)[
            :
        ] = result.reshape(-1)
    try:
        fault_point("shm.publish")
    except Exception as error:
        _worker_reply_error(conn, shm, layout, slot, seq, f"{type(error).__name__}: {error}")
        return
    header = _pack_header(
        _KIND_OK, 0, _DTYPE_CODES[result.dtype.name], seq, result.nbytes, out_offset, result.shape
    )
    base = layout.response_offset(slot)
    shm.buf[base : base + _HEADER.size] = header
    conn.send(("res", seq, slot))


def _worker_main(conn, shm_name, layout, store_roots, fault_plan=None) -> None:
    """Entry point of one shard's worker process: bind, replay, publish.

    The worker first pins OpenBLAS at one thread, before any plan runs,
    whatever the start method: a forked child inherits the parent's pool
    size, but a spawned or forkserver child starts at one thread per core
    (or at whatever ``OPENBLAS_NUM_THREADS`` says).

    The serve loop exits once the process that started it is gone (the
    worker is re-parented).  A forked child inherits the parent's end of
    the pipe, so a parent killed before its shutdown runs never closes
    that end and ``conn.poll`` never reports EOF; without the parent check
    an orphaned worker would poll forever.
    """
    blas.set_threads(1)
    live_threads = blas.threads() or -1  # -1: no OpenBLAS loaded
    parent_pid = os.getppid()
    import gc
    import signal
    from multiprocessing import shared_memory

    # A forked child inherits the parent's whole heap; freezing it keeps
    # the collector (and the exit-time collect below) to the objects this
    # worker makes, instead of walking, and copying, every inherited page.
    gc.freeze()

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    # Resource-tracker hygiene: every multiprocessing child — spawn and
    # fork alike — inherits the PARENT's resource tracker (the tracker fd
    # travels in the spawn preparation data), so the attach below re-adds
    # a name that is already in the tracker's set (a no-op) and the child
    # must NOT unregister it: that would cancel the parent's registration
    # and turn the parent's own unlink into a tracker error.  The parent
    # is the segment's sole owner; the child only maps and unmaps.
    if fault_plan is not None:
        # The plan travelled over the spawn/fork pickle boundary; install
        # it so this process's fault points fire on their own deterministic
        # visit sequence.
        install_fault_plan(fault_plan)

    shm = shared_memory.SharedMemory(name=shm_name)
    segment = np.frombuffer(shm.buf, dtype=np.uint8)
    seg_addr = segment.__array_interface__["data"][0]
    arena = segment[layout.arena_offset : layout.arena_offset + layout.arena_nbytes]
    stores = [ArtifactStore(root, readonly=True) for root in store_roots]
    plans: "OrderedDict[str, object]" = OrderedDict()
    heap_binds = [0]
    beat = 0
    try:
        while True:
            # Liveness beacon: written only from this serve loop, so a
            # wedged loop stops the beacon and trips the parent watchdog.
            beat += 1
            _write_heartbeat(shm, beat, live_threads, heap_binds[0])
            if os.getppid() != parent_pid:
                return  # orphaned: the owning process is gone
            try:
                if not conn.poll(0.05):
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                return
            if not isinstance(message, tuple) or not message:
                continue
            if message[0] == "stop":
                return
            if message[0] != "req" or len(message) != 4:
                continue
            beat += 1
            _write_heartbeat(shm, beat, live_threads, heap_binds[0])
            _worker_serve_one(
                conn, shm, seg_addr, plans, stores, arena, heap_binds, layout, message
            )
    finally:
        # Drop every view into the mapping before closing it; a dangling
        # buffer export would raise BufferError from shm.close().  The OS
        # reclaims the mapping at process exit either way, and the parent
        # — never the child — unlinks the segment.
        plans.clear()
        del arena, segment
        gc.collect()
        try:
            shm.close()
        except BufferError:  # pragma: no cover - exiting anyway
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Parent side: per-shard dispatch with lane priority.
# ----------------------------------------------------------------------
class _WorkerDied(RuntimeError):
    """Internal: the worker process exited while a request was in flight."""


class _WorkerHung(RuntimeError):
    """Internal: the worker is alive but its heartbeat went silent too long."""


class _Job:
    __slots__ = ("array", "lane", "key", "rows", "deadline", "event", "result", "error")

    def __init__(self, array: np.ndarray, lane: str, key: str,
                 deadline: Optional[Deadline] = None) -> None:
        self.array = array
        self.lane = lane
        self.key = key
        self.rows = array.shape[0]
        self.deadline = deadline
        self.event = threading.Event()
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None


class _LaneQueue:
    """Two-lane priority queue: interactive jobs always dequeue first."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._queues: Dict[str, "deque[_Job]"] = {lane: deque() for lane in LANES}
        self._in_flight: Dict[str, int] = {lane: 0 for lane in LANES}
        self._stopped = False

    def put(self, job: _Job) -> None:
        with self._cond:
            self._queues[job.lane].append(job)
            self._cond.notify()

    def get(self) -> Optional[_Job]:
        """Next job, interactive first; ``None`` once stopped *and* drained."""
        with self._cond:
            while True:
                for lane in LANES:
                    if self._queues[lane]:
                        job = self._queues[lane].popleft()
                        self._in_flight[job.lane] += job.rows
                        return job
                if self._stopped:
                    return None
                self._cond.wait()

    def task_done(self, job: _Job) -> None:
        with self._cond:
            self._in_flight[job.lane] -= job.rows

    def pending_rows(self, lane: str) -> int:
        """Rows queued or in flight on one lane (admission-control depth)."""
        with self._cond:
            return sum(job.rows for job in self._queues[lane]) + self._in_flight[lane]

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()


class _ProcessWorker:
    """One shard's worker process, its segment, and its dispatcher thread."""

    def __init__(self, shard: int, ctx, start_method: str, layout: _SegmentLayout,
                 store_roots: Sequence[str],
                 watchdog: Optional[WatchdogConfig] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        from multiprocessing import shared_memory

        self.shard = shard
        self._ctx = ctx
        self._start_method = start_method
        self.layout = layout
        self._store_roots = list(store_roots)
        self._watchdog = watchdog if watchdog is not None else WatchdogConfig()
        self._fault_plan = fault_plan
        self.respawns = 0
        self.escalations = 0
        self.hung_detections = 0
        # Heap binds of the worker's earlier incarnations (each beacon
        # counts its own incarnation's).
        self._past_heap_binds = 0
        self._respawn_times: "deque[float]" = deque()
        self._seq = 0
        self.shm = shared_memory.SharedMemory(
            create=True, size=layout.total_nbytes
        )
        self.queue = _LaneQueue()
        self.process = None
        self.conn = None
        self._spawn()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name=f"repro-process-shard-{shard}", daemon=True
        )
        self._dispatcher.start()

    # -- process lifecycle ---------------------------------------------
    def _spawn(self) -> None:
        # A new incarnation starts with no beacon: the previous worker's
        # last one would read as stale while this one is still starting.
        self._past_heap_binds = self.heap_binds()
        self.shm.buf[0 : _HB_STRUCT.size] = bytes(_HB_STRUCT.size)
        self._beaconed = False
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.shm.name, self.layout, self._store_roots,
                  self._fault_plan),
            name=f"repro-plan-worker-{self.shard}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def _stop_process(self, grace: float = 1.0) -> None:
        """Reap the worker, escalating join → terminate → kill.

        ``process.join(timeout=...)`` alone can leave a live process behind
        (a wedged worker never exits on its own); each escalation step that
        has to fire is counted in ``stats().process_tier.escalations``.
        """
        self.process.join(timeout=grace)
        if self.process.is_alive():
            self.escalations += 1
            self.process.terminate()
            self.process.join(timeout=grace)
        if self.process.is_alive():
            self.escalations += 1
            self.process.kill()
            self.process.join(timeout=grace)

    def _respawn_delay(self) -> float:
        """Capped exponential backoff from the recent-respawn history.

        The first respawn inside a quiet window is immediate (fast
        recovery from an isolated crash); repeats double the delay up to
        the cap, and crossing ``storm_threshold`` respawns inside
        ``storm_window_s`` pins the delay at the cap (storm protection).
        """
        wd = self._watchdog
        now = time.monotonic()
        while self._respawn_times and now - self._respawn_times[0] > wd.storm_window_s:
            self._respawn_times.popleft()
        recent = len(self._respawn_times)
        if recent == 0:
            return 0.0
        if recent >= wd.storm_threshold:
            return wd.respawn_backoff_cap_s
        return min(
            wd.respawn_backoff_base_s * (2.0 ** (recent - 1)), wd.respawn_backoff_cap_s
        )

    def _respawn(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        self._stop_process()
        delay = self._respawn_delay()
        self._respawn_times.append(time.monotonic())
        if delay > 0.0:
            time.sleep(delay)
        self.respawns += 1
        self._spawn()

    # -- dispatch ------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            job = self.queue.get()
            if job is None:
                return
            try:
                if job.deadline is not None:
                    # Fail fast: an expired request must not occupy the
                    # worker for a result nobody is waiting on.
                    job.deadline.check("process-queue")
                job.result = self._roundtrip(job)
            except _WorkerHung as hang:
                self.hung_detections += 1
                job.error = WorkerCrashed(self.shard, str(hang), hung=True)
                self._respawn()
            except _WorkerDied as death:
                job.error = WorkerCrashed(self.shard, str(death))
                self._respawn()
            except BaseException as error:
                job.error = error
            finally:
                job.array = None  # type: ignore[assignment]
                self.queue.task_done(job)
                job.event.set()

    def heartbeat_age(self) -> Optional[float]:
        """Seconds since the worker's last beacon (``None`` before first)."""
        beacon = _read_heartbeat(self.shm)
        if beacon is None:
            return None
        return max(0.0, time.monotonic() - beacon[1])

    def blas_threads(self) -> Optional[int]:
        """The worker's live OpenBLAS thread count, as its beacon reports it."""
        beacon = _read_heartbeat(self.shm)
        if beacon is None or beacon[2] < 0:
            return None
        return beacon[2]

    def heap_binds(self) -> int:
        """Plans this shard's workers bound on their heap, as of the live
        worker's last beacon (written before each request it serves)."""
        beacon = _read_heartbeat(self.shm)
        return self._past_heap_binds + (beacon[3] if beacon is not None else 0)

    def _roundtrip(self, job: _Job) -> np.ndarray:
        self._seq += 1
        seq = self._seq
        slot = seq % self.layout.slots
        array = job.array
        payload_offset = self.layout.request_offset(slot) + _HEADER_NBYTES
        np.frombuffer(self.shm.buf, dtype=array.dtype, count=array.size, offset=payload_offset)[
            :
        ] = array.reshape(-1)
        header = _pack_header(
            _KIND_REQ, _LANE_IDS[job.lane], _DTYPE_CODES[array.dtype.name],
            seq, array.nbytes, payload_offset, array.shape,
        )
        base = self.layout.request_offset(slot)
        self.shm.buf[base : base + _HEADER.size] = header
        try:
            self.conn.send(("req", seq, slot, job.key))
        except (BrokenPipeError, OSError) as error:
            raise _WorkerDied(f"pipe send failed: {error}") from None
        sent_at = time.monotonic()
        hang_timeout = self._watchdog.hang_timeout_s
        while True:
            try:
                if self.conn.poll(0.05):
                    break
            except (BrokenPipeError, OSError) as error:
                raise _WorkerDied(f"pipe poll failed: {error}") from None
            if not self.process.is_alive():
                # One generous final poll: the response may already be
                # buffered even though the process has since exited.
                if self.conn.poll(0.2):
                    break
                raise _WorkerDied(
                    f"pid {self.process.pid}, exitcode {self.process.exitcode}"
                )
            if not self._beaconed:
                # The hang clock starts at the worker's first beacon: until
                # then it is starting (a spawned worker is still importing),
                # not wedged.
                self._beaconed = self.heartbeat_age() is not None
                sent_at = time.monotonic()
                continue
            waited = time.monotonic() - sent_at
            if waited > hang_timeout:
                # The worker is alive but silent past the hang budget AND
                # its heartbeat beacon is stale — it is wedged, not merely
                # slow (a healthy worker beacons between requests, so only
                # a single-request compute longer than hang_timeout_s can
                # false-positive; that bound is part of the config
                # contract).
                age = self.heartbeat_age()
                if age is None or age > hang_timeout:
                    raise _WorkerHung(
                        f"pid {self.process.pid} silent for {waited:.2f}s "
                        f"(heartbeat age {'unknown' if age is None else f'{age:.2f}s'}, "
                        f"hang_timeout_s={hang_timeout})"
                    )
        try:
            message = self.conn.recv()
        except (EOFError, OSError) as error:
            raise _WorkerDied(f"pipe recv failed: {error}") from None
        if not (isinstance(message, tuple) and len(message) == 3 and message[0] == "res" and message[1] == seq):
            raise _WorkerDied(f"malformed response control message {message!r}")
        base = self.layout.response_offset(message[2])
        magic, kind, _lane, dtype_code, ndim, hdr_seq, nbytes, offset, dims = _unpack_header(
            bytes(self.shm.buf[base : base + _HEADER.size])
        )
        if magic != _MAGIC or hdr_seq != seq:
            raise _WorkerDied(f"malformed response header (magic 0x{magic:08x}, seq {hdr_seq})")
        if kind == _KIND_ERR:
            raw = bytes(self.shm.buf[offset : offset + nbytes])
            detail = raw.decode("utf-8", "replace")
            if detail.startswith(("InjectedFault:", "ArtifactError:")):
                # Transient by contract: injected chaos faults and
                # artifact-load rejects (a torn read during a concurrent
                # spill, an unreadable store replica) clear on retry.
                raise TransientError(f"process worker rejected request: {detail}")
            raise RuntimeError(f"process worker rejected request: {detail}")
        dtype = _DTYPE_BY_CODE[dtype_code]
        shape = tuple(int(dim) for dim in dims[:ndim])
        view = np.frombuffer(
            self.shm.buf, dtype=dtype, count=int(np.prod(shape)), offset=offset
        ).reshape(shape)
        # astype(copy=True) both detaches the result from the segment and
        # applies the float64 exit cast of the precision contract — exactly
        # what Plan.call does in the parent.
        return view.astype(np.float64)

    # -- shutdown ------------------------------------------------------
    def close(self) -> None:
        self.queue.stop()
        if self._dispatcher.is_alive():
            try:
                self._dispatcher.join()
            except RuntimeError:  # pragma: no cover - interpreter teardown
                pass
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._stop_process()
        try:
            self.conn.close()
        except OSError:
            pass
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - a view still exported
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


# ----------------------------------------------------------------------
# The executor.
# ----------------------------------------------------------------------
_LIVE: "weakref.WeakSet[ProcessShardExecutor]" = weakref.WeakSet()


def _close_all_executors() -> None:
    """Interpreter-shutdown safety net: close tiers nobody closed."""
    for executor in list(_LIVE):
        try:
            executor.close()
        except Exception:  # pragma: no cover - best effort at exit
            pass
        if os.getpid() == executor._owner_pid:
            # A save already past its read-only check when close() ran
            # may have re-created the directory; sweep again.
            shutil.rmtree(executor._spill_root, ignore_errors=True)


atexit.register(_close_all_executors)


class _ProviderSet:
    """One weights generation's parent-side compile/validate engine.

    A single :class:`CompiledModel` provider serves all K replicas, so each
    (shape, dtype) is compiled or loaded and spot-checked once per
    generation, not once per shard; shards racing on a new shape wait for
    the first one under that shape's lock.  The service builds one set per
    generation (:meth:`ProcessShardExecutor.generation`) and every dispatch
    names the set it runs on, so a batcher flushing late still replays its
    own generation's plans.
    """

    __slots__ = ("provider", "keys", "_key_locks")

    def __init__(self, provider: CompiledModel) -> None:
        self.provider = provider
        self.keys: Dict[Tuple[Tuple[int, ...], str], str] = {}
        self._key_locks: Dict[Tuple[Tuple[int, ...], str], threading.Lock] = {}

    def key_lock(self, memo_key: Tuple[Tuple[int, ...], str]) -> threading.Lock:
        # dict.setdefault is atomic: racing shards get the same lock.
        return self._key_locks.setdefault(memo_key, threading.Lock())


class _ProcessShardForward:
    """The per-shard ``forward_fn`` handed to a shard's micro-batcher.

    Call-compatible with the :class:`~repro.runtime.CompiledModel` it
    replaces: arrays or Tensors in, ``(B, T', N)`` float64 arrays out,
    per-request ``precision=`` honoured.  The forward pins the provider set
    it was built against: after a hot swap, in-flight work queued on an old
    generation's batcher settles with that generation's plans, never the
    new one's.
    """

    def __init__(self, tier: "ProcessShardExecutor", shard: int, pset: _ProviderSet) -> None:
        self._tier = tier
        self._shard = shard
        self._pset = pset

    def __call__(self, x, precision: Optional[str] = None, lane: str = "bulk",
                 deadline: Optional[Deadline] = None) -> np.ndarray:
        return self.dispatch(x, precision=precision, lane=lane, deadline=deadline)()

    def dispatch(self, x, precision: Optional[str] = None, lane: str = "bulk",
                 deadline: Optional[Deadline] = None) -> Callable[[], np.ndarray]:
        """Queue ``x`` on this shard's worker; returns the callable that settles it."""
        array = x.data if hasattr(x, "data") else np.asarray(x)
        return self._tier.dispatch(
            self._shard, array, lane=lane, precision=precision, pset=self._pset,
            deadline=deadline,
        )


class ProcessShardExecutor:
    """Replay each serving shard's compiled plans in its own worker process.

    Each weights generation is a provider set from :meth:`generation`: one
    :class:`~repro.runtime.CompiledModel` *provider* that compiles and
    parity-spot-checks the model in the parent for every shard.  Workers
    bind the resulting artifacts — they never trace.  The tier holds no
    generation of its own: every dispatch names the set it runs on.

    Parameters
    ----------
    window_shape / output_length / num_nodes:
        Geometry of the served model (request and response slot sizing).
    precision / artifact_store:
        As for :class:`~repro.runtime.CompiledModel`; the store (when
        given) is shared with the workers by *root path* — a worker binds
        from disk, not from the parent's memo.  Plans missing from disk
        (e.g. a read-only store) are spilled to a private temp store the
        workers also search.
    start_method:
        ``fork`` / ``spawn`` / ``forkserver``; ``None`` consults
        ``REPRO_PROCESS_START_METHOD`` then prefers fork.
    bulk_chunk_rows:
        Dispatch granularity of bulk batches.  Smaller chunks bound how
        long a queued ``interactive`` request can be stuck behind bulk
        work already in flight (one chunk's forward), at a small
        amortisation cost.

    Workers, segments and dispatchers spawn **lazily** on the first
    dispatch to each shard, so constructing a service (or serving purely
    through its parent-side caches) starts no processes — and the segment
    arena can be sized from the first request's actual plan layout.

    **One BLAS thread.**  Each worker pins OpenBLAS at one thread before
    it runs a plan (:mod:`repro.runtime.blas`), so K workers use K cores.
    The parent-side provider runs at whatever the parent set; a
    :class:`~repro.serving.ForecastService` pins it at one thread when it
    is built.
    """

    def __init__(
        self,
        *,
        num_shards: int,
        window_shape: Tuple[int, int, int],
        output_length: int,
        num_nodes: int,
        precision: Optional[str] = None,
        artifact_store: Optional[ArtifactStore] = None,
        start_method: Optional[str] = None,
        bulk_chunk_rows: int = 32,
        watchdog: Optional[WatchdogConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        import multiprocessing as mp

        if bulk_chunk_rows <= 0:
            raise ValueError("bulk_chunk_rows must be positive")
        self._owner_pid = os.getpid()
        self.start_method = resolve_start_method(start_method)
        self._ctx = mp.get_context(self.start_method)
        self.num_shards = num_shards
        self._window_shape = tuple(int(dim) for dim in window_shape)
        self._output_length = int(output_length)
        self._num_nodes = int(num_nodes)
        self._chunk_rows = int(bulk_chunk_rows)
        self._watchdog = watchdog if watchdog is not None else WatchdogConfig()
        self._fault_plan = fault_plan
        self._spill_root = tempfile.mkdtemp(prefix="repro-plan-spill-")
        self._spill = ArtifactStore(self._spill_root)
        self._precision = precision
        self._provider_store = artifact_store if artifact_store is not None else self._spill
        self._store_roots: List[str] = []
        if artifact_store is not None:
            self._store_roots.append(str(artifact_store.root))
        self._store_roots.append(self._spill_root)
        self._workers: List[Optional[_ProcessWorker]] = [None] * num_shards
        self._spawn_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._lane_batches = {lane: 0 for lane in LANES}
        self._lane_rows = {lane: 0 for lane in LANES}
        self._closed = False
        _LIVE.add(self)

    # ------------------------------------------------------------------
    def generation(self, model) -> _ProviderSet:
        """A provider set over ``model``: one generation's compile/validate
        engine, for every shard that dispatches against it."""
        return _ProviderSet(
            CompiledModel(model, precision=self._precision, artifact_dir=self._provider_store)
        )

    def _ensure_key(self, shape: Tuple[int, ...], dtype: np.dtype, pset: _ProviderSet) -> str:
        """Compile+spot-check in the parent; make the artifact disk-loadable.

        Once per (shape, dtype) and generation: a shard that finds another
        shard validating the same shape waits for it instead of loading and
        checking the plan a second time.
        """
        memo_key = (shape, dtype.name)
        key = pset.keys.get(memo_key)
        if key is not None:
            return key
        with pset.key_lock(memo_key):
            key = pset.keys.get(memo_key)
            if key is not None:
                return key
            provider = pset.provider
            provider.ensure_validated(np.zeros(shape, dtype=dtype), precision=dtype.name)
            key = provider.artifact_key(shape, precision=dtype.name)
            on_disk = any(
                (Path(root) / f"{key}.plan.npz").exists() for root in self._store_roots
            )
            if not on_disk:
                # Read-only (or memo-only) deployment store: spill the plan
                # to the private temp store so the worker can bind it.
                cached = provider.artifact_store.peek(key)
                if cached is not None:
                    spec, constants = cached
                    self._spill.save(key, spec, constants)
            pset.keys[memo_key] = key
        return key

    def _layout_for(self, key: str, pset: _ProviderSet) -> _SegmentLayout:
        """Size one shard's segment from its first plan's buffer layout."""
        spec = None
        for store in (pset.provider.artifact_store, self._spill):
            # peek, not load: sizing the segment must not distort the
            # store's warm-start load/memo-hit accounting.
            cached = store.peek(key)
            if cached is not None:
                spec = cached[0]
                break
        rows = self._chunk_rows  # no plan piece is larger than a chunk
        request_cap = rows * int(np.prod(self._window_shape)) * 8
        response_cap = max(rows * self._output_length * self._num_nodes * 8, 4096)
        if spec is not None:
            first_rows = max(int(spec.stats.input_shape[0]), 1)
            workspace = plan_workspace_nbytes(spec)
            # A rebatched plan's workspace is linear in the batch (DyHSL's
            # is exactly); one extra multiple covers a model traced per
            # size, and costs no resident memory while no plan writes it.
            # A plan that still does not fit binds on the worker's heap
            # instead, counted in stats().heap_binds: slower and larger
            # (docs/serving_quickstart.md §11), never wrong.
            scale = -(-rows // first_rows) + 1
            arena = workspace * scale
        else:  # pragma: no cover - defensive: key was just ensured
            arena = 64 * 1024 * 1024
        return _SegmentLayout.build(request_cap, response_cap, arena)

    def _ensure_worker(self, shard: int, key: str, pset: _ProviderSet) -> _ProcessWorker:
        worker = self._workers[shard]
        if worker is not None:
            return worker
        with self._spawn_lock:
            worker = self._workers[shard]
            if worker is None:
                worker = _ProcessWorker(
                    shard,
                    self._ctx,
                    self.start_method,
                    self._layout_for(key, pset),
                    self._store_roots,
                    watchdog=self._watchdog,
                    fault_plan=self._fault_plan,
                )
                self._workers[shard] = worker
        return worker

    # ------------------------------------------------------------------
    def _piece_rows(self, batch: int) -> List[int]:
        """Row counts of the pieces a ``batch``-row dispatch sends: chunks
        of ``bulk_chunk_rows``, each split into its plan pieces."""
        return [
            rows
            for start in range(0, batch, self._chunk_rows)
            for rows in batch_pieces(min(self._chunk_rows, batch - start))
        ]

    def _make_jobs(self, array: np.ndarray, lane: str, dtype: np.dtype, pset: _ProviderSet,
                   deadline: Optional[Deadline] = None) -> List[_Job]:
        jobs: List[_Job] = []
        start = 0
        for rows in self._piece_rows(array.shape[0]):
            piece = np.ascontiguousarray(array[start : start + rows])
            start += rows
            key = self._ensure_key(piece.shape, dtype, pset)
            jobs.append(_Job(piece, lane, key, deadline=deadline))
        return jobs

    def warm(self, batch: int, pset: _ProviderSet) -> PlanStats:
        """Prepare every plan a ``batch``-row dispatch runs, in the parent.

        Each piece is compiled (or bound) and spot-checked, and its
        artifact made loadable, exactly as its first dispatch would; no
        plan wider than ``bulk_chunk_rows`` is built.  Returns the largest
        piece's stats.
        """
        provider = pset.provider
        dtype = np.dtype(resolve_precision(provider.precision))
        pieces = self._piece_rows(batch)
        for rows in dict.fromkeys(pieces):
            self._ensure_key((rows,) + self._window_shape, dtype, pset)
        return provider.compile_for(np.zeros((pieces[0],) + self._window_shape, dtype=dtype))

    def _dispatch(self, shard: int, jobs: List[_Job], pset: _ProviderSet) -> None:
        worker = self._ensure_worker(shard, jobs[0].key, pset)
        for job in jobs:
            worker.queue.put(job)
        with self._stats_lock:
            self._lane_batches[jobs[0].lane] += len(jobs)
            self._lane_rows[jobs[0].lane] += sum(job.rows for job in jobs)

    @staticmethod
    def _settle(jobs: List[_Job]) -> List[np.ndarray]:
        for job in jobs:
            job.event.wait()
        fulfilled = 0
        for job in jobs:
            if job.error is not None:
                error = job.error
                try:
                    error.fulfilled_before_error = fulfilled
                except (AttributeError, TypeError):  # pragma: no cover
                    pass
                raise error
            fulfilled += job.rows
        return [job.result for job in jobs]

    def dispatch(self, shard: int, array, lane: str = "bulk",
                 precision: Optional[str] = None, *, pset: _ProviderSet,
                 deadline: Optional[Deadline] = None) -> Callable[[], np.ndarray]:
        """Queue one ``(B, T, N, F)`` batch on a shard's worker; returns the
        callable that waits for it and returns the ``(B, T', N)`` output.

        Bit-identical to an in-process plan call: the batch is cast to the
        plan dtype and split into chunks of ``bulk_chunk_rows`` rows, each
        chunk into the power-of-two plan pieces
        :meth:`~repro.runtime.CompiledModel.__call__` would run (see
        :func:`~repro.runtime.batch_pieces`); the worker replays every
        piece and the outputs are exit-cast back to float64.
        ``pset`` is the weights generation (from :meth:`generation`) — plans
        are compiled, keyed and replayed against that generation only.
        ``deadline`` rides with every dispatched chunk: a chunk still
        queued when the budget expires fails typed instead of computing
        (a chunk already *on the wire* completes — finished work is never
        thrown away).  Dispatching to several shards before settling any
        overlaps their round trips on the shards' dispatcher threads.
        """
        if lane not in _LANE_IDS:
            raise ValueError(f"unknown lane {lane!r}; expected one of {LANES}")
        provider = pset.provider
        array = np.asarray(array)
        if self._closed:
            # Post-close lazy serving: late handle.result() flushes must
            # still answer.  Degrade to the in-parent provider, which is
            # the same arithmetic.
            result = np.asarray(provider(array, precision=precision))
            return lambda: result
        if array.shape[0] == 0:
            return lambda: np.empty((0, self._output_length, self._num_nodes))
        if deadline is not None:
            deadline.check("process-accept")
        dtype = np.dtype(resolve_precision(precision if precision is not None else provider.precision))
        if array.dtype != dtype:
            array = array.astype(dtype)
        jobs = self._make_jobs(array, lane, dtype, pset, deadline=deadline)
        self._dispatch(shard, jobs, pset)
        return lambda: np.concatenate(self._settle(jobs), axis=0)

    def call(self, shard: int, array, lane: str = "bulk",
             precision: Optional[str] = None, *, pset: _ProviderSet,
             deadline: Optional[Deadline] = None) -> np.ndarray:
        """Forward one batch through a shard's worker: :meth:`dispatch`, then wait."""
        return self.dispatch(
            shard, array, lane=lane, precision=precision, pset=pset, deadline=deadline
        )()

    # ------------------------------------------------------------------
    def proxy(self, shard: int, pset: _ProviderSet) -> _ProcessShardForward:
        """The drop-in ``forward_fn`` for one shard's micro-batcher.

        The proxy pins ``pset`` for its lifetime — a hot swap builds new
        proxies rather than mutating old ones, so in-flight flushes settle
        on the generation they entered.
        """
        return _ProcessShardForward(self, shard, pset)

    def lane_pending(self, lane: str) -> int:
        """Rows queued or in flight on one lane across all spawned workers."""
        total = 0
        for worker in self._workers:
            if worker is not None:
                total += worker.queue.pending_rows(lane)
        return total

    def shard_loads(self) -> List[int]:
        """Rows queued or in flight on each shard, every lane (unspawned
        shards count 0)."""
        return [
            0 if worker is None else sum(worker.queue.pending_rows(lane) for lane in LANES)
            for worker in self._workers
        ]

    def worker_pids(self) -> List[Optional[int]]:
        """Pids of the spawned workers (``None`` for unspawned shards)."""
        return [
            worker.process.pid if worker is not None else None for worker in self._workers
        ]

    def worker_health(self) -> List[Dict[str, object]]:
        """Per-shard liveness snapshot (watchdog view) for ``health()``."""
        rows: List[Dict[str, object]] = []
        for shard, worker in enumerate(self._workers):
            if worker is None:
                rows.append({
                    "shard": shard, "pid": None, "alive": None,
                    "heartbeat_age_s": None, "respawns": 0,
                    "hung_detections": 0, "escalations": 0,
                })
                continue
            rows.append({
                "shard": shard,
                "pid": worker.process.pid,
                "alive": worker.process.is_alive(),
                "heartbeat_age_s": worker.heartbeat_age(),
                "respawns": worker.respawns,
                "hung_detections": worker.hung_detections,
                "escalations": worker.escalations,
            })
        return rows

    def segment_names(self) -> List[str]:
        """Shared-memory segment names of the spawned workers."""
        return [worker.shm.name for worker in self._workers if worker is not None]

    def stats(self) -> ProcessTierStats:
        with self._stats_lock:
            return ProcessTierStats(
                start_method=self.start_method,
                workers=sum(1 for worker in self._workers if worker is not None),
                respawns=sum(
                    worker.respawns for worker in self._workers if worker is not None
                ),
                escalations=sum(
                    worker.escalations for worker in self._workers if worker is not None
                ),
                hung_detections=sum(
                    worker.hung_detections for worker in self._workers if worker is not None
                ),
                heap_binds=sum(
                    worker.heap_binds() for worker in self._workers if worker is not None
                ),
                interactive_batches=self._lane_batches["interactive"],
                bulk_batches=self._lane_batches["bulk"],
                interactive_rows=self._lane_rows["interactive"],
                bulk_rows=self._lane_rows["bulk"],
                segment_nbytes=sum(
                    worker.layout.total_nbytes
                    for worker in self._workers
                    if worker is not None
                ),
            )

    def worker_blas_threads(self) -> Tuple[Optional[int], ...]:
        """Each shard worker's live OpenBLAS thread count (``None``: unspawned)."""
        return tuple(
            worker.blas_threads() if worker is not None else None for worker in self._workers
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers, join dispatchers, unlink segments.  Idempotent.

        Pid-guarded: a *forked worker child* inherits this executor object
        (and the module's atexit hook) — its exit must never unlink the
        shared memory its parent is still serving from.
        """
        if os.getpid() != self._owner_pid:
            return
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker is not None:
                worker.close()
        # A closed tier still serves lazily through its providers, whose
        # store may be the spill store: keep their plans in memory only,
        # so no later compile re-creates the directory removed here.
        self._spill.readonly = True
        shutil.rmtree(self._spill_root, ignore_errors=True)

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
