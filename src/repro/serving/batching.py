"""Micro-batching request queue and the background linger flusher.

A production forecast endpoint receives many concurrent *single-window*
queries.  Running the model once per request wastes most of the time in
per-call overhead: every forward pass through the NumPy substrate pays a
fixed cost in Python-level op dispatch that is independent of the batch
size, while the matmuls themselves vectorise almost for free along the
batch dimension.  The :class:`MicroBatcher` therefore coalesces pending
requests into one ``(B, T, N, F)`` forward pass under ``no_grad`` and
distributes the per-sample slices back to the callers — the standard
dynamic-batching pattern of inference servers.

The batcher is deliberately ignorant of batch *shapes* beyond equality
checks: whatever ragged coalesced size a flush produces is handed to the
forward callable unchanged, and the compiled runtime (see
``docs/runtime.md``) runs it as power-of-two plan pieces internally.

Usage::

    batcher = MicroBatcher(model, max_batch_size=64)
    pending = [batcher.submit(w) for w in windows]   # enqueue, no compute
    batcher.flush()                                  # one batched forward
    results = [p.result() for p in pending]

``PendingForecast.result()`` flushes lazily when needed, so callers that
do not control the flush cadence still always get an answer.

:class:`BackgroundFlusher` turns this synchronous queue into an
asynchronous ingestion loop (see ``docs/serving_quickstart.md``): a daemon
thread that drains batchers on a time-based linger, so a request that has
waited ``linger_ms`` is flushed without waiting for its caller to block in
``result()``.  A handle may carry a ``finalize`` hook (a service's
denormalise -> horizon -> cache step), applied once by ``result()``.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..tensor import Tensor, no_grad
from .resilience import Deadline, DeadlineExceeded, ResilienceError, _raise_at_settle

__all__ = [
    "PendingForecast",
    "BatcherStats",
    "MicroBatcher",
    "flush_all",
    "FlusherStats",
    "BackgroundFlusher",
]


class PendingForecast:
    """Handle for a forecast that has been enqueued but maybe not computed.

    The micro-batcher fulfils the handle during :meth:`MicroBatcher.flush`;
    calling :meth:`result` earlier triggers a flush so the caller never
    deadlocks on its own request.  If the model raised during the batched
    forward, :meth:`result` re-raises that error for every request of the
    failed batch instead of silently dropping them.

    ``finalize`` maps the settled array to the caller-facing forecast
    (denormalisation, horizon truncation, cache insertion); :meth:`result`
    applies it once, after a successful settle.
    """

    def __init__(
        self,
        batcher: Optional["MicroBatcher"],
        finalize: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        self._batcher = batcher
        self._finalize = finalize
        # Racing result() calls on one handle must not finalize twice.
        self._finalize_lock = threading.Lock() if finalize is not None else None
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._done = False

    @classmethod
    def completed(cls, value: np.ndarray) -> "PendingForecast":
        """A handle that is already settled (e.g. answered from the cache)."""
        handle = cls(None)
        handle._fulfil(value)
        return handle

    @property
    def done(self) -> bool:
        """Whether the forecast has been computed (or failed)."""
        return self._done

    def _fulfil(self, value: np.ndarray) -> None:
        self._value = value
        self._done = True

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True

    def result(self) -> np.ndarray:
        """The forecast ``(T', N)``; flushes the queue if still pending."""
        if not self._done:
            self._batcher.flush()
        if not self._done:  # defensive: flush must settle every pending handle
            raise RuntimeError("flush did not settle this request")
        if self._error is not None:
            if isinstance(self._error, ResilienceError):
                # Typed resilience failures (DeadlineExceeded, WorkerCrashed,
                # CircuitOpen) are the caller-facing contract — re-raise them
                # unwrapped so except clauses can match on the type.
                raise self._error
            raise RuntimeError("batched forward failed for this request") from self._error
        if self._finalize is not None:
            with self._finalize_lock:
                if self._finalize is not None:
                    self._value = self._finalize(self._value)
                    self._finalize = None
        return self._value


@dataclass
class BatcherStats:
    """Running counters of how well requests were amortised into batches.

    Scalars only (no per-flush history), so the stats stay O(1) in memory
    over the lifetime of a long-running service.
    """

    requests: int = 0
    flushes: int = 0
    coalesced: int = 0
    largest_batch: int = 0
    #: Chunk forwards that raised; their requests are counted in
    #: ``failed_requests`` and never in ``coalesced``.
    failed_flushes: int = 0
    failed_requests: int = 0
    #: Requests whose deadline expired while queued; failed typed with
    #: :class:`~repro.serving.DeadlineExceeded` before any compute, and
    #: never counted in ``coalesced`` or ``failed_requests``.
    expired_requests: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests amortised per successful forward pass."""
        return self.coalesced / self.flushes if self.flushes else 0.0

    def _record_flush(self, batch_size: int) -> None:
        self.flushes += 1
        self.coalesced += batch_size
        self.largest_batch = max(self.largest_batch, batch_size)

    def _record_failure(self, batch_size: int) -> None:
        self.failed_flushes += 1
        self.failed_requests += batch_size


class MicroBatcher:
    """Coalesce concurrent single-window requests into batched forwards.

    Parameters
    ----------
    forward_fn:
        The model (or any callable) mapping a ``(B, T, N, F)`` batch to
        ``(B, T', N)`` predictions.  A :class:`~repro.nn.Module` is used
        directly; a :class:`~repro.runtime.CompiledModel` plugs in the
        graph-free kernel runtime (the serving default); outputs may be
        :class:`~repro.tensor.Tensor` or plain arrays.
    max_batch_size:
        Upper bound on the coalesced batch; larger queues are drained in
        several chunks (bounds peak memory).

    All entry points are thread-safe; the forward pass itself runs outside
    the queue lock so new requests can keep arriving while a batch computes.

    ``submit_listener`` (an attribute, set by :class:`BackgroundFlusher`)
    is invoked after every enqueue, outside all locks — the hook a linger
    flusher uses to re-arm its timer when the queue goes non-empty.
    """

    def __init__(
        self,
        forward_fn: Callable[[Tensor], object],
        max_batch_size: int = 128,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.forward_fn = forward_fn
        self.max_batch_size = max_batch_size
        self.submit_listener: Optional[Callable[[], None]] = None
        self._queue: List[Tuple[np.ndarray, PendingForecast, float, Optional[Deadline]]] = []
        self._queue_lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.stats = BatcherStats()

    @property
    def pending(self) -> int:
        """Number of enqueued, not yet computed requests."""
        with self._queue_lock:
            return len(self._queue)

    def oldest_pending_at(self) -> Optional[float]:
        """``time.monotonic()`` timestamp of the oldest queued request.

        ``None`` when the queue is empty.  A linger flusher drains the
        queue once ``time.monotonic() - oldest_pending_at()`` exceeds its
        linger window.
        """
        with self._queue_lock:
            return self._queue[0][2] if self._queue else None

    def submit(self, window: np.ndarray, deadline: Optional[Deadline] = None,
               finalize: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> PendingForecast:
        """Enqueue one observation window ``(T, N, F)`` for forecasting.

        ``deadline`` rides with the queue entry: if the budget expires
        before the entry reaches a forward pass, the next flush fails its
        handle with a typed :class:`~repro.serving.DeadlineExceeded`
        instead of spending compute on an answer nobody is waiting for.
        ``finalize`` is stored on the handle (see :class:`PendingForecast`).
        """
        window = np.asarray(window, dtype=float)
        if window.ndim != 3:
            raise ValueError(f"window must have shape (T, N, F); got {window.shape}")
        handle = PendingForecast(self, finalize)
        with self._queue_lock:
            if self._queue and self._queue[0][0].shape != window.shape:
                raise ValueError(
                    f"window shape {window.shape} differs from the pending batch "
                    f"shape {self._queue[0][0].shape}"
                )
            was_empty = not self._queue
            self._queue.append((window, handle, time.monotonic(), deadline))
        with self._stats_lock:
            self.stats.requests += 1
        # Only the first request of a batch establishes a new earliest
        # linger deadline, so only the empty->non-empty transition needs to
        # wake a watching flusher — later submits would wake it for nothing.
        listener = self.submit_listener
        if was_empty and listener is not None:
            listener()
        return handle

    def flush(self) -> int:
        """Drain the queue with batched forwards; returns requests fulfilled.

        If the model raises on a chunk, every handle of that chunk is failed
        with the error (so waiting callers see the real cause from
        :meth:`PendingForecast.result`), the failure is recorded in
        :attr:`stats` (``failed_flushes`` / ``failed_requests``) and the
        exception propagates with the number of requests fulfilled by the
        earlier, successful chunks attached as ``fulfilled_before_error`` —
        partial progress is never silently discarded.  Requests in later
        chunks stay queued for the next flush.  This is :func:`flush_all`
        over one batcher.
        """
        return _drain([self])

    def _next_chunk(self) -> list:
        """Pop the next chunk, failing expired entries typed first."""
        with self._queue_lock:
            # Sweep expired entries first so a stale request never
            # occupies a slot in the batch about to compute.
            expired = [
                entry for entry in self._queue
                if entry[3] is not None and entry[3].expired
            ]
            if expired:
                self._queue = [
                    entry for entry in self._queue
                    if entry[3] is None or not entry[3].expired
                ]
            chunk = self._queue[: self.max_batch_size]
            del self._queue[: len(chunk)]
        if expired:
            for _, handle, _, entry_deadline in expired:
                handle._fail(
                    DeadlineExceeded(
                        entry_deadline.budget_ms,
                        entry_deadline.elapsed_ms(),
                        "batch-queue",
                    )
                )
            with self._stats_lock:
                self.stats.expired_requests += len(expired)
        return chunk

    def _start(self, chunk: list) -> Callable[[], object]:
        """Start a chunk's forward; returns the callable that settles it.

        A forward with a ``dispatch`` method (a process replica's) returns
        at once; any other forward computes here.  A forward that fails to
        start fails at settle, so every started chunk settles the same way.
        """
        try:
            batch = Tensor(np.stack([window for window, _, _, _ in chunk], axis=0))
            dispatch = getattr(self.forward_fn, "dispatch", None)
            if dispatch is not None:
                return dispatch(batch)
            outputs = self.forward_fn(batch)
        except BaseException as error:
            return _raise_at_settle(error)
        return lambda: outputs

    def _settle(self, chunk: list, settle: Callable[[], object], fulfilled: int) -> None:
        """Settle one started chunk: fulfil its handles, or fail them and raise."""
        try:
            outputs = settle()
            predictions = outputs.data if isinstance(outputs, Tensor) else np.asarray(outputs)
            if predictions.shape[0] != len(chunk):
                raise RuntimeError(
                    f"forward returned {predictions.shape[0]} predictions for a "
                    f"batch of {len(chunk)}"
                )
        except BaseException as error:
            for _, handle, _, _ in chunk:
                handle._fail(error)
            with self._stats_lock:
                self.stats._record_failure(len(chunk))
            try:
                error.fulfilled_before_error = fulfilled
            except (AttributeError, TypeError):  # exceptions with __slots__
                pass
            raise
        for index, (_, handle, _, _) in enumerate(chunk):
            handle._fulfil(predictions[index].copy())
        with self._stats_lock:
            self.stats._record_flush(len(chunk))


def flush_all(batchers: Sequence[MicroBatcher]) -> int:
    """Drain several batchers together; returns the requests fulfilled.

    Each round takes every batcher's next chunk, starts all of their
    forwards, then settles them in order: process replicas' forwards only
    dispatch when started, so K replicas compute at once with no parent
    thread per replica.  Each batcher keeps the :meth:`MicroBatcher.flush`
    contract: a failed chunk fails its own handles, stops that batcher's
    drain (its later chunks stay queued) and carries that batcher's
    ``fulfilled_before_error``.  Every started chunk settles before the
    first error is re-raised.

    The batchers must be distinct.  Their flush locks are taken in the
    order given and held until the last chunk settles, so callers pass
    them in one fixed (replica) order.  One batcher drains through its own
    :meth:`MicroBatcher.flush`.
    """
    if len(batchers) == 1:
        return batchers[0].flush()
    return _drain(batchers)


def _drain(batchers: Sequence[MicroBatcher]) -> int:
    fulfilled = [0] * len(batchers)
    first_error: Optional[BaseException] = None
    with ExitStack() as held, no_grad():
        for batcher in batchers:
            held.enter_context(batcher._flush_lock)
        active = range(len(batchers))
        while active:
            started = []
            for index in active:
                chunk = batchers[index]._next_chunk()
                if chunk:
                    started.append((index, chunk, batchers[index]._start(chunk)))
            active = []
            for index, chunk, settle in started:
                try:
                    batchers[index]._settle(chunk, settle, fulfilled[index])
                except BaseException as error:
                    if first_error is None:
                        first_error = error
                    continue
                fulfilled[index] += len(chunk)
                active.append(index)
    if first_error is not None:
        raise first_error
    return sum(fulfilled)


@dataclass(frozen=True)
class FlusherStats:
    """Counters of a background flusher's timed drains."""

    #: Batchers drained because their oldest request outlived the linger.
    timed_flushes: int
    #: Drains (timed, or the final one at close) in which a chunk failed.
    errors: int
    linger_ms: float


class BackgroundFlusher:
    """Daemon thread draining micro-batchers on a time-based linger.

    The linger bounds how *long* a request waits: without it a queued
    request sits until a caller blocks in ``result()`` or flushes — with
    it, any request is flushed at most ``linger_ms`` after enqueue.

    Parameters
    ----------
    batchers:
        The batchers to watch, in one fixed order (a service passes its
        replicas in replica order).  A pass drains every due batcher with
        one :func:`flush_all`, so process replicas compute at once and the
        pass ends when the slowest settles.
    linger_ms:
        Maximum milliseconds a request may wait before its batcher is
        drained.

    Forward errors during a timed drain never kill the thread: the failed
    chunk's handles already carry the error (see
    :meth:`MicroBatcher.flush`), the batcher's stats record the failure,
    and the flusher counts the failed drain in :attr:`stats` and keeps
    serving.  :meth:`close` stops the thread and drains every batcher one
    final time, so no pending handle is left waiting on a dead timer.
    """

    def __init__(self, batchers: Sequence[MicroBatcher], linger_ms: float = 25.0) -> None:
        if linger_ms <= 0:
            raise ValueError("linger_ms must be positive")
        self._linger = linger_ms / 1000.0
        self.linger_ms = float(linger_ms)
        self._batchers: List[MicroBatcher] = list(batchers)
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._stats_lock = threading.Lock()
        self._timed_flushes = 0
        self._errors = 0
        for batcher in self._batchers:
            batcher.submit_listener = self._wake.set
        self._thread = threading.Thread(
            target=self._loop, name="repro-linger-flusher", daemon=True
        )
        self._thread.start()

    @property
    def running(self) -> bool:
        """Whether the flusher thread is alive and serving."""
        return self._thread.is_alive()

    def retarget(self, batchers: Sequence[MicroBatcher]) -> None:
        """Point the running flusher at a new set of batchers (hot swap).

        The loop reads the batcher list afresh on every pass, so replacing
        the reference is safe without stopping the thread.  Old batchers
        stop being watched — the swap path drains them once at retirement,
        and their handles stay lazily flushable — and the new batchers'
        submit listeners are wired so the first enqueue wakes the timer.
        """
        resolved = list(batchers)
        old = self._batchers
        for batcher in resolved:
            batcher.submit_listener = self._wake.set
        self._batchers = resolved
        for batcher in old:
            if all(batcher is not kept for kept in resolved):
                batcher.submit_listener = None
        self._wake.set()

    def stats(self) -> FlusherStats:
        """Snapshot of the timed-drain counters."""
        with self._stats_lock:
            return FlusherStats(
                timed_flushes=self._timed_flushes,
                errors=self._errors,
                linger_ms=self.linger_ms,
            )

    # ------------------------------------------------------------------
    def _next_timeout(self, now: float) -> Optional[float]:
        """Seconds until the earliest linger deadline (None: no pending)."""
        deadline: Optional[float] = None
        for batcher in self._batchers:
            oldest = batcher.oldest_pending_at()
            if oldest is None:
                continue
            due = oldest + self._linger
            if deadline is None or due < deadline:
                deadline = due
        if deadline is None:
            return None
        return max(deadline - now, 0.0)

    def _drain_due(self, now: float) -> None:
        # One drain over every due batcher: it returns once all of them
        # settled, so oldest_pending_at() never reads a drained request.
        due = []
        for batcher in self._batchers:
            oldest = batcher.oldest_pending_at()
            if oldest is not None and now - oldest >= self._linger:
                due.append(batcher)
        if not due:
            return
        failed = False
        try:
            flush_all(due)
        except BaseException:
            # The handles of the failed chunks already carry the error.
            failed = True
        with self._stats_lock:
            self._timed_flushes += len(due)
            self._errors += failed

    def _loop(self) -> None:
        while not self._stop.is_set():
            timeout = self._next_timeout(time.monotonic())
            self._wake.wait(timeout)
            if self._stop.is_set():
                return
            self._wake.clear()
            self._drain_due(time.monotonic())

    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop the flusher; optionally drain every batcher one last time.

        Idempotent.  The final drain runs synchronously on the calling
        thread, so after ``close()`` no handle is pending.
        """
        already_stopped = self._stop.is_set()
        self._stop.set()
        self._wake.set()
        if self._thread.is_alive():
            try:
                self._thread.join()
            except RuntimeError:  # pragma: no cover - interpreter teardown
                # join() raises after Python shutdown has begun; the daemon
                # thread is being torn down anyway, so a late close() (e.g.
                # from __del__ or an atexit-closed process tier) must not
                # turn cleanup into a crash.
                pass
        if already_stopped or not drain:
            return
        for batcher in self._batchers:
            batcher.submit_listener = None
        try:
            flush_all(self._batchers)
        except BaseException:
            with self._stats_lock:
                self._errors += 1

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        # Last-resort stop (no drain: the forward engines behind the
        # batchers may already be gone).  Explicit close() remains the
        # contract; this only keeps an abandoned flusher from outliving
        # its service as a busy-waiting daemon.
        try:
            self.close(drain=False)
        except Exception:
            pass
