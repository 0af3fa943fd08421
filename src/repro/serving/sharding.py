"""Sharded multi-worker forecast serving.

:class:`ShardedForecastService` spreads serving across ``num_shards``
worker threads, each owning its own forward engine (a per-shard
:class:`~repro.runtime.CompiledModel` plan cache) and its own
:class:`~repro.serving.MicroBatcher`, behind the same raw-scale query
surface as the single-worker :class:`~repro.serving.ForecastService` —
and with **bit-identical** outputs (``max |diff| == 0``), asserted by
``tests/serving/test_sharding.py`` and the CI shard-parity job.

Every worker holds a full-model replica (weights shared by reference;
workspaces separate).  Queries are routed round-robin, so a batch of
``B`` misses splits into ``K`` sub-batches computed concurrently — batch
rows are independent in every model of this library, which makes
sub-batch outputs bit-identical to the coalesced batch.  Work is
partitioned, not duplicated.

Asynchronous ingestion is shared with the single-worker service: per-shard
micro-batchers coalesce :meth:`submit` traffic, a size threshold
(``auto_flush_at``) fires batches on the owning worker's thread, and one
:class:`~repro.serving.BackgroundFlusher` guarantees that sub-threshold
traffic is drained within ``linger_ms``.  Shutdown is explicit and clean:
:meth:`close` (or leaving the service's context) stops the flusher,
drains every queue so no handle is left pending, and joins the worker
threads; forward errors always propagate to the affected
:class:`~repro.serving.PendingForecast` handles, never into the
background threads.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn import Module
from ..runtime import CompiledModel
from .batching import (
    BackgroundFlusher,
    BatcherStats,
    FlusherStats,
    MicroBatcher,
    PendingForecast,
)
from .cache import CacheStats
from .faults import FaultPlan
from .process_tier import (
    LaneStats,
    ProcessShardExecutor,
    ProcessTierStats,
    _LaneGate,
    resolve_executor,
)
from .quality import QualityConfig, QualityStats, SensorHealthMonitor
from .resilience import (
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    ResilienceConfig,
    ResilienceError,
    ResilientForward,
    ShardHealth,
)
from .service import ForecastFrontend, _Generation, _merge_batcher_stats

__all__ = ["ShardedServiceStats", "ShardedForecastService"]


class _FlushJob:
    """A flush scheduled onto a shard worker's thread.

    The job never lets an exception escape into the worker loop: the
    error is captured for :meth:`wait` (and the failed chunk's request
    handles already carry it — see :meth:`MicroBatcher.flush`).
    """

    __slots__ = ("_fn", "_event", "error")

    def __init__(self, fn: Callable[[], object]) -> None:
        self._fn = fn
        self._event = threading.Event()
        self.error: Optional[BaseException] = None

    def __call__(self) -> None:
        try:
            self._fn()
        except BaseException as error:
            self.error = error
        finally:
            self._event.set()

    def wait(self) -> Optional[BaseException]:
        """Block until the flush settled; returns its error (or ``None``)."""
        self._event.wait()
        return self.error


class _FleetEngine:
    """The sharded generation payload: one micro-batcher per shard, plus
    the process tier's pinned provider set (``None`` for thread shards).

    A hot swap builds a complete new fleet engine off to the side and
    publishes it by rebinding every worker's ``batcher`` reference — the
    worker threads and their job queues survive the swap untouched.
    """

    __slots__ = ("batchers", "pset")

    def __init__(self, batchers: List[MicroBatcher], pset=None) -> None:
        self.batchers = batchers
        self.pset = pset


class _ShardWorker:
    """One serving shard: a forward engine, its batcher, and an executor thread.

    All forward passes for this shard run on the worker's own thread
    (jobs are enqueued with :meth:`flush_async`), so ``K`` shards compute
    concurrently and a slow shard never blocks the linger flusher.
    """

    def __init__(
        self,
        index: int,
        batcher: Union[MicroBatcher, Callable],
        max_batch_size: int = 128,
    ) -> None:
        self.index = index
        if not isinstance(batcher, MicroBatcher):
            # Back-compat: a bare forward callable gets its own batcher.
            batcher = MicroBatcher(batcher, max_batch_size=max_batch_size)
        # The *current* generation's batcher (size-threshold flushes are
        # scheduled by the service onto this worker's thread, so the inner
        # batcher never auto-flushes in the submitting caller's thread).
        # A hot swap rebinds this reference; retired batchers are still
        # drainable through flush_async(batcher=...).
        self.batcher = batcher
        self._jobs: "queue.SimpleQueue[Optional[_FlushJob]]" = queue.SimpleQueue()
        self._closed = False
        self._thread = threading.Thread(
            target=self._loop, name=f"repro-shard-{index}", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            job()

    def _drain_jobs_inline(self) -> None:
        """Run queued jobs on the calling thread (executor stopping/stopped)."""
        while True:
            try:
                job = self._jobs.get_nowait()
            except queue.Empty:
                return
            if job is None:
                # The executor loop's stop sentinel: a drain racing close()
                # must never consume it — the loop only exits on the
                # sentinel, so stealing it would leave the thread blocked
                # in get() forever and deadlock close() in join().  Hand
                # it back (behind any later jobs, which the loop then runs
                # before exiting) and stop draining.
                self._jobs.put(None)
                return
            job()

    def flush_async(self, batcher: Optional[MicroBatcher] = None) -> _FlushJob:
        """Schedule a queue drain on this worker's thread; returns the job.

        ``batcher`` selects which generation's queue to drain (default:
        the current one), captured at job-creation time — a swap landing
        between scheduling and execution never redirects the drain.
        After :meth:`close` the drain degrades to a synchronous flush on
        the calling thread — a job must never strand a waiter on a dead
        executor.
        """
        job = _FlushJob((batcher if batcher is not None else self.batcher).flush)
        if self._closed:
            job()
            return job
        self._jobs.put(job)
        if self._closed:
            # close() raced past the put; make sure the job still runs.
            self._drain_jobs_inline()
        return job

    def close(self) -> None:
        """Stop the executor thread (idempotent; no queued job is dropped)."""
        if not self._closed:
            self._closed = True
            self._jobs.put(None)
            self._thread.join()
        self._drain_jobs_inline()


@dataclass(frozen=True)
class ShardedServiceStats:
    """Operational counters of a sharded service, per shard and aggregated."""

    model_version: str
    mode: str
    num_shards: int
    requests: int
    cache: CacheStats
    shards: Tuple[BatcherStats, ...]
    runtime: str = "compiled"
    flusher: Optional[FlusherStats] = None
    #: Default execution precision policy of the shard engines.
    precision: str = "float64"
    #: Shard executor: ``"threads"`` (in-process) or ``"processes"``.
    executor: str = "threads"
    #: Per-lane admission-control counters (empty before any admit).
    lanes: Tuple[LaneStats, ...] = ()
    #: Process-tier counters (``None`` for the thread executor).
    process_tier: Optional[ProcessTierStats] = None
    #: Detector-health and imputation counters (None without a monitor).
    quality: Optional[QualityStats] = None
    #: Completed hot checkpoint swaps over the service's lifetime.
    swaps: int = 0

    @property
    def batcher(self) -> BatcherStats:
        """Aggregate of the per-shard batcher counters."""
        total = BatcherStats()
        for stats in self.shards:
            total.requests += stats.requests
            total.flushes += stats.flushes
            total.coalesced += stats.coalesced
            total.largest_batch = max(total.largest_batch, stats.largest_batch)
            total.failed_flushes += stats.failed_flushes
            total.failed_requests += stats.failed_requests
            total.expired_requests += stats.expired_requests
        return total


class ShardedForecastService(ForecastFrontend):
    """Serve forecasts from ``num_shards`` concurrent workers, bit-identically.

    Parameters
    ----------
    model / scaler / model_version / cache_entries / runtime / precision:
        As for :class:`~repro.serving.ForecastService` (one shared LRU
        cache and rolling buffer front all shards; every shard's compiled
        plans execute at the service's ``precision``, and synchronous
        queries accept the same per-request ``precision=`` override).
    artifact_dir:
        Directory (or :class:`~repro.runtime.ArtifactStore`) of durable
        plan artifacts, shared by **all** workers: replicas reuse one
        in-process memo (the fleet compiles each trace once, not once per
        worker) and a restarted fleet warm-starts every shard from disk
        with zero retraces — see ``docs/serving_quickstart.md``.
    num_shards:
        Worker count (full-model replicas).
    mode:
        Only ``"replicas"`` (the default) is accepted; node sharding was
        removed and any other value raises :class:`ValueError`.
    max_batch_size:
        Largest coalesced forward per shard flush.
    auto_flush_at:
        Size threshold at which a shard's pending queue is flushed on its
        worker thread (asynchronous traffic only; synchronous queries
        always drain their own submissions).
    linger_ms:
        Time bound for the background flusher: no submitted request waits
        longer than this for its batch to fire.
    executor:
        ``"threads"`` (in-process shard workers, the default) or
        ``"processes"`` — each shard's plans replayed by a worker
        *process* over shared memory, escaping the interpreter lock on
        multi-core hosts (see :mod:`repro.serving.process_tier`).
        ``None`` consults the ``REPRO_SERVING_EXECUTOR`` environment
        variable.  Requires the compiled runtime when set explicitly.
    start_method:
        Worker start method for the process tier (``"fork"`` is the fast
        default where available; ``"spawn"`` the portable contract).
        ``None`` consults ``REPRO_PROCESS_START_METHOD``.
    bulk_queue_depth / interactive_queue_depth:
        Admission-control limits: a request whose lane already holds this
        many pending rows is fast-rejected with
        :class:`~repro.serving.ServiceOverloaded` instead of queueing
        unboundedly (``None``, the default, never rejects).  Bulk covers
        ``forecast_many`` / ``submit`` / ``forecast_node`` misses;
        interactive covers ``forecast_latest`` misses.
    bulk_chunk_rows:
        Process-tier dispatch granularity: bulk batches are split into
        chunks of this many rows, bounding how long an interactive
        request waits behind bulk work already in flight.

    Example
    -------
    >>> with ShardedForecastService.from_checkpoint("dyhsl.npz", num_shards=4,
    ...                                             mode="replicas",
    ...                                             linger_ms=10.0) as service:
    ...     handles = [service.submit(w) for w in windows]
    ...     forecasts = [h.result() for h in handles]
    """

    def __init__(
        self,
        model: Module,
        scaler: Optional[object] = None,
        model_version: Optional[str] = None,
        num_shards: int = 2,
        mode: str = "replicas",
        cache_entries: int = 1024,
        max_batch_size: int = 128,
        auto_flush_at: Optional[int] = None,
        linger_ms: Optional[float] = None,
        runtime: Optional[str] = None,
        precision: Optional[str] = None,
        artifact_dir=None,
        executor: Optional[str] = None,
        start_method: Optional[str] = None,
        bulk_queue_depth: Optional[int] = None,
        interactive_queue_depth: Optional[int] = None,
        bulk_chunk_rows: int = 32,
        quality: Union[None, bool, QualityConfig, SensorHealthMonitor] = None,
        quality_adjacency: Optional[np.ndarray] = None,
        resilience: Optional[ResilienceConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if mode != "replicas":
            raise ValueError(
                f"unsupported sharding mode {mode!r}: node sharding was removed; "
                "only mode='replicas' is available"
            )
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if auto_flush_at is not None and auto_flush_at <= 0:
            raise ValueError("auto_flush_at must be positive when set")
        if linger_ms is not None and linger_ms <= 0:
            # Validate before any worker thread spawns: a constructor that
            # raises must not leak executors blocked on their job queues.
            raise ValueError("linger_ms must be positive when set")
        super().__init__(
            model,
            scaler=scaler,
            model_version=model_version,
            cache_entries=cache_entries,
            runtime=runtime,
            precision=precision,
            artifact_dir=artifact_dir,
            quality=quality,
            quality_adjacency=quality_adjacency,
            resilience=resilience,
        )
        self.mode = mode
        self.num_shards = num_shards
        self.auto_flush_at = auto_flush_at
        self._max_batch_size = max_batch_size
        # One breaker per shard (None when breakers are disabled), shared
        # across hot-swap generations so failure history survives a swap.
        self._breakers: List = [
            self.resilience.make_breaker(shard) for shard in range(num_shards)
        ]
        self._retired_retries = 0
        self._fleet_retries = 0
        # Resolve (and validate) the executor and the admission gates
        # before any worker thread or process spawns — a constructor that
        # raises must not leak background machinery.
        self.executor = resolve_executor(executor, runtime=self.runtime)
        self._workers: List[_ShardWorker] = []
        self._tier: Optional[ProcessShardExecutor] = None
        # Overload rejections snapshot every lane's depth, so a client's
        # backoff decision sees the whole picture, not just its own lane.
        lane_snapshot = lambda: {  # noqa: E731
            lane: self._lane_depth(lane) for lane in ("bulk", "interactive")
        }
        self._gates = {
            "bulk": _LaneGate(
                "bulk",
                bulk_queue_depth,
                lambda: self._lane_depth("bulk"),
                snapshot_fn=lane_snapshot,
            ),
            "interactive": _LaneGate(
                "interactive",
                interactive_queue_depth,
                lambda: self._lane_depth("interactive"),
                snapshot_fn=lane_snapshot,
            ),
        }
        if self.executor == "processes":
            # Workers, segments and dispatchers spawn lazily on the first
            # dispatched batch; constructing the service starts nothing.
            self._tier = ProcessShardExecutor(
                model,
                num_shards=num_shards,
                window_shape=(
                    self.config.input_length,
                    self.config.num_nodes,
                    self.config.input_dim,
                ),
                output_length=self.config.output_length,
                num_nodes=self.config.num_nodes,
                precision=self.precision,
                artifact_store=self.artifact_store,
                start_method=start_method,
                bulk_chunk_rows=bulk_chunk_rows,
                watchdog=self.resilience.watchdog,
                fault_plan=fault_plan,
            )
        # Batcher counters of generations retired by hot swaps, folded into
        # stats() so a swap never resets the fleet's lifetime telemetry.
        self._retired_shard_stats: List[List[BatcherStats]] = [
            [] for _ in range(num_shards)
        ]
        engine, _, _ = self._build_engine(model, warm_sizes=())
        self._gen.engine = engine
        for index in range(num_shards):
            self._workers.append(_ShardWorker(index, engine.batchers[index]))
        self._round_robin = 0
        self._route_lock = threading.Lock()
        self._closed = False
        self.flusher: Optional[BackgroundFlusher] = (
            BackgroundFlusher(
                [(worker.batcher, worker.flush_async) for worker in self._workers],
                linger_ms=linger_ms,
            )
            if linger_ms is not None
            else None
        )

    # ------------------------------------------------------------------
    # Generation machinery (hot checkpoint swap — see ForecastFrontend).
    # ------------------------------------------------------------------
    def _build_engine(self, model: Module, warm_sizes=None) -> Tuple[_FleetEngine, int, int]:
        """One forward engine + micro-batcher per shard over ``model``.

        ``warm_sizes=()`` marks the constructor's initial build (no plan
        warming, and the process tier's already-installed provider set is
        reused); any other value is a swap build — the new engines are
        fully warmed before the generation is published.
        """
        initial = warm_sizes == ()
        pset = None
        if self._tier is not None:
            pset = (
                self._tier.current_generation()
                if initial
                else self._tier.prepare_generation(model)
            )
        forwards: List[Callable] = []
        for index in range(self.num_shards):
            # Separate CompiledModel per replica: plans and workspace
            # buffers are per-worker, so replicas execute concurrently; the
            # weights stay shared by reference, and every replica gets the
            # SAME store object (resolved once by the frontend), so the
            # fleet parses and compiles each trace once.
            if self._tier is not None:
                forwards.append(self._tier.proxy(index, pset=pset))
            elif self.runtime == "compiled":
                forwards.append(
                    CompiledModel(
                        model, precision=self.precision, artifact_dir=self.artifact_store
                    )
                )
            else:
                forwards.append(model)
        reused = compiled = 0
        if self.runtime == "compiled" and not initial:
            # Warm every shard's plans BEFORE publication: by default the
            # streaming batch of 1, or an explicit size ladder.  With AOT
            # artifacts adopted into the store these are disk binds.
            sizes = (
                [1]
                if warm_sizes is None
                else self._warm_up_sizes(warm_sizes, self._max_batch_size)
            )
            for forward in forwards:
                for size in sizes:
                    forward.compile_for(self._example_batch(size))
                info = forward.cache_info()
                reused += info.artifact_loads
                compiled += info.compiles
        # Every shard's compute funnels through its batcher's forward, so
        # wrapping here puts the breaker consult, bounded retries and
        # outcome accounting on one choke point per shard (engine plumbing
        # — compile_for/cache_info/save_artifacts — delegates through).
        batchers = [
            MicroBatcher(
                ResilientForward(
                    forward,
                    retry=self.resilience.retry,
                    breaker=self._breakers[index],
                ),
                max_batch_size=self._max_batch_size,
            )
            for index, forward in enumerate(forwards)
        ]
        return _FleetEngine(batchers, pset), reused, compiled

    def _publish_generation(self, gen: _Generation) -> None:
        # Runs under the buffer lock: the generation reference, every
        # worker's current batcher and the tier's default provider set
        # move together — a snapshot() reader sees all or none of it.
        self._gen = gen
        for worker, batcher in zip(self._workers, gen.engine.batchers):
            worker.batcher = batcher
        if self._tier is not None:
            self._tier.install_generation(gen.engine.pset)

    def _retire_generation(self, old: _Generation) -> None:
        if old.engine is None:
            return
        # Drain the retired queues on the worker threads (concurrently);
        # requests still queued there complete on the old weights — their
        # proxies pin the old provider set.
        jobs = [
            worker.flush_async(batcher)
            for worker, batcher in zip(self._workers, old.engine.batchers)
        ]
        for job in jobs:
            job.wait()  # errors are carried by the affected handles
        for index, batcher in enumerate(old.engine.batchers):
            self._retired_shard_stats[index].append(batcher.stats)
            self._retired_retries += getattr(batcher.forward_fn, "retries", 0)
        if self.flusher is not None:
            self.flusher.retarget(
                [(worker.batcher, worker.flush_async) for worker in self._workers]
            )

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _lane_depth(self, lane: str) -> int:
        """Live queue depth of one lane across batchers and the tier."""
        if lane == "bulk":
            depth = sum(worker.batcher.pending for worker in self._workers)
            if self._tier is not None:
                depth += self._tier.lane_pending("bulk")
            return depth
        return self._tier.lane_pending("interactive") if self._tier is not None else 0

    def _admit(self, lane: str, rows: int) -> None:
        """Reject at accept time when a lane is over its depth limit.

        Raising here — before anything is enqueued — is what makes the
        overload behaviour predictable: an admitted request is never
        dropped later, and a rejected one never occupied a queue slot.
        """
        gate = self._gates.get(lane)
        if gate is not None:
            gate.admit(rows)

    # ------------------------------------------------------------------
    # Routing and merging
    # ------------------------------------------------------------------
    def _next_worker(self) -> _ShardWorker:
        """Round-robin over the replicas, skipping open circuit breakers.

        With breakers enabled, a replica whose breaker is open is routed
        *around* — the query lands on a healthy replica instead of failing
        (reroute-on-breaker).  Only when every replica is refusing does the
        query fail fast, with the soonest-to-recover breaker's
        :class:`CircuitOpen`.
        """
        with self._route_lock:
            soonest: Optional[CircuitOpen] = None
            for _ in range(len(self._workers)):
                worker = self._workers[self._round_robin % len(self._workers)]
                self._round_robin += 1
                breaker = self._breakers[worker.index]
                if breaker is None or breaker.allow():
                    return worker
                try:
                    breaker.check()
                except CircuitOpen as error:
                    if soonest is None or error.retry_after < soonest.retry_after:
                        soonest = error
            if soonest is None:  # pragma: no cover - allow()/check() race
                worker = self._workers[self._round_robin % len(self._workers)]
                self._round_robin += 1
                return worker
            raise soonest

    def _route_window(
        self,
        window: np.ndarray,
        gen: Optional[_Generation] = None,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[PendingForecast, _ShardWorker]:
        """Submit one normalised window to the next replica.

        Requests enqueue on the batchers of the generation captured at
        request entry, so a hot swap mid-request never splits one window
        across two weight versions.  ``deadline`` rides with each queue
        entry; an entry whose budget expires before its flush is failed
        typed at the sweep, never computed.
        """
        engine = (gen or self._gen).engine
        worker = self._next_worker()
        return engine.batchers[worker.index].submit(window, deadline=deadline), worker

    def _drain(
        self, workers: Sequence[_ShardWorker], gen: Optional[_Generation] = None
    ) -> None:
        """Flush the given shards concurrently; re-raise the first error.

        Every job is waited for before raising, so all touched shards are
        settled (their handles fulfilled or failed) when the caller sees
        the exception — matching the single-worker ``flush()`` contract.
        """
        engine = (gen or self._gen).engine
        jobs = [
            worker.flush_async(engine.batchers[worker.index])
            for worker in dict.fromkeys(workers)
        ]
        first_error: Optional[BaseException] = None
        for job in jobs:
            error = job.wait()
            if error is not None and first_error is None:
                first_error = error
        if first_error is not None:
            raise first_error

    def _maybe_auto_flush(
        self, workers: Sequence[_ShardWorker], gen: Optional[_Generation] = None
    ) -> None:
        """Fire-and-forget size-threshold flushes on the owning workers."""
        if self.auto_flush_at is None:
            return
        engine = (gen or self._gen).engine
        for worker in dict.fromkeys(workers):
            batcher = engine.batchers[worker.index]
            if batcher.pending >= self.auto_flush_at:
                worker.flush_async(batcher)

    # ------------------------------------------------------------------
    # The compute hooks behind the shared forecast_many / submit skeleton
    # (see ForecastFrontend): misses route round-robin over the replicas,
    # compute concurrently on the worker threads, and come back in request
    # order — bit-identical to the single-worker service.  submit() never
    # computes in the caller's thread: size-threshold drains are
    # scheduled onto the owning workers.
    # ------------------------------------------------------------------
    def _compute_misses(
        self,
        windows: List[np.ndarray],
        precision: Optional[str] = None,
        gen: Optional[_Generation] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[np.ndarray]:
        engine = (gen or self._gen).engine
        if precision is not None:
            # Per-request precision override: compute directly through the
            # shard engines at the requested policy (the batch queues are
            # single-policy), chunked to the batchers' max batch size so
            # the override path keeps the same peak-batch bound as a
            # flush.  Each chunk is served by the next replica — batch rows
            # are independent, so this matches the routed answer exactly at
            # the same policy.
            size = engine.batchers[0].max_batch_size
            outputs: List[np.ndarray] = []
            for start in range(0, len(windows), size):
                self._check_deadline(deadline, "precision-chunk")
                batch = np.stack(windows[start : start + size], axis=0)
                worker = self._next_worker()
                outputs.extend(
                    np.asarray(
                        engine.batchers[worker.index].forward_fn(batch, precision=precision)
                    )
                )
            return outputs
        routed = [
            self._route_window(window, gen=gen, deadline=deadline)
            for window in windows
        ]
        self._drain([worker for _, worker in routed], gen=gen)
        return [part.result() for part, _ in routed]

    def _submit_parts(
        self,
        window: np.ndarray,
        gen: Optional[_Generation] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[PendingForecast]:
        part, worker = self._route_window(window, gen=gen, deadline=deadline)
        self._maybe_auto_flush([worker], gen=gen)
        return [part]

    # ------------------------------------------------------------------
    # Synchronous queries
    # ------------------------------------------------------------------
    def forecast(
        self,
        window: np.ndarray,
        horizon: Optional[int] = None,
        precision: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Forecast one raw window: ``(horizon, N)``, bit-identical to
        :meth:`ForecastService.forecast`."""
        return self.forecast_many(
            np.asarray(window, dtype=float)[None],
            horizon=horizon,
            precision=precision,
            deadline_ms=deadline_ms,
        )[0]

    # ------------------------------------------------------------------
    # Streaming operation
    # ------------------------------------------------------------------
    def _count_retry_fleet(self, attempt: int, error: Optional[BaseException]) -> None:
        """Aggregate retry counter for the interactive tier paths (the
        batcher paths count inside their ResilientForward wrappers)."""
        with self._requests_lock:
            self._fleet_retries += 1

    def _call_replica_interactive(
        self, batch: np.ndarray, pset, deadline: Optional[Deadline]
    ) -> np.ndarray:
        """Process-tier streaming call: least-busy shard, rerouted around
        open breakers, retried under the policy, outcome-fed breakers."""

        def attempt() -> np.ndarray:
            shard = self._tier.least_busy_shard()
            breaker = self._breakers[shard]
            if breaker is not None and not breaker.allow():
                for candidate in range(self.num_shards):
                    other = self._breakers[candidate]
                    if other is None or other.allow():
                        shard, breaker = candidate, other
                        break
                else:
                    breaker.check()  # every replica refusing: raise typed
            try:
                result = self._tier.call(
                    shard, batch, lane="interactive", pset=pset, deadline=deadline
                )
            except Exception as error:
                if breaker is not None and not isinstance(error, DeadlineExceeded):
                    breaker.record_failure()
                raise
            if breaker is not None:
                breaker.record_success()
            return result

        retry = self.resilience.retry
        if retry is None:
            return attempt()
        return retry.call(attempt, deadline=deadline, on_retry=self._count_retry_fleet)

    def forecast_latest(
        self, horizon: Optional[int] = None, deadline_ms: Optional[float] = None
    ) -> np.ndarray:
        """Forecast from the rolling buffer via the shard workers.

        Keyed on the buffer's O(1) version token exactly like the
        single-worker streaming path.  Degraded modes: an expired budget or
        broken shard serves a marked-stale cache hit when
        ``ResilienceConfig(serve_stale=True)`` and an entry exists (any
        model version's entry for this very buffer state qualifies).
        """
        horizon = self._check_horizon(horizon)
        self._count_requests()
        deadline = self._entry_deadline(deadline_ms)
        if self.cache is not None:
            key = (self._key_version(), self.buffer.cache_token(), horizon)
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        self._admit("interactive", 1)
        # The window, its token and the serving generation are captured
        # under the buffer's mutation lock — a hot swap (which publishes
        # inside buffer.rescale, under this very lock) lands entirely
        # before or after, never splitting window from weights.
        window, token, gen = self.buffer.snapshot(also=lambda: self._gen)
        key = (
            (self._key_version(gen=gen), token, horizon)
            if self.cache is not None
            else None
        )
        try:
            forecast = self._forecast_latest_compute(window, horizon, gen, deadline)
        except ResilienceError as error:
            stale = self._serve_stale_instead(key, error)
            if stale is not None:
                return stale
            raise
        if self.cache is not None:
            self.cache.put(key, forecast)
        return forecast.copy()

    def _forecast_latest_compute(
        self,
        window: np.ndarray,
        horizon: int,
        gen: _Generation,
        deadline: Optional[Deadline],
    ) -> np.ndarray:
        """The streaming forward behind :meth:`forecast_latest`."""
        if self._tier is not None:
            # Process tier: dispatch on the interactive lane, which jumps
            # ahead of queued bulk chunks on every worker — the streaming
            # path stays responsive under backfill load.
            output = self._call_replica_interactive(window[None], gen.engine.pset, deadline)[0]
            return self._denormalise(output, gen=gen)[:horizon]
        part, worker = self._route_window(window, gen=gen, deadline=deadline)
        self._drain([worker], gen=gen)
        return self._denormalise(np.asarray(part.result()), gen=gen)[:horizon]

    # ------------------------------------------------------------------
    def save_artifacts(self, path=None) -> List:
        """Persist every shard's compiled plans as durable artifacts.

        ``path`` may be a directory or an
        :class:`~repro.runtime.ArtifactStore`; omitted, the store shared by
        the workers (``artifact_dir=``) is used.  A fleet restarted against
        the same store binds every shard's plans from disk — zero retraces
        on the first request of every worker.
        """
        if self.runtime != "compiled":
            raise ValueError("plan artifacts require the compiled runtime")
        written: List = []
        for worker in self._workers:
            written.extend(worker.batcher.forward_fn.save_artifacts(path))
        return written

    def warm_up(self, batch_sizes=None) -> List:
        """Build every shard's batch-size plan ladder before traffic.

        Each worker prepares one plan per batch size (doubling up to its
        batcher's ``max_batch_size`` by default) against the **shared**
        artifact store: a restarted fleet binds all its plans from disk —
        and a replica fleet compiles each trace once, the rest hitting the
        store's in-process memo.  Returns the stats of every warmed plan
        across workers.  No-op under the autograd runtime.
        """
        if self.runtime != "compiled":
            return []
        stats: List = []
        for worker in self._workers:
            sizes = self._warm_up_sizes(batch_sizes, worker.batcher.max_batch_size)
            stats.extend(
                worker.batcher.forward_fn.compile_for(self._example_batch(size))
                for size in sizes
            )
        return stats

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain the queues, stop the flusher and join the workers.

        Idempotent.  After ``close()`` no handle is left pending, and
        late ``result()`` calls still answer via the lazy synchronous
        flush (the batchers outlive the worker threads).
        """
        if self._closed:
            return
        self._closed = True
        if self.flusher is not None:
            self.flusher.close(drain=True)
        else:
            for worker in self._workers:
                try:
                    worker.batcher.flush()
                except BaseException:
                    pass  # the affected handles carry the error
        for worker in self._workers:
            worker.close()
        # The tier closes last: the drains above may still dispatch to it.
        if self._tier is not None:
            self._tier.close()

    # ------------------------------------------------------------------
    # health() hooks (see ForecastFrontend.health)
    # ------------------------------------------------------------------
    def _health_shards(self) -> Tuple[ShardHealth, ...]:
        tier_rows: Dict[int, Dict[str, object]] = {}
        if self._tier is not None:
            for row in self._tier.worker_health():
                tier_rows[int(row["shard"])] = row
        shards: List[ShardHealth] = []
        for shard in range(self.num_shards):
            breaker = self._breakers[shard]
            row = tier_rows.get(shard)
            shards.append(
                ShardHealth(
                    shard=shard,
                    breaker=breaker.snapshot() if breaker is not None else None,
                    worker_pid=row["pid"] if row else None,
                    worker_alive=row["alive"] if row else None,
                    heartbeat_age_s=row["heartbeat_age_s"] if row else None,
                    respawns=int(row["respawns"]) if row else 0,
                    hung_detections=int(row["hung_detections"]) if row else 0,
                )
            )
        return tuple(shards)

    def _health_lane_depths(self) -> Dict[str, int]:
        return {lane: self._lane_depth(lane) for lane in ("bulk", "interactive")}

    def _health_counters(self) -> Tuple[int, int]:
        retries = self._retired_retries
        with self._requests_lock:
            expired = self._expired_direct
            retries += self._fleet_retries
        for worker in self._workers:
            merged = _merge_batcher_stats(
                self._retired_shard_stats[worker.index] + [worker.batcher.stats]
            )
            expired += merged.expired_requests
            retries += getattr(worker.batcher.forward_fn, "retries", 0)
        return expired, retries

    def stats(self) -> ShardedServiceStats:
        """Per-shard and aggregate counters of the running service."""
        cache_stats = (
            self.cache.stats()
            if self.cache is not None
            else CacheStats(hits=0, misses=0, evictions=0, size=0, max_entries=0)
        )
        return ShardedServiceStats(
            model_version=self.model_version,
            mode=self.mode,
            num_shards=self.num_shards,
            requests=self._requests,
            cache=cache_stats,
            shards=tuple(
                _merge_batcher_stats(
                    self._retired_shard_stats[worker.index] + [worker.batcher.stats]
                )
                for worker in self._workers
            ),
            runtime=self.runtime,
            flusher=self.flusher.stats() if self.flusher is not None else None,
            precision=self.precision,
            executor=self.executor,
            lanes=tuple(gate.stats() for gate in self._gates.values()),
            process_tier=self._tier.stats() if self._tier is not None else None,
            quality=self.buffer.quality_stats(),
            swaps=self._swaps,
        )
