"""The forecast-serving front end.

:class:`ForecastService` is the piece a production deployment talks to.  It
owns a trained :class:`~repro.core.DyHSL` (loaded from a self-describing
checkpoint or passed in), the fitted training scaler, a rolling observation
buffer for streaming ingestion, micro-batching queues and an LRU forecast
cache, and exposes raw-scale queries:

* :meth:`~ForecastService.forecast` — one raw window in, one ``(T', N)``
  forecast out;
* :meth:`~ForecastService.forecast_many` — a batch of windows, answered
  with cache lookups plus coalesced forwards for the misses;
* :meth:`~ForecastService.submit` — the asynchronous path: enqueue a
  window, keep going, collect the :class:`~repro.serving.PendingForecast`
  handle later.  With ``linger_ms`` set, a background flusher guarantees
  no request waits longer than the linger; ``result()`` flushes lazily
  either way;
* :meth:`~ForecastService.ingest` /
  :meth:`~ForecastService.forecast_latest` — streaming operation: push
  detector readings as they arrive, forecast from the rolling buffer.

Cache misses are routed round-robin over ``num_shards`` full-model replica
workers, each owning its own forward engine and
:class:`~repro.serving.MicroBatcher`.  Batch rows are independent in every
model of this library, so sub-batch outputs are **bit-identical** to the
coalesced batch, whichever executor computes them:

* ``executor="inline"`` — one worker that computes on the caller's thread
  (the default for ``num_shards=1``): single-window queries are a direct
  plan call,
  ``forecast_many`` a batcher submit plus flush, no thread hop;
* ``executor="processes"`` — each worker's plans replayed by a worker
  *process* over shared memory (:mod:`repro.serving.process_tier`), with a
  priority ``interactive`` lane for :meth:`~ForecastService.forecast_latest`
  (the default for ``num_shards > 1``).  A drain over several replicas
  (:func:`~repro.serving.batching.flush_all`) dispatches every replica's
  chunk before it waits for any, so ``K`` replicas compute concurrently
  with no parent-side thread per replica: each worker's dispatcher thread
  is the only thread between a caller and its process.

Deadlines, bounded retries, per-replica circuit breakers, per-lane
admission control (:class:`ServiceOverloaded`), zero-downtime hot swaps,
``health()`` and ``stats()`` are written once, here, for both executors.

The service owns each weights generation in one object: the model, the
scaler, the version, one micro-batcher per replica and the plan engines
(the inline worker's compiled model, or the one provider that the process
replicas share).  The constructor and
:meth:`~ForecastService.swap_checkpoint` build it the same way; a swap
warms the new one off to the side and publishes it with one reference
assignment.  Every request captures one generation at entry and finishes
on it.

Every serving thread runs OpenBLAS at one thread (:mod:`repro.runtime.blas`):
the service pins its own process once when it is built, and each process
worker pins itself when it starts, so K workers use K cores.  The pin is
permanent: ``close()`` does not restore the earlier count, so a process
that builds a service runs BLAS at one thread from then on, training
included.  The inline worker spends the cores on row lanes instead: a
batch splits into one row chunk per core (at most
:data:`~repro.runtime.MAX_PLAN_LANES`), computed at once (see
:class:`~repro.runtime.CompiledModel`).  Process workers keep one lane.

Every forward runs through the **graph-free compiled runtime**
(:mod:`repro.runtime`): the model's forward pass is compiled once per
batch shape into a flat kernel plan replayed on raw arrays with reused
workspace buffers, bit-identical to the autograd forward in float64.
Ragged batch sizes run as power-of-two plan pieces inside the runtime,
with no padding row, so the plan cache stays O(log max_batch) under
bursty traffic.  Each replica has one forward, a :class:`ResilientForward`
over its compiled engine, and every cache miss computes through it.

Warm start: :meth:`~ForecastService.save_buffer_state` persists the rolling
buffer next to a checkpoint and
:meth:`~ForecastService.from_checkpoint`'s ``buffer_state=`` (or
:meth:`~ForecastService.restore_buffer_state`) reloads it, so a restarted
service serves from its first ingest instead of waiting out a ``T``-step
cold window.

All inputs and outputs are on the *original* flow scale (vehicles per five
minutes); normalisation is an internal concern.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn import Module
from ..runtime import MAX_PLAN_LANES, ArtifactStore, CompiledModel, blas, resolve_precision
from .batching import (
    BackgroundFlusher,
    BatcherStats,
    FlusherStats,
    MicroBatcher,
    PendingForecast,
    flush_all,
)
from .buffer import RollingWindowBuffer
from .cache import CacheStats, ForecastCache, StaleForecast
from .faults import FaultPlan
from .process_tier import ProcessShardExecutor, ProcessTierStats
from .quality import QualityConfig, QualityStats, SensorHealthMonitor
from .resilience import (
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    ResilienceConfig,
    ResilienceError,
    ResilientForward,
    ServiceHealth,
    ShardHealth,
)

__all__ = [
    "ForecastFrontend",
    "ForecastService",
    "LaneStats",
    "SERVING_EXECUTORS",
    "ServiceOverloaded",
    "ServiceStats",
    "SwapReport",
]

#: The executors a :class:`ForecastService` runs its replica workers on.
SERVING_EXECUTORS = ("inline", "processes")


def _weights_fingerprint(model: Module) -> str:
    """Short content hash of the model weights, used as the model version."""
    digest = hashlib.sha1()
    for name, value in sorted(model.state_dict().items()):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()[:12]


# ----------------------------------------------------------------------
# Admission control: bounded per-lane queue depth with a fast reject.
# ----------------------------------------------------------------------
class ServiceOverloaded(RuntimeError):
    """Fast-reject raised when a lane's admission-control depth is exceeded.

    Carries the lane, its observed queue depth and the configured limit so
    callers (and load shedders above them) can log an actionable reason.
    The request was rejected at *accept* time — nothing was enqueued, so
    nothing is silently dropped later.

    Machine-usable backoff contract (stable fields):

    - ``retry_after_hint`` — suggested client backoff in **seconds** before
      retrying this lane, derived from how far over its limit the lane is.
      A hint, not a promise: the lane may still be full after the wait.
    - ``depths`` — a ``{lane: pending_rows}`` snapshot across *all* lanes
      at reject time, so a client can decide to retry on another lane
      (e.g. downgrade interactive work to bulk) instead of waiting.
    """

    def __init__(
        self,
        lane: str,
        pending: int,
        limit: int,
        retry_after_hint: Optional[float] = None,
        depths: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(
            f"{lane} lane is over its admission limit "
            f"({pending} pending >= limit {limit}); request rejected"
        )
        self.lane = lane
        self.pending = pending
        self.limit = limit
        if retry_after_hint is None:
            # Heuristic: scale a small base wait by the overflow ratio, so
            # the deeper over-limit the lane is, the longer the hint.
            over = (pending / limit) if limit else 1.0
            retry_after_hint = min(0.05 * max(over, 1.0), 5.0)
        self.retry_after_hint = float(retry_after_hint)
        self.depths = dict(depths) if depths is not None else {lane: pending}


@dataclass(frozen=True)
class LaneStats:
    """Admission-control counters of one priority lane."""

    lane: str
    depth_limit: Optional[int]
    admitted: int
    rejected: int
    pending: int


class _LaneGate:
    """Bounded-admission gate for one lane.

    ``depth_fn`` reports the lane's *live* queue depth (batcher queues plus
    any process-tier dispatch queues); :meth:`admit` rejects when admitting
    ``rows`` more would push it past the limit.  A ``None`` limit never
    rejects but still counts admissions, so ``stats()`` stays meaningful
    for unbounded deployments.
    """

    def __init__(
        self,
        lane: str,
        limit: Optional[int],
        depth_fn: Callable[[], int],
        snapshot_fn: Optional[Callable[[], Dict[str, int]]] = None,
    ) -> None:
        if limit is not None and limit < 0:
            raise ValueError(f"{lane}_queue_depth must be >= 0 when set")
        self.lane = lane
        self.limit = limit
        self._depth_fn = depth_fn
        self._snapshot_fn = snapshot_fn
        self._lock = threading.Lock()
        self._admitted = 0
        self._rejected = 0

    def admit(self, rows: int) -> None:
        """Admit ``rows`` requests or raise :class:`ServiceOverloaded`."""
        # An unbounded lane only counts: no depth probe on the hot path.
        pending = self._depth_fn() if self.limit is not None else 0
        with self._lock:
            if self.limit is not None and pending + rows > self.limit:
                self._rejected += rows
                depths = self._snapshot_fn() if self._snapshot_fn is not None else None
                raise ServiceOverloaded(self.lane, pending, self.limit, depths=depths)
            self._admitted += rows

    def stats(self) -> LaneStats:
        with self._lock:
            return LaneStats(
                lane=self.lane,
                depth_limit=self.limit,
                admitted=self._admitted,
                rejected=self._rejected,
                pending=self._depth_fn(),
            )


# ----------------------------------------------------------------------
# Stats and generations.
# ----------------------------------------------------------------------
def _merge_batcher_stats(parts: Sequence[BatcherStats]) -> BatcherStats:
    """Sum batcher counters (across workers, and across hot-swap generations)."""
    merged = BatcherStats()
    for part in parts:
        merged.requests += part.requests
        merged.flushes += part.flushes
        merged.coalesced += part.coalesced
        merged.largest_batch = max(merged.largest_batch, part.largest_batch)
        merged.failed_flushes += part.failed_flushes
        merged.failed_requests += part.failed_requests
        merged.expired_requests += part.expired_requests
    return merged


@dataclass(frozen=True)
class ServiceStats:
    """Operational counters of a running service, per worker and aggregated."""

    model_version: str
    requests: int
    cache: CacheStats
    #: Lifetime batcher counters of each replica worker (hot swaps fold in).
    shards: Tuple[BatcherStats, ...]
    #: ``"inline"`` or ``"processes"``.
    executor: str = "inline"
    num_shards: int = 1
    flusher: Optional[FlusherStats] = None
    #: Default execution precision policy of the forward engines.
    precision: str = "float64"
    #: Per-lane admission-control counters.
    lanes: Tuple[LaneStats, ...] = ()
    #: Process-tier counters (``None`` unless ``executor="processes"``).
    process_tier: Optional[ProcessTierStats] = None
    #: Detector-health and imputation counters (None without a monitor).
    quality: Optional[QualityStats] = None
    #: Completed hot checkpoint swaps over the service's lifetime.
    swaps: int = 0
    #: Cores this process may run on (``os.sched_getaffinity``).
    cores: int = 1
    #: Live OpenBLAS threads of each worker (``None``: no OpenBLAS found,
    #: or a process worker not spawned yet).
    blas_threads: Tuple[Optional[int], ...] = ()
    #: Row lanes the inline worker splits a batch across (1 for process
    #: workers).
    plan_lanes: int = 1

    @property
    def batcher(self) -> BatcherStats:
        """Aggregate of the per-worker batcher counters."""
        return _merge_batcher_stats(self.shards)


@dataclass(frozen=True)
class SwapReport:
    """What one :meth:`ForecastService.swap_checkpoint` call did."""

    old_version: str
    new_version: str
    #: Whether the new checkpoint's scaler differed (and the streaming ring
    #: was re-normalised under the buffer lock).
    scaler_changed: bool
    #: Plan artifacts copied from the checkpoint's AOT sidecar into the
    #: deployment store before the engines were built.
    artifacts_adopted: int
    #: Plans bound from existing artifacts while warming the new engines.
    plans_reused: int
    #: Plans traced from scratch while warming the new engines.
    plans_compiled: int
    #: Wall-clock duration of the swap (load -> publish), milliseconds.
    swap_ms: float


class _Generation:
    """One immutable serving generation: weights, scaler, version, compute.

    ``batchers`` holds one micro-batcher per replica worker, in replica
    order.  ``plans`` lists the distinct plan engines: the inline worker's
    :class:`~repro.runtime.CompiledModel`, or the one provider that the
    process replicas share (their forwards pin it, so work queued on a
    retired generation still replays that generation's plans).  ``pset``
    is that provider's set on the process tier (``None`` inline).

    The swap path builds a complete new generation off to the side (plans
    warmed, batchers constructed) and publishes it with a single reference
    assignment; every query captures ``self._gen`` once at entry, so a
    request runs start to finish against exactly one generation — never a
    torn old-model/new-scaler mix.
    """

    __slots__ = ("model", "scaler", "model_version", "batchers", "plans", "pset")

    def __init__(self, model, scaler, model_version, batchers, plans, pset) -> None:
        self.model = model
        self.scaler = scaler
        self.model_version = model_version
        self.batchers = batchers
        self.plans = plans
        self.pset = pset

    def close(self) -> None:
        """Stop the plan engines' lane threads; they keep serving inline."""
        for plans in self.plans:
            plans.close()


class ForecastService:
    """Serve per-node traffic forecasts from a trained model.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.DyHSL` (any module exposing a
        ``config`` with ``input_length`` / ``output_length`` / ``num_nodes``
        / ``input_dim`` works).  The service switches it to evaluation mode.
    scaler:
        The scaler fitted on the training flow; ``None`` serves on the
        normalised scale directly.
    model_version:
        Cache namespace for this deployment; defaults to a fingerprint of
        the weights so a redeploy can never serve stale cached forecasts.
    cache_entries:
        LRU capacity (0 disables caching).  One cache and one rolling
        buffer front all workers.
    max_batch_size:
        Largest coalesced forward pass of a worker's flush.
    linger_ms:
        When set, a background flusher drains a queue once its oldest
        request has waited this long, so :meth:`submit` traffic does not
        wait for a caller to block in ``result()``.  Stop it with
        :meth:`close` (or use the service as a context manager).
    precision:
        Execution-precision policy of the compiled plans: ``"float64"``
        (bit-identical to autograd, the default) or ``"float32"`` (~2x
        memory-bandwidth headroom; see ``docs/runtime.md``).  ``None``
        consults ``REPRO_RUNTIME_PRECISION``.  Synchronous queries accept a
        per-request ``precision=`` override — the float64 SLA path.
    artifact_dir:
        Directory (or shared :class:`~repro.runtime.ArtifactStore`) of
        durable plan artifacts, shared by **all** workers (process
        replicas bind from it; each trace is compiled once per fleet), so a
        restarted service binds its plans from disk instead of re-tracing —
        the warm-start recipe in ``docs/serving_quickstart.md``.  Fresh
        compiles are written through.
    quality / quality_adjacency:
        Streaming quality control in front of the rolling buffer: a ready
        :class:`~repro.serving.SensorHealthMonitor`, a
        :class:`~repro.serving.QualityConfig`, or ``True`` for default
        thresholds (see :mod:`repro.serving.quality`).
    resilience:
        Deadlines, retries, breakers and stale-serve policy
        (:class:`~repro.serving.ResilienceConfig`; default: retry
        retryable failures, no breakers).
    num_shards:
        Number of full-model replica workers (misses route round-robin).
    executor:
        ``"inline"`` (one worker computing on the caller's thread) or
        ``"processes"`` (each worker's plans replayed by a worker *process*
        over shared memory, escaping the interpreter lock — see
        :mod:`repro.serving.process_tier`).
        ``None`` means inline for one worker and processes for more.
    start_method:
        Worker start method for the process tier (``"fork"`` is the fast
        default where available; ``"spawn"`` the portable contract).
        ``None`` consults ``REPRO_PROCESS_START_METHOD``.
    bulk_queue_depth / interactive_queue_depth:
        Admission-control limits: a request whose lane already holds this
        many pending rows is fast-rejected with :class:`ServiceOverloaded`
        instead of queueing unboundedly (``None``, the default, never
        rejects).  Bulk covers ``forecast`` / ``forecast_many`` /
        ``submit`` / ``forecast_node`` misses; interactive covers
        ``forecast_latest`` misses.
    bulk_chunk_rows:
        Process-tier dispatch granularity: bulk batches are split into
        chunks of this many rows, bounding how long an interactive
        request waits behind bulk work already in flight.
    fault_plan:
        A seeded :class:`~repro.serving.FaultPlan` shipped to process-tier
        workers (fault-injection harness).

    Example
    -------
    >>> service = ForecastService.from_checkpoint("dyhsl.npz")
    >>> forecast = service.forecast(window)          # (T', N), raw scale
    >>> service.ingest(latest_reading)               # streaming path
    >>> if service.buffer.ready:
    ...     forecast = service.forecast_latest()
    >>> with ForecastService.from_checkpoint("dyhsl.npz", num_shards=4,
    ...                                      linger_ms=10.0) as fleet:
    ...     handles = [fleet.submit(w) for w in windows]
    ...     forecasts = [h.result() for h in handles]
    """

    def __init__(
        self,
        model: Module,
        scaler: Optional[object] = None,
        model_version: Optional[str] = None,
        cache_entries: int = 1024,
        max_batch_size: int = 128,
        linger_ms: Optional[float] = None,
        precision: Optional[str] = None,
        artifact_dir: Optional[Union[str, Path, ArtifactStore]] = None,
        quality: Union[None, bool, QualityConfig, SensorHealthMonitor] = None,
        quality_adjacency: Optional[np.ndarray] = None,
        resilience: Optional[ResilienceConfig] = None,
        num_shards: int = 1,
        executor: Optional[str] = None,
        start_method: Optional[str] = None,
        bulk_queue_depth: Optional[int] = None,
        interactive_queue_depth: Optional[int] = None,
        bulk_chunk_rows: int = 32,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        config = getattr(model, "config", None)
        if config is None:
            raise ValueError("model must expose a config attribute")
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if linger_ms is not None and linger_ms <= 0:
            # Validate before the tier or the flusher starts: a constructor
            # that raises must not leak background machinery.
            raise ValueError("linger_ms must be positive when set")
        model.eval()
        self.config = config
        self.num_shards = num_shards
        self._max_batch_size = max_batch_size
        # Failure policy for every serving path: deadlines, bounded retries,
        # optional circuit breakers, stale-serve.  The default config retries
        # retryable failures only and enables no breakers — see
        # docs/serving_quickstart.md §"Resilience & degraded modes".
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self._stale_served = 0
        # Expiries on direct (non-queued) paths; the batch queues' sweeps
        # count their own in BatcherStats.expired_requests.
        self._expired_direct = 0
        self._swap_lock = threading.Lock()
        self._swaps = 0
        self.precision = resolve_precision(precision).name
        # One store instance for the whole deployment, shared by every
        # worker.
        self.artifact_store: Optional[ArtifactStore] = (
            artifact_dir
            if artifact_dir is None or isinstance(artifact_dir, ArtifactStore)
            else ArtifactStore(artifact_dir)
        )
        self.cache: Optional[ForecastCache] = (
            ForecastCache(max_entries=cache_entries) if cache_entries > 0 else None
        )
        self.quality = self._resolve_quality(quality, quality_adjacency)
        # The streaming ring stores windows at the service's serving
        # precision: on the inline direct path a float32 snapshot enters
        # the float32 plan without an upcast-downcast round trip; queued
        # paths coalesce through a float64 Tensor and pay the plan's entry
        # cast — correct either way.
        self.buffer = RollingWindowBuffer(
            input_length=config.input_length,
            num_nodes=config.num_nodes,
            num_features=config.input_dim,
            scaler=scaler,
            dtype=np.float32 if self.precision == "float32" else float,
            quality=self.quality,
        )
        self._requests = 0
        self._requests_lock = threading.Lock()
        # One breaker per replica (None when breakers are disabled), shared
        # across hot-swap generations so failure history survives a swap.
        self._breakers: List = [
            self.resilience.make_breaker(shard) for shard in range(num_shards)
        ]
        self._retired_retries = 0
        # Resolve (and validate) the executor and the admission gates
        # before any thread or process starts — a constructor that raises
        # must not leak background machinery.
        self.executor = self._resolve_executor(executor)
        self._tier: Optional[ProcessShardExecutor] = None
        # Overload rejections snapshot every lane's depth, so a client's
        # backoff decision sees the whole picture, not just its own lane.
        lane_snapshot = lambda: {  # noqa: E731
            lane: self._lane_depth(lane) for lane in ("bulk", "interactive")
        }
        limits = {"bulk": bulk_queue_depth, "interactive": interactive_queue_depth}
        self._gates = {
            lane: _LaneGate(
                lane, limit, lambda lane=lane: self._lane_depth(lane), snapshot_fn=lane_snapshot
            )
            for lane, limit in limits.items()
        }
        # One BLAS thread per serving thread, for good.  The inline worker
        # spends the cores on row lanes; process replicas spread batches.
        blas.set_threads(1)
        self._lanes = min(blas.cores(), MAX_PLAN_LANES) if self.executor == "inline" else 1
        if self.executor == "processes":
            # Workers, segments and dispatchers spawn lazily on the first
            # dispatched batch; constructing the service starts nothing.
            self._tier = ProcessShardExecutor(
                num_shards=num_shards,
                window_shape=(config.input_length, config.num_nodes, config.input_dim),
                output_length=config.output_length,
                num_nodes=config.num_nodes,
                precision=self.precision,
                artifact_store=self.artifact_store,
                start_method=start_method,
                bulk_chunk_rows=bulk_chunk_rows,
                watchdog=self.resilience.watchdog,
                fault_plan=fault_plan,
            )
        # Batcher counters of generations retired by hot swaps, folded into
        # stats() so a swap never resets the service's lifetime telemetry.
        self._retired_shard_stats: List[List[BatcherStats]] = [
            [] for _ in range(num_shards)
        ]
        try:
            self._gen = self._build_generation(
                model, scaler, model_version or _weights_fingerprint(model)
            )
        except BaseException:
            # The tier took its spill directory before the plan engine
            # was built: give it back.
            if self._tier is not None:
                self._tier.close()
            raise
        self._round_robin = 0
        self._route_lock = threading.Lock()
        self._closed = False
        self.flusher: Optional[BackgroundFlusher] = (
            BackgroundFlusher(self._gen.batchers, linger_ms=linger_ms)
            if linger_ms is not None
            else None
        )

    def _resolve_executor(self, executor: Optional[str]) -> str:
        """Inline for one worker, processes for more; an explicit executor
        must fit the worker count."""
        if executor is None:
            executor = "inline" if self.num_shards == 1 else "processes"
        executor = executor.lower()
        if executor not in SERVING_EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {SERVING_EXECUTORS}"
            )
        if executor == "inline" and self.num_shards != 1:
            raise ValueError(
                "executor='inline' computes on the caller's thread and serves "
                f"exactly one worker; num_shards={self.num_shards} needs "
                "executor='processes'"
            )
        return executor

    def _resolve_quality(
        self,
        quality: Union[None, bool, QualityConfig, SensorHealthMonitor],
        adjacency: Optional[np.ndarray],
    ) -> Optional[SensorHealthMonitor]:
        """``quality=`` accepts a ready monitor, a QualityConfig, or True
        (default thresholds); the monitor classifies and imputes every
        ingested step before it enters the rolling buffer's ring."""
        if quality is None or quality is False:
            return None
        if isinstance(quality, SensorHealthMonitor):
            return quality
        config = quality if isinstance(quality, QualityConfig) else QualityConfig()
        return SensorHealthMonitor(
            self.config.num_nodes,
            num_features=self.config.input_dim,
            config=config,
            adjacency=adjacency,
        )

    # ------------------------------------------------------------------
    # The live serving generation.  model / scaler / model_version read
    # through self._gen so a hot swap atomically retargets every consumer.
    # ------------------------------------------------------------------
    @property
    def model(self) -> Module:
        """The currently served model (changes on hot swap)."""
        return self._gen.model

    @property
    def scaler(self) -> Optional[object]:
        """The currently served scaler (changes on hot swap)."""
        return self._gen.scaler

    @property
    def model_version(self) -> str:
        """Version of the currently served weights (cache namespace)."""
        return self._gen.model_version

    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        path: Union[str, Path],
        buffer_state: Optional[Union[str, Path]] = None,
        **kwargs,
    ):
        """Build a service from a :func:`~repro.training.save_model_checkpoint` file.

        ``buffer_state`` optionally points at a
        :meth:`save_buffer_state` sidecar; when given, the rolling buffer is
        restored so streaming queries work immediately (warm start).
        Remaining keyword arguments go to the constructor, e.g.
        ``ForecastService.from_checkpoint(path, num_shards=4)``.
        """
        from ..training.checkpoints import load_model_checkpoint

        loaded = load_model_checkpoint(path)
        version = kwargs.pop("model_version", None)
        if version is None:
            version = loaded.metadata.get("model_version")
        if kwargs.get("quality") and kwargs.get("quality_adjacency") is None:
            # The neighbor-average imputation strategy averages over the
            # prior graph; the checkpoint carries exactly that adjacency.
            kwargs["quality_adjacency"] = loaded.adjacency
        service = cls(loaded.model, scaler=loaded.scaler, model_version=version, **kwargs)
        if buffer_state is not None:
            service.restore_buffer_state(buffer_state)
        return service

    # ------------------------------------------------------------------
    @property
    def horizon(self) -> int:
        """Forecast horizon ``T'`` of the served model."""
        return self.config.output_length

    def _normalise_window(
        self, window: np.ndarray, gen: Optional[_Generation] = None
    ) -> np.ndarray:
        scaler = (gen or self._gen).scaler
        window = np.asarray(window, dtype=float)
        if window.ndim == 2 and self.config.input_dim == 1:
            window = window[:, :, None]
        expected = (self.config.input_length, self.config.num_nodes, self.config.input_dim)
        if window.shape != expected:
            raise ValueError(f"window shape {window.shape} does not match model input {expected}")
        if scaler is not None:
            window = window.copy()
            window[..., 0] = scaler.transform(window[..., 0])
        return window

    def _normalise_batch(
        self, windows: np.ndarray, gen: Optional[_Generation] = None
    ) -> List[np.ndarray]:
        """Validate a raw ``(B, T, N, F)`` batch into normalised windows."""
        windows = np.asarray(windows, dtype=float)
        if windows.ndim == 3 and self.config.input_dim == 1:
            windows = windows[..., None]
        if windows.ndim != 4:
            raise ValueError(f"windows must have shape (B, T, N, F); got {windows.shape}")
        return [self._normalise_window(window, gen=gen) for window in windows]

    def _denormalise(
        self, predictions: np.ndarray, gen: Optional[_Generation] = None
    ) -> np.ndarray:
        scaler = (gen or self._gen).scaler
        if scaler is not None:
            return scaler.inverse_transform(predictions)
        return predictions

    def _check_horizon(self, horizon: Optional[int]) -> int:
        if horizon is None:
            return self.config.output_length
        if not 1 <= horizon <= self.config.output_length:
            raise ValueError(
                f"horizon must be in [1, {self.config.output_length}]; got {horizon}"
            )
        return int(horizon)

    def _empty_forecasts(self, horizon: int) -> np.ndarray:
        """The well-formed answer to an empty query batch."""
        return np.empty((0, horizon, self.config.num_nodes))

    # ------------------------------------------------------------------
    # Precision-policy plumbing.  The service-wide default is fixed at
    # construction; synchronous queries may override it per request — the
    # float64 SLA path of a float32 deployment (or an opportunistic
    # float32 answer from a float64 one).
    # ------------------------------------------------------------------
    def _resolve_request_precision(self, precision: Optional[str]) -> Optional[str]:
        """Normalise a per-request override; ``None`` means the default path.

        Overrides that merely restate the service default collapse to the
        default path (micro-batched, default cache namespace).
        """
        if precision is None:
            return None
        name = resolve_precision(precision).name
        return None if name == self.precision else name

    def _key_version(
        self, precision: Optional[str] = None, gen: Optional[_Generation] = None
    ) -> str:
        """Cache namespace for one precision policy.

        Float32 and float64 answers to the same window differ, so they may
        never alias one cache entry; the float64 namespace stays the bare
        model version for cache continuity with earlier deployments.  The
        version comes from the request's captured generation, so a swap
        invalidates every stream/window key in one assignment.
        """
        version = (gen or self._gen).model_version
        name = precision or self.precision
        return version if name == "float64" else f"{version}:{name}"

    def _count_requests(self, count: int = 1) -> None:
        """Bump the request counter (locked: query paths race by design)."""
        with self._requests_lock:
            self._requests += count

    def _count_stale(self, count: int = 1) -> None:
        with self._requests_lock:
            self._stale_served += count

    def _check_deadline(self, deadline: Optional[Deadline], stage: str) -> None:
        """Deadline probe that keeps :meth:`health` honest.

        Direct-path expiries (predict, precision chunks — anything outside
        the batch queues, whose sweeps already count their own) land in the
        ``expired_requests`` health counter before the typed raise.
        """
        if deadline is None:
            return
        try:
            deadline.check(stage)
        except DeadlineExceeded:
            with self._requests_lock:
                self._expired_direct += 1
            raise

    def _entry_deadline(self, deadline_ms: Optional[float]) -> Optional[Deadline]:
        """Capture a request's time budget at entry.

        An explicit ``deadline_ms`` wins; otherwise the service-wide
        ``ResilienceConfig.default_deadline_ms`` applies; ``None`` for both
        means no budget.
        """
        if deadline_ms is None:
            deadline_ms = self.resilience.default_deadline_ms
        return Deadline.after(deadline_ms)

    def _serve_stale_instead(self, key, error: BaseException) -> Optional[StaleForecast]:
        """Degraded-mode fallback: a marked-stale cache entry for ``key``.

        Only consulted when ``ResilienceConfig(serve_stale=True)`` and only
        for typed resilience failures — a deterministic error (bad shape,
        unknown horizon) must surface, not be papered over with old data.
        """
        if not self.resilience.serve_stale or self.cache is None or key is None:
            return None
        if not isinstance(error, ResilienceError):
            return None
        stale = self.cache.get_stale(key)
        if stale is not None:
            self._count_stale()
        return stale

    # ------------------------------------------------------------------
    def _warm_up_sizes(self, batch_sizes) -> List[int]:
        """Resolve a warm-up ladder: explicit sizes, or doubling up to the
        batcher cap."""
        if batch_sizes is not None:
            sizes = sorted({int(size) for size in batch_sizes})
            if not sizes or sizes[0] <= 0:
                raise ValueError("warm_up batch sizes must be positive")
            return sizes
        sizes: List[int] = []
        size = 1
        while size < self._max_batch_size:
            sizes.append(size)
            size *= 2
        sizes.append(self._max_batch_size)
        return sizes

    def _example_batch(self, size: int) -> np.ndarray:
        """A zero batch of ``size`` windows shaped for the served model."""
        return np.zeros(
            (size, self.config.input_length, self.config.num_nodes, self.config.input_dim)
        )

    # ------------------------------------------------------------------
    # Generation machinery (hot checkpoint swap).
    # ------------------------------------------------------------------
    def _build_generation(self, model: Module, scaler, version: str) -> _Generation:
        """Build a generation's batchers and plan engines over ``model``.

        The constructor and :meth:`swap_checkpoint` both build through
        here.  Process replicas pin one provider set of the tier, so the
        fleet compiles each trace once per generation.
        """
        pset = None
        if self._tier is not None:
            pset = self._tier.generation(model)
            plans = pset.provider
            forwards: List[Callable] = [
                self._tier.proxy(index, pset) for index in range(self.num_shards)
            ]
        else:
            plans = CompiledModel(
                model,
                precision=self.precision,
                artifact_dir=self.artifact_store,
                lanes=self._lanes,
            )
            forwards = [plans]
        # Every path funnels through a worker batcher's forward_fn (the
        # inline direct path reads the same object), so wrapping here puts
        # the breaker consult, bounded retries and outcome accounting on
        # one choke point per worker.
        batchers = [
            MicroBatcher(
                ResilientForward(
                    forward, retry=self.resilience.retry, breaker=self._breakers[index]
                ),
                max_batch_size=self._max_batch_size,
            )
            for index, forward in enumerate(forwards)
        ]
        return _Generation(model, scaler, version, batchers, [plans], pset)

    def _warm(self, gen: _Generation, sizes: Sequence[int]) -> List:
        """Prepare the plans each batch size runs on ``gen``'s plan engine.

        Process replicas warm the pieces the tier would dispatch (no plan
        wider than ``bulk_chunk_rows``), not the provider's own ladder.
        """
        if gen.pset is not None:
            return [self._tier.warm(size, gen.pset) for size in sizes]
        return [
            plans.compile_for(self._example_batch(size))
            for plans in gen.plans
            for size in sizes
        ]

    def _retire_generation(self, old: _Generation) -> None:
        # Drain the retired queues in one drain, so process replicas
        # compute concurrently; requests still queued there complete on
        # the old weights — their process proxies pin the old provider set.
        try:
            flush_all(old.batchers)
        except Exception:
            pass  # the affected handles carry the error
        for index, batcher in enumerate(old.batchers):
            self._retired_shard_stats[index].append(batcher.stats)
            self._retired_retries += batcher.forward_fn.retries
        old.close()
        if self.flusher is not None:
            self.flusher.retarget(self._gen.batchers)

    def _validate_swap_config(self, config) -> None:
        """A swapped checkpoint must describe the same serving geometry."""
        for attr in ("num_nodes", "input_length", "output_length", "input_dim"):
            live, new = getattr(self.config, attr), getattr(config, attr)
            if live != new:
                raise ValueError(
                    f"cannot hot-swap a checkpoint with {attr}={new} into a "
                    f"service built for {attr}={live}; geometry changes need "
                    "a new deployment"
                )

    def swap_checkpoint(self, path: Union[str, Path], warm_sizes=None) -> SwapReport:
        """Atomically install a new checkpoint into the live service.

        Zero-downtime, drain-free: the new generation (weights, scaler,
        compiled plans, batchers) is built completely off to the side, then
        published with a single reference assignment performed **under the
        streaming buffer's lock**, atomically with re-normalising the ring
        if the new checkpoint's scaler differs.  Concurrent requests each
        captured a generation at entry: in-flight work completes on the old
        weights (its micro-batchers stay flushable and its plans stay
        valid), new requests see the new weights — never a mix.

        Cache correctness is free: forecast and plan caches are keyed by
        ``model_version`` (the weights fingerprint), so old entries can
        never answer new-version queries.  When the checkpoint has an AOT
        artifact sidecar (:func:`~repro.training.save_plan_artifacts`) and
        the service was built with ``artifact_dir=``, the sidecar's plans
        are adopted into the deployment store first, making the swap a
        handful of disk binds instead of retraces — and process-tier
        workers (whose store roots are fixed at spawn) can load them too.

        ``warm_sizes`` optionally lists batch sizes to pre-plan on the new
        engines (default: just the streaming batch of 1).
        """
        from ..training.checkpoints import artifact_dir_for, load_model_checkpoint

        started = time.perf_counter()
        loaded = load_model_checkpoint(path)
        self._validate_swap_config(loaded.config)
        version = loaded.metadata.get("model_version")
        if version is None:
            version = _weights_fingerprint(loaded.model)
        with self._swap_lock:
            adopted = 0
            if self.artifact_store is not None:
                sidecar = artifact_dir_for(path)
                if sidecar.is_dir():
                    adopted = len(self.artifact_store.adopt(sidecar))
            old = self._gen
            new = self._build_generation(loaded.model, loaded.scaler, version)
            # The new plans are warmed *before* publication, so the first
            # request on the new generation never pays a trace.  With AOT
            # artifacts in the store these are disk binds.
            self._warm(new, [1] if warm_sizes is None else self._warm_up_sizes(warm_sizes))
            infos = [plans.cache_info() for plans in new.plans]
            # rescale() runs the publication callback under the buffer lock:
            # ring re-normalisation (when the scaler changed) and generation
            # publication are one atomic event for snapshot() readers.
            rescaled = self.buffer.rescale(
                loaded.scaler, commit=lambda: setattr(self, "_gen", new)
            )
            self._retire_generation(old)
            self._swaps += 1
        return SwapReport(
            old_version=old.model_version,
            new_version=version,
            scaler_changed=rescaled,
            artifacts_adopted=adopted,
            plans_reused=sum(info.artifact_loads for info in infos),
            plans_compiled=sum(info.compiles for info in infos),
            swap_ms=(time.perf_counter() - started) * 1e3,
        )

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _lane_depth(self, lane: str) -> int:
        """Live queue depth of one lane across batchers and the tier."""
        if lane == "bulk":
            depth = sum(batcher.pending for batcher in self._gen.batchers)
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
        self._gates[lane].admit(rows)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _first_routable(self, order: Iterable[int]) -> int:
        """The first replica in ``order`` whose circuit breaker is not open.

        With breakers enabled, a replica whose breaker is open is routed
        *around* — the query lands on a healthy replica instead of failing
        (reroute-on-breaker).  Only when every replica is refusing does the
        query fail fast, with the soonest-to-recover breaker's
        :class:`CircuitOpen`.  Routing only reads breaker state: a
        half-open replica's single probe is claimed by the forward itself.
        """
        soonest = None
        for index in order:
            breaker = self._breakers[index]
            if breaker is None:
                return index
            snapshot = breaker.snapshot()
            if snapshot.state != "open":
                return index
            if soonest is None or snapshot.retry_after < soonest.retry_after:
                soonest = snapshot
        raise CircuitOpen(soonest.shard, soonest.consecutive_failures, soonest.retry_after)

    def _next_replica(self) -> int:
        """Round-robin over the replicas, skipping open circuit breakers."""
        with self._route_lock:
            start = self._round_robin
            index = self._first_routable(
                (start + step) % self.num_shards for step in range(self.num_shards)
            )
            self._round_robin = index + 1
            return index

    def _least_busy_replica(self) -> int:
        """The process replica with the least queued work, skipping open
        circuit breakers (ties go to the lower index)."""
        loads = self._tier.shard_loads()
        return self._first_routable(sorted(range(self.num_shards), key=loads.__getitem__))

    def _route_window(
        self,
        window: np.ndarray,
        gen: _Generation,
        deadline: Optional[Deadline] = None,
        finalize: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> Tuple[PendingForecast, int]:
        """Submit one normalised window to the next replica; returns its
        handle and the replica index.

        Requests enqueue on the batchers of the generation captured at
        request entry, so a hot swap mid-request never splits one window
        across two weight versions.  ``deadline`` rides with each queue
        entry; an entry whose budget expires before its flush is failed
        typed at the sweep, never computed.  ``finalize`` rides on the
        handle (see :class:`PendingForecast`).
        """
        index = self._next_replica()
        batcher = gen.batchers[index]
        return batcher.submit(window, deadline=deadline, finalize=finalize), index

    def _drain(self, replicas: Sequence[int], gen: _Generation) -> None:
        """Flush the given replicas' queues in one drain; re-raise the first error.

        The drain runs on the caller's thread and settles every touched
        replica (its handles fulfilled or failed) before it raises.  The
        batchers go in replica order, the one lock order every drain uses.
        """
        flush_all([gen.batchers[index] for index in sorted(set(replicas))])

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def _compute_misses(
        self,
        windows: List[np.ndarray],
        precision: Optional[str],
        gen: _Generation,
        deadline: Optional[Deadline],
    ) -> List[np.ndarray]:
        """Run the model for deduplicated misses (normalised in and out).

        Misses route round-robin over the replicas, compute on the workers'
        executors, and come back in request order.  ``precision`` is a
        resolved per-request override (never the default): such requests
        bypass the micro-batch queues — mixing precisions in one coalesced
        forward would serve some requests at the wrong policy — and compute
        directly through the next replica's engine, chunked to the batcher
        cap so the override path keeps the same peak-batch bound as a
        flush.  ``gen`` is the generation captured at request entry; the
        compute runs on its engines even if a swap lands mid-request.
        """
        if precision is not None:
            outputs: List[np.ndarray] = []
            for start in range(0, len(windows), self._max_batch_size):
                self._check_deadline(deadline, "precision-chunk")
                batch = np.stack(windows[start : start + self._max_batch_size], axis=0)
                forward = gen.batchers[self._next_replica()].forward_fn
                outputs.extend(np.asarray(forward(batch, precision=precision)))
            return outputs
        routed = [self._route_window(window, gen, deadline=deadline) for window in windows]
        self._drain([index for _, index in routed], gen)
        return [part.result() for part, _ in routed]

    def _predict(
        self,
        window: np.ndarray,
        gen: _Generation,
        deadline: Optional[Deadline],
        precision: Optional[str] = None,
        lane: str = "bulk",
    ) -> np.ndarray:
        """One uncached forward of a normalised window (normalised output).

        Inline, this is a direct plan call on the caller's thread — no
        queue, no hop; the compiled runtime takes the raw array (its entry
        cast owns the dtype handling, so a float32 streaming window is
        served zero-copy).  On the process tier the streaming lane
        dispatches to the least-busy replica's forward (its breaker, retry
        and fault point included) ahead of queued bulk chunks; a retry
        re-dispatches to the same replica.  Everything else is a one-window
        :meth:`_compute_misses`.
        """
        if self.executor == "inline":
            self._check_deadline(deadline, "predict")
            return gen.batchers[0].forward_fn(window[None], precision=precision)[0]
        if lane == "interactive":
            forward = gen.batchers[self._least_busy_replica()].forward_fn
            return forward(window[None], lane="interactive", deadline=deadline)[0]
        return self._compute_misses([window], precision=precision, gen=gen, deadline=deadline)[0]

    def _serve_one(
        self,
        window: np.ndarray,
        key,
        horizon: int,
        gen: _Generation,
        deadline: Optional[Deadline],
        precision: Optional[str] = None,
        lane: str = "bulk",
    ) -> np.ndarray:
        """Compute one cache miss, then :meth:`_finish` it.

        A typed resilience failure serves a marked-stale entry for ``key``
        instead when stale-serve is on and one exists.
        """
        try:
            output = self._predict(window, gen, deadline, precision=precision, lane=lane)
        except ResilienceError as error:
            stale = self._serve_stale_instead(key, error)
            if stale is not None:
                return stale
            raise
        return self._finish(output, key, horizon, gen)

    def _finish(self, output: np.ndarray, key, horizon: int, gen: _Generation) -> np.ndarray:
        """Finish one computed miss: denormalise, cut to ``horizon``, cache.

        Every computed miss ends here.  ``output`` is a fresh array nothing
        else holds (the engines return fresh outputs and the cache stores
        its own copy), so the forecast is returned without another copy.
        ``key`` is ``None`` for an uncached request.
        """
        forecast = self._denormalise(output, gen=gen)[:horizon]
        if key is not None and self.cache is not None:
            self.cache.put(key, forecast)
        return forecast

    def _serve_normalised_batch(
        self,
        normalised: List[np.ndarray],
        horizon: int,
        precision: Optional[str],
        gen: _Generation,
        deadline: Optional[Deadline],
    ) -> np.ndarray:
        """Serve normalised windows: cache hits, deduplicated misses, stack.

        ``precision`` is a resolved per-request override; it namespaces the
        cache keys (a float32 answer must never satisfy a float64 query)
        and is forwarded to :meth:`_compute_misses`.  When compute fails
        with a typed resilience error and stale-serve is on, misses are
        answered from any model version's cached entry for the same window
        (the whole stacked result is then a :class:`StaleForecast`).
        """
        version = self._key_version(precision, gen=gen)
        results: List[Optional[np.ndarray]] = [None] * len(normalised)
        # Requests that miss the cache, grouped by key so identical in-flight
        # windows share one forward slot.
        miss_groups: "dict[tuple, List[int]]" = {}
        for index, window in enumerate(normalised):
            key = ForecastCache.make_key(version, window, horizon)
            if self.cache is not None:
                # The stack below copies every row, so a hit needs no
                # copy of its own.
                cached = self.cache.get(key, copy=False)
                if cached is not None:
                    results[index] = cached
                    continue
            miss_groups.setdefault(key, []).append(index)

        served_stale = False
        if miss_groups:
            groups = list(miss_groups.items())
            self._admit("bulk", len(groups))
            try:
                outputs = self._compute_misses(
                    [normalised[group[0]] for _, group in groups],
                    precision=precision,
                    gen=gen,
                    deadline=deadline,
                )
            except ResilienceError:
                if not (self.resilience.serve_stale and self.cache is not None):
                    raise
                stale = [self.cache.get_stale(key) for key, _ in groups]
                if any(entry is None for entry in stale):
                    # Degraded mode can only answer what some generation
                    # once computed; a window never seen fails typed.
                    raise
                self._count_stale(len(groups))
                served_stale = True
                finished = stale
            else:
                finished = [
                    self._finish(output, key, horizon, gen)
                    for (key, _), output in zip(groups, outputs)
                ]
            # Duplicates share one array: the stack below copies each row.
            for (_, group), forecast in zip(groups, finished):
                for index in group:
                    results[index] = forecast
        stacked = np.stack(results, axis=0)
        return StaleForecast(stacked) if served_stale else stacked

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def forecast(
        self,
        window: np.ndarray,
        horizon: Optional[int] = None,
        precision: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Forecast the next steps from one raw-scale window.

        Parameters
        ----------
        window:
            Raw observations of shape ``(T, N, F)`` (or ``(T, N)`` when the
            model consumes a single feature).
        horizon:
            Number of future steps wanted (defaults to the model's ``T'``).
        precision:
            Per-request override of the service's execution-precision
            policy (e.g. the float64 SLA path of a float32 deployment);
            served from its own cache namespace.
        deadline_ms:
            Per-request time budget; overrides the service-wide
            ``ResilienceConfig.default_deadline_ms``.  An expired budget
            fails the request with :class:`DeadlineExceeded` before the
            forward runs — or serves a :class:`StaleForecast` when
            ``serve_stale`` is enabled and a matching entry exists.

        Returns
        -------
        numpy.ndarray
            Forecast of shape ``(horizon, N)`` on the original flow scale.
        """
        horizon = self._check_horizon(horizon)
        precision = self._resolve_request_precision(precision)
        self._count_requests()
        deadline = self._entry_deadline(deadline_ms)
        gen = self._gen
        window = self._normalise_window(window, gen=gen)
        key = None
        if self.cache is not None:
            key = ForecastCache.make_key(self._key_version(precision, gen=gen), window, horizon)
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        self._admit("bulk", 1)
        return self._serve_one(window, key, horizon, gen, deadline, precision=precision)

    def forecast_many(
        self,
        windows: np.ndarray,
        horizon: Optional[int] = None,
        precision: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Forecast a batch of raw windows with caching plus batched compute.

        Cache hits are answered directly; misses are deduplicated (identical
        in-flight windows are computed once) and split round-robin into one
        coalesced micro-batched forward per replica.  An empty batch is
        answered with an empty ``(0, horizon, N)`` array instead of
        reaching the model.

        ``precision`` overrides the service's execution-precision policy
        for this query only — e.g. ``precision="float64"`` is the SLA path
        of a ``precision="float32"`` deployment, served bit-identically to
        an all-float64 service from its own cache namespace.

        ``deadline_ms`` caps the request's total time budget: misses still
        queued (or dispatched chunks still waiting) past the budget fail
        with a typed :class:`~repro.serving.DeadlineExceeded` instead of
        computing.
        """
        horizon = self._check_horizon(horizon)
        precision = self._resolve_request_precision(precision)
        deadline = self._entry_deadline(deadline_ms)
        # One generation per request: a hot swap mid-batch must not mix the
        # old scaler's normalisation with the new model's forward.
        gen = self._gen
        normalised = self._normalise_batch(windows, gen=gen)
        self._count_requests(len(normalised))
        if not normalised:
            return self._empty_forecasts(horizon)
        return self._serve_normalised_batch(normalised, horizon, precision, gen, deadline)

    def submit(self, window: np.ndarray, horizon: Optional[int] = None,
               deadline_ms: Optional[float] = None) -> PendingForecast:
        """Enqueue one raw window; returns a handle to collect later.

        The batched forward runs when the ``linger_ms`` background flusher
        fires or lazily on :meth:`PendingForecast.result`, whichever
        happens first; ``result()`` then finishes the miss like a
        synchronous one.  Cache hits return an already-settled handle.
        ``deadline_ms`` rides with the queued entry: if it expires before a
        flush reaches the entry, the handle fails typed with
        :class:`~repro.serving.DeadlineExceeded` instead of computing.
        Backpressure is ``bulk_queue_depth``: a submit past it raises
        :class:`ServiceOverloaded`.
        """
        horizon = self._check_horizon(horizon)
        deadline = self._entry_deadline(deadline_ms)
        self._count_requests()
        gen = self._gen
        normalised = self._normalise_window(window, gen=gen)
        key = None
        if self.cache is not None:
            key = ForecastCache.make_key(self._key_version(gen=gen), normalised, horizon)
            cached = self.cache.get(key)
            if cached is not None:
                return PendingForecast.completed(cached)
        self._admit("bulk", 1)
        handle, _ = self._route_window(
            normalised, gen, deadline=deadline,
            finalize=lambda output: self._finish(output, key, horizon, gen),
        )
        return handle

    def forecast_node(
        self,
        window: np.ndarray,
        node: int,
        horizon: Optional[int] = None,
        precision: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Forecast a single sensor: returns shape ``(horizon,)``.

        Serves the full network through :meth:`forecast` (and its cache)
        and slices the sensor's column.
        """
        if not 0 <= node < self.config.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.config.num_nodes})")
        return self.forecast(
            window, horizon=horizon, precision=precision, deadline_ms=deadline_ms
        )[:, node]

    # ------------------------------------------------------------------
    # Streaming operation
    # ------------------------------------------------------------------
    def ingest(self, observation: np.ndarray) -> None:
        """Push one raw observation step ``(N, F)`` into the rolling buffer."""
        self.buffer.ingest(observation)

    def forecast_latest(
        self, horizon: Optional[int] = None, deadline_ms: Optional[float] = None
    ) -> np.ndarray:
        """Forecast from the most recent buffered window (streaming path).

        Cache lookups are keyed on the buffer's O(1) version token instead
        of a content hash of the window, so a repeated poll between stream
        advances costs one counter read plus one dictionary lookup — no
        window materialisation, no SHA-1 over ``T * N * F`` floats.
        Misses are admitted on the ``interactive`` lane.  Degraded modes:
        an expired budget or broken replica serves a marked-stale cache
        hit when ``ResilienceConfig(serve_stale=True)`` and an entry exists
        (any model version's entry for this very buffer state qualifies).
        """
        horizon = self._check_horizon(horizon)
        self._count_requests()
        deadline = self._entry_deadline(deadline_ms)
        if self.cache is not None:
            cached = self.cache.get((self._key_version(), self.buffer.cache_token(), horizon))
            if cached is not None:
                return cached
        self._admit("interactive", 1)
        # Copy the window atomically with its token AND the serving
        # generation (all taken under the buffer's mutation lock): a racing
        # ingest or hot swap — which publishes inside buffer.rescale, under
        # this very lock — lands entirely before or after, so the cache
        # entry always describes exactly the data that was forecast.
        window, token, gen = self.buffer.snapshot(also=lambda: self._gen)
        key = (self._key_version(gen=gen), token, horizon) if self.cache is not None else None
        return self._serve_one(window, key, horizon, gen, deadline, lane="interactive")

    def save_buffer_state(self, path: Union[str, Path]) -> Path:
        """Persist the rolling buffer next to a checkpoint (warm start).

        A restarted service built with ``from_checkpoint(..., buffer_state=...)``
        (or :meth:`restore_buffer_state`) resumes streaming forecasts
        immediately instead of waiting out a ``T``-step cold window.
        """
        return self.buffer.save(path)

    def restore_buffer_state(self, path: Union[str, Path]) -> None:
        """Reload a :meth:`save_buffer_state` snapshot into the live buffer."""
        self.buffer.restore(path)

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def save_artifacts(self, path=None) -> List:
        """Persist the workers' compiled plans as durable artifacts.

        ``path`` may be a directory or an
        :class:`~repro.runtime.ArtifactStore`; omitted, the store shared by
        the workers (``artifact_dir=``) is used.  A service restarted
        against the same store binds every worker's plans from disk — zero
        retraces on the first request.  Process replicas share one
        parent-side provider, so each of its plans is written (and
        returned) once.  Raises :class:`ValueError` when there is no store
        to write to.
        """
        store = path if path is not None else self.artifact_store
        if store is None:
            raise ValueError(
                "no artifact store: pass save_artifacts(path) or construct "
                "the service with artifact_dir="
            )
        written: List = []
        for plans in self._gen.plans:
            written.extend(plans.save_artifacts(store))
        return written

    def warm_up(self, batch_sizes=None) -> List:
        """Build every worker's batch-size plan ladder before traffic arrives.

        A freshly started service pays its trace/fuse/schedule work — or,
        pointed at a saved artifact store (``artifact_dir=``), a few disk
        binds — here instead of on the first unlucky requests.  The plans
        of each batch size (by default a doubling ladder up to
        ``max_batch_size``) are prepared on each distinct plan engine:
        process replicas share one parent-side provider, so they are warmed
        once, as the pieces the tier dispatches (never wider than
        ``bulk_chunk_rows``).  Returns the
        :class:`~repro.runtime.PlanStats` of each size's largest plan.
        """
        return self._warm(self._gen, self._warm_up_sizes(batch_sizes))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain the queues, stop the flusher and the workers; idempotent.

        After ``close()`` no handle is left pending (a failing final drain
        is carried by the affected handles, as always), and synchronous
        queries and late ``result()`` calls keep working through lazy
        flushes on the calling thread — only the timed drains, the row
        lanes and the worker processes stop.
        """
        if self._closed:
            return
        self._closed = True
        if self.flusher is not None:
            self.flusher.close(drain=True)
        else:
            try:
                flush_all(self._gen.batchers)
            except BaseException:
                pass  # the affected handles carry the error
        self._gen.close()
        # The tier closes last: the drains above may still dispatch to it.
        if self._tier is not None:
            self._tier.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Health and stats
    # ------------------------------------------------------------------
    def _shard_stats(self) -> Tuple[BatcherStats, ...]:
        """Lifetime batcher counters per worker (retired generations folded in)."""
        return tuple(
            _merge_batcher_stats(self._retired_shard_stats[index] + [batcher.stats])
            for index, batcher in enumerate(self._gen.batchers)
        )

    def health(self) -> ServiceHealth:
        """Resilience snapshot: breaker states, worker liveness, lane depths.

        ``healthy`` is the operator's one-bit summary: no breaker is open
        and no spawned worker is known dead.  The per-shard rows carry the
        detail (heartbeat ages, respawn/hang counters, breaker snapshots).
        """
        tier_rows: Dict[int, Dict[str, object]] = {}
        if self._tier is not None:
            tier_rows = {int(row["shard"]): row for row in self._tier.worker_health()}
        shards: List[ShardHealth] = []
        for shard, breaker in enumerate(self._breakers):
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
        healthy = not any(
            (shard.breaker is not None and shard.breaker.state == "open")
            or shard.worker_alive is False
            for shard in shards
        )
        retries = self._retired_retries + sum(
            batcher.forward_fn.retries for batcher in self._gen.batchers
        )
        expired = sum(stats.expired_requests for stats in self._shard_stats())
        with self._requests_lock:
            expired += self._expired_direct
            stale_served = self._stale_served
        return ServiceHealth(
            healthy=healthy,
            shards=tuple(shards),
            lane_depths={lane: self._lane_depth(lane) for lane in self._gates},
            stale_served=stale_served,
            expired_requests=expired,
            retries=retries,
        )

    def stats(self) -> ServiceStats:
        """Operational counters: requests, cache hit rate, batch amortisation,
        per-worker batchers, lanes and (on the process tier) the workers."""
        cache_stats = (
            self.cache.stats()
            if self.cache is not None
            else CacheStats(hits=0, misses=0, evictions=0, size=0, max_entries=0)
        )
        blas_threads = (
            self._tier.worker_blas_threads() if self._tier is not None else (blas.threads(),)
        )
        return ServiceStats(
            model_version=self.model_version,
            requests=self._requests,
            cache=cache_stats,
            shards=self._shard_stats(),
            executor=self.executor,
            num_shards=self.num_shards,
            flusher=self.flusher.stats() if self.flusher is not None else None,
            precision=self.precision,
            lanes=tuple(gate.stats() for gate in self._gates.values()),
            process_tier=self._tier.stats() if self._tier is not None else None,
            quality=self.buffer.quality_stats(),
            swaps=self._swaps,
            cores=blas.cores(),
            blas_threads=blas_threads,
            plan_lanes=self._lanes,
        )


#: Alias read by ``perfbench/tracing.py``, which wraps ``ingest``,
#: ``forecast_many`` and ``swap_checkpoint`` through this name.
ForecastFrontend = ForecastService
