"""Forecast-serving subsystem: batched, cached, streaming, sharded inference.

The training-side layers of the library reproduce the paper; this package
turns a trained model into something that can answer production traffic —
the ROADMAP's "serve heavy traffic" north star:

* :class:`ForecastService` — the one serving front end: loads a
  self-describing checkpoint and answers raw-scale forecast queries
  through the compiled graph-free runtime (:mod:`repro.runtime`) by
  default, with ``runtime="autograd"`` / ``REPRO_RUNTIME=autograd`` as the
  escape hatch.  ``num_shards=K`` full-model replicas run on the
  ``"inline"`` (one worker, caller's thread), ``"threads"`` or
  ``"processes"`` executor, bit-identically, with per-lane
  :class:`ServiceOverloaded` admission control and one
  :class:`ServiceStats` surface; :class:`ShardedForecastService` is the
  same class with a two-replica default;
* :class:`ProcessShardExecutor` — the ``executor="processes"`` backend:
  each replica's compiled plans replayed by a worker *process* over
  preallocated shared memory (escaping the interpreter lock), with
  priority lanes (see :mod:`repro.serving.process_tier`);
* :class:`MicroBatcher` — coalesces concurrent single-window requests into
  one ``(B, T, N, F)`` forward pass;
* :class:`BackgroundFlusher` — drains micro-batchers on a time-based
  linger so asynchronous trickle traffic never waits for a size threshold;
* :class:`RollingWindowBuffer` — ingests streaming detector readings,
  materialises normalised model windows incrementally, versions its content
  for O(1) cache keys, and persists/restores its state for warm-started
  restarts;
* :class:`SensorHealthMonitor` — streaming quality control in front of the
  rolling buffer: a per-sensor health state machine (stuck-at, dropout,
  spike, out-of-range detection) with pluggable imputation, so broken
  detectors degrade forecasts predictably instead of poisoning the ring
  (see :mod:`repro.serving.quality`);

The service also supports **zero-downtime hot checkpoint swaps**
(:meth:`ForecastService.swap_checkpoint`): a new generation of weights,
scaler and warmed engines is built off to the side and published
atomically, with in-flight requests completing on the old version.
* :class:`ForecastCache` — LRU cache keyed by
  ``(model version, window hash or buffer token, horizon)`` with hit/miss
  accounting.

A **resilience layer** (:mod:`repro.serving.resilience`) runs through all
three executors: per-request deadlines (``deadline_ms=`` on every query,
:class:`DeadlineExceeded` on expiry), bounded jittered-backoff retries of
retryable failures, per-shard circuit breakers (replica reroute),
optional marked-stale degraded
serving (:class:`StaleForecast`), a shared-memory heartbeat watchdog for
hung worker processes, and ``service.health()``.  It is proven by a
deterministic fault-injection harness (:mod:`repro.serving.faults`):
seeded :class:`FaultPlan` rules drive named ``fault_point`` sites
(kill / hang / delay / raise / corrupt) bit-for-bit reproducibly.

See ``examples/serve_forecasts.py`` for an end-to-end walkthrough and
``benchmarks/bench_serving_throughput.py`` for the micro-batching,
runtime and shard-sweep measurements.
"""

from .batching import (
    AsyncForecast,
    BackgroundFlusher,
    BatcherStats,
    FlusherStats,
    MicroBatcher,
    PendingForecast,
)
from .buffer import RollingWindowBuffer
from .cache import CacheStats, ForecastCache, StaleForecast, hash_window
from .faults import (
    FAULT_ACTIONS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_fault_plan,
    clear_fault_plan,
    fault_point,
    fault_report,
    inject,
    install_fault_plan,
)
from .process_tier import (
    EXECUTOR_ENV_VAR,
    LANES,
    SERVING_EXECUTORS,
    START_METHOD_ENV_VAR,
    ProcessShardExecutor,
    ProcessTierStats,
    resolve_executor,
    resolve_start_method,
)
from .quality import (
    HEALTH_STATES,
    IMPUTATION_STRATEGIES,
    ISSUE_KINDS,
    QualityConfig,
    QualityStats,
    SensorHealthMonitor,
    StepReport,
)
from .resilience import (
    BreakerSnapshot,
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    ResilienceConfig,
    ResilienceError,
    ResilientForward,
    RetryPolicy,
    ServiceHealth,
    ShardHealth,
    TransientError,
    WatchdogConfig,
    WorkerCrashed,
    is_retryable,
)
from .service import (
    ForecastFrontend,
    ForecastService,
    LaneStats,
    ServiceOverloaded,
    ServiceStats,
    SwapReport,
)
from .sharding import ShardedForecastService

__all__ = [
    "ForecastFrontend",
    "ForecastService",
    "ServiceStats",
    "SwapReport",
    "QualityConfig",
    "QualityStats",
    "SensorHealthMonitor",
    "StepReport",
    "HEALTH_STATES",
    "ISSUE_KINDS",
    "IMPUTATION_STRATEGIES",
    "ShardedForecastService",
    "SERVING_EXECUTORS",
    "EXECUTOR_ENV_VAR",
    "START_METHOD_ENV_VAR",
    "LANES",
    "LaneStats",
    "ProcessShardExecutor",
    "ProcessTierStats",
    "ServiceOverloaded",
    "resolve_executor",
    "resolve_start_method",
    "MicroBatcher",
    "PendingForecast",
    "AsyncForecast",
    "BackgroundFlusher",
    "BatcherStats",
    "FlusherStats",
    "RollingWindowBuffer",
    "ForecastCache",
    "CacheStats",
    "StaleForecast",
    "hash_window",
    # Resilience layer
    "ResilienceConfig",
    "ResilienceError",
    "ResilientForward",
    "RetryPolicy",
    "Deadline",
    "DeadlineExceeded",
    "TransientError",
    "WorkerCrashed",
    "CircuitBreaker",
    "CircuitOpen",
    "BreakerSnapshot",
    "ServiceHealth",
    "ShardHealth",
    "WatchdogConfig",
    "is_retryable",
    # Fault-injection harness
    "FAULT_ACTIONS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "fault_point",
    "inject",
    "install_fault_plan",
    "clear_fault_plan",
    "active_fault_plan",
    "fault_report",
]
