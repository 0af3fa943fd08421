"""Resilience primitives for the serving stack.

This module is the one place the serving tiers reach for failure policy:

- :class:`Deadline` — a per-request time budget captured at entry and
  propagated through the micro-batcher queue, shard dispatch, and the
  process-tier shm round-trip.  Expired requests fail fast with a typed
  :class:`DeadlineExceeded` instead of occupying queue slots.
- :class:`RetryPolicy` — bounded retries with jittered exponential backoff
  for *retryable* failures only (worker death mid-flight, injected
  transients).  Deterministic errors (bad shapes, unknown horizons) are
  never retried.
- :class:`CircuitBreaker` — per-shard consecutive-failure breaker with an
  open → half-open probe cycle.  The sharded service reroutes around open
  shards.
- :class:`WatchdogConfig` — hung-worker detection thresholds and the capped
  exponential respawn backoff / storm window used by the process tier.
- :class:`ResilientForward` — the wrapper installed around each shard's
  forward callable that applies breaker + retry policy at the single point
  every tier's compute funnels through.

All knobs bundle into :class:`ResilienceConfig`, accepted by every service
constructor.  Defaults are conservative: retries only fire for errors that
declare themselves retryable, breakers stay disabled unless configured, and
the watchdog's hang timeout is far above any healthy batch latency.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .faults import fault_point

__all__ = [
    "ResilienceError",
    "TransientError",
    "DeadlineExceeded",
    "WorkerCrashed",
    "CircuitOpen",
    "Deadline",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerSnapshot",
    "WatchdogConfig",
    "ResilienceConfig",
    "ResilientForward",
    "ShardHealth",
    "ServiceHealth",
    "is_retryable",
]


class ResilienceError(RuntimeError):
    """Base class for typed failures raised by the resilience layer."""


class TransientError(ResilienceError):
    """A failure that is expected to clear on retry (marker base class)."""

    retryable = True


class DeadlineExceeded(ResilienceError):
    """The request's time budget expired before (or during) compute."""

    def __init__(self, budget_ms: float, elapsed_ms: float, stage: str) -> None:
        super().__init__(
            f"deadline of {budget_ms:.1f} ms exceeded after {elapsed_ms:.1f} ms "
            f"at stage {stage!r}"
        )
        self.budget_ms = budget_ms
        self.elapsed_ms = elapsed_ms
        self.stage = stage


class WorkerCrashed(TransientError):
    """A process-tier worker died or wedged mid-batch.

    The message keeps the historical "died mid-batch" phrasing that
    pre-resilience tests and operator runbooks match on.
    """

    def __init__(self, shard: int, detail: str, hung: bool = False) -> None:
        kind = "wedged (hang watchdog)" if hung else "died"
        super().__init__(f"shard {shard} worker process {kind} mid-batch ({detail})")
        self.shard = shard
        self.detail = detail
        self.hung = hung


class CircuitOpen(ResilienceError):
    """A shard's circuit breaker is open; calls are rejected without compute."""

    def __init__(self, shard: int, failures: int, retry_after: float) -> None:
        super().__init__(
            f"circuit open for shard {shard} after {failures} consecutive "
            f"failures; retry in {retry_after:.2f}s"
        )
        self.shard = shard
        self.failures = failures
        self.retry_after = retry_after


def is_retryable(error: BaseException) -> bool:
    """True when ``error`` declares itself safe to retry."""
    return bool(getattr(error, "retryable", False))


class Deadline:
    """A monotonic-clock time budget captured at request entry."""

    __slots__ = ("budget_ms", "start")

    def __init__(self, budget_ms: float, start: Optional[float] = None) -> None:
        if budget_ms <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget_ms = float(budget_ms)
        self.start = time.monotonic() if start is None else start

    @classmethod
    def after(cls, budget_ms: Optional[float]) -> Optional["Deadline"]:
        """Build a deadline, passing ``None`` through (no budget)."""
        return None if budget_ms is None else cls(budget_ms)

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.start) * 1000.0

    def remaining_ms(self) -> float:
        return self.budget_ms - self.elapsed_ms()

    @property
    def expired(self) -> bool:
        return self.remaining_ms() <= 0.0

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        elapsed = self.elapsed_ms()
        if elapsed >= self.budget_ms:
            raise DeadlineExceeded(self.budget_ms, elapsed, stage)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline(budget_ms={self.budget_ms}, remaining_ms={self.remaining_ms():.1f})"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with jittered exponential backoff.

    ``max_attempts`` counts total attempts (first try included), so the loop
    is always bounded; backoff sleeps ``base_delay_ms * multiplier**(n-1)``
    capped at ``max_delay_ms``, scaled by a seeded jitter in
    ``[1 - jitter, 1 + jitter]`` so retry storms decorrelate but tests
    replay deterministically from the seed.
    """

    max_attempts: int = 2
    base_delay_ms: float = 5.0
    multiplier: float = 2.0
    max_delay_ms: float = 200.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_ms(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        raw = min(self.base_delay_ms * (self.multiplier ** (attempt - 1)), self.max_delay_ms)
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(raw, 0.0)

    def call(
        self,
        fn: Callable[[], Any],
        *,
        deadline: Optional[Deadline] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> Any:
        """Invoke ``fn`` with bounded, backoff-paced retries.

        Retries only errors for which :func:`is_retryable` is true, and only
        while the deadline (if any) has budget left.  The last error is
        re-raised unchanged when attempts run out.
        """
        rng = random.Random(self.seed)
        last: Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            if deadline is not None:
                deadline.check("retry")
            try:
                return fn()
            except Exception as error:  # noqa: BLE001 - policy decides re-raise
                last = error
                if attempt >= self.max_attempts or not is_retryable(error):
                    raise
                delay_ms = self.backoff_ms(attempt, rng)
                if deadline is not None and deadline.remaining_ms() <= delay_ms:
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                time.sleep(delay_ms / 1000.0)
        raise last  # pragma: no cover - loop always returns or raises


@dataclass(frozen=True)
class BreakerSnapshot:
    shard: int
    state: str
    consecutive_failures: int
    opened_at: Optional[float]
    retry_after: float


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open probe.

    States: ``closed`` (normal), ``open`` (rejecting; entered after
    ``failure_threshold`` consecutive failures), ``half_open`` (one probe
    call admitted after ``reset_timeout_s``; success closes the breaker,
    failure re-opens it).
    """

    def __init__(
        self,
        shard: int = 0,
        *,
        failure_threshold: int = 3,
        reset_timeout_s: float = 5.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.shard = shard
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._breaker_lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        with self._breaker_lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        if self._state == "open" and self._opened_at is not None:
            if time.monotonic() - self._opened_at >= self.reset_timeout_s:
                return "half_open"
        return self._state

    def allow(self) -> bool:
        """True when a call may proceed (and claims the half-open probe)."""
        with self._breaker_lock:
            state = self._effective_state()
            if state == "closed":
                return True
            if state == "half_open" and not self._probing:
                self._probing = True
                return True
            return False

    def check(self) -> None:
        """Raise :class:`CircuitOpen` unless a call may proceed."""
        if not self.allow():
            with self._breaker_lock:
                retry_after = 0.0
                if self._opened_at is not None:
                    retry_after = max(
                        0.0,
                        self.reset_timeout_s - (time.monotonic() - self._opened_at),
                    )
                failures = self._failures
            raise CircuitOpen(self.shard, failures, retry_after)

    def record_success(self) -> None:
        with self._breaker_lock:
            self._state = "closed"
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._breaker_lock:
            self._failures += 1
            self._probing = False
            if self._state == "open" or self._failures >= self.failure_threshold:
                self._state = "open"
                self._opened_at = time.monotonic()

    def snapshot(self) -> BreakerSnapshot:
        with self._breaker_lock:
            retry_after = 0.0
            if self._opened_at is not None and self._effective_state() == "open":
                retry_after = max(
                    0.0,
                    self.reset_timeout_s - (time.monotonic() - self._opened_at),
                )
            return BreakerSnapshot(
                shard=self.shard,
                state=self._effective_state(),
                consecutive_failures=self._failures,
                opened_at=self._opened_at,
                retry_after=retry_after,
            )


@dataclass(frozen=True)
class WatchdogConfig:
    """Hung-worker detection and respawn pacing for the process tier.

    ``hang_timeout_s`` must exceed the worst-case healthy single-chunk
    compute time; a dispatch that outlives it *and* whose worker heartbeat
    has gone stale is declared wedged and escalated
    (join → terminate → kill → respawn).  A worker beacons from its serve
    loop, at least every 50 ms while idle.  Respawns back off exponentially
    (``respawn_backoff_base_s`` doubling up to ``respawn_backoff_cap_s``)
    and more than ``storm_threshold`` respawns inside ``storm_window_s``
    pins the backoff at the cap (respawn-storm protection).
    """

    hang_timeout_s: float = 30.0
    respawn_backoff_base_s: float = 0.05
    respawn_backoff_cap_s: float = 2.0
    storm_window_s: float = 30.0
    storm_threshold: int = 5


@dataclass(frozen=True)
class ResilienceConfig:
    """Bundle of resilience knobs accepted by every service constructor."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failure_threshold: Optional[int] = None
    breaker_reset_timeout_s: float = 5.0
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)
    default_deadline_ms: Optional[float] = None
    serve_stale: bool = False

    @property
    def breakers_enabled(self) -> bool:
        return self.breaker_failure_threshold is not None

    def make_breaker(self, shard: int) -> Optional[CircuitBreaker]:
        if not self.breakers_enabled:
            return None
        return CircuitBreaker(
            shard,
            failure_threshold=int(self.breaker_failure_threshold),
            reset_timeout_s=self.breaker_reset_timeout_s,
        )


def _raise_at_settle(error: BaseException) -> Callable[[], Any]:
    """A settle callable for a forward that failed to start."""

    def settle() -> Any:
        raise error

    return settle


class ResilientForward:
    """Breaker + bounded-retry wrapper around a shard's forward callable.

    Every tier's compute funnels through the forward handed to its
    MicroBatcher, so wrapping here gives one enforcement point: the breaker
    is consulted before compute, retryable failures (worker death, injected
    transients) are re-dispatched under the retry policy's backoff, and
    outcomes feed the breaker.

    :meth:`dispatch` starts the first attempt and returns the callable that
    settles it; a call is ``dispatch(...)()``.  The breaker check and the
    ``forward.call`` fault point run at dispatch.  The dispatched attempt
    is the retry policy's first, later attempts re-run synchronously at
    settle, and the breaker records the outcome at settle.  A call's
    ``deadline=`` keyword (the interactive lane's) also bounds the retry
    loop: no retry starts, or sleeps, past the budget.
    """

    def __init__(
        self,
        forward: Callable[..., Any],
        *,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self._forward = forward
        self._retry = retry
        self._breaker = breaker
        self._retry_lock = threading.Lock()
        self._retries = 0

    @property
    def wrapped(self) -> Callable[..., Any]:
        return self._forward

    @property
    def breaker(self) -> Optional[CircuitBreaker]:
        return self._breaker

    @property
    def retries(self) -> int:
        with self._retry_lock:
            return self._retries

    def _count_retry(self, attempt: int, error: BaseException) -> None:
        with self._retry_lock:
            self._retries += 1

    def _start(self, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Callable[[], Any]:
        """Start one attempt; returns the callable that settles it."""
        try:
            # Parent-side injection site: lets the fault harness exercise
            # the retry/breaker machinery without a process tier underneath.
            fault_point("forward.call")
            dispatch = getattr(self._forward, "dispatch", None)
            if dispatch is not None:
                return dispatch(*args, **kwargs)
            result = self._forward(*args, **kwargs)
        except Exception as error:
            return _raise_at_settle(error)
        return lambda: result

    def dispatch(self, *args: Any, **kwargs: Any) -> Callable[[], Any]:
        """Start a forward; the returned callable settles it (retries included)."""
        breaker = self._breaker
        if breaker is not None:
            breaker.check()
        started = [self._start(args, kwargs)]

        def attempt() -> Any:
            settle = started.pop() if started else self._start(args, kwargs)
            return settle()

        def settle() -> Any:
            try:
                if self._retry is None:
                    result = attempt()
                else:
                    result = self._retry.call(
                        attempt, deadline=kwargs.get("deadline"), on_retry=self._count_retry
                    )
            except Exception as error:
                # A spent client budget says nothing about shard health —
                # only genuine compute failures feed the breaker.
                if breaker is not None and not isinstance(error, DeadlineExceeded):
                    breaker.record_failure()
                raise
            if breaker is not None:
                breaker.record_success()
            return result

        return settle

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.dispatch(*args, **kwargs)()


@dataclass(frozen=True)
class ShardHealth:
    shard: int
    breaker: Optional[BreakerSnapshot]
    worker_pid: Optional[int]
    worker_alive: Optional[bool]
    heartbeat_age_s: Optional[float]
    respawns: int
    hung_detections: int


@dataclass(frozen=True)
class ServiceHealth:
    """Snapshot returned by ``service.health()``."""

    healthy: bool
    shards: Tuple[ShardHealth, ...]
    lane_depths: Dict[str, int]
    stale_served: int
    expired_requests: int
    retries: int

    @property
    def open_breakers(self) -> List[int]:
        return [
            s.shard
            for s in self.shards
            if s.breaker is not None and s.breaker.state == "open"
        ]
