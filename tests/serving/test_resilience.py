"""Resilience layer: deadlines, retries, circuit breakers, degraded modes.

The contract under test: every query accepts a ``deadline_ms``
budget captured at entry and enforced at each queue boundary (expired
requests fail fast with a typed :class:`DeadlineExceeded`), retryable
failures are re-dispatched under a bounded jittered-backoff
:class:`RetryPolicy`, per-shard :class:`CircuitBreaker`\\ s stop hammering a
failing shard (the replica fleet reroutes around it), stale-serve answers from an
older generation's cache entry marked :class:`StaleForecast`, and
``service.health()`` reports it all.  The deterministic fault-injection
harness behind these scenarios is proven separately in ``test_faults.py``.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.core import DyHSL
from repro.serving import (
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    ForecastService,
    InjectedFault,
    ResilienceConfig,
    ResilienceError,
    ResilientForward,
    RetryPolicy,
    ServiceHealth,
    ServiceOverloaded,
    ShardedForecastService,
    StaleForecast,
    TransientError,
    inject,
    is_retryable,
)
from repro.tensor import seed as seed_everything
from repro.training import save_model_checkpoint


def _raw_window(forecasting_data, index=0):
    return forecasting_data.dataset.signal[index : index + 12]


def _raw_windows(forecasting_data, count, start=0):
    signal = forecasting_data.dataset.signal
    return np.stack([signal[i : i + 12] for i in range(start, start + count)], axis=0)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-5.0)

    def test_after_passes_none_through(self):
        assert Deadline.after(None) is None
        assert isinstance(Deadline.after(10.0), Deadline)

    def test_check_raises_typed_with_stage(self):
        deadline = Deadline(0.01)
        time.sleep(0.002)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("predict")
        error = excinfo.value
        assert error.stage == "predict"
        assert error.budget_ms == pytest.approx(0.01)
        assert error.elapsed_ms >= error.budget_ms
        assert isinstance(error, ResilienceError)
        # A spent budget never clears on retry: retrying would only burn
        # more of a budget that is already gone.
        assert not is_retryable(error)

    def test_generous_budget_passes(self):
        deadline = Deadline(60_000.0)
        deadline.check("predict")  # must not raise
        assert not deadline.expired
        assert 0.0 < deadline.remaining_ms() <= 60_000.0


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_bounded_attempts_for_retryable_failures(self):
        calls = {"n": 0}
        retried = []

        def always_fails():
            calls["n"] += 1
            raise TransientError("flaky")

        policy = RetryPolicy(max_attempts=3, base_delay_ms=0.0)
        with pytest.raises(TransientError):
            policy.call(always_fails, on_retry=lambda a, e: retried.append(a))
        assert calls["n"] == 3
        assert retried == [1, 2]

    def test_non_retryable_fails_fast(self):
        calls = {"n": 0}

        def deterministic_bug():
            calls["n"] += 1
            raise ValueError("bad shape")

        policy = RetryPolicy(max_attempts=5, base_delay_ms=0.0)
        with pytest.raises(ValueError):
            policy.call(deterministic_bug)
        assert calls["n"] == 1

    def test_success_after_transient(self):
        calls = {"n": 0}

        def flaky_once():
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientError("first attempt loses")
            return "ok"

        policy = RetryPolicy(max_attempts=2, base_delay_ms=0.0)
        assert policy.call(flaky_once) == "ok"
        assert calls["n"] == 2

    def test_deadline_bounds_the_backoff(self):
        """No retry whose backoff would outlive the budget is attempted."""
        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise TransientError("flaky")

        policy = RetryPolicy(max_attempts=5, base_delay_ms=500.0, jitter=0.0)
        with pytest.raises(TransientError):
            policy.call(always_fails, deadline=Deadline(5.0))
        assert calls["n"] == 1

    def test_backoff_is_seeded_and_capped(self):
        policy = RetryPolicy(
            base_delay_ms=10.0, multiplier=2.0, max_delay_ms=25.0, jitter=0.25, seed=42
        )
        first = policy.backoff_ms(1, random.Random(42))
        again = policy.backoff_ms(1, random.Random(42))
        assert first == again  # replayable from the seed alone
        flat = RetryPolicy(base_delay_ms=10.0, multiplier=2.0, max_delay_ms=25.0, jitter=0.0)
        rng = random.Random(0)
        assert flat.backoff_ms(1, rng) == 10.0
        assert flat.backoff_ms(2, rng) == 20.0
        assert flat.backoff_ms(3, rng) == 25.0  # capped, not 40


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(3, failure_threshold=2, reset_timeout_s=60.0)
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        with pytest.raises(CircuitOpen) as excinfo:
            breaker.check()
        error = excinfo.value
        assert error.shard == 3
        assert error.failures == 2
        assert 0.0 < error.retry_after <= 60.0

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two *consecutive* failures

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=0.05)
        breaker.record_failure()
        assert not breaker.allow()
        time.sleep(0.06)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single probe slot
        assert not breaker.allow()  # concurrent callers keep waiting
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=0.05)
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_snapshot_fields(self):
        breaker = CircuitBreaker(7, failure_threshold=1, reset_timeout_s=60.0)
        snap = breaker.snapshot()
        assert (snap.shard, snap.state, snap.consecutive_failures) == (7, "closed", 0)
        assert snap.opened_at is None and snap.retry_after == 0.0
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap.state == "open"
        assert snap.consecutive_failures == 1
        assert snap.opened_at is not None
        assert 0.0 < snap.retry_after <= 60.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestResilientForward:
    def test_retries_transients_and_counts(self):
        calls = {"n": 0}

        def flaky_once(x):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientError("flaky")
            return x + 1

        wrapped = ResilientForward(
            flaky_once, retry=RetryPolicy(max_attempts=2, base_delay_ms=0.0)
        )
        assert wrapped(41) == 42
        assert calls["n"] == 2
        assert wrapped.retries == 1
        assert wrapped.wrapped is flaky_once

    def test_outcomes_feed_the_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=60.0)

        def fails(_):
            raise TransientError("down")

        wrapped = ResilientForward(fails, breaker=breaker)
        with pytest.raises(TransientError):
            wrapped(0)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpen):
            wrapped(0)  # rejected before compute

    def test_deadline_exceeded_spares_the_breaker(self):
        """A spent client budget says nothing about shard health."""
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=60.0)

        def budget_spent(_):
            raise DeadlineExceeded(1.0, 2.0, "predict")

        wrapped = ResilientForward(budget_spent, breaker=breaker)
        with pytest.raises(DeadlineExceeded):
            wrapped(0)
        assert breaker.state == "closed"

    def test_attribute_access_delegates(self):
        class Engine:
            precision = "float64"

            def __call__(self, x):
                return x

        wrapped = ResilientForward(Engine())
        assert wrapped.precision == "float64"


# ----------------------------------------------------------------------
# Deadlines through the serving tiers (thread executors; the process
# tier's deadline plumbing is exercised in test_faults.py's chaos soak).
# ----------------------------------------------------------------------
class TestServiceDeadlines:
    def test_generous_deadline_changes_nothing(self, tiny_model, forecasting_data):
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        )
        window = _raw_window(forecasting_data)
        baseline = service.forecast(window)
        np.testing.assert_array_equal(
            service.forecast(window, deadline_ms=60_000.0), baseline
        )

    def test_expired_forecast_fails_typed(self, tiny_model, forecasting_data):
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            service.forecast(_raw_window(forecasting_data), deadline_ms=1e-4)
        assert excinfo.value.stage == "predict"
        # Direct-path expiry (no batch queue involved) still lands in the
        # health snapshot — the batcher's sweep only counts its own.
        assert service.health().expired_requests == 1

    def test_expired_batch_swept_from_the_queue(self, tiny_model, forecasting_data):
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            service.forecast_many(_raw_windows(forecasting_data, 3), deadline_ms=1e-4)
        assert excinfo.value.stage == "batch-queue"
        assert service.stats().batcher.expired_requests >= 1
        assert service.health().expired_requests >= 1

    def test_expired_submit_fails_the_handle_not_the_submitter(
        self, tiny_model, forecasting_data
    ):
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        )
        handle = service.submit(_raw_window(forecasting_data), deadline_ms=1e-4)
        with pytest.raises(DeadlineExceeded):
            handle.result()

    def test_default_deadline_from_config_and_override(
        self, tiny_model, forecasting_data
    ):
        service = ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            cache_entries=0,
            resilience=ResilienceConfig(default_deadline_ms=1e-4),
        )
        window = _raw_window(forecasting_data)
        with pytest.raises(DeadlineExceeded):
            service.forecast(window)
        # An explicit per-request budget beats the service-wide default.
        assert service.forecast(window, deadline_ms=60_000.0).shape == (
            12,
            forecasting_data.num_nodes,
        )

    def test_sharded_deadline_is_total_failure_not_partial(
        self, tiny_model, forecasting_data
    ):
        """Every replica missing the budget fails the query as a whole with
        a typed DeadlineExceeded."""
        service = ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            executor="threads",
            cache_entries=0,
        )
        try:
            with pytest.raises(DeadlineExceeded):
                service.forecast_many(_raw_windows(forecasting_data, 2), deadline_ms=1e-4)
        finally:
            service.close()

    def test_sharded_forecast_latest_deadline(self, tiny_model, forecasting_data):
        service = ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            executor="threads",
            cache_entries=0,
        )
        try:
            for step in forecasting_data.dataset.signal[:12]:
                service.ingest(step)
            with pytest.raises(DeadlineExceeded):
                service.forecast_latest(deadline_ms=1e-4)
            assert service.forecast_latest(deadline_ms=60_000.0).shape == (
                12,
                forecasting_data.num_nodes,
            )
        finally:
            service.close()


class TestOverloadContract:
    def test_retry_after_hint_defaults_scale_with_overflow(self):
        shallow = ServiceOverloaded("bulk", 10, 10)
        deep = ServiceOverloaded("bulk", 1000, 10)
        assert 0.0 < shallow.retry_after_hint <= deep.retry_after_hint <= 5.0
        assert shallow.depths == {"bulk": 10}

    def test_explicit_hint_and_depths_preserved(self):
        error = ServiceOverloaded(
            "interactive", 7, 5, retry_after_hint=0.25, depths={"bulk": 3, "interactive": 7}
        )
        assert error.retry_after_hint == 0.25
        assert error.depths == {"bulk": 3, "interactive": 7}
        assert (error.lane, error.pending, error.limit) == ("interactive", 7, 5)

    def test_sharded_reject_snapshots_every_lane(self, tiny_model, forecasting_data):
        service = ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            mode="replicas",
            executor="threads",
            cache_entries=0,
            bulk_queue_depth=0,
        )
        try:
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.forecast_many(_raw_windows(forecasting_data, 2))
            error = excinfo.value
            assert error.lane == "bulk"
            assert error.retry_after_hint > 0.0
            assert set(error.depths) == {"bulk", "interactive"}
        finally:
            service.close()


# ----------------------------------------------------------------------
# Circuit breakers in the sharded tiers.
# ----------------------------------------------------------------------
def _breaker_config(**kwargs):
    kwargs.setdefault("retry", RetryPolicy(max_attempts=1))
    kwargs.setdefault("breaker_failure_threshold", 1)
    kwargs.setdefault("breaker_reset_timeout_s", 60.0)
    return ResilienceConfig(**kwargs)


class TestReplicaReroute:
    def test_open_breaker_reroutes_to_the_healthy_replica(
        self, tiny_model, forecasting_data
    ):
        baseline = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        )
        windows = _raw_windows(forecasting_data, 3)
        reference = baseline.forecast_many(windows)
        service = ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            mode="replicas",
            executor="threads",
            cache_entries=0,
            resilience=_breaker_config(),
        )
        try:
            service._breakers[0].record_failure()  # shard 0 is broken
            rerouted = service.forecast_many(windows)
            np.testing.assert_array_equal(rerouted, reference)
            assert service.health().open_breakers == [0]
        finally:
            service.close()

    def test_half_open_replica_recovers_through_its_probe(
        self, tiny_model, forecasting_data
    ):
        """Routing only reads breaker state: the half-open probe is left for
        the replica's forward to claim, so one success closes the breaker."""
        windows = _raw_windows(forecasting_data, 2)
        reference = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        ).forecast_many(windows)
        with ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            executor="threads",
            cache_entries=0,
            resilience=_breaker_config(breaker_reset_timeout_s=0.05),
        ) as service:
            service._breakers[0].record_failure()
            time.sleep(0.1)  # shard 0 is half-open now
            assert service._breakers[0].state == "half_open"
            np.testing.assert_array_equal(service.forecast_many(windows), reference)
            assert service._breakers[0].state == "closed"
            assert service.health().healthy

    def test_every_replica_open_raises_circuit_open(self, tiny_model, forecasting_data):
        service = ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            mode="replicas",
            executor="threads",
            cache_entries=0,
            resilience=_breaker_config(),
        )
        try:
            for breaker in service._breakers:
                breaker.record_failure()
            with pytest.raises(CircuitOpen):
                service.forecast_many(_raw_windows(forecasting_data, 2))
            health = service.health()
            assert not health.healthy
            assert health.open_breakers == [0, 1]
        finally:
            service.close()


# ----------------------------------------------------------------------
# Stale-serve degraded mode.
# ----------------------------------------------------------------------
@pytest.fixture()
def other_model(tiny_config, forecasting_data):
    seed_everything(11)
    return DyHSL(tiny_config, forecasting_data.adjacency).eval()


@pytest.fixture()
def checkpoint_b(other_model, forecasting_data, tmp_path):
    return save_model_checkpoint(
        other_model,
        tmp_path / "release_b",
        adjacency=forecasting_data.adjacency,
        scaler=forecasting_data.scaler,
    )


def _open_breaker_organically(service, forecasting_data):
    """One injected compute failure trips the threshold-1 breaker."""
    plan = FaultPlan.build(0, [FaultSpec("forward.call", action="raise")])
    with inject(plan):
        with pytest.raises(InjectedFault):
            service.forecast(_raw_window(forecasting_data, index=5))


class TestStaleServe:
    def test_disabled_by_default(self, tiny_model, forecasting_data):
        service = ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            cache_entries=64,
            resilience=_breaker_config(),  # serve_stale defaults to False
        )
        window = _raw_window(forecasting_data)
        service.forecast(window)
        _open_breaker_organically(service, forecasting_data)
        with pytest.raises(CircuitOpen):
            service.forecast(window, precision="float32")

    def test_open_breaker_serves_marked_stale(self, tiny_model, forecasting_data):
        service = ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            cache_entries=64,
            resilience=_breaker_config(serve_stale=True),
        )
        window = _raw_window(forecasting_data)
        primed = service.forecast(window)
        _open_breaker_organically(service, forecasting_data)
        # A different precision namespace misses the fresh cache; degraded
        # mode answers it from the float64 entry for the same window.
        stale = service.forecast(window, precision="float32")
        assert isinstance(stale, StaleForecast)
        assert stale.stale is True
        assert stale.from_version == service.model_version
        np.testing.assert_array_equal(np.asarray(stale), np.asarray(primed))
        assert service.health().stale_served == 1
        # A window no generation ever computed still fails typed.
        with pytest.raises(CircuitOpen):
            service.forecast(_raw_window(forecasting_data, index=9))

    def test_cross_version_stale_after_hot_swap(
        self, tiny_model, forecasting_data, checkpoint_b
    ):
        service = ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            cache_entries=64,
            resilience=_breaker_config(serve_stale=True),
        )
        window = _raw_window(forecasting_data)
        primed = service.forecast(window)
        old_version = service.model_version
        service.swap_checkpoint(checkpoint_b)
        assert service.model_version != old_version
        _open_breaker_organically(service, forecasting_data)
        # The new version has no entry for this window, but the content
        # index finds the old generation's — served marked stale.
        stale = service.forecast(window)
        assert isinstance(stale, StaleForecast)
        assert stale.from_version == old_version
        np.testing.assert_array_equal(np.asarray(stale), np.asarray(primed))

    def test_streaming_stale_after_hot_swap(
        self, tiny_model, forecasting_data, checkpoint_b
    ):
        """forecast_latest keys stale lookups on the buffer token, so the
        entry the OLD model computed for this exact buffer state answers."""
        service = ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            cache_entries=64,
            resilience=_breaker_config(serve_stale=True),
        )
        for step in forecasting_data.dataset.signal[:12]:
            service.ingest(step)
        primed = service.forecast_latest()
        old_version = service.model_version
        # Same scaler: the swap must NOT bump the buffer token.
        service.swap_checkpoint(checkpoint_b)
        _open_breaker_organically(service, forecasting_data)
        stale = service.forecast_latest()
        assert isinstance(stale, StaleForecast)
        assert stale.from_version == old_version
        np.testing.assert_array_equal(np.asarray(stale), np.asarray(primed))


# ----------------------------------------------------------------------
# health()
# ----------------------------------------------------------------------
class TestHealth:
    def test_single_service_healthy_snapshot(self, tiny_model, forecasting_data):
        service = ForecastService(tiny_model, scaler=forecasting_data.scaler)
        health = service.health()
        assert isinstance(health, ServiceHealth)
        assert health.healthy
        assert len(health.shards) == 1
        assert health.shards[0].breaker is None  # breakers off by default
        assert health.lane_depths == {"bulk": 0, "interactive": 0}
        assert (health.stale_served, health.expired_requests, health.retries) == (0, 0, 0)
        assert health.open_breakers == []

    def test_open_breaker_flips_unhealthy(self, tiny_model, forecasting_data):
        service = ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            resilience=_breaker_config(),
        )
        assert service.health().healthy
        service._breakers[0].record_failure()
        health = service.health()
        assert not health.healthy
        assert health.open_breakers == [0]
        assert health.shards[0].breaker.state == "open"

    def test_retries_surface_in_health(self, tiny_model, forecasting_data):
        service = ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            cache_entries=0,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2, base_delay_ms=0.0)
            ),
        )
        window = _raw_window(forecasting_data)
        reference = service.forecast(window)
        plan = FaultPlan.build(
            0, [FaultSpec("forward.call", action="raise", max_fires=1)]
        )
        with inject(plan):
            retried = service.forecast(window)
        np.testing.assert_array_equal(retried, reference)
        assert service.health().retries == 1

    def test_sharded_health_shape(self, tiny_model, forecasting_data):
        service = ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=3,
            mode="replicas",
            executor="threads",
            resilience=_breaker_config(),
        )
        try:
            health = service.health()
            assert health.healthy
            assert [shard.shard for shard in health.shards] == [0, 1, 2]
            assert all(s.breaker is not None for s in health.shards)
            assert set(health.lane_depths) == {"bulk", "interactive"}
        finally:
            service.close()
