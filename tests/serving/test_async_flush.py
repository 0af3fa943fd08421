"""Async ingestion: linger-based background flushing and the submit() path.

Includes the concurrency stress test of ISSUE 4: auto-flush, linger flush
and explicit ``flush()`` racing across threads must neither lose nor
double-fulfil a single request.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serving import (
    AsyncForecast,
    BackgroundFlusher,
    ForecastService,
    MicroBatcher,
)
from repro.tensor import Tensor


def _echo_forward(batch):
    """Deterministic stand-in model: prediction i is window i's flow plane."""
    data = batch.data if isinstance(batch, Tensor) else np.asarray(batch)
    return data[:, :, :, 0]


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class TestLingerFlush:
    def test_sub_threshold_request_is_drained_by_linger(self):
        batcher = MicroBatcher(_echo_forward, auto_flush_at=50)
        flusher = BackgroundFlusher([batcher], linger_ms=10.0)
        try:
            handle = batcher.submit(np.full((12, 4, 1), 3.0))
            assert _wait_until(lambda: handle.done)
            assert batcher.pending == 0
            assert flusher.stats().timed_flushes >= 1
            assert np.array_equal(handle.result(), np.full((12, 4), 3.0))
        finally:
            flusher.close()

    def test_request_age_is_tracked(self):
        batcher = MicroBatcher(_echo_forward)
        assert batcher.oldest_pending_at() is None
        assert batcher.oldest_pending_age() is None
        batcher.submit(np.zeros((12, 4, 1)))
        age = batcher.oldest_pending_age()
        assert age is not None and age >= 0.0
        batcher.flush()
        assert batcher.oldest_pending_age() is None

    def test_close_drains_pending_requests(self):
        batcher = MicroBatcher(_echo_forward, auto_flush_at=50)
        flusher = BackgroundFlusher([batcher], linger_ms=60_000.0)  # never fires
        handle = batcher.submit(np.zeros((12, 4, 1)))
        flusher.close(drain=True)
        assert handle.done
        assert not flusher.running

    def test_forward_errors_do_not_kill_the_flusher(self):
        def broken(batch):
            raise RuntimeError("boom")

        batcher = MicroBatcher(broken)
        flusher = BackgroundFlusher([batcher], linger_ms=5.0)
        try:
            handle = batcher.submit(np.zeros((12, 4, 1)))
            assert _wait_until(lambda: handle.done)
            assert flusher.running
            assert flusher.stats().errors >= 1
            assert batcher.stats.failed_flushes >= 1
            with pytest.raises(RuntimeError, match="batched forward failed"):
                handle.result()
        finally:
            flusher.close()

    def test_rejects_non_positive_linger(self):
        with pytest.raises(ValueError):
            BackgroundFlusher([MicroBatcher(_echo_forward)], linger_ms=0.0)


class TestServiceSubmit:
    def test_submit_matches_synchronous_forecast(self, tiny_model, forecasting_data):
        signal = forecasting_data.dataset.signal
        window = signal[:12]
        with ForecastService(
            tiny_model, scaler=forecasting_data.scaler, linger_ms=10.0
        ) as service:
            handle = service.submit(window)
            assert _wait_until(lambda: handle.done)
            assert np.array_equal(handle.result(), service.forecast(window))

    def test_cache_hit_returns_settled_handle(self, tiny_model, forecasting_data):
        window = forecasting_data.dataset.signal[:12]
        with ForecastService(tiny_model, scaler=forecasting_data.scaler) as service:
            reference = service.forecast(window)
            handle = service.submit(window)
            assert handle.done  # no flush happened; answered from the cache
            assert np.array_equal(handle.result(), reference)

    def test_lazy_result_without_any_flusher(self, tiny_model, forecasting_data):
        window = forecasting_data.dataset.signal[:12]
        service = ForecastService(tiny_model, scaler=forecasting_data.scaler)
        handle = service.submit(window)
        assert not handle.done
        assert np.array_equal(handle.result(), service.forecast(window))

    def test_auto_flush_threshold_fires_the_batch(self, tiny_model, forecasting_data):
        signal = forecasting_data.dataset.signal
        windows = [signal[i : i + 12] for i in range(3)]
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, auto_flush_at=3, cache_entries=0
        )
        handles = [service.submit(window) for window in windows]
        assert all(handle.done for handle in handles)
        assert service.stats().batcher.flushes == 1

    def test_completed_handle(self):
        value = np.arange(4.0)
        handle = AsyncForecast.completed(value)
        assert handle.done
        assert np.array_equal(handle.result(), value)

    def test_close_without_flusher_drains_pending(self, tiny_model, forecasting_data):
        """The documented shutdown contract — no handle left pending after
        close() — must hold with or without a linger flusher."""
        window = forecasting_data.dataset.signal[:12]
        service = ForecastService(tiny_model, scaler=forecasting_data.scaler)
        handle = service.submit(window)
        assert not handle.done
        service.close()
        assert handle.done


class TestConcurrentStress:
    """No request may be lost or double-fulfilled under racing flushes."""

    THREADS = 6
    PER_THREAD = 40

    def test_racing_auto_linger_and_explicit_flushes(self):
        forwarded_rows = {"count": 0}
        forward_lock = threading.Lock()

        def counting_forward(batch):
            data = batch.data if isinstance(batch, Tensor) else np.asarray(batch)
            with forward_lock:
                forwarded_rows["count"] += data.shape[0]
            return data[:, :, :, 0]

        batcher = MicroBatcher(counting_forward, max_batch_size=16, auto_flush_at=7)
        flusher = BackgroundFlusher([batcher], linger_ms=2.0)
        results = [[None] * self.PER_THREAD for _ in range(self.THREADS)]
        errors = []
        stop_explicit = threading.Event()

        def submitter(thread_index):
            try:
                handles = []
                for i in range(self.PER_THREAD):
                    window = np.zeros((4, 3, 1))
                    window[0, 0, 0] = thread_index
                    window[0, 1, 0] = i
                    handles.append((i, batcher.submit(window)))
                    if i % 9 == 0:
                        time.sleep(0.001)  # let the linger flusher race in
                for i, handle in handles:
                    results[thread_index][i] = handle.result()
            except BaseException as error:  # pragma: no cover - fails the test
                errors.append(error)

        def explicit_flusher():
            while not stop_explicit.is_set():
                batcher.flush()
                time.sleep(0.0005)

        threads = [
            threading.Thread(target=submitter, args=(index,)) for index in range(self.THREADS)
        ]
        chaos = threading.Thread(target=explicit_flusher)
        chaos.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop_explicit.set()
        chaos.join()
        flusher.close()

        assert not errors
        total = self.THREADS * self.PER_THREAD
        # Every request forwarded exactly once...
        assert forwarded_rows["count"] == total
        stats = batcher.stats
        assert stats.requests == total
        assert stats.coalesced == total
        assert stats.failed_flushes == 0
        assert batcher.pending == 0
        # ... and every handle carries its own window's answer.
        for thread_index in range(self.THREADS):
            for i in range(self.PER_THREAD):
                result = results[thread_index][i]
                assert result is not None
                assert result[0, 0] == thread_index
                assert result[0, 1] == i
