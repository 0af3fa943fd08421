"""Serve-from-stream cache fast path and the runtime escape hatch.

``forecast_latest`` keys its cache lookups on the rolling buffer's O(1)
version token instead of re-hashing the full window on every poll.  The
token must change exactly when the buffer content can change (ingest, late
per-node correction, reset, restore) and stay fixed between advances so
repeated polls hit the cache.  The service's execution mode (compiled
kernel plans vs. autograd forwards) must be switchable per instance and
via the environment, with matching forecasts either way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import ForecastService, RollingWindowBuffer


@pytest.fixture()
def raw_steps(forecasting_data):
    rng = np.random.default_rng(123)
    nodes = forecasting_data.num_nodes
    return np.abs(rng.normal(loc=200.0, scale=30.0, size=(30, nodes, 1)))


@pytest.fixture()
def service(tiny_model, forecasting_data):
    return ForecastService(tiny_model, scaler=forecasting_data.scaler, cache_entries=128)


class TestCacheToken:
    def test_token_stable_between_mutations(self, forecasting_data, raw_steps):
        buffer = RollingWindowBuffer(12, raw_steps.shape[1], scaler=forecasting_data.scaler)
        for step in raw_steps[:12]:
            buffer.ingest(step)
        token = buffer.cache_token()
        assert buffer.cache_token() == token
        buffer.window()  # reads do not bump the version
        assert buffer.cache_token() == token

    def test_every_mutation_changes_the_token(self, forecasting_data, raw_steps):
        buffer = RollingWindowBuffer(12, raw_steps.shape[1], scaler=forecasting_data.scaler)
        seen = set()
        for step in raw_steps[:12]:
            buffer.ingest(step)
            token = buffer.cache_token()
            assert token not in seen
            seen.add(token)
        buffer.ingest_node(1, np.array([50.0]))
        assert buffer.cache_token() not in seen
        seen.add(buffer.cache_token())
        buffer.reset()
        assert buffer.cache_token() not in seen

    def test_snapshot_returns_consistent_pair(self, forecasting_data, raw_steps):
        buffer = RollingWindowBuffer(12, raw_steps.shape[1], scaler=forecasting_data.scaler)
        for step in raw_steps[:13]:
            buffer.ingest(step)
        window, token = buffer.snapshot()
        assert token == buffer.cache_token()
        assert np.array_equal(window, buffer.window())
        assert window.flags.writeable  # a private copy, not the live ring view

    def test_restore_bumps_the_process_local_generation(
        self, forecasting_data, raw_steps, tmp_path
    ):
        """Restoring a snapshot must not alias tokens of the previous stream."""
        buffer = RollingWindowBuffer(12, raw_steps.shape[1], scaler=forecasting_data.scaler)
        for step in raw_steps[:12]:
            buffer.ingest(step)
        path = buffer.save(tmp_path / "state")
        token_before = buffer.cache_token()
        buffer.restore(path)
        assert buffer.cache_token() != token_before


class TestForecastLatestFastPath:
    def test_repeated_polls_hit_the_cache(self, service, raw_steps):
        for step in raw_steps[:12]:
            service.ingest(step)
        first = service.forecast_latest()
        baseline = service.stats().cache
        for _ in range(5):
            assert np.array_equal(service.forecast_latest(), first)
        stats = service.stats().cache
        assert stats.hits == baseline.hits + 5
        assert stats.misses == baseline.misses

    def test_stream_advance_invalidates(self, service, raw_steps):
        for step in raw_steps[:12]:
            service.ingest(step)
        before = service.forecast_latest()
        service.ingest(raw_steps[12])
        after = service.forecast_latest()
        assert service.stats().cache.misses >= 2
        assert not np.array_equal(before, after)

    def test_late_node_correction_invalidates(self, service, raw_steps):
        for step in raw_steps[:12]:
            service.ingest(step)
        before = service.forecast_latest()
        service.buffer.ingest_node(0, np.array([999.0]))
        after = service.forecast_latest()
        assert not np.array_equal(before, after)

    def test_disabled_cache_still_serves(self, tiny_model, forecasting_data, raw_steps):
        service = ForecastService(tiny_model, scaler=forecasting_data.scaler, cache_entries=0)
        for step in raw_steps[:12]:
            service.ingest(step)
        a = service.forecast_latest()
        b = service.forecast_latest()
        assert np.array_equal(a, b)

    def test_fast_path_matches_window_forecast(self, service, raw_steps):
        """Token-keyed streaming forecasts equal the plain window path."""
        for step in raw_steps[:12]:
            service.ingest(step)
        streamed = service.forecast_latest()
        direct = service.forecast(raw_steps[:12])
        assert np.allclose(streamed, direct, atol=1e-10)


class TestRuntimeEscapeHatch:
    def test_compiled_is_the_default(self, service):
        assert service.runtime == "compiled"
        assert service.stats().runtime == "compiled"

    def test_autograd_mode_matches_compiled(self, tiny_model, forecasting_data, raw_steps):
        compiled = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0, runtime="compiled"
        )
        autograd = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0, runtime="autograd"
        )
        window = raw_steps[:12]
        assert np.abs(compiled.forecast(window) - autograd.forecast(window)).max() <= 1e-10
        batch = np.stack([window, window * 1.1], axis=0)
        assert (
            np.abs(compiled.forecast_many(batch) - autograd.forecast_many(batch)).max() <= 1e-10
        )

    def test_environment_variable_selects_mode(self, tiny_model, forecasting_data, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME", "autograd")
        service = ForecastService(tiny_model, scaler=forecasting_data.scaler)
        assert service.runtime == "autograd"
        # The resilience wrapper fronts every forward; the engine underneath
        # must be the plain autograd module.
        assert service._workers[0].forward.wrapped is tiny_model

    def test_invalid_mode_is_rejected(self, tiny_model, forecasting_data):
        with pytest.raises(ValueError):
            ForecastService(tiny_model, scaler=forecasting_data.scaler, runtime="turbo")
