"""ForecastService: checkpoint round-trip, raw-scale queries, cache + batching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DyHSL
from repro.serving import ForecastService
from repro.tensor import Tensor, no_grad
from repro.training import load_model_checkpoint, save_model_checkpoint


@pytest.fixture()
def service(tiny_model, forecasting_data):
    return ForecastService(tiny_model, scaler=forecasting_data.scaler, cache_entries=64)


def _raw_window(forecasting_data, index=0):
    """One raw-scale (T, N, F) window straight from the dataset signal."""
    signal = forecasting_data.dataset.signal
    return signal[index : index + 12]


class TestCheckpointRoundTrip:
    def test_service_from_checkpoint_matches_original(
        self, tiny_model, forecasting_data, tmp_path
    ):
        path = save_model_checkpoint(
            tiny_model,
            tmp_path / "serving",
            adjacency=forecasting_data.adjacency,
            scaler=forecasting_data.scaler,
            metadata={"epoch": 5},
        )
        original = ForecastService(tiny_model, scaler=forecasting_data.scaler)
        restored = ForecastService.from_checkpoint(path)

        window = _raw_window(forecasting_data)
        np.testing.assert_array_equal(original.forecast(window), restored.forecast(window))
        # Identical weights fingerprint => identical cache namespace.
        assert original.model_version == restored.model_version

    def test_loaded_checkpoint_rebuilds_fresh_model(
        self, tiny_model, tiny_config, forecasting_data, tmp_path
    ):
        path = save_model_checkpoint(
            tiny_model,
            tmp_path / "full",
            adjacency=forecasting_data.adjacency,
            scaler=forecasting_data.scaler,
        )
        loaded = load_model_checkpoint(path)
        assert isinstance(loaded.model, DyHSL)
        assert loaded.model is not tiny_model
        assert loaded.config == tiny_config
        np.testing.assert_array_equal(loaded.adjacency, forecasting_data.adjacency)
        assert loaded.scaler.mean == pytest.approx(forecasting_data.scaler.mean)

        batch = Tensor(forecasting_data.train.inputs[:2])
        with no_grad():
            np.testing.assert_array_equal(tiny_model(batch).data, loaded.model(batch).data)

    def test_weights_only_checkpoint_is_rejected(self, tiny_model, tmp_path):
        from repro.training import save_checkpoint

        path = save_checkpoint(tiny_model, tmp_path / "weights_only")
        with pytest.raises(ValueError, match="not self-describing"):
            load_model_checkpoint(path)


class TestRawScaleForecasting:
    def test_forecast_matches_manual_pipeline(self, service, tiny_model, forecasting_data):
        window = _raw_window(forecasting_data)
        normalised = window.copy()
        normalised[..., 0] = forecasting_data.scaler.transform(window[..., 0])
        with no_grad():
            expected = forecasting_data.scaler.inverse_transform(
                tiny_model(Tensor(normalised[None])).data[0]
            )
        np.testing.assert_allclose(service.forecast(window), expected, rtol=0, atol=1e-12)

    def test_horizon_truncation(self, service, forecasting_data):
        window = _raw_window(forecasting_data)
        full = service.forecast(window)
        head = service.forecast(window, horizon=3)
        assert head.shape == (3, forecasting_data.num_nodes)
        np.testing.assert_array_equal(head, full[:3])

    def test_forecast_node_slices_one_sensor(self, service, forecasting_data):
        window = _raw_window(forecasting_data)
        full = service.forecast(window)
        np.testing.assert_array_equal(service.forecast_node(window, node=4), full[:, 4])

    def test_validation_errors(self, service):
        with pytest.raises(ValueError, match="does not match model input"):
            service.forecast(np.zeros((6, 3, 1)))
        with pytest.raises(ValueError, match="horizon"):
            service.forecast(np.zeros((12, service.config.num_nodes, 1)), horizon=99)
        with pytest.raises(IndexError):
            service.forecast_node(np.zeros((12, service.config.num_nodes, 1)), node=-1)


class TestCacheIntegration:
    def test_repeat_query_hits_cache(self, service, forecasting_data):
        window = _raw_window(forecasting_data)
        first = service.forecast(window)
        second = service.forecast(window)
        np.testing.assert_array_equal(first, second)
        stats = service.stats()
        assert stats.cache.hits == 1 and stats.cache.misses == 1
        assert stats.requests == 2

    def test_different_horizons_are_separate_entries(self, service, forecasting_data):
        window = _raw_window(forecasting_data)
        service.forecast(window, horizon=6)
        service.forecast(window, horizon=12)
        assert service.stats().cache.misses == 2

    def test_cache_can_be_disabled(self, tiny_model, forecasting_data):
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        )
        window = _raw_window(forecasting_data)
        np.testing.assert_array_equal(service.forecast(window), service.forecast(window))
        assert service.cache is None
        assert service.stats().cache.requests == 0


class TestForecastMany:
    def test_empty_batch_returns_empty_forecasts(self, service):
        """Regression (ISSUE 4): an empty query batch must not crash np.stack."""
        empty = service.forecast_many(np.zeros((0, 12, 10, 1)))
        assert empty.shape == (0, 12, 10)
        truncated = service.forecast_many(np.zeros((0, 12, 10, 1)), horizon=3)
        assert truncated.shape == (0, 3, 10)

    def test_matches_single_request_path(self, service, forecasting_data):
        windows = np.stack([_raw_window(forecasting_data, i) for i in range(4)], axis=0)
        batched = service.forecast_many(windows)
        singles = np.stack([service.forecast(window) for window in windows], axis=0)
        np.testing.assert_allclose(batched, singles, rtol=0, atol=1e-10)

    def test_inflight_duplicates_computed_once(self, service, forecasting_data):
        windows = np.stack([_raw_window(forecasting_data, i % 2) for i in range(6)], axis=0)
        forecasts = service.forecast_many(windows)
        np.testing.assert_array_equal(forecasts[0], forecasts[2])
        np.testing.assert_array_equal(forecasts[1], forecasts[3])
        # Six requests, but only the two unique windows hit the model.
        assert service.stats().batcher.requests == 2
        assert service.stats().batcher.largest_batch == 2

    def test_second_burst_served_from_cache(self, service, forecasting_data):
        windows = np.stack([_raw_window(forecasting_data, i) for i in range(3)], axis=0)
        service.forecast_many(windows)
        service.forecast_many(windows)
        stats = service.stats()
        assert stats.cache.hits == 3
        assert stats.batcher.requests == 3  # only the first burst computed


class TestStreamingPath:
    def test_forecast_latest_matches_direct_query(self, service, forecasting_data):
        signal = forecasting_data.dataset.signal[:20]
        for step in signal:
            service.ingest(step)
        assert service.buffer.ready
        streamed = service.forecast_latest()
        direct = service.forecast(signal[-12:])
        np.testing.assert_allclose(streamed, direct, rtol=0, atol=1e-12)

    def test_not_ready_raises(self, service):
        with pytest.raises(RuntimeError, match="not ready"):
            service.forecast_latest()
