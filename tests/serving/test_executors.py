"""One front end, three executors: every query path of ``ForecastService``
is bit-identical to autograd on inline, thread and process workers, before
and after a hot swap, behind one stats/health surface."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import DyHSL
from repro.serving import (
    EXECUTOR_ENV_VAR,
    ForecastService,
    ServiceStats,
    ShardedForecastService,
)
from repro.tensor import Tensor, no_grad
from repro.tensor import seed as seed_everything
from repro.training import save_model_checkpoint

#: (executor, num_shards) combinations every serving path must agree on.
EXECUTORS = [("inline", 1), ("threads", 1), ("threads", 2), ("processes", 2)]
_IDS = [f"{executor}-{shards}" for executor, shards in EXECUTORS]


@pytest.fixture()
def other_model(tiny_config, forecasting_data):
    seed_everything(11)
    return DyHSL(tiny_config, forecasting_data.adjacency).eval()


def _autograd(model, scaler, windows) -> np.ndarray:
    """Reference forecasts: a plain autograd forward over raw windows."""
    batch = np.array(windows, dtype=float)
    batch[..., 0] = scaler.transform(batch[..., 0])
    with no_grad():
        output = model(Tensor(batch)).data
    return scaler.inverse_transform(output)


def _service(model, forecasting_data, executor, num_shards, **kwargs):
    return ForecastService(
        model,
        scaler=forecasting_data.scaler,
        num_shards=num_shards,
        executor=executor,
        **kwargs,
    )


class TestExecutorMatrix:
    @pytest.mark.parametrize("executor,num_shards", EXECUTORS, ids=_IDS)
    def test_every_path_matches_autograd_across_a_swap(
        self, tiny_model, other_model, forecasting_data, tmp_path, executor, num_shards
    ):
        scaler = forecasting_data.scaler
        signal = forecasting_data.dataset.signal
        # Ragged (7 rows) with duplicates: misses dedupe to 5 forwards.
        windows = np.stack([signal[i : i + 12] for i in (0, 1, 0, 2, 3, 1, 4)])
        stream = signal[20:34]
        release_b = save_model_checkpoint(
            other_model, tmp_path / "release_b",
            adjacency=forecasting_data.adjacency, scaler=scaler,
        )
        # cache_entries=0: every query computes on the workers.
        with _service(
            tiny_model, forecasting_data, executor, num_shards, cache_entries=0
        ) as service:
            assert service.executor == executor
            for step in stream:
                service.ingest(step)
            for model in (tiny_model, other_model):
                if model is other_model:
                    service.swap_checkpoint(release_b)
                expected = _autograd(model, scaler, windows)
                assert np.array_equal(service.forecast(windows[0]), expected[0])
                assert np.array_equal(service.forecast_many(windows), expected)
                assert np.array_equal(service.submit(windows[3]).result(), expected[3])
                latest = _autograd(model, scaler, stream[None, -12:])[0]
                assert np.array_equal(service.forecast_latest(), latest)

    def test_stats_and_health_have_one_shape(self, tiny_model, forecasting_data):
        windows = np.stack([forecasting_data.dataset.signal[i : i + 12] for i in range(3)])
        shapes = set()
        for executor, num_shards in EXECUTORS:
            with _service(
                tiny_model, forecasting_data, executor, num_shards, cache_entries=0
            ) as service:
                service.forecast_many(windows)
                stats, health = service.stats(), service.health()
            assert isinstance(stats, ServiceStats)
            assert (stats.executor, stats.num_shards) == (executor, num_shards)
            assert len(stats.shards) == len(health.shards) == num_shards
            assert stats.batcher.requests == sum(s.requests for s in stats.shards) == 3
            assert [lane.lane for lane in stats.lanes] == ["bulk", "interactive"]
            assert stats.lanes[0].admitted == 3
            assert set(health.lane_depths) == {"bulk", "interactive"}
            assert (stats.process_tier is not None) == (executor == "processes")
            assert health.healthy
            shapes.add(
                (
                    tuple(field.name for field in dataclasses.fields(stats)),
                    tuple(field.name for field in dataclasses.fields(health)),
                    tuple(field.name for field in dataclasses.fields(health.shards[0])),
                )
            )
        assert len(shapes) == 1


class TestExecutorResolution:
    def test_one_worker_defaults_to_inline(self, tiny_model, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "processes")
        assert ForecastService(tiny_model).executor == "inline"
        assert ForecastService(tiny_model, executor="INLINE").executor == "inline"

    def test_several_workers_follow_the_environment(self, tiny_model, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        with ForecastService(tiny_model, num_shards=2) as service:
            assert service.executor == "threads"
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "processes")
        with ForecastService(tiny_model, num_shards=2) as service:
            assert service.executor == "processes"

    def test_invalid_configurations_raise(self, tiny_model):
        with pytest.raises(ValueError, match="node sharding was removed"):
            ShardedForecastService(tiny_model, mode="nodes")
        with pytest.raises(ValueError, match="exactly one worker"):
            ForecastService(tiny_model, num_shards=2, executor="inline")


class TestReducedPrecision:
    @pytest.mark.parametrize("executor,num_shards", EXECUTORS, ids=_IDS)
    def test_float32_stays_within_tolerance(
        self, tiny_model, forecasting_data, executor, num_shards
    ):
        signal = forecasting_data.dataset.signal
        windows = np.stack([signal[i : i + 12] for i in range(5)])
        expected = _autograd(tiny_model, forecasting_data.scaler, windows)
        with _service(
            tiny_model, forecasting_data, executor, num_shards,
            cache_entries=0, precision="float32",
        ) as service:
            produced = service.forecast_many(windows)
            np.testing.assert_allclose(produced, expected, rtol=1e-4, atol=1e-4)
            # The float64 SLA override is exact on every executor.
            assert np.array_equal(service.forecast_many(windows, precision="float64"), expected)
