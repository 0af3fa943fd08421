"""One front end, two executors: every query path of ``ForecastService``
is bit-identical to autograd on the inline worker and on process workers,
before and after a hot swap, behind one stats/health surface."""

from __future__ import annotations

import dataclasses
import multiprocessing
import sys

import numpy as np
import pytest

from repro.core import DyHSL
from repro.runtime import ArtifactStore, blas
from repro.serving import ForecastService, ServiceStats, ShardedForecastService
from repro.tensor import Tensor, no_grad
from repro.tensor import seed as seed_everything
from repro.training import save_model_checkpoint

#: (executor, num_shards) combinations every serving path must agree on.
EXECUTORS = [("inline", 1), ("processes", 2)]
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


class TestRaggedRowParity:
    @pytest.mark.parametrize("executor,num_shards", EXECUTORS, ids=_IDS)
    def test_ragged_batch_is_bit_identical_to_autograd(self, wide_dyhsl, executor, num_shards):
        """19 windows run as plan pieces (16 + 2 + 1, or per replica 8 + 2
        and 8 + 1) and must still equal one autograd forward of all 19."""
        nodes = wide_dyhsl.config.num_nodes
        windows = np.random.default_rng(91).normal(size=(19, 12, nodes, 1))
        with ForecastService(
            wide_dyhsl, num_shards=num_shards, executor=executor, cache_entries=0
        ) as service:
            served = service.forecast_many(windows)
        with no_grad():
            expected = wide_dyhsl(Tensor(windows)).data
        assert np.abs(served - expected).max() == 0.0


class TestExecutorResolution:
    def test_one_worker_defaults_to_inline(self, tiny_model):
        assert ForecastService(tiny_model).executor == "inline"
        assert ForecastService(tiny_model, executor="INLINE").executor == "inline"
        # Several workers run on processes; one may too, when asked.
        with ForecastService(tiny_model, num_shards=2) as service:
            assert service.executor == "processes"
        with ForecastService(tiny_model, executor="processes") as service:
            assert (service.executor, service.num_shards) == ("processes", 1)

    def test_invalid_configurations_raise(self, tiny_model):
        with pytest.raises(ValueError, match="node sharding was removed"):
            ShardedForecastService(tiny_model, mode="nodes")
        with pytest.raises(ValueError, match="exactly one worker"):
            ForecastService(tiny_model, num_shards=2, executor="inline")
        with pytest.raises(ValueError, match=r"\('inline', 'processes'\)"):
            ForecastService(tiny_model, num_shards=2, executor="threads")


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


needs_openblas = pytest.mark.skipif(
    blas.threads() is None, reason="no OpenBLAS mapped into this process"
)


@needs_openblas
class TestOneBlasThread:
    """Every serving thread runs OpenBLAS at one thread, for good: the
    service pins its process when it is built, each worker pins itself."""

    @staticmethod
    def _serve(tiny_model, forecasting_data, executor, num_shards, **kwargs) -> ServiceStats:
        """Serve 4 windows exactly at one parent BLAS thread; the stats."""
        windows = np.stack([forecasting_data.dataset.signal[i : i + 12] for i in range(4)])
        expected = _autograd(tiny_model, forecasting_data.scaler, windows)
        blas.set_threads(blas.cores())
        with _service(
            tiny_model, forecasting_data, executor, num_shards, cache_entries=0, **kwargs
        ) as service:
            assert blas.threads() == 1  # pinned at build, before any plan runs
            produced = service.forecast_many(windows)
            stats = service.stats()
        assert np.abs(produced - expected).max() == 0.0
        assert blas.threads() == 1  # close() restores nothing
        return stats

    def test_inline_service_pins_one_thread(self, tiny_model, forecasting_data):
        stats = self._serve(tiny_model, forecasting_data, "inline", 1)
        assert stats.blas_threads == (1,)

    @pytest.mark.parametrize(
        "start_method",
        [m for m in ("fork", "spawn", "forkserver") if m in multiprocessing.get_all_start_methods()],
    )
    def test_process_workers_run_at_one_thread(
        self, tiny_model, forecasting_data, start_method
    ):
        stats = self._serve(
            tiny_model, forecasting_data, "processes", 2, start_method=start_method
        )
        assert stats.blas_threads == (1, 1)
        assert (stats.cores, stats.num_shards) == (blas.cores(), 2)
        assert stats.process_tier.workers == 2

    def test_a_spawned_worker_overrides_the_environment(
        self, tiny_model, forecasting_data, monkeypatch
    ):
        # A spawned child starts a fresh interpreter, whose OpenBLAS sizes
        # its pool from the environment; the worker must pin it itself.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        stats = self._serve(tiny_model, forecasting_data, "processes", 2, start_method="spawn")
        assert stats.blas_threads == (1, 1)


class TestSharedValidator:
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_replicas_load_and_check_a_new_shape_once(
        self, tiny_model, forecasting_data, tmp_path, num_shards, plan_engine
    ):
        windows = np.stack(
            [forecasting_data.dataset.signal[i : i + 12] for i in range(num_shards)]
        )
        store = ArtifactStore(tmp_path / "plans")
        with _service(
            tiny_model, forecasting_data, "inline", 1, cache_entries=0, artifact_dir=store
        ) as cold:
            cold.forecast(windows[0])  # compiles and publishes the 1-row plan
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _service(
                tiny_model, forecasting_data, "processes", num_shards,
                cache_entries=0, artifact_dir=ArtifactStore(store.root),
            ) as warm:
                # One window routes to each replica: every shard needs the
                # 1-row plan at once.
                produced = warm.forecast_many(windows)
                info = plan_engine(warm).cache_info()
        finally:
            sys.setswitchinterval(interval)
        assert (info.artifact_loads, info.artifact_rejects, info.compiles) == (1, 0, 0)
        expected = _autograd(tiny_model, forecasting_data.scaler, windows)
        assert np.abs(produced - expected).max() == 0.0
