"""Artifact-backed serving warm starts: one store, N workers, zero retraces.

The fleet-wide cold-start contract: a service — single-worker or sharded —
pointed at a saved artifact store serves its first request without a
single trace/fuse/pool pass, with answers bit-identical to a
cold-compiled deployment; replica fleets sharing one store compile each
trace once instead of once per worker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import ArtifactStore
from repro.serving import ForecastService, ShardedForecastService
from repro.training import artifact_dir_for, save_model_checkpoint, save_plan_artifacts


@pytest.fixture()
def window(forecasting_data):
    rng = np.random.default_rng(41)
    nodes = forecasting_data.num_nodes
    return np.abs(rng.normal(loc=180.0, scale=40.0, size=(12, nodes, 1)))


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "plans")


def _worker_infos(service: ShardedForecastService):
    return [worker.forward.cache_info() for worker in service._workers]


class TestSingleWorkerWarmStart:
    def test_restart_serves_with_zero_retraces(self, tiny_model, forecasting_data, window, store):
        cold = ForecastService(tiny_model, scaler=forecasting_data.scaler, artifact_dir=store)
        reference = cold.forecast(window)
        assert cold._workers[0].forward.cache_info().compiles == 1

        warm = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, artifact_dir=ArtifactStore(store.root)
        )
        produced = warm.forecast(window)
        info = warm._workers[0].forward.cache_info()
        assert info.compiles == 0
        assert info.artifact_loads == 1
        assert np.array_equal(produced, reference)

    def test_save_artifacts_requires_compiled_runtime(self, tiny_model, forecasting_data):
        service = ForecastService(tiny_model, scaler=forecasting_data.scaler, runtime="autograd")
        with pytest.raises(ValueError, match="compiled runtime"):
            service.save_artifacts("anywhere")


class TestWarmUp:
    def test_warm_up_prepares_the_ladder(self, tiny_model, forecasting_data, window, store):
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, artifact_dir=store
        )
        stats = service.warm_up(batch_sizes=(1, 2))
        assert [s.input_shape[0] for s in stats] == [1, 2]
        assert service._workers[0].forward.cache_info().compiles == 2
        # The first request after warm-up does no plan work at all.
        service.forecast(window)
        assert service._workers[0].forward.cache_info().compiles == 2

    def test_warm_up_binds_from_store_on_restart(
        self, tiny_model, forecasting_data, window, store
    ):
        cold = ForecastService(tiny_model, scaler=forecasting_data.scaler, artifact_dir=store)
        cold.warm_up(batch_sizes=(1, 2))
        reference = cold.forecast(window)

        warm = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, artifact_dir=ArtifactStore(store.root)
        )
        warm.warm_up(batch_sizes=(1, 2))
        info = warm._workers[0].forward.cache_info()
        assert info.compiles == 0
        assert info.artifact_loads == 2
        assert np.array_equal(warm.forecast(window), reference)

    def test_default_ladder_doubles_to_the_batcher_cap(
        self, tiny_model, forecasting_data
    ):
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, max_batch_size=6
        )
        stats = service.warm_up()
        # The trailing size (the batcher cap, 6) rounds up to its bucket.
        assert [s.input_shape[0] for s in stats] == [1, 2, 4, 8]

    def test_autograd_warm_up_is_a_noop(self, tiny_model, forecasting_data):
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, runtime="autograd"
        )
        assert service.warm_up() == []

    def test_rejects_nonpositive_sizes(self, tiny_model, forecasting_data):
        service = ForecastService(tiny_model, scaler=forecasting_data.scaler)
        with pytest.raises(ValueError, match="positive"):
            service.warm_up(batch_sizes=(0, 2))

    def test_sharded_warm_up_binds_every_shard(
        self, tiny_model, forecasting_data, window, store
    ):
        with ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            artifact_dir=store,
        ) as cold:
            cold.warm_up(batch_sizes=(1, 2))
            reference = cold.forecast(window)

        with ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            artifact_dir=ArtifactStore(store.root),
        ) as warm:
            stats = warm.warm_up(batch_sizes=(1, 2))
            infos = _worker_infos(warm)
            produced = warm.forecast(window)
        assert len(stats) == 4  # two sizes per shard
        assert all(info.compiles == 0 for info in infos)
        assert all(info.artifact_loads == 2 for info in infos)
        assert np.array_equal(produced, reference)


class TestShardedWarmStart:
    def test_replica_fleet_compiles_each_trace_once(
        self, tiny_model, forecasting_data, window, store
    ):
        with ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=3,
            mode="replicas",
            cache_entries=0,
            artifact_dir=store,
        ) as fleet:
            # Three identical queries round-robin across all three replicas.
            for _ in range(3):
                fleet.forecast(window)
            infos = _worker_infos(fleet)
        assert sum(info.compiles for info in infos) == 1
        assert sum(info.artifact_loads for info in infos) == 2
        assert store.stats().memo_hits == 2

    def test_fleet_restarts_with_zero_retraces(
        self, tiny_model, forecasting_data, window, store
    ):
        def serve_both(fleet):
            # cache_entries=0: the second query is computed by the other replica.
            return [fleet.forecast(window) for _ in range(2)]

        with ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            cache_entries=0,
            artifact_dir=store,
        ) as cold:
            reference = serve_both(cold)[0]
            assert sum(info.compiles for info in _worker_infos(cold)) == 1

        with ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            cache_entries=0,
            artifact_dir=ArtifactStore(store.root),
        ) as warm:
            produced = serve_both(warm)
            infos = _worker_infos(warm)
        assert all(info.compiles == 0 for info in infos)
        assert all(info.artifact_loads == 1 for info in infos)
        assert all(np.array_equal(forecast, reference) for forecast in produced)

    def test_sharded_save_artifacts_exports_every_shard(
        self, tiny_model, forecasting_data, window, tmp_path
    ):
        with ShardedForecastService(
            tiny_model, scaler=forecasting_data.scaler, num_shards=2, cache_entries=0
        ) as fleet:
            fleet.forecast(window)
            fleet.forecast(window)  # the second replica compiles its plan too
            written = fleet.save_artifacts(tmp_path / "export")
        assert len(written) == 2  # one plan per replica


class TestCheckpointAOT:
    def test_compile_at_train_time_then_serve(
        self, tiny_model, forecasting_data, window, tmp_path
    ):
        checkpoint = save_model_checkpoint(
            tiny_model,
            tmp_path / "dyhsl",
            adjacency=forecasting_data.adjacency,
            scaler=forecasting_data.scaler,
        )
        directory = save_plan_artifacts(tiny_model, checkpoint, examples=[window[None]])
        assert directory == artifact_dir_for(checkpoint)
        assert list(directory.glob("*.plan.npz"))

        service = ForecastService.from_checkpoint(checkpoint, artifact_dir=directory)
        produced = service.forecast(window)
        info = service._workers[0].forward.cache_info()
        assert info.compiles == 0
        assert info.artifact_loads == 1
        baseline = ForecastService.from_checkpoint(checkpoint)
        assert np.array_equal(produced, baseline.forecast(window))

    def test_aot_covers_replica_fleets(
        self, tiny_model, forecasting_data, window, tmp_path
    ):
        """Replicas serve the full-output plans, so the single-worker AOT
        export warm-starts a whole fleet."""
        checkpoint = save_model_checkpoint(
            tiny_model,
            tmp_path / "dyhsl",
            adjacency=forecasting_data.adjacency,
            scaler=forecasting_data.scaler,
        )
        directory = save_plan_artifacts(tiny_model, checkpoint, examples=[window[None]])
        with ShardedForecastService.from_checkpoint(
            checkpoint, num_shards=2, cache_entries=0, artifact_dir=directory
        ) as fleet:
            produced = fleet.forecast(window)
            fleet.forecast(window)
            infos = _worker_infos(fleet)
        assert all(info.compiles == 0 for info in infos)
        assert all(info.artifact_loads == 1 for info in infos)
        baseline = ForecastService.from_checkpoint(checkpoint)
        assert np.array_equal(produced, baseline.forecast(window))

    def test_aot_covers_both_precisions(self, tiny_model, forecasting_data, window, tmp_path):
        checkpoint = save_model_checkpoint(
            tiny_model,
            tmp_path / "dyhsl",
            adjacency=forecasting_data.adjacency,
            scaler=forecasting_data.scaler,
        )
        directory = save_plan_artifacts(
            tiny_model, checkpoint, examples=[window[None]], precisions=("float64", "float32")
        )
        service = ForecastService.from_checkpoint(
            checkpoint, artifact_dir=directory, precision="float32"
        )
        service.forecast(window)
        info = service._workers[0].forward.cache_info()
        assert info.compiles == 0
        assert info.artifact_loads == 1
