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

from repro.runtime import ArtifactStore, blas
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


class TestSingleWorkerWarmStart:
    def test_restart_serves_with_zero_retraces(
        self, tiny_model, forecasting_data, window, store, plan_engine
    ):
        cold = ForecastService(tiny_model, scaler=forecasting_data.scaler, artifact_dir=store)
        reference = cold.forecast(window)
        assert plan_engine(cold).cache_info().compiles == 1

        warm = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, artifact_dir=ArtifactStore(store.root)
        )
        produced = warm.forecast(window)
        info = plan_engine(warm).cache_info()
        assert info.compiles == 0
        assert info.artifact_loads == 1
        assert np.array_equal(produced, reference)


class TestWarmUp:
    @pytest.fixture(autouse=True)
    def _two_cores(self, monkeypatch):
        # A one-worker service splits batches across one row lane per core,
        # and the ladder's piece shapes follow; pin the core count.
        monkeypatch.setattr(blas, "cores", lambda: 2)

    def test_warm_up_prepares_the_ladder(
        self, tiny_model, forecasting_data, window, store, plan_engine
    ):
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, artifact_dir=store
        )
        stats = service.warm_up(batch_sizes=(1, 2))
        assert [s.input_shape[0] for s in stats] == [1, 2]
        assert plan_engine(service).cache_info().compiles == 2
        # The first request after warm-up does no plan work at all.
        service.forecast(window)
        assert plan_engine(service).cache_info().compiles == 2

    def test_warm_up_binds_from_store_on_restart(
        self, tiny_model, forecasting_data, window, store, plan_engine
    ):
        cold = ForecastService(tiny_model, scaler=forecasting_data.scaler, artifact_dir=store)
        cold.warm_up(batch_sizes=(1, 2))
        reference = cold.forecast(window)

        warm = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, artifact_dir=ArtifactStore(store.root)
        )
        warm.warm_up(batch_sizes=(1, 2))
        info = plan_engine(warm).cache_info()
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
        # On two row lanes 4 runs as 2 | 2 and the trailing size (the
        # batcher cap, 6) as 2 + 1 | 2 + 1; each size's stats are its
        # largest piece's.  Two rows stay on one lane.
        assert [s.input_shape[0] for s in stats] == [1, 2, 2, 2]

    def test_rejects_nonpositive_sizes(self, tiny_model, forecasting_data):
        service = ForecastService(tiny_model, scaler=forecasting_data.scaler)
        with pytest.raises(ValueError, match="positive"):
            service.warm_up(batch_sizes=(0, 2))

    def test_sharded_warm_up_binds_every_shard(
        self, tiny_model, forecasting_data, window, store, plan_engine
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
            info = plan_engine(warm).cache_info()
            produced = warm.forecast(window)
        assert len(stats) == 2  # two sizes on the one shared provider
        assert (info.compiles, info.artifact_loads) == (0, 2)
        assert np.array_equal(produced, reference)

    def test_process_replicas_warm_only_the_pieces_they_dispatch(
        self, tiny_model, forecasting_data, window, plan_engine
    ):
        """The tier never dispatches a piece wider than ``bulk_chunk_rows``,
        so warm-up builds no wider plan, and every ladder size then
        dispatches on warmed plans alone."""
        with ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            executor="processes",
            max_batch_size=16,
            bulk_chunk_rows=4,
            cache_entries=0,
        ) as service:
            stats = service.warm_up()
            engine = plan_engine(service)
            assert [s.input_shape[0] for s in stats] == [1, 2, 4, 4, 4]
            assert sorted(s.input_shape[0] for s in engine.plan_stats()) == [1, 2, 4]
            compiles = engine.cache_info().compiles
            windows = np.stack([window * (1.0 + 0.01 * row) for row in range(16)])
            for size in (1, 2, 4, 8, 16):
                forecasts = service._tier.call(0, windows[:size], pset=service._gen.pset)
                assert forecasts.shape[0] == size
                assert engine.cache_info().compiles == compiles


class TestShardedWarmStart:
    def test_replica_fleet_compiles_each_trace_once(
        self, tiny_model, forecasting_data, window, store, plan_engine
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
            info = plan_engine(fleet).cache_info()
        # The shared provider traces once; the workers bind its artifact
        # from disk, so the parent's memo is never consulted again.
        assert (info.compiles, info.artifact_loads) == (1, 0)
        assert store.stats().memo_hits == 0

    def test_fleet_restarts_with_zero_retraces(
        self, tiny_model, forecasting_data, window, store, plan_engine
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
            assert plan_engine(cold).cache_info().compiles == 1

        with ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            cache_entries=0,
            artifact_dir=ArtifactStore(store.root),
        ) as warm:
            produced = serve_both(warm)
            info = plan_engine(warm).cache_info()
        assert (info.compiles, info.artifact_loads) == (0, 1)
        assert all(np.array_equal(forecast, reference) for forecast in produced)

    def test_sharded_save_artifacts_exports_every_shard(
        self, tiny_model, forecasting_data, window, tmp_path
    ):
        with ShardedForecastService(
            tiny_model, scaler=forecasting_data.scaler, num_shards=2, cache_entries=0
        ) as fleet:
            fleet.forecast(window)
            fleet.forecast(window)  # routed to the second replica
            written = fleet.save_artifacts(tmp_path / "export")
        # The replicas share one provider, whose one plan is written once.
        assert len(written) == 1


class TestCheckpointAOT:
    def test_compile_at_train_time_then_serve(
        self, tiny_model, forecasting_data, window, tmp_path, plan_engine
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
        info = plan_engine(service).cache_info()
        assert info.compiles == 0
        assert info.artifact_loads == 1
        baseline = ForecastService.from_checkpoint(checkpoint)
        assert np.array_equal(produced, baseline.forecast(window))

    def test_aot_covers_replica_fleets(
        self, tiny_model, forecasting_data, window, tmp_path, plan_engine
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
            info = plan_engine(fleet).cache_info()
        assert (info.compiles, info.artifact_loads) == (0, 1)
        baseline = ForecastService.from_checkpoint(checkpoint)
        assert np.array_equal(produced, baseline.forecast(window))

    def test_aot_covers_both_precisions(
        self, tiny_model, forecasting_data, window, tmp_path, plan_engine
    ):
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
        info = plan_engine(service).cache_info()
        assert info.compiles == 0
        assert info.artifact_loads == 1
