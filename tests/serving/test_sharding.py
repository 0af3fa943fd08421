"""Sharded serving: bit-parity with the single worker, routing, lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import ForecastService, ShardedForecastService
from repro.training import save_model_checkpoint


@pytest.fixture()
def single(tiny_model, forecasting_data):
    return ForecastService(tiny_model, scaler=forecasting_data.scaler, cache_entries=64)


def _raw_windows(forecasting_data, count, start=0):
    signal = forecasting_data.dataset.signal
    return np.stack([signal[i : i + 12] for i in range(start, start + count)], axis=0)


def _sharded(tiny_model, forecasting_data, **kwargs):
    kwargs.setdefault("cache_entries", 64)
    return ShardedForecastService(
        tiny_model, scaler=forecasting_data.scaler, **kwargs
    )


class TestPartitioning:
    def test_rejects_bad_configuration(self, tiny_model):
        with pytest.raises(ValueError, match="sharding mode"):
            ShardedForecastService(tiny_model, mode="sideways")
        with pytest.raises(ValueError):
            ShardedForecastService(tiny_model, num_shards=0)
        with pytest.raises(ValueError):
            ShardedForecastService(tiny_model, auto_flush_at=0)

    def test_nodes_mode_was_removed(self, tiny_model):
        with pytest.raises(ValueError, match="node sharding was removed"):
            ShardedForecastService(tiny_model, mode="nodes")
        with ShardedForecastService(tiny_model) as service:
            assert service.num_shards == 2

    def test_bad_linger_rejected_before_workers_spawn(self, tiny_model):
        """A constructor that raises must not leak executor threads."""
        import threading

        before = {thread.name for thread in threading.enumerate()}
        with pytest.raises(ValueError, match="linger_ms"):
            ShardedForecastService(tiny_model, num_shards=4, linger_ms=0.0)
        leaked = {
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-shard") and thread.name not in before
        }
        assert not leaked


class TestBitParity:
    """The acceptance contract: sharded output max |diff| == 0."""

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_forecast_many_is_bit_identical(
        self, tiny_model, forecasting_data, single, num_shards
    ):
        windows = _raw_windows(forecasting_data, 5)
        reference = single.forecast_many(windows)
        with _sharded(tiny_model, forecasting_data, num_shards=num_shards) as sharded:
            produced = sharded.forecast_many(windows)
        assert produced.shape == reference.shape
        assert np.abs(produced - reference).max() == 0.0

    def test_single_forecast_and_horizon(self, tiny_model, forecasting_data, single):
        window = _raw_windows(forecasting_data, 1)[0]
        with _sharded(tiny_model, forecasting_data, num_shards=2) as sharded:
            assert np.array_equal(sharded.forecast(window), single.forecast(window))
            assert np.array_equal(
                sharded.forecast(window, horizon=4), single.forecast(window, horizon=4)
            )

    def test_autograd_runtime_parity(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 3)
        reference = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, runtime="autograd"
        ).forecast_many(windows)
        with _sharded(
            tiny_model, forecasting_data, num_shards=2, runtime="autograd"
        ) as sharded:
            assert np.abs(sharded.forecast_many(windows) - reference).max() == 0.0

    def test_from_checkpoint_round_trip(self, tiny_model, forecasting_data, single, tmp_path):
        path = save_model_checkpoint(
            tiny_model,
            tmp_path / "sharded.npz",
            adjacency=forecasting_data.adjacency,
            scaler=forecasting_data.scaler,
        )
        windows = _raw_windows(forecasting_data, 3)
        with ShardedForecastService.from_checkpoint(path, num_shards=2) as sharded:
            assert np.abs(sharded.forecast_many(windows) - single.forecast_many(windows)).max() == 0.0


class TestNodeRouting:
    def test_forecast_node_matches_single_worker(
        self, tiny_model, forecasting_data, single
    ):
        window = _raw_windows(forecasting_data, 1)[0]
        with _sharded(tiny_model, forecasting_data, num_shards=2) as sharded:
            node = tiny_model.config.num_nodes - 1
            produced = sharded.forecast_node(window, node)
            assert np.array_equal(produced, single.forecast_node(window, node))
            # One replica served the whole network once.
            assert sum(stats.requests for stats in sharded.stats().shards) == 1

    def test_forecast_node_cache_hit(self, tiny_model, forecasting_data):
        window = _raw_windows(forecasting_data, 1)[0]
        with _sharded(tiny_model, forecasting_data, num_shards=2) as sharded:
            first = sharded.forecast_node(window, 0)
            again = sharded.forecast_node(window, 0)
            assert np.array_equal(first, again)
            assert sharded.stats().cache.hits == 1
            # The network was computed exactly once.
            assert sharded.stats().batcher.requests == 1

    def test_forecast_node_validates_range(self, tiny_model, forecasting_data):
        window = _raw_windows(forecasting_data, 1)[0]
        with _sharded(tiny_model, forecasting_data, num_shards=2) as sharded:
            with pytest.raises(IndexError):
                sharded.forecast_node(window, tiny_model.config.num_nodes)


class TestCacheAndBatching:
    def test_second_burst_served_from_cache(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 4)
        with _sharded(tiny_model, forecasting_data, num_shards=2, mode="replicas") as sharded:
            first = sharded.forecast_many(windows)
            before = sharded.stats().batcher.requests
            second = sharded.forecast_many(windows)
            assert np.array_equal(first, second)
            # No new shard work for a fully cached burst.
            assert sharded.stats().batcher.requests == before

    def test_replica_misses_spread_over_workers(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 6)
        with _sharded(
            tiny_model, forecasting_data, num_shards=2, mode="replicas", cache_entries=0
        ) as sharded:
            sharded.forecast_many(windows)
            per_shard = [stats.requests for stats in sharded.stats().shards]
            assert per_shard == [3, 3]

    def test_empty_batch(self, tiny_model, forecasting_data):
        with _sharded(tiny_model, forecasting_data, num_shards=2) as sharded:
            empty = sharded.forecast_many(np.zeros((0, 12, tiny_model.config.num_nodes, 1)))
            assert empty.shape == (0, 12, tiny_model.config.num_nodes)


class TestStreaming:
    def test_forecast_latest_matches_single_worker(
        self, tiny_model, forecasting_data, single
    ):
        signal = forecasting_data.dataset.signal[:14]
        for step in signal:
            single.ingest(step)
        reference = single.forecast_latest()
        with _sharded(tiny_model, forecasting_data, num_shards=2) as sharded:
            for step in signal:
                sharded.ingest(step)
            produced = sharded.forecast_latest()
            assert np.abs(produced - reference).max() == 0.0
            # A repeat poll between stream advances is a token cache hit.
            again = sharded.forecast_latest()
            assert np.array_equal(produced, again)
            assert sharded.stats().cache.hits >= 1


class TestLifecycleAndErrors:
    def test_close_is_idempotent_and_keeps_serving_lazily(
        self, tiny_model, forecasting_data, single
    ):
        windows = _raw_windows(forecasting_data, 2)
        sharded = _sharded(tiny_model, forecasting_data, num_shards=2)
        reference = single.forecast_many(windows)
        sharded.close()
        sharded.close()
        # Synchronous queries degrade to inline flushes on dead workers.
        assert np.abs(sharded.forecast_many(windows) - reference).max() == 0.0

    def test_forward_error_reaches_every_pending_handle(self, tiny_model, forecasting_data):
        sharded = _sharded(tiny_model, forecasting_data, num_shards=2)
        window = _raw_windows(forecasting_data, 1)[0]

        def broken(batch):
            raise RuntimeError("shard exploded")

        for worker in sharded._workers:
            worker.batcher.forward_fn = broken
        handle = sharded.submit(window)  # queued on one replica
        with pytest.raises(RuntimeError, match="shard exploded"):
            sharded.forecast(window)  # computed on the other
        sharded.close()  # drains the queued request into its handle
        with pytest.raises(RuntimeError, match="batched forward failed"):
            handle.result()
        stats = sharded.stats()
        assert stats.batcher.failed_flushes >= 2  # both replicas recorded it

    def test_inline_drain_never_steals_the_stop_sentinel(self):
        """Regression: a flush_async() racing close() drains the job queue
        inline; consuming the executor's None stop sentinel there would
        leave the worker thread blocked in get() forever and deadlock
        close() in join()."""
        from repro.serving import MicroBatcher
        from repro.serving.service import _ShardWorker

        worker = _ShardWorker(0, MicroBatcher(lambda batch: batch, max_batch_size=8))
        # Reproduce the race deterministically: close() has published the
        # stop flag and queued the sentinel, but the executor has not
        # consumed it yet when a concurrent flush_async() drains inline.
        worker._closed = True
        worker._jobs.put(None)
        job = worker.flush_async()
        assert job.wait() is None
        # The sentinel must still reach the executor loop, which then exits.
        worker._thread.join(timeout=5.0)
        assert not worker._thread.is_alive()
        worker.close()

    def test_stats_shape(self, tiny_model, forecasting_data):
        with _sharded(
            tiny_model, forecasting_data, num_shards=3, linger_ms=50.0
        ) as sharded:
            stats = sharded.stats()
            assert stats.num_shards == 3
            assert len(stats.shards) == 3
            assert stats.flusher is not None and stats.flusher.linger_ms == 50.0
