"""Sharded serving: bit-parity with the single worker, routing, lifecycle."""

from __future__ import annotations

import glob
import os
import tempfile

import numpy as np
import pytest

from repro.serving import ForecastService, ShardedForecastService
from repro.training import save_model_checkpoint


@pytest.fixture()
def single(tiny_model, forecasting_data):
    with ForecastService(
        tiny_model, scaler=forecasting_data.scaler, cache_entries=64
    ) as service:
        yield service


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

    def test_nodes_mode_was_removed(self, tiny_model):
        with pytest.raises(ValueError, match="node sharding was removed"):
            ShardedForecastService(tiny_model, mode="nodes")
        with ShardedForecastService(tiny_model) as service:
            assert service.num_shards == 2

    def test_bad_linger_rejected_before_workers_spawn(
        self, tiny_model, forecasting_data
    ):
        """A constructor that raises starts nothing, and a serving process
        fleet runs no parent thread per replica."""
        import threading

        with pytest.raises(ValueError, match="linger_ms"):
            ShardedForecastService(tiny_model, num_shards=4, linger_ms=0.0)
        before = {thread.ident for thread in threading.enumerate()}
        with _sharded(tiny_model, forecasting_data, num_shards=2, cache_entries=0) as sharded:
            sharded.forecast_many(_raw_windows(forecasting_data, 4))
            started = [
                thread.name
                for thread in threading.enumerate()
                if thread.ident not in before and thread.name.startswith("repro-")
            ]
        # No repro-shard-* worker threads: only each replica's own
        # dispatcher, one per worker process.
        assert sorted(started) == ["repro-process-shard-0", "repro-process-shard-1"]


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
        def spill_dirs():
            return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-plan-spill-*")))

        before = spill_dirs()
        windows = _raw_windows(forecasting_data, 2)
        sharded = _sharded(tiny_model, forecasting_data, num_shards=2)
        reference = single.forecast_many(windows)
        sharded.close()
        sharded.close()
        # Synchronous queries degrade to inline flushes on dead workers.
        assert np.abs(sharded.forecast_many(windows) - reference).max() == 0.0
        # Those flushes compile in the parent; none re-creates the removed
        # spill directory, which nothing would sweep again.
        assert spill_dirs() == before

    def test_forward_error_reaches_every_pending_handle(self, tiny_model, forecasting_data):
        sharded = _sharded(tiny_model, forecasting_data, num_shards=2)
        window = _raw_windows(forecasting_data, 1)[0]

        def broken(batch):
            raise RuntimeError("shard exploded")

        for batcher in sharded._gen.batchers:
            batcher.forward_fn = broken
        handle = sharded.submit(window)  # queued on one replica
        with pytest.raises(RuntimeError, match="shard exploded"):
            sharded.forecast(window)  # computed on the other
        sharded.close()  # drains the queued request into its handle
        with pytest.raises(RuntimeError, match="batched forward failed"):
            handle.result()
        stats = sharded.stats()
        assert stats.batcher.failed_flushes >= 2  # both replicas recorded it

    def test_stats_shape(self, tiny_model, forecasting_data):
        with _sharded(
            tiny_model, forecasting_data, num_shards=3, linger_ms=50.0
        ) as sharded:
            stats = sharded.stats()
            assert stats.num_shards == 3
            assert len(stats.shards) == 3
            assert stats.flusher is not None and stats.flusher.linger_ms == 50.0


class TestOneDrain:
    """A drain over K process replicas dispatches every replica's chunk
    before it settles any, on the caller's thread."""

    @staticmethod
    def _record_order(monkeypatch):
        from repro.serving import ProcessShardExecutor

        events = []
        dispatch = ProcessShardExecutor.dispatch

        def recorded_dispatch(self, shard, *args, **kwargs):
            settle = dispatch(self, shard, *args, **kwargs)
            events.append(("dispatch", shard))

            def recorded_settle():
                events.append(("settle", shard))
                return settle()

            return recorded_settle

        monkeypatch.setattr(ProcessShardExecutor, "dispatch", recorded_dispatch)
        return events

    @staticmethod
    def _assert_overlapped(events):
        assert [kind for kind, _ in events] == ["dispatch", "dispatch", "settle", "settle"]
        assert sorted(shard for _, shard in events[:2]) == [0, 1]

    def test_forecast_many_dispatches_both_replicas_before_settling(
        self, tiny_model, forecasting_data, single, monkeypatch
    ):
        windows = _raw_windows(forecasting_data, 4)
        with _sharded(tiny_model, forecasting_data, num_shards=2, cache_entries=0) as sharded:
            sharded.forecast_many(windows)  # spawn both workers first
            events = self._record_order(monkeypatch)
            produced = sharded.forecast_many(windows)
        self._assert_overlapped(events)
        assert np.abs(produced - single.forecast_many(windows)).max() == 0.0

    def test_hot_swap_retirement_drain_dispatches_both_replicas_first(
        self, tiny_model, forecasting_data, single, monkeypatch, tmp_path
    ):
        path = save_model_checkpoint(
            tiny_model,
            tmp_path / "next.npz",
            adjacency=forecasting_data.adjacency,
            scaler=forecasting_data.scaler,
        )
        windows = _raw_windows(forecasting_data, 2)
        with _sharded(tiny_model, forecasting_data, num_shards=2, cache_entries=0) as sharded:
            sharded.forecast_many(windows)  # spawn both workers first
            handles = [sharded.submit(window) for window in windows]  # one per replica
            events = self._record_order(monkeypatch)
            sharded.swap_checkpoint(path)
            assert all(handle.done for handle in handles)
            produced = np.stack([handle.result() for handle in handles])
        self._assert_overlapped(events)
        assert np.abs(produced - single.forecast_many(windows)).max() == 0.0
