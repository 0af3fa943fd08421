"""Micro-batch coalescing: batched results must equal per-request forwards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import MicroBatcher
from repro.tensor import Tensor, no_grad


def _windows(forecasting_data, count):
    return forecasting_data.train.inputs[:count]


class TestCoalescingIdentity:
    def test_batched_equals_per_request(self, tiny_model, forecasting_data):
        windows = _windows(forecasting_data, 9)
        batcher = MicroBatcher(tiny_model)
        pending = [batcher.submit(window) for window in windows]
        batcher.flush()
        batched = np.stack([handle.result() for handle in pending], axis=0)

        with no_grad():
            unbatched = np.stack(
                [tiny_model(Tensor(window[None])).data[0] for window in windows], axis=0
            )
        assert np.abs(batched - unbatched).max() <= 1e-10


class TestQueueMechanics:
    def test_result_triggers_lazy_flush(self, tiny_model, forecasting_data):
        batcher = MicroBatcher(tiny_model)
        handle = batcher.submit(_windows(forecasting_data, 1)[0])
        assert not handle.done
        forecast = handle.result()  # no explicit flush
        assert handle.done
        assert forecast.shape == (tiny_model.config.output_length, tiny_model.config.num_nodes)
        assert batcher.pending == 0

    def test_max_batch_size_chunks_queue(self, tiny_model, forecasting_data):
        windows = _windows(forecasting_data, 10)
        batcher = MicroBatcher(tiny_model, max_batch_size=4)
        pending = [batcher.submit(window) for window in windows]
        fulfilled = batcher.flush()
        assert fulfilled == 10
        assert batcher.stats.flushes == 3
        assert batcher.stats.coalesced == 10
        assert batcher.stats.largest_batch == 4
        assert all(handle.done for handle in pending)

    def test_flush_on_empty_queue_is_noop(self, tiny_model):
        batcher = MicroBatcher(tiny_model)
        assert batcher.flush() == 0
        assert batcher.stats.flushes == 0

    def test_stats_amortisation(self, tiny_model, forecasting_data):
        windows = _windows(forecasting_data, 6)
        batcher = MicroBatcher(tiny_model)
        for window in windows:
            batcher.submit(window)
        batcher.flush()
        assert batcher.stats.requests == 6
        assert batcher.stats.mean_batch_size == 6.0
        assert batcher.stats.largest_batch == 6


class TestFailurePropagation:
    def test_forward_error_fails_the_chunk_handles(self, forecasting_data):
        def broken_forward(batch):
            raise RuntimeError("model exploded")

        batcher = MicroBatcher(broken_forward)
        handle = batcher.submit(_windows(forecasting_data, 1)[0])
        with pytest.raises(RuntimeError, match="model exploded"):
            batcher.flush()
        assert handle.done
        with pytest.raises(RuntimeError, match="batched forward failed") as excinfo:
            handle.result()
        assert "model exploded" in str(excinfo.value.__cause__)

    def test_wrong_prediction_count_fails_handles(self, forecasting_data):
        batcher = MicroBatcher(lambda batch: np.zeros((99, 12, 10)))
        handle = batcher.submit(_windows(forecasting_data, 1)[0])
        with pytest.raises(RuntimeError, match="predictions for a"):
            batcher.flush()
        with pytest.raises(RuntimeError):
            handle.result()

    def test_partial_progress_is_recorded_not_discarded(self, forecasting_data):
        """Regression (ISSUE 4): a failing later chunk must not erase the
        earlier chunks' fulfilled count from the stats, and the raised
        error must carry how many requests *did* succeed."""
        calls = {"count": 0}

        def fails_on_second_chunk(batch):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("second chunk exploded")
            data = batch.data
            return np.zeros((data.shape[0], 12, data.shape[2]))

        batcher = MicroBatcher(fails_on_second_chunk, max_batch_size=3)
        windows = _windows(forecasting_data, 8)
        pending = [batcher.submit(window) for window in windows]
        with pytest.raises(RuntimeError, match="second chunk exploded") as excinfo:
            batcher.flush()
        # The first chunk's progress survives on the error and in the stats.
        assert excinfo.value.fulfilled_before_error == 3
        assert batcher.stats.flushes == 1
        assert batcher.stats.coalesced == 3
        assert batcher.stats.failed_flushes == 1
        assert batcher.stats.failed_requests == 3
        # First chunk fulfilled, second failed, third still queued.
        assert [handle.done for handle in pending] == [True] * 6 + [False] * 2
        assert batcher.pending == 2
        # The remaining chunk drains on the next flush.
        assert batcher.flush() == 2
        assert batcher.stats.coalesced == 5

    def test_failed_requests_never_count_as_coalesced(self, forecasting_data):
        def broken_forward(batch):
            raise RuntimeError("boom")

        batcher = MicroBatcher(broken_forward)
        batcher.submit(_windows(forecasting_data, 1)[0])
        with pytest.raises(RuntimeError) as excinfo:
            batcher.flush()
        assert excinfo.value.fulfilled_before_error == 0
        assert batcher.stats.flushes == 0
        assert batcher.stats.coalesced == 0
        assert batcher.stats.failed_flushes == 1
        assert batcher.stats.failed_requests == 1
        assert batcher.stats.mean_batch_size == 0.0


class TestValidation:
    def test_rejects_mismatched_window_shape(self, tiny_model, forecasting_data):
        batcher = MicroBatcher(tiny_model)
        batcher.submit(_windows(forecasting_data, 1)[0])
        with pytest.raises(ValueError, match="differs from the pending batch"):
            batcher.submit(np.zeros((6, 3, 1)))

    def test_rejects_non_window_input(self, tiny_model):
        batcher = MicroBatcher(tiny_model)
        with pytest.raises(ValueError, match=r"\(T, N, F\)"):
            batcher.submit(np.zeros((12, 4)))

    def test_rejects_bad_configuration(self, tiny_model):
        with pytest.raises(ValueError):
            MicroBatcher(tiny_model, max_batch_size=0)
