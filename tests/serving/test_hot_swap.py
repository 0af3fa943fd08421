"""Zero-downtime hot checkpoint swap (ISSUE 8): atomic generation
publication, version-keyed cache invalidation, scaler re-normalisation,
artifact adoption, and torn-request checks under concurrent traffic on
both executors."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import DyHSL
from repro.data.scalers import StandardScaler
from repro.serving import (
    FaultPlan,
    FaultSpec,
    ForecastService,
    ShardedForecastService,
    SwapReport,
    inject,
)
from repro.tensor import seed as seed_everything
from repro.training import save_model_checkpoint, save_plan_artifacts


@pytest.fixture()
def other_model(tiny_config, forecasting_data):
    """A second set of weights with the same geometry (the 'new' release)."""
    seed_everything(11)
    return DyHSL(tiny_config, forecasting_data.adjacency).eval()


@pytest.fixture()
def checkpoint_a(tiny_model, forecasting_data, tmp_path):
    return save_model_checkpoint(
        tiny_model,
        tmp_path / "release_a",
        adjacency=forecasting_data.adjacency,
        scaler=forecasting_data.scaler,
    )


@pytest.fixture()
def checkpoint_b(other_model, forecasting_data, tmp_path):
    return save_model_checkpoint(
        other_model,
        tmp_path / "release_b",
        adjacency=forecasting_data.adjacency,
        scaler=forecasting_data.scaler,
    )


def _raw_window(forecasting_data, index=0):
    return forecasting_data.dataset.signal[index : index + 12]


def _raw_steps(forecasting_data, count, start=0):
    return forecasting_data.dataset.signal[start : start + count, :, 0]


def _in_flight_submit_check(service, window, expected_old, expected_new, checkpoint):
    """A handle queued before a swap settles on the old weights; requests
    after it see the new ones."""
    handle = service.submit(window)  # queued on generation A
    service.swap_checkpoint(checkpoint)
    np.testing.assert_array_equal(handle.result(), expected_old)
    # New requests see the new weights.
    np.testing.assert_array_equal(service.forecast(window), expected_new)


def _counters_survive_check(service, window, checkpoint):
    """Batcher and retry counters are merged across retired generations,
    not reset."""
    plan = FaultPlan.build(0, [FaultSpec("forward.call", action="raise", max_fires=1)])
    with inject(plan):
        service.submit(window).result()  # retried once
    for _ in range(2):
        service.submit(window).result()
    service.swap_checkpoint(checkpoint)
    for _ in range(2):
        service.submit(window).result()
    assert service.stats().batcher.requests == 5
    assert service.health().retries == 1


class TestSingleServiceSwap:
    def test_swap_serves_the_new_weights(
        self, tiny_model, other_model, forecasting_data, checkpoint_b
    ):
        service = ForecastService(tiny_model, scaler=forecasting_data.scaler)
        reference = ForecastService(other_model, scaler=forecasting_data.scaler)
        window = _raw_window(forecasting_data)
        before = service.forecast(window)

        report = service.swap_checkpoint(checkpoint_b)

        assert isinstance(report, SwapReport)
        assert report.old_version != report.new_version
        assert service.model_version == report.new_version
        assert service.stats().swaps == 1
        after = service.forecast(window)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, reference.forecast(window))

    def test_swap_invalidates_cached_answers_by_version(
        self, tiny_model, forecasting_data, checkpoint_b
    ):
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=64
        )
        window = _raw_window(forecasting_data)
        before = service.forecast(window)
        service.forecast(window)  # populate + hit under the old version
        hits_before = service.stats().cache.hits
        assert hits_before >= 1

        service.swap_checkpoint(checkpoint_b)

        after = service.forecast(window)
        assert not np.array_equal(before, after)
        # The old entry could not answer: the post-swap query was a miss.
        assert service.stats().cache.hits == hits_before

    def test_swap_renormalises_the_streaming_ring_for_a_new_scaler(
        self, tiny_model, other_model, forecasting_data, tmp_path
    ):
        rescaler = StandardScaler()
        rescaler.fit(forecasting_data.dataset.signal[..., 0] * 1.7 + 11.0)
        path = save_model_checkpoint(
            other_model,
            tmp_path / "rescaled",
            adjacency=forecasting_data.adjacency,
            scaler=rescaler,
        )
        service = ForecastService(tiny_model, scaler=forecasting_data.scaler)
        steps = _raw_steps(forecasting_data, 12)
        for step in steps:
            service.ingest(step)

        report = service.swap_checkpoint(path)
        assert report.scaler_changed

        # A fresh service on scaler B fed the same raw steps must agree
        # exactly: the ring was re-normalised, not left on the old scale.
        fresh = ForecastService(other_model, scaler=rescaler)
        for step in steps:
            fresh.ingest(step)
        np.testing.assert_allclose(
            service.forecast_latest(), fresh.forecast_latest(), rtol=0, atol=1e-9
        )

    def test_swap_rejects_a_geometry_mismatch(
        self, tiny_model, tiny_config, forecasting_data, tmp_path
    ):
        import dataclasses

        small_config = dataclasses.replace(
            tiny_config, num_nodes=forecasting_data.num_nodes - 2
        )
        seed_everything(3)
        adjacency = forecasting_data.adjacency[:-2, :-2]
        small = DyHSL(small_config, adjacency).eval()
        path = save_model_checkpoint(small, tmp_path / "small", adjacency=adjacency)
        service = ForecastService(tiny_model, scaler=forecasting_data.scaler)
        old_version = service.model_version
        with pytest.raises(ValueError, match="cannot hot-swap"):
            service.swap_checkpoint(path)
        # The failed swap left the live generation untouched.
        assert service.model_version == old_version
        assert service.stats().swaps == 0

    def test_swap_adopts_aot_artifacts_instead_of_retracing(
        self, tiny_model, other_model, forecasting_data, checkpoint_b, tmp_path
    ):
        window = _raw_window(forecasting_data)
        save_plan_artifacts(other_model, checkpoint_b, examples=[window[None]])
        service = ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            artifact_dir=tmp_path / "deployment_store",
        )
        report = service.swap_checkpoint(checkpoint_b)
        assert report.artifacts_adopted > 0
        assert report.plans_reused >= 1
        assert report.plans_compiled == 0
        reference = ForecastService(other_model, scaler=forecasting_data.scaler)
        np.testing.assert_array_equal(
            service.forecast(window), reference.forecast(window)
        )

    def test_in_flight_submit_completes_on_the_old_generation(
        self, tiny_model, other_model, forecasting_data, checkpoint_b
    ):
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        )
        window = _raw_window(forecasting_data)
        expected_new = ForecastService(
            other_model, scaler=forecasting_data.scaler, cache_entries=0
        ).forecast(window)
        expected_old = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        ).forecast(window)
        _in_flight_submit_check(service, window, expected_old, expected_new, checkpoint_b)

    def test_batcher_counters_survive_the_swap(
        self, tiny_model, forecasting_data, checkpoint_b
    ):
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        )
        _counters_survive_check(service, _raw_window(forecasting_data), checkpoint_b)

    def test_repeated_swaps_roll_forward_and_back(
        self, tiny_model, forecasting_data, checkpoint_a, checkpoint_b
    ):
        service = ForecastService(tiny_model, scaler=forecasting_data.scaler)
        window = _raw_window(forecasting_data)
        original = service.forecast(window)
        service.swap_checkpoint(checkpoint_b)
        service.swap_checkpoint(checkpoint_a)
        assert service.stats().swaps == 2
        np.testing.assert_array_equal(service.forecast(window), original)


class TestShardedSwap:
    def test_sharded_swap_matches_a_fresh_service(
        self, tiny_model, other_model, forecasting_data, checkpoint_b
    ):
        window = _raw_window(forecasting_data)
        reference = ForecastService(other_model, scaler=forecasting_data.scaler)
        with ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
        ) as sharded:
            before = sharded.forecast(window)
            report = sharded.swap_checkpoint(checkpoint_b)
            assert report.new_version == sharded.model_version
            assert sharded.stats().swaps == 1
            after = sharded.forecast(window)
            assert not np.array_equal(before, after)
            np.testing.assert_array_equal(after, reference.forecast(window))

    def test_process_tier_swap_replays_new_generation_plans(
        self, tiny_model, other_model, forecasting_data, checkpoint_b
    ):
        window = _raw_window(forecasting_data)
        reference = ForecastService(other_model, scaler=forecasting_data.scaler)
        with ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            executor="processes",
        ) as sharded:
            before = sharded.forecast(window)
            sharded.swap_checkpoint(checkpoint_b)
            after = sharded.forecast(window)
            assert not np.array_equal(before, after)
            np.testing.assert_array_equal(after, reference.forecast(window))
            # Old-generation answers are version-partitioned in the cache.
            assert sharded.stats().swaps == 1

    def test_in_flight_submit_completes_on_the_old_generation(
        self, tiny_model, other_model, forecasting_data, checkpoint_b
    ):
        """Process replicas: the queued handle's forward pins the old
        generation's provider set, so it replays the old plans."""
        window = _raw_window(forecasting_data)
        expected_new = ForecastService(
            other_model, scaler=forecasting_data.scaler, cache_entries=0
        ).forecast(window)
        expected_old = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        ).forecast(window)
        with ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0,
            num_shards=2, executor="processes",
        ) as replicas:
            _in_flight_submit_check(
                replicas, window, expected_old, expected_new, checkpoint_b
            )

    def test_batcher_counters_survive_the_swap(
        self, tiny_model, forecasting_data, checkpoint_b
    ):
        with ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0,
            num_shards=2, executor="processes",
        ) as replicas:
            _counters_survive_check(replicas, _raw_window(forecasting_data), checkpoint_b)

    def test_sharded_swap_keeps_streaming_forecasts_finite(
        self, tiny_model, forecasting_data, checkpoint_b
    ):
        with ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            mode="replicas",
        ) as sharded:
            for step in _raw_steps(forecasting_data, 12):
                sharded.ingest(step)
            before = sharded.forecast_latest()
            sharded.swap_checkpoint(checkpoint_b)
            after = sharded.forecast_latest()
            assert np.isfinite(after).all()
            assert not np.array_equal(before, after)


def _torn_request_check(service, window, expected_old, expected_new, checkpoint):
    """Issue forecasts concurrently with a swap; every answer must exactly
    equal the old-weights or new-weights expectation — never a mix."""
    results = []
    errors = []
    barrier = threading.Barrier(4)
    # The swap waits until every traffic thread has served one request, so
    # the run always sees traffic, however fast the swap lands.
    served = threading.Barrier(4)
    done = threading.Event()

    def traffic():
        try:
            barrier.wait()
            results.append(np.asarray(service.forecast(window)))
            served.wait()
            while not done.is_set():
                results.append(np.asarray(service.forecast(window)))
        except BaseException as error:  # pragma: no cover
            errors.append(error)
            served.abort()
            done.set()

    threads = [threading.Thread(target=traffic) for _ in range(3)]
    for thread in threads:
        thread.start()
    barrier.wait()
    try:
        served.wait()
    except threading.BrokenBarrierError:  # pragma: no cover - a thread failed
        pass
    service.swap_checkpoint(checkpoint)
    done.set()
    for thread in threads:
        thread.join()

    assert errors == []
    assert results  # the workers actually served traffic during the swap
    for forecast in results:
        matches_old = np.array_equal(forecast, expected_old)
        matches_new = np.array_equal(forecast, expected_new)
        assert matches_old or matches_new, "version-torn forecast served"
    # And the service has fully converged on the new weights.
    np.testing.assert_array_equal(service.forecast(window), expected_new)


class TestNoTornRequests:
    """Acceptance criterion: zero failed or version-torn requests while a
    swap lands under concurrent traffic — on both executors."""

    @pytest.fixture()
    def expectations(self, tiny_model, other_model, forecasting_data):
        window = _raw_window(forecasting_data)
        old = ForecastService(tiny_model, scaler=forecasting_data.scaler)
        new = ForecastService(other_model, scaler=forecasting_data.scaler)
        return window, old.forecast(window), new.forecast(window)

    def test_single_service(self, tiny_model, forecasting_data, checkpoint_b, expectations):
        window, expected_old, expected_new = expectations
        service = ForecastService(
            tiny_model, scaler=forecasting_data.scaler, cache_entries=0
        )
        _torn_request_check(service, window, expected_old, expected_new, checkpoint_b)

    def test_sharded_processes(self, tiny_model, forecasting_data, checkpoint_b, expectations):
        window, expected_old, expected_new = expectations
        with ShardedForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            num_shards=2,
            executor="processes",
            cache_entries=0,
        ) as sharded:
            _torn_request_check(
                sharded, window, expected_old, expected_new, checkpoint_b
            )
