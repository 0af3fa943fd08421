"""Process-backed serving tier: shared-memory plan replay, lanes, faults.

The contract under test (ISSUE 7): worker processes replay compiled plan
artifacts bit-identically to in-process plans, interactive requests overtake
bulk backfill, overload is rejected at accept time, and a killed worker is
detected, reported with partial progress, and respawned — all without the
child ever tracing a model or the parent pickling an array payload.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    ArtifactStore,
    bind_plan,
    compile_plan,
    plan_workspace_nbytes,
)
from repro.serving import (
    START_METHOD_ENV_VAR,
    FaultPlan,
    FaultSpec,
    ForecastService,
    ProcessShardExecutor,
    ServiceOverloaded,
    ShardedForecastService,
    process_tier,
    resolve_start_method,
)


def _raw_windows(forecasting_data, count, start=0):
    signal_ = forecasting_data.dataset.signal
    return np.stack([signal_[i : i + 12] for i in range(start, start + count)], axis=0)


def _sharded(tiny_model, forecasting_data, **kwargs):
    kwargs.setdefault("cache_entries", 64)
    kwargs.setdefault("executor", "processes")
    return ShardedForecastService(
        tiny_model, scaler=forecasting_data.scaler, **kwargs
    )


@pytest.fixture()
def single(tiny_model, forecasting_data):
    with ForecastService(
        tiny_model, scaler=forecasting_data.scaler, cache_entries=64
    ) as service:
        yield service


def _executor(tiny_model, forecasting_data, **kwargs):
    config = tiny_model.config
    kwargs.setdefault("num_shards", 1)
    return ProcessShardExecutor(
        window_shape=(config.input_length, config.num_nodes, config.input_dim),
        output_length=config.output_length,
        num_nodes=config.num_nodes,
        **kwargs,
    )


def _dispatch_delay(delay_ms):
    """A plan that slows every request a worker serves by ``delay_ms``."""
    return FaultPlan.build(0, [FaultSpec("worker.dispatch", "delay", delay_ms=delay_ms)])


class TestResolvers:
    def test_unknown_executor_rejected(self, tiny_model):
        for executor in ("fibers", "threads"):
            with pytest.raises(ValueError, match="unknown executor"):
                ForecastService(tiny_model, num_shards=2, executor=executor)

    def test_start_method_prefers_fork(self, monkeypatch):
        monkeypatch.delenv(START_METHOD_ENV_VAR, raising=False)
        import multiprocessing as mp

        expected = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        assert resolve_start_method() == expected

    def test_start_method_env_and_argument(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV_VAR, "spawn")
        assert resolve_start_method() == "spawn"
        assert resolve_start_method("fork") == "fork"

    def test_unavailable_start_method_rejected(self):
        with pytest.raises(ValueError, match="not available"):
            resolve_start_method("no-such-method")


class TestWorkspaceBinding:
    """bind_plan(workspace=): the exported-buffer half of the shm protocol."""

    @pytest.fixture()
    def plan_and_batch(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 2)
        batch = forecasting_data.scaler.transform(windows)
        return compile_plan(tiny_model, batch), batch

    def test_workspace_plan_is_bit_identical_to_heap(self, plan_and_batch):
        heap_plan, batch = plan_and_batch
        spec = heap_plan.spec
        values = list(heap_plan._values)
        workspace = np.zeros(plan_workspace_nbytes(spec.storage_sizes), dtype=np.uint8)
        ws_plan = bind_plan(spec, values, workspace=workspace)
        expected = heap_plan.call(batch)
        produced = ws_plan.call(batch)
        assert np.abs(produced - expected).max() == 0.0

    def test_workspace_nbytes_is_aligned_and_sufficient(self, plan_and_batch):
        heap_plan, _ = plan_and_batch
        sizes = heap_plan.spec.storage_sizes
        total = plan_workspace_nbytes(sizes)
        assert total >= sum(int(nbytes) for nbytes in sizes)
        # Exactly-sized buffer binds; one byte short does not.
        bind_plan(heap_plan.spec, list(heap_plan._values),
                  workspace=np.zeros(total, dtype=np.uint8))
        with pytest.raises(ValueError, match="smaller than"):
            bind_plan(heap_plan.spec, list(heap_plan._values),
                      workspace=np.zeros(max(total - 1, 0), dtype=np.uint8))

    def test_workspace_must_be_flat_uint8(self, plan_and_batch):
        heap_plan, _ = plan_and_batch
        total = plan_workspace_nbytes(heap_plan.spec.storage_sizes)
        with pytest.raises(ValueError, match="flat uint8"):
            bind_plan(heap_plan.spec, list(heap_plan._values),
                      workspace=np.zeros(total, dtype=np.float64))
        with pytest.raises(ValueError, match="flat uint8"):
            bind_plan(heap_plan.spec, list(heap_plan._values),
                      workspace=np.zeros((2, total), dtype=np.uint8))

    def test_artifact_store_bind_round_trip(self, plan_and_batch, tmp_path):
        heap_plan, batch = plan_and_batch
        spec = heap_plan.spec
        constants = {slot: heap_plan._values[slot] for slot in spec.const_slots}
        store = ArtifactStore(tmp_path / "plans")
        store.save("demo", spec, constants)
        store.forget("demo")  # force the disk path
        bound = store.bind("demo")
        assert bound is not None
        assert np.abs(bound.call(batch) - heap_plan.call(batch)).max() == 0.0
        assert store.bind("missing") is None

    def test_peek_is_stat_neutral(self, plan_and_batch, tmp_path):
        heap_plan, _ = plan_and_batch
        spec = heap_plan.spec
        constants = {slot: heap_plan._values[slot] for slot in spec.const_slots}
        store = ArtifactStore(tmp_path / "plans")
        store.save("demo", spec, constants)
        before = store.stats()
        assert store.peek("demo") is not None
        assert store.peek("missing") is None
        after = store.stats()
        assert (after.loads, after.memo_hits, after.misses) == (
            before.loads, before.memo_hits, before.misses,
        )


class TestProcessParity:
    """float64 bit-parity (max|diff| == 0) between process and inline workers."""

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_forecast_many_bit_identical(
        self, tiny_model, forecasting_data, single, num_shards
    ):
        windows = _raw_windows(forecasting_data, 5)
        reference = single.forecast_many(windows)
        with _sharded(tiny_model, forecasting_data, num_shards=num_shards) as service:
            produced = service.forecast_many(windows)
            assert service.executor == "processes"
            assert np.abs(produced - reference).max() == 0.0
            tier = service.stats().process_tier
            assert tier is not None and tier.workers >= 1
            assert tier.bulk_rows >= len(windows)

    def test_single_forecast_and_horizon(self, tiny_model, forecasting_data, single):
        window = _raw_windows(forecasting_data, 1)[0]
        with _sharded(tiny_model, forecasting_data, num_shards=2) as service:
            assert np.array_equal(service.forecast(window), single.forecast(window))
            assert np.array_equal(
                service.forecast(window, horizon=4), single.forecast(window, horizon=4)
            )

    def test_forecast_latest_bit_identical(self, tiny_model, forecasting_data, single):
        signal_ = forecasting_data.dataset.signal[:14]
        for step in signal_:
            single.ingest(step)
        reference = single.forecast_latest()
        with _sharded(
            tiny_model, forecasting_data, num_shards=2, cache_entries=0
        ) as service:
            for step in signal_:
                service.ingest(step)
            produced = service.forecast_latest()
            assert np.abs(produced - reference).max() == 0.0
            tier = service.stats().process_tier
            assert tier is not None and tier.interactive_batches >= 1

    def test_spawn_workers_bit_identical(self, tiny_model, forecasting_data, single):
        windows = _raw_windows(forecasting_data, 3)
        reference = single.forecast_many(windows)
        with _sharded(
            tiny_model,
            forecasting_data,
            num_shards=2,
            start_method="spawn",
        ) as service:
            produced = service.forecast_many(windows)
            assert np.abs(produced - reference).max() == 0.0
            tier = service.stats().process_tier
            assert tier is not None and tier.start_method == "spawn"

    def test_float32_service_and_float64_override(
        self, tiny_model, forecasting_data, single
    ):
        windows = _raw_windows(forecasting_data, 3)
        reference64 = single.forecast_many(windows)
        with ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            precision="float32",
            cache_entries=0,
        ) as inline32, _sharded(
            tiny_model,
            forecasting_data,
            num_shards=2,
            precision="float32",
            cache_entries=0,
        ) as service:
            # The float32 deployment matches the inline worker bit for bit...
            reference32 = inline32.forecast_many(windows)
            assert np.abs(service.forecast_many(windows) - reference32).max() == 0.0
            # ...and its per-request float64 SLA path matches full precision.
            produced = service.forecast_many(windows, precision="float64")
            assert np.abs(produced - reference64).max() == 0.0

    def test_warm_start_from_shared_store(
        self, tiny_model, forecasting_data, single, tmp_path, plan_engine
    ):
        windows = _raw_windows(forecasting_data, 2)
        reference = single.forecast_many(windows)
        store = ArtifactStore(tmp_path / "plans")
        with _sharded(
            tiny_model, forecasting_data, num_shards=2, artifact_dir=store
        ) as service:
            assert np.abs(service.forecast_many(windows) - reference).max() == 0.0
        assert store.stats().saves >= 1
        # Second fleet binds the published artifacts instead of recompiling.
        with _sharded(
            tiny_model, forecasting_data, num_shards=2,
            artifact_dir=ArtifactStore(store.root),
        ) as service:
            assert np.abs(service.forecast_many(windows) - reference).max() == 0.0
            compiles = plan_engine(service).cache_info().compiles
        assert compiles == 0


class TestPriorityLanes:
    def test_interactive_overtakes_bulk_backfill(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 6)
        batch = forecasting_data.scaler.transform(windows)
        with _executor(
            tiny_model,
            forecasting_data,
            bulk_chunk_rows=1,
            fault_plan=_dispatch_delay(50.0),
        ) as executor:
            gen = executor.generation(tiny_model)
            # Warm up: compile + spawn outside the timed region.
            executor.call(0, batch[:1], lane="interactive", pset=gen)

            bulk_result: list = []

            def backfill():
                bulk_result.append(executor.call(0, batch, lane="bulk", pset=gen))

            thread = threading.Thread(target=backfill)
            thread.start()
            while executor.lane_pending("bulk") == 0:  # dispatch has begun
                time.sleep(0.001)
            produced = executor.call(0, batch[:1], lane="interactive", pset=gen)
            # The interactive answer arrived while bulk chunks still queued:
            # it overtook them rather than waiting for the whole backfill.
            assert executor.lane_pending("bulk") > 0
            thread.join()
            stats = executor.stats()
            assert stats.interactive_batches >= 2
            assert stats.bulk_batches == len(windows)
            assert np.abs(produced - bulk_result[0][:1]).max() == 0.0

    def test_lane_names_validated(self, tiny_model, forecasting_data):
        with _executor(tiny_model, forecasting_data) as executor:
            with pytest.raises(ValueError, match="unknown lane"):
                executor.call(0, np.zeros((1, 12, tiny_model.config.num_nodes, 1)),
                              lane="express", pset=executor.generation(tiny_model))


class TestAdmissionControl:
    """The lane gates are the same on every executor: the inline worker
    covers them, and the process fleet where its dispatch queues count."""

    def test_zero_bulk_depth_fast_rejects(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 3)
        service = ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            cache_entries=0,
            bulk_queue_depth=0,
        )
        try:
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.forecast_many(windows)
            assert excinfo.value.lane == "bulk"
            assert excinfo.value.limit == 0
            lanes = {lane.lane: lane for lane in service.stats().lanes}
            assert lanes["bulk"].rejected == len(windows)
            assert lanes["bulk"].depth_limit == 0
        finally:
            service.close()

    def test_zero_interactive_depth_fast_rejects(self, tiny_model, forecasting_data):
        service = ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            cache_entries=0,
            interactive_queue_depth=0,
        )
        try:
            for step in forecasting_data.dataset.signal[:13]:
                service.ingest(step)
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.forecast_latest()
            assert excinfo.value.lane == "interactive"
            lanes = {lane.lane: lane for lane in service.stats().lanes}
            assert lanes["interactive"].rejected == 1
        finally:
            service.close()

    def test_generous_depth_admits_and_counts(
        self, tiny_model, forecasting_data, single
    ):
        windows = _raw_windows(forecasting_data, 3)
        with _sharded(
            tiny_model,
            forecasting_data,
            num_shards=2,
            cache_entries=0,
            bulk_queue_depth=64,
        ) as service:
            produced = service.forecast_many(windows)
            assert np.abs(produced - single.forecast_many(windows)).max() == 0.0
            lanes = {lane.lane: lane for lane in service.stats().lanes}
            assert lanes["bulk"].admitted >= len(windows)
            assert lanes["bulk"].rejected == 0

    def test_negative_depth_rejected_before_spawn(self, tiny_model, forecasting_data):
        with pytest.raises(ValueError, match="bulk_queue_depth"):
            _sharded(
                tiny_model, forecasting_data, num_shards=2, mode="replicas",
                bulk_queue_depth=-1,
            )

    def test_cache_hits_bypass_admission(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 2)
        service = ForecastService(
            tiny_model,
            scaler=forecasting_data.scaler,
            cache_entries=64,
        )
        try:
            first = service.forecast_many(windows)
            # Tighten the gate after the cache is warm: hits still served.
            service._gates["bulk"].limit = 0
            again = service.forecast_many(windows)
            assert np.array_equal(first, again)
        finally:
            service.close()


class TestFaultInjection:
    def test_killed_worker_reports_partial_progress_and_respawns(
        self, tiny_model, forecasting_data, single
    ):
        windows = _raw_windows(forecasting_data, 4)
        batch = forecasting_data.scaler.transform(windows)
        with _executor(
            tiny_model,
            forecasting_data,
            bulk_chunk_rows=1,
            fault_plan=_dispatch_delay(200.0),
        ) as executor:
            gen = executor.generation(tiny_model)
            reference = executor.call(0, batch, pset=gen)  # warm: compile + spawn
            (pid,) = executor.worker_pids()
            errors: list = []

            def backfill():
                try:
                    executor.call(0, batch, pset=gen)
                except RuntimeError as error:
                    errors.append(error)

            thread = threading.Thread(target=backfill)
            thread.start()
            while executor.lane_pending("bulk") == 0:
                time.sleep(0.001)
            os.kill(pid, signal.SIGKILL)
            thread.join()
            assert len(errors) == 1
            assert "died mid-batch" in str(errors[0])
            fulfilled = errors[0].fulfilled_before_error
            assert 0 <= fulfilled < len(windows)
            # The tier respawned and keeps serving the same bits.
            produced = executor.call(0, batch, pset=gen)
            assert np.abs(produced - reference).max() == 0.0
            stats = executor.stats()
            assert stats.respawns >= 1
            assert executor.worker_pids()[0] != pid

    def test_killed_worker_service_keeps_serving(
        self, tiny_model, forecasting_data, single
    ):
        windows = _raw_windows(forecasting_data, 3)
        reference = single.forecast_many(windows)
        with _sharded(
            tiny_model, forecasting_data, num_shards=1, mode="replicas",
            cache_entries=0,
        ) as service:
            assert np.abs(service.forecast_many(windows) - reference).max() == 0.0
            (pid,) = service._tier.worker_pids()
            os.kill(pid, signal.SIGKILL)
            # The dead worker is detected on the next dispatch; the error
            # surfaces (nothing is silently dropped) and the respawned
            # worker serves the retry bit-identically.
            try:
                retry = service.forecast_many(windows)
            except RuntimeError:
                retry = service.forecast_many(windows)
            assert np.abs(retry - reference).max() == 0.0
            assert service.stats().process_tier.respawns >= 1

    def test_hung_worker_is_distinct_from_killed(self, tiny_model, forecasting_data):
        """A wedged worker (alive, heartbeat silent) trips the watchdog.

        Distinct from the SIGKILL path above: the process never exits on
        its own, so detection comes from the heartbeat beacon going stale,
        reaping needs the join -> terminate escalation, and the typed
        error says "wedged (hang watchdog)", not "died".
        """
        from repro.serving import (
            ResilienceConfig,
            RetryPolicy,
            WatchdogConfig,
            WorkerCrashed,
        )
        from repro.serving.faults import _decision

        # Dispatch visit 0 must stay safe on every worker incarnation (a
        # respawned worker restarts its deterministic visit stream at 0);
        # visit 1 wedges the serve loop.
        probability = 0.5
        seed = next(
            s for s in range(20_000)
            if _decision(s, "worker.dispatch", 0) >= probability
            and _decision(s, "worker.dispatch", 1) < probability
        )
        plan = FaultPlan.build(
            seed, [FaultSpec("worker.dispatch", action="hang", probability=probability)]
        )
        service = _sharded(
            tiny_model,
            forecasting_data,
            num_shards=1,
            mode="replicas",
            cache_entries=0,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1),  # surface the typed error
                watchdog=WatchdogConfig(hang_timeout_s=0.5),
            ),
            fault_plan=plan,
        )
        try:
            window = forecasting_data.dataset.signal[:12]
            reference = service.forecast(window)  # dispatch visit 0: safe
            first_pid = service._tier.worker_pids()[0]
            with pytest.raises(WorkerCrashed) as excinfo:
                service.forecast(window)  # visit 1: the serve loop wedges
            assert excinfo.value.hung
            assert "wedged (hang watchdog) mid-batch" in str(excinfo.value)
            assert "died mid-batch" not in str(excinfo.value)
            stats = service.stats().process_tier
            assert stats.hung_detections == 1
            assert stats.respawns >= 1
            # A wedged process never joins politely: reaping escalated.
            assert stats.escalations >= 1
            assert service._tier.worker_pids()[0] != first_pid
            row = service._tier.worker_health()[0]
            assert row["hung_detections"] == 1 and row["alive"]
            health = service.health()
            assert health.healthy
            assert health.shards[0].hung_detections == 1
            # Post-recovery parity: the respawned worker serves the same
            # bits (its visit 0 is safe again by construction).
            np.testing.assert_array_equal(service.forecast(window), reference)
        finally:
            service.close()

    def test_starting_worker_is_not_hung(self, tiny_model, forecasting_data, single):
        """A spawned worker still importing has written no beacon yet.

        Its first request outlives the 0.5 s hang budget while the child
        imports NumPy, SciPy and this package; the watchdog must treat it
        as starting, not wedged, and the answer must be bit-identical.
        """
        from repro.serving import ResilienceConfig, RetryPolicy, WatchdogConfig

        service = _sharded(
            tiny_model,
            forecasting_data,
            num_shards=1,
            cache_entries=0,
            start_method="spawn",
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1),
                watchdog=WatchdogConfig(hang_timeout_s=0.5),
            ),
        )
        try:
            window = forecasting_data.dataset.signal[:12]
            np.testing.assert_array_equal(service.forecast(window), single.forecast(window))
            stats = service.stats().process_tier
            assert stats.hung_detections == 0
            assert stats.respawns == 0
        finally:
            service.close()

    def test_corrupt_header_rejected_not_crashed(
        self, tiny_model, forecasting_data, monkeypatch
    ):
        windows = _raw_windows(forecasting_data, 2)
        batch = forecasting_data.scaler.transform(windows)
        with _executor(tiny_model, forecasting_data) as executor:
            gen = executor.generation(tiny_model)
            reference = executor.call(0, batch, pset=gen)
            # The worker is already running, so only the parent's next
            # request header is packed with its magic off by one.
            pack = process_tier._pack_header

            def corrupt_once(*fields):
                process_tier._pack_header = pack
                magic, *rest = process_tier._HEADER.unpack(pack(*fields))
                return process_tier._HEADER.pack(magic + 1, *rest)

            monkeypatch.setattr(process_tier, "_pack_header", corrupt_once)
            with pytest.raises(RuntimeError, match="rejected"):
                executor.call(0, batch, pset=gen)
            # The worker survived the garbage frame: same process, no
            # respawn, and the next well-formed request is bit-identical.
            assert executor.stats().respawns == 0
            assert np.abs(executor.call(0, batch, pset=gen) - reference).max() == 0.0


class TestLifecycle:
    def test_close_is_idempotent_and_degrades_inline(
        self, tiny_model, forecasting_data
    ):
        windows = _raw_windows(forecasting_data, 2)
        batch = forecasting_data.scaler.transform(windows)
        executor = _executor(tiny_model, forecasting_data)
        gen = executor.generation(tiny_model)
        reference = executor.call(0, batch, pset=gen)
        segments = executor.segment_names()
        assert segments
        executor.close()
        executor.close()
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}")
        # Post-close calls degrade to the in-parent provider: same bits.
        assert np.abs(executor.call(0, batch, pset=gen) - reference).max() == 0.0

    def test_failed_construction_releases_the_tier(self, tiny_model, monkeypatch):
        """A service whose plan engine cannot be built keeps no spill
        directory."""
        import glob
        import tempfile

        pattern = os.path.join(tempfile.gettempdir(), "repro-plan-spill-*")
        spills = set(glob.glob(pattern))

        def broken(self, model):
            raise ValueError("plan engine unavailable")

        monkeypatch.setattr(ProcessShardExecutor, "generation", broken)
        with pytest.raises(ValueError, match="plan engine unavailable"):
            ForecastService(tiny_model, num_shards=2, executor="processes")
        assert set(glob.glob(pattern)) == spills

    def test_construction_spawns_nothing(self, tiny_model, forecasting_data):
        with _executor(tiny_model, forecasting_data, num_shards=2) as executor:
            assert executor.worker_pids() == [None, None]
            assert executor.segment_names() == []
            assert executor.stats().workers == 0

    def test_service_close_unlinks_segments(self, tiny_model, forecasting_data):
        windows = _raw_windows(forecasting_data, 2)
        service = _sharded(
            tiny_model, forecasting_data, num_shards=2, mode="replicas"
        )
        service.forecast_many(windows)
        segments = service._tier.segment_names()
        pids = [pid for pid in service._tier.worker_pids() if pid is not None]
        assert segments and pids
        service.close()
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}")
        deadline = time.monotonic() + 5.0
        for pid in pids:
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            else:  # pragma: no cover - diagnostic
                pytest.fail(f"worker {pid} still alive after close()")
