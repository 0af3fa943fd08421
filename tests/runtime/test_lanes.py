"""Row lanes: a batch split into row chunks that run at once on one model.

Every row of a DyHSL forward is independent of its batch, so splitting a
batch across lanes must give bit-identical outputs (max |diff| == 0 against
autograd); the lane threads must never serve an unchecked artifact, must
surface their errors, and must stop on ``close()`` and on hot swaps.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.runtime import ArtifactStore, CompiledModel, Plan, blas, lane_pieces
from repro.runtime.engine import MIN_LANE_ROWS
from repro.serving import ForecastService
from repro.tensor import Tensor, no_grad
from repro.training import save_model_checkpoint

MAX_ROWS = 33


@pytest.fixture(scope="module")
def windows(wide_dyhsl):
    nodes = wide_dyhsl.config.num_nodes
    return np.random.default_rng(77).normal(size=(MAX_ROWS, 12, nodes, 1))


@pytest.fixture(scope="module")
def reference(wide_dyhsl, windows):
    with no_grad():
        return wide_dyhsl(Tensor(windows)).data


def _lane_threads() -> int:
    return sum(thread.name.startswith("plan-lane") for thread in threading.enumerate())


class TestLanePieces:
    @pytest.mark.parametrize("lanes", [1, 2, 3, 4])
    def test_chunks_cover_the_batch_and_differ_by_at_most_one(self, lanes):
        for batch in range(1, 70):
            chunks = [sum(pieces) for pieces in lane_pieces(batch, 1024, lanes)]
            assert sum(chunks) == batch
            assert chunks == sorted(chunks, reverse=True)
            assert max(chunks) - min(chunks) <= 1
            assert len(chunks) == min(lanes, -(-batch // MIN_LANE_ROWS))

    def test_each_chunk_runs_as_its_binary_pieces(self):
        assert lane_pieces(19, 1024, 2) == [[8, 2], [8, 1]]
        assert lane_pieces(32, 1024, 2) == [[16], [16]]
        assert lane_pieces(2, 1024, 2) == [[2]]
        # No more chunks than give each two rows: 1-row chunks are
        # dispatch-bound, so 3 rows on three lanes still run as 2 | 1.
        assert lane_pieces(3, 1024, 3) == [[2], [1]]
        assert lane_pieces(5, 1024, 4) == [[2], [2], [1]]
        assert lane_pieces(6, 1024, 4) == [[2], [2], [2]]
        assert lane_pieces(7, 1024, 3) == [[2, 1], [2], [2]]
        assert lane_pieces(20, 16, 2) == [[8, 2], [8, 2]]
        # A chunk above the cap runs as one exact-shape piece.
        assert lane_pieces(40, 16, 2) == [[20], [20]]
        assert lane_pieces(40, None, 2) == [[20], [20]]


class TestLaneParity:
    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_every_batch_size_is_exact(self, wide_dyhsl, windows, reference, lanes):
        compiled = CompiledModel(wide_dyhsl, lanes=lanes)
        try:
            for rows in range(1, MAX_ROWS + 1):
                served = compiled(windows[:rows])
                assert np.abs(served - reference[:rows]).max() == 0.0, (lanes, rows)
        finally:
            compiled.close()

    def test_a_closed_model_serves_every_lane_on_the_caller(
        self, wide_dyhsl, windows, reference
    ):
        compiled = CompiledModel(wide_dyhsl, lanes=2)
        compiled(windows[:19])
        compiled.close()
        assert _lane_threads() == 0
        compiles = compiled.cache_info().compiles
        assert np.abs(compiled(windows[:19]) - reference[:19]).max() == 0.0
        assert compiled.cache_info().compiles == compiles  # the same plan pieces
        assert _lane_threads() == 0


class TestLaneArtifacts:
    def test_a_poisoned_artifact_is_rejected_before_any_lane_serves_it(
        self, wide_dyhsl, windows, reference, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path / "plans")
        cold = CompiledModel(wide_dyhsl, artifact_dir=store)
        cold.compile_for(windows[:19])  # pieces 16, 2 and 1
        cold.compile_for(windows[:9])  # and 8
        # Poison the 8-row plan both lanes replay for 19 rows ([8, 2] | [8, 1]),
        # keeping its checksum consistent: only the parity check can catch it.
        key = cold.artifact_key(windows[:8].shape)
        spec, values, _ = ArtifactStore(store.root).load(key)
        constants = {slot: values[slot] for slot in spec.const_slots}
        # Noise on every weight matrix (an offset would vanish in a layer norm).
        rng = np.random.default_rng(3)
        for slot, value in constants.items():
            if isinstance(value, np.ndarray) and value.ndim == 2:
                constants[slot] = value + rng.normal(size=value.shape)
        ArtifactStore(store.root).save(key, spec, constants)

        copied, rejected = [], []
        lane_copy, confirm = Plan.lane_copy, CompiledModel._confirm_parity

        def spy_copy(plan, lane):
            copied.append((plan, plan.pending_parity, lane))
            return lane_copy(plan, lane)

        def spy_confirm(model, plan, array, result):
            served = confirm(model, plan, array, result)
            if plan.pending_parity:
                rejected.append(plan)
            return served

        monkeypatch.setattr(Plan, "lane_copy", spy_copy)
        monkeypatch.setattr(CompiledModel, "_confirm_parity", spy_confirm)
        warm = CompiledModel(wide_dyhsl, artifact_dir=ArtifactStore(store.root), lanes=2)
        try:
            served = warm(windows[:19])
        finally:
            warm.close()
        info = warm.cache_info()
        assert np.abs(served - reference[:19]).max() == 0.0
        assert (info.artifact_rejects, info.compiles, info.artifact_loads) == (1, 1, 2)
        assert len(rejected) == 1
        assert any(lane == 1 for _, _, lane in copied)
        assert not any(pending for _, pending, _ in copied)
        assert not any(plan is rejected[0] for plan, _, _ in copied)


class TestLaneErrors:
    class LaneFault(RuntimeError):
        pass

    def test_an_error_in_lane_1_propagates_with_its_type(
        self, wide_dyhsl, windows, reference, monkeypatch
    ):
        compiled = CompiledModel(wide_dyhsl, lanes=2)
        run = CompiledModel._run

        def faulty(model, array, lane=0):
            if lane == 1:
                raise self.LaneFault("lane 1 failed")
            return run(model, array, lane)

        monkeypatch.setattr(CompiledModel, "_run", faulty)
        try:
            with pytest.raises(self.LaneFault, match="lane 1 failed"):
                compiled(windows[:6])
            monkeypatch.setattr(CompiledModel, "_run", run)
            # The lanes survive a failed call.
            assert np.abs(compiled(windows[:6]) - reference[:6]).max() == 0.0
        finally:
            compiled.close()

    def test_every_lane_finishes_before_an_error_is_raised(
        self, wide_dyhsl, windows, monkeypatch
    ):
        compiled = CompiledModel(wide_dyhsl, lanes=2)
        compiled.compile_for(windows[:4])
        run = CompiledModel._run
        finished = []

        def slow_lane(model, array, lane=0):
            if lane == 0:
                raise self.LaneFault("lane 0 failed")
            time.sleep(0.2)
            finished.append(lane)
            return run(model, array, lane)

        monkeypatch.setattr(CompiledModel, "_run", slow_lane)
        try:
            with pytest.raises(self.LaneFault, match="lane 0 failed"):
                compiled(windows[:4])
            assert finished == [1]
        finally:
            compiled.close()


needs_openblas = pytest.mark.skipif(
    blas.threads() is None, reason="no OpenBLAS mapped into this process"
)


@needs_openblas
def test_lanes_run_blas_at_one_thread_while_they_run(wide_dyhsl, windows, monkeypatch):
    before = blas.threads()
    compiled = CompiledModel(wide_dyhsl, lanes=2)
    compiled.compile_for(windows[:4])
    run = CompiledModel._run
    seen = []

    def observed(model, array, lane=0):
        seen.append((lane, blas.threads()))
        return run(model, array, lane)

    monkeypatch.setattr(CompiledModel, "_run", observed)
    try:
        compiled(windows[:1])
        assert seen == [(0, before)]  # no split: BLAS untouched
        seen.clear()
        compiled(windows[:4])
        assert sorted(seen) == [(0, 1), (1, 1)]
        # The limit ends with the call, not with the model ...
        assert blas.threads() == before

        def faulty(model, array, lane=0):
            if lane == 1:
                raise RuntimeError("lane 1 failed")
            return run(model, array, lane)

        monkeypatch.setattr(CompiledModel, "_run", faulty)
        with pytest.raises(RuntimeError, match="lane 1 failed"):
            compiled(windows[:4])
        # ... also when a lane fails.
        assert blas.threads() == before
    finally:
        compiled.close()
    assert blas.threads() == before


class TestServiceLanes:
    @pytest.fixture(autouse=True)
    def _two_cores(self, monkeypatch):
        monkeypatch.setattr(blas, "cores", lambda: 2)

    def test_threads_return_to_baseline_after_close_and_hot_swaps(
        self, wide_dyhsl, wide_adjacency, windows, reference, tmp_path
    ):
        checkpoint = save_model_checkpoint(wide_dyhsl, tmp_path / "wide", wide_adjacency)
        baseline = threading.active_count()
        service = ForecastService(wide_dyhsl, cache_entries=0)
        retired = []  # keep retired generations alive: close, not GC, stops lanes
        try:
            for swap in range(4):
                if swap:
                    retired.append(service._gen)
                    service.swap_checkpoint(checkpoint)
                served = service.forecast_many(windows[:7])
                assert np.abs(served - reference[:7]).max() == 0.0
                # One lane thread at most: a retired generation's lanes stop.
                assert _lane_threads() == 1
        finally:
            service.close()
        assert service.stats().swaps == 3
        assert _lane_threads() == 0
        assert threading.active_count() == baseline

    # The ids keep the names these cases had while the table also varied
    # the (since removed) serving runtime.
    @pytest.mark.parametrize(
        "executor, num_shards, lanes",
        [("inline", 1, 2), ("processes", 2, 1)],
        ids=["inline-1-None-2", "processes-2-None-1"],
    )
    def test_stats_report_the_lanes(self, wide_dyhsl, executor, num_shards, lanes):
        with ForecastService(wide_dyhsl, executor=executor, num_shards=num_shards) as service:
            assert service.stats().plan_lanes == lanes

    @pytest.mark.parametrize("cores, lanes", [(1, 1), (4, 2)])
    def test_inline_lanes_follow_the_cores_up_to_two(
        self, wide_dyhsl, monkeypatch, cores, lanes
    ):
        monkeypatch.setattr(blas, "cores", lambda: cores)
        with ForecastService(wide_dyhsl) as service:
            assert service.stats().plan_lanes == lanes
