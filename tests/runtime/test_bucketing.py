"""Batch bucketing: ragged batches run as power-of-two plan pieces, bit-exactly.

Under bucketing the plan LRU holds O(log max_batch) plans instead of one
per observed batch size: a batch runs as its binary decomposition into
power-of-two pieces (19 rows as 16 + 2 + 1) whose outputs are
concatenated, and no padding row is computed.  That is exact only because
a row's output never depends on the rest of its batch, which
:class:`TestRowIndependence` checks at a size where BLAS changes its GEMM
path with the row count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DyHSL, DyHSLConfig
from repro.runtime import (
    BUCKETS_ENV_VAR,
    CompiledModel,
    DEFAULT_BUCKET_CAP,
    batch_pieces,
    bucket_batch_size,
    compile_module,
    resolve_bucket_cap,
)
from repro.runtime.engine import pad_batch_to_bucket
from repro.tensor import Tensor, no_grad
from repro.tensor import seed as seed_everything

NUM_NODES = 7

#: The ragged batch sizes of record (ISSUE 3 satellite).
RAGGED_BATCHES = (1, 3, 17, 100)


@pytest.fixture(scope="module")
def model():
    seed_everything(81)
    rng = np.random.default_rng(81)
    adjacency = (rng.random((NUM_NODES, NUM_NODES)) < 0.5).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    config = DyHSLConfig(
        num_nodes=NUM_NODES,
        hidden_dim=10,
        prior_layers=1,
        num_hyperedges=5,
        window_sizes=(1, 4, 12),
        mhce_layers=1,
    )
    return DyHSL(config, adjacency).eval()


def _reference(model, x):
    with no_grad():
        return model(Tensor(x)).data


class TestBucketPolicy:
    def test_binary_decomposition_largest_first(self):
        cap = DEFAULT_BUCKET_CAP
        assert batch_pieces(1, cap) == [1]
        assert batch_pieces(3, cap) == [2, 1]
        assert batch_pieces(19, cap) == [16, 2, 1]
        assert batch_pieces(32, cap) == [32]
        assert batch_pieces(0, cap) == []

    def test_pieces_above_the_cap_or_disabled_are_exact(self):
        assert batch_pieces(100, 100) == [64, 32, 4]  # no piece exceeds the cap
        assert batch_pieces(101, 100) == [101]  # above the cap: exact
        assert batch_pieces(9, None) == [9]  # disabled: exact

    def test_power_of_two_rounding(self):
        cap = DEFAULT_BUCKET_CAP
        assert bucket_batch_size(1, cap) == 1
        assert bucket_batch_size(2, cap) == 2
        assert bucket_batch_size(3, cap) == 4
        assert bucket_batch_size(17, cap) == 32
        assert bucket_batch_size(100, cap) == 128
        assert bucket_batch_size(128, cap) == 128

    def test_cap_clamps_and_oversize_serves_exact(self):
        assert bucket_batch_size(70, 100) == 100  # clamped to the cap
        assert bucket_batch_size(100, 100) == 100
        assert bucket_batch_size(101, 100) == 101  # above the cap: exact
        assert bucket_batch_size(9, None) == 9  # disabled: exact

    def test_resolve_from_arguments(self):
        assert resolve_bucket_cap(True) == DEFAULT_BUCKET_CAP
        assert resolve_bucket_cap(False) is None
        assert resolve_bucket_cap(64) == 64
        assert resolve_bucket_cap(0) is None

    def test_resolve_from_environment(self, monkeypatch):
        monkeypatch.delenv(BUCKETS_ENV_VAR, raising=False)
        assert resolve_bucket_cap() == DEFAULT_BUCKET_CAP
        monkeypatch.setenv(BUCKETS_ENV_VAR, "off")
        assert resolve_bucket_cap() is None
        monkeypatch.setenv(BUCKETS_ENV_VAR, "256")
        assert resolve_bucket_cap() == 256
        monkeypatch.setenv(BUCKETS_ENV_VAR, "sideways")
        with pytest.raises(ValueError):
            resolve_bucket_cap()


class TestBucketedServing:
    def test_ragged_batches_are_bit_identical(self, model):
        """Splitting into pieces must be invisible in the numbers."""
        compiled = compile_module(model)
        rng = np.random.default_rng(82)
        for batch in RAGGED_BATCHES:
            x = rng.normal(size=(batch, 12, NUM_NODES, 1))
            produced = compiled(x)
            assert produced.shape[0] == batch
            assert np.array_equal(produced, _reference(model, x))

    def test_plan_cache_holds_buckets_not_sizes(self, model):
        compiled = compile_module(model)
        rng = np.random.default_rng(83)
        for batch in RAGGED_BATCHES:
            compiled(rng.normal(size=(batch, 12, NUM_NODES, 1)))
        shapes = sorted(stats.input_shape[0] for stats in compiled.plan_stats())
        # 1; 3 = 2 + 1; 17 = 16 + 1; 100 = 64 + 32 + 4.
        assert shapes == [1, 2, 4, 16, 32, 64]
        # Re-serving any size made of those pieces compiles nothing new.
        for batch in (4, 20, 35, 65, 119):
            compiled(rng.normal(size=(batch, 12, NUM_NODES, 1)))
        assert len(compiled.plan_stats()) == 6
        assert compiled.cache_info().compiles == 6

    def test_bucketing_disabled_compiles_exact_shapes(self, model):
        compiled = CompiledModel(model, bucket_batches=False)
        rng = np.random.default_rng(84)
        for batch in RAGGED_BATCHES:
            x = rng.normal(size=(batch, 12, NUM_NODES, 1))
            assert np.array_equal(compiled(x), _reference(model, x))
        shapes = sorted(stats.input_shape[0] for stats in compiled.plan_stats())
        assert shapes == sorted(RAGGED_BATCHES)

    def test_environment_disables_bucketing(self, model, monkeypatch):
        monkeypatch.setenv(BUCKETS_ENV_VAR, "exact")
        compiled = compile_module(model)
        rng = np.random.default_rng(85)
        compiled(rng.normal(size=(3, 12, NUM_NODES, 1)))
        assert [stats.input_shape[0] for stats in compiled.plan_stats()] == [3]

    def test_batches_above_the_cap_serve_exact(self, model):
        compiled = CompiledModel(model, bucket_batches=8)
        rng = np.random.default_rng(86)
        x = rng.normal(size=(11, 12, NUM_NODES, 1))
        assert np.array_equal(compiled(x), _reference(model, x))
        assert [stats.input_shape[0] for stats in compiled.plan_stats()] == [11]

    def test_compile_for_reports_the_bucketed_plan(self, model):
        compiled = compile_module(model)
        stats = compiled.compile_for(np.zeros((5, 12, NUM_NODES, 1)))
        # 5 runs as 4 + 1; the stats are the largest piece's.
        assert stats.input_shape[0] == 4
        assert sorted(s.input_shape[0] for s in compiled.plan_stats()) == [1, 4]


class TestEdgeShapes:
    """Bucketing edge shapes must serve, not crash (ISSUE 4 satellite)."""

    def test_empty_batch_serves_empty_output(self, model):
        compiled = compile_module(model)
        produced = compiled(np.zeros((0, 12, NUM_NODES, 1)))
        assert produced.shape == (0, 12, NUM_NODES)
        assert np.array_equal(produced, _reference(model, np.zeros((0, 12, NUM_NODES, 1))))

    def test_empty_batch_reuses_the_single_row_bucket(self, model):
        """B == 0 must not trace a degenerate (0, ...) plan into the LRU."""
        compiled = compile_module(model)
        compiled(np.zeros((0, 12, NUM_NODES, 1)))
        assert [stats.input_shape[0] for stats in compiled.plan_stats()] == [1]
        # A later real single-row request replays that same plan.
        rng = np.random.default_rng(88)
        x = rng.normal(size=(1, 12, NUM_NODES, 1))
        assert np.array_equal(compiled(x), _reference(model, x))
        assert len(compiled.plan_stats()) == 1

    def test_empty_batch_with_bucketing_disabled(self, model):
        compiled = CompiledModel(model, bucket_batches=False)
        assert compiled(np.zeros((0, 12, NUM_NODES, 1))).shape == (0, 12, NUM_NODES)

    def test_over_cap_batch_is_bit_identical(self, model):
        """A batch above the cap takes the exact-shape path, unpadded."""
        compiled = CompiledModel(model, bucket_batches=4)
        rng = np.random.default_rng(89)
        x = rng.normal(size=(9, 12, NUM_NODES, 1))
        assert np.array_equal(compiled(x), _reference(model, x))
        assert [stats.input_shape[0] for stats in compiled.plan_stats()] == [9]

    def test_pad_helper_leaves_edge_shapes_alone(self):
        empty = np.zeros((0, 3))
        padded, trim = pad_batch_to_bucket(empty, 16)
        assert padded is empty and trim is None
        over = np.zeros((20, 3))
        padded, trim = pad_batch_to_bucket(over, 16)
        assert padded is over and trim is None


class TestServingPathsPassRaggedThrough:
    """ForecastService / MicroBatcher need no changes: any coalesced batch
    size funnels into the CompiledModel unchanged and is split there."""

    def test_micro_batcher_over_compiled_model(self, model):
        from repro.serving import MicroBatcher

        compiled = compile_module(model)
        batcher = MicroBatcher(compiled, max_batch_size=64)
        rng = np.random.default_rng(87)
        windows = rng.normal(size=(5, 12, NUM_NODES, 1))
        pending = [batcher.submit(window) for window in windows]
        batcher.flush()
        produced = np.stack([handle.result() for handle in pending], axis=0)
        assert np.array_equal(produced, _reference(model, windows))
        # 5 requests coalesced into one flush, served by the 4- and 1-row plans.
        assert batcher.stats.flushes == 1
        assert sorted(stats.input_shape[0] for stats in compiled.plan_stats()) == [1, 4]


class TestRowIndependence:
    """Every row of a DyHSL forward is bit-identical under any batch
    composition: alone, in its power-of-two pieces, or in the padded
    bucket, through autograd and through the compiled plans."""

    @pytest.fixture(scope="class")
    def windows(self, wide_dyhsl):
        nodes = wide_dyhsl.config.num_nodes
        return np.random.default_rng(90).normal(size=(19, 12, nodes, 1))

    @pytest.fixture(scope="class")
    def alone(self, wide_dyhsl, windows):
        return np.concatenate([_reference(wide_dyhsl, row[None]) for row in windows])

    def test_autograd_rows_ignore_their_batch(self, wide_dyhsl, windows, alone):
        padded, trim = pad_batch_to_bucket(windows, DEFAULT_BUCKET_CAP)
        assert padded.shape[0] == 32 and trim == 19
        assert np.abs(_reference(wide_dyhsl, padded)[:19] - alone).max() == 0.0
        assert np.abs(_reference(wide_dyhsl, windows) - alone).max() == 0.0
        pieces, start = [], 0
        for rows in batch_pieces(19, DEFAULT_BUCKET_CAP):
            pieces.append(_reference(wide_dyhsl, windows[start : start + rows]))
            start += rows
        assert np.abs(np.concatenate(pieces) - alone).max() == 0.0

    def test_compiled_rows_ignore_their_batch(self, wide_dyhsl, windows, alone):
        served = compile_module(wide_dyhsl)(windows)
        assert np.abs(served - alone).max() == 0.0
        exact = CompiledModel(wide_dyhsl, bucket_batches=False)
        padded, _ = pad_batch_to_bucket(windows, DEFAULT_BUCKET_CAP)
        assert np.abs(exact(padded)[:19] - alone).max() == 0.0
        assert np.abs(exact(windows[:1]) - alone[:1]).max() == 0.0
