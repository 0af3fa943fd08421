"""Elementwise-chain fusion: fused plans must change nothing but speed.

The fusion pass collapses single-consumer runs of elementwise steps into
one ``fused_elementwise`` step executed as a blocked chain in a single
buffer.  The contract is *bit identity*: a fused plan, an unfused plan and
the autograd forward all run the same kernels on the same values, so their
outputs are equal with ``np.array_equal`` — not merely allclose — for
DyHSL in all three Table V DHSL modes and for the registry baselines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import create_baseline
from repro.core import DyHSL, DyHSLConfig
from repro.runtime import compile_module, compile_plan
from repro.tensor import Tensor, no_grad
from repro.tensor import kernels as K
from repro.tensor import seed as seed_everything

NUM_NODES = 9


@pytest.fixture(scope="module")
def adjacency() -> np.ndarray:
    rng = np.random.default_rng(71)
    dense = (rng.random((NUM_NODES, NUM_NODES)) < 0.45).astype(float)
    np.fill_diagonal(dense, 0.0)
    return dense


@pytest.fixture(scope="module")
def windows() -> np.ndarray:
    # Batch 4 is its own bucket: no padding, so fused/unfused/autograd can
    # be compared bit for bit even for baselines whose GEMM tiling shifts
    # with the batch size (bucketed ragged batches are covered, with the
    # same strictness for DyHSL, in test_bucketing.py).
    return np.random.default_rng(72).normal(size=(4, 12, NUM_NODES, 1))


def _dyhsl(adjacency, mode="low_rank") -> DyHSL:
    seed_everything(73)
    config = DyHSLConfig(
        num_nodes=NUM_NODES,
        hidden_dim=12,
        prior_layers=2,
        num_hyperedges=6,
        window_sizes=(1, 3, 12),
        mhce_layers=2,
        structure_learning=mode,
    )
    return DyHSL(config, adjacency).eval()


def _assert_fusion_parity(model, windows, exact_vs_autograd=True):
    """Fused == unfused bit for bit, and both match autograd.

    ``exact_vs_autograd=False`` relaxes only the autograd comparison to the
    library's 1e-10 contract of record — a few baselines (STGCN) were never
    bit-exact against autograd even unfused, because their plans replay
    BLAS calls on differently-strided buffers.  Fused vs unfused stays a
    bit-for-bit assertion everywhere: fusion runs the same kernels on the
    same values and may change nothing.
    """
    model.eval()
    with no_grad():
        reference = model(Tensor(windows)).data
    fused = compile_module(model)
    unfused = compile_plan(model, windows, fuse=False)
    fused_out, unfused_out = fused(windows), unfused.call(windows)
    assert np.array_equal(fused_out, unfused_out)
    if exact_vs_autograd:
        assert np.array_equal(fused_out, reference)
    else:
        assert np.abs(fused_out - reference).max() <= 1e-10
    # A second batch through the same plans (workspace reuse under fusion).
    fresh = windows * -1.7 + 0.2
    with no_grad():
        fresh_reference = model(Tensor(fresh)).data
    fused_fresh = fused(fresh)
    assert np.array_equal(fused_fresh, unfused.call(fresh))
    if exact_vs_autograd:
        assert np.array_equal(fused_fresh, fresh_reference)
    else:
        assert np.abs(fused_fresh - fresh_reference).max() <= 1e-10
    return fused.plan_stats()[0], unfused.stats


class TestDyHSLFusionParity:
    @pytest.mark.parametrize("mode", ["low_rank", "static", "from_scratch"])
    def test_all_table_v_dhsl_modes(self, adjacency, windows, mode):
        fused_stats, unfused_stats = _assert_fusion_parity(_dyhsl(adjacency, mode), windows)
        # The DyHSL forward is full of gate/residual chains; fusion must
        # strictly reduce the step count.
        assert fused_stats.steps < unfused_stats.steps
        assert fused_stats.fused_chains > 0

    def test_chain_accounting_is_consistent(self, adjacency, windows):
        fused_stats, unfused_stats = _assert_fusion_parity(_dyhsl(adjacency), windows)
        assert fused_stats.steps_unfused == unfused_stats.steps
        # Every chain of length L replaces L steps with one.
        saved = sum(length - 1 for length in fused_stats.fused_chain_lengths)
        assert fused_stats.steps == fused_stats.steps_unfused - saved
        assert all(length >= 2 for length in fused_stats.fused_chain_lengths)
        histogram = fused_stats.fused_chain_histogram
        assert sum(histogram.values()) == fused_stats.fused_chains
        assert "fused" in str(fused_stats)


class TestBaselineFusionParity:
    @pytest.mark.parametrize(
        "name",
        ["FC-LSTM", "TCN", "GRU-ED", "STGCN", "DCRNN", "GraphWaveNet", "AGCRN"],
    )
    def test_registry_baseline(self, adjacency, windows, name):
        seed_everything(74)
        model = create_baseline(
            name, adjacency, NUM_NODES, horizon=12, input_length=12, hidden_dim=12
        )
        # STGCN plans were never bit-exact against autograd (pre-existing,
        # BLAS-on-buffers); everything else is held to exact equality.
        _assert_fusion_parity(model, windows, exact_vs_autograd=(name != "STGCN"))


class TestFusedElementwiseKernel:
    """Direct contract of the chain interpreter in repro.tensor.kernels."""

    def _chain(self, *specs):
        return tuple((name, K.KERNELS[name], refs, kwargs) for name, refs, kwargs in specs)

    def test_blocked_matches_unblocked(self):
        """Large contiguous operands take the blocked path; same numbers."""
        rng = np.random.default_rng(75)
        a = rng.normal(size=(64, 96, 16))  # ~100k elements > block size
        b = rng.normal(size=(64, 96, 16))
        bias = rng.normal(size=(16,))  # broadcasts, passed whole per block
        chain = self._chain(
            ("add", (0, 1), {}),
            ("relu", (-1,), {}),
            ("add", (-1, 2), {}),
            ("tanh", (-1,), {}),
        )
        expected = np.tanh(np.multiply(a + b, (a + b) > 0) + bias)
        blocked = K.fused_elementwise(a, b, bias, out=np.empty_like(a), chain=chain)
        unblocked = K.fused_elementwise(a, b, bias, chain=chain)  # out=None path
        assert np.array_equal(blocked, expected)
        assert np.array_equal(unblocked, expected)

    def test_noncontiguous_output_falls_back(self):
        rng = np.random.default_rng(76)
        a = rng.normal(size=(40, 50, 30))
        chain = self._chain(("neg", (0,), {}), ("exp", (-1,), {}))
        out = np.empty((40, 50, 60))[:, :, ::2]  # non-contiguous destination
        result = K.fused_elementwise(a, out=out, chain=chain)
        assert np.array_equal(result, np.exp(-a))

    def test_scalar_and_kwarg_instructions(self):
        rng = np.random.default_rng(77)
        a = rng.normal(size=(128, 512))
        scalar = np.asarray(0.5)
        chain = self._chain(
            ("mul", (0, 1), {}),
            ("clip", (-1,), {"minimum": -0.2, "maximum": 0.3}),
            ("leaky_relu", (-1,), {"negative_slope": 0.1}),
        )
        clipped = np.clip(a * scalar, -0.2, 0.3)
        expected = clipped * np.where(clipped > 0, 1.0, 0.1)
        result = K.fused_elementwise(a, scalar, out=np.empty_like(a), chain=chain)
        assert np.array_equal(result, expected)

    def test_accumulator_used_twice(self):
        rng = np.random.default_rng(78)
        a = rng.normal(size=(100, 700))
        chain = self._chain(("tanh", (0,), {}), ("mul", (-1, -1), {}))
        result = K.fused_elementwise(a, out=np.empty_like(a), chain=chain)
        assert np.array_equal(result, np.tanh(a) ** 2)


class TestFusionToggle:
    def test_fuse_false_emits_no_chains(self, adjacency, windows):
        model = _dyhsl(adjacency)
        stats = compile_plan(model, windows, fuse=False).stats
        assert stats.fused_chains == 0
        assert stats.fused_chain_lengths == ()
        assert stats.steps == stats.steps_unfused
