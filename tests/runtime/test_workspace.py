"""Workspace-reuse safety: shared buffers must never leak between calls.

The compiled plan reuses a small pool of buffers across calls (and, after
liveness analysis, across steps within a call).  These tests pin down the
aliasing contract: successive forwards with different inputs cannot
contaminate each other, returned outputs are immutable snapshots, and the
per-shape plan cache keeps shapes independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DyHSL, DyHSLConfig
from repro.runtime import compile_module
from repro.tensor import Tensor, no_grad
from repro.tensor import seed as seed_everything

NUM_NODES = 7


@pytest.fixture(scope="module")
def model():
    seed_everything(55)
    rng = np.random.default_rng(55)
    adjacency = (rng.random((NUM_NODES, NUM_NODES)) < 0.5).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    config = DyHSLConfig(
        num_nodes=NUM_NODES,
        hidden_dim=10,
        prior_layers=1,
        num_hyperedges=5,
        window_sizes=(1, 4, 12),
        mhce_layers=2,
    )
    return DyHSL(config, adjacency).eval()


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(56)
    return rng.normal(size=(2, 12, NUM_NODES, 1)), rng.normal(size=(2, 12, NUM_NODES, 1)) * 3.0


def _reference(model, x):
    with no_grad():
        return model(Tensor(x)).data


class TestWorkspaceReuse:
    def test_successive_forwards_do_not_contaminate(self, model, inputs):
        """x1, x2, x1 again: every call equals its fresh autograd result."""
        first, second = inputs
        compiled = compile_module(model)
        ref_first, ref_second = _reference(model, first), _reference(model, second)

        out_first = compiled(first)
        out_second = compiled(second)
        out_first_again = compiled(first)

        assert np.array_equal(out_first, ref_first)
        assert np.array_equal(out_second, ref_second)
        assert np.array_equal(out_first_again, ref_first)

    def test_earlier_output_survives_later_calls(self, model, inputs):
        """Returned arrays are snapshots, not views of the reused workspace."""
        first, second = inputs
        compiled = compile_module(model)
        out_first = compiled(first)
        kept = out_first.copy()
        compiled(second)
        compiled(second * -1.5)
        assert np.array_equal(out_first, kept)

    def test_outputs_of_identical_inputs_are_equal_but_distinct(self, model, inputs):
        first, _ = inputs
        compiled = compile_module(model)
        a, b = compiled(first), compiled(first)
        assert np.array_equal(a, b)
        assert not np.shares_memory(a, b)
        b[...] = 0.0
        assert not np.array_equal(a, b)

    def test_interleaved_shapes_use_independent_plans(self, model):
        """Alternating batch sizes replays the right plan with the right buffers."""
        rng = np.random.default_rng(57)
        compiled = compile_module(model)
        small = rng.normal(size=(1, 12, NUM_NODES, 1))
        large = rng.normal(size=(5, 12, NUM_NODES, 1))
        ref_small, ref_large = _reference(model, small), _reference(model, large)
        for _ in range(3):
            assert np.array_equal(compiled(small), ref_small)
            assert np.array_equal(compiled(large), ref_large)
        assert len(compiled.plan_stats()) == 2

    def test_pooling_keeps_workspace_below_total_intermediates(self, model, inputs):
        """Liveness pooling must reuse buffers, not keep one per step."""
        first, _ = inputs
        compiled = compile_module(model)
        compiled(first)
        stats = compiled.plan_stats()[0]
        # The traced forward has hundreds of intermediate arrays; the pooled
        # workspace should be far below one buffer per step.
        per_step = stats.workspace_bytes / max(stats.steps, 1)
        assert stats.steps > 50
        assert per_step < first.nbytes * 40  # generous, catches pooling regressions

    def test_input_array_is_not_mutated(self, model, inputs):
        first, _ = inputs
        compiled = compile_module(model)
        snapshot = first.copy()
        compiled(first)
        assert np.array_equal(first, snapshot)

    def test_concurrent_calls_from_many_threads_stay_correct(self, model, inputs):
        """Per-plan locking: parallel callers with mixed shapes never corrupt."""
        import threading

        first, second = inputs
        compiled = compile_module(model)
        cases = {
            first.shape[0]: (first, _reference(model, first)),
            5: (
                np.concatenate([first, second, first[:1]], axis=0),
                None,
            ),
        }
        big, _ = cases[5]
        cases[5] = (big, _reference(model, big))
        errors = []

        def worker(x, expected):
            try:
                for _ in range(5):
                    if not np.array_equal(compiled(x), expected):
                        errors.append("mismatch")
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(repr(error))

        threads = [
            threading.Thread(target=worker, args=cases[key]) for key in cases for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_tracing_ignores_tensor_ops_on_other_threads(self, model, inputs):
        """A compile must not capture concurrent autograd work into its plan."""
        import threading

        from repro.tensor import Tensor

        first, _ = inputs
        stop = threading.Event()

        def noise():
            value = Tensor(np.ones((64, 64)))
            while not stop.is_set():
                (value * 2.0 + 1.0).tanh()

        thread = threading.Thread(target=noise)
        thread.start()
        try:
            compiled = compile_module(model)
            out = compiled(first)
        finally:
            stop.set()
            thread.join()
        assert np.array_equal(out, _reference(model, first))

    def test_idle_plan_releases_the_served_batch(self, model, inputs):
        """After a call, the plan must not keep the input array alive."""
        import weakref

        first, _ = inputs
        compiled = compile_module(model)
        payload = first.copy()
        ref = weakref.ref(payload)
        compiled(payload)
        del payload
        assert ref() is None

    def test_plan_cache_is_a_bounded_lru(self, model, monkeypatch):
        """Many distinct batch sizes must not accumulate unbounded plans."""
        from repro.runtime import CompiledModel

        monkeypatch.setattr(CompiledModel, "MAX_PLANS", 3)
        compiled = CompiledModel(model)
        rng = np.random.default_rng(58)
        batches = {b: rng.normal(size=(b, 12, NUM_NODES, 1)) for b in (1, 2, 3, 4, 5)}
        references = {b: _reference(model, x) for b, x in batches.items()}
        for b, x in batches.items():
            assert np.array_equal(compiled(x), references[b])
        assert len(compiled.plan_stats()) == 3
        # Evicted shapes recompile transparently and still agree.
        assert np.array_equal(compiled(batches[1]), references[1])
        assert len(compiled.plan_stats()) == 3
