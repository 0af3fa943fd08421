"""Lowering as the trace runs: a compile holds about one forward's memory.

The compiler lowers every op while its tensors are alive and keeps none of
them, so intermediates are freed as the traced forward goes — exactly as in
a plain ``no_grad`` forward.  Slots are marked on the tensors themselves
with a per-trace token, because a tensor created later in the forward may
reuse a freed intermediate's ``id()``.
"""

from __future__ import annotations

import copy
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core import DyHSL, DyHSLConfig
from repro.nn import Module, Parameter
from repro.runtime import build_plan_spec, compile_module
from repro.tensor import Tensor, no_grad
from repro.tensor import seed as seed_everything

NUM_NODES = 9


@pytest.fixture(scope="module")
def model():
    seed_everything(7)
    rng = np.random.default_rng(7)
    adjacency = (rng.random((NUM_NODES, NUM_NODES)) < 0.45).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    config = DyHSLConfig(
        num_nodes=NUM_NODES, hidden_dim=12, prior_layers=2, num_hyperedges=6,
        window_sizes=(1, 3, 12), mhce_layers=2,
    )
    return DyHSL(config, adjacency).eval()


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _forward(module, x):
    with no_grad():
        return module(Tensor(x)).data


class _LeafAfterFree(Module):
    """Frees a chain of intermediates, then makes a leaf Tensor, per step.

    The leaf is allocated right after the step's intermediates die, so it
    usually takes one of their ``id()``s; ``freed`` records whether every
    intermediate was already gone when its step's leaf was made.
    """

    def __init__(self, features: int) -> None:
        super().__init__()
        rng = np.random.default_rng(3)
        self.weight = Parameter(rng.normal(size=(features, features)) * 0.3)
        self.freed = []
        self.reused_ids = 0

    def forward(self, x):
        out = x
        for step in range(6):
            hidden = (out @ self.weight).tanh()
            probe, hidden_id = weakref.ref(hidden.data), id(hidden)
            out = hidden * 0.5 + out
            del hidden
            self.freed.append(probe() is None)
            leaf = Tensor(np.full(out.shape[-1:], 0.1 * (step + 1)))
            self.reused_ids += id(leaf) == hidden_id
            out = out + leaf
        return out


class TestTraceMemory:
    def test_compile_peak_stays_within_twice_a_forward(self, model):
        x = np.random.default_rng(8).normal(size=(16, 12, NUM_NODES, 1))
        build_plan_spec(model, x)  # warm one-time imports and caches
        forward_peak = _peak_bytes(lambda: _forward(model, x))
        compile_peak = _peak_bytes(lambda: build_plan_spec(model, x))
        assert compile_peak <= 2 * forward_peak, (compile_peak, forward_peak)

    def test_leaf_made_after_intermediates_are_freed(self):
        module = _LeafAfterFree(features=5).eval()
        x = np.random.default_rng(4).normal(size=(3, 4, 5))
        compiled = compile_module(module)
        produced = compiled(x)
        assert module.freed and all(module.freed), "the trace kept an intermediate alive"
        assert module.reused_ids > 0, "no leaf took a freed intermediate's id()"
        fresh = x * 1.7 - 0.2
        for array in (x, fresh):
            diff = np.abs(compiled(array) - _forward(module, array)).max()
            assert diff == 0.0
        assert np.array_equal(produced, _forward(module, x))


class TestSlotMarks:
    def test_marks_copied_with_the_module_never_match(self, model):
        """A deep copy carries the tensors' marks from the original's trace;
        the copy's own trace must give every tensor a fresh slot."""
        x = np.random.default_rng(9).normal(size=(2, 12, NUM_NODES, 1))
        original = compile_module(model)
        original(x)
        clone = copy.deepcopy(model)
        for parameter in clone.parameters():
            parameter.data = parameter.data * 1.1
        produced = compile_module(clone)(x)
        assert np.array_equal(produced, _forward(clone, x))
        assert not np.array_equal(produced, original(x))
