"""Batched sparse aggregation: one ``spmm`` step per graph convolution.

The prior encoder (Eq. 5) and every IGC block (Eq. 10-12) aggregate over
the temporal graph with one sparse product.  A ``(B, K, F)`` activation is
multiplied batch row by batch row into a contiguous ``(B, M, F)`` result,
so the compiled plan carries exactly one ``spmm`` step per aggregation and
no ``reshape_copy`` step to shuttle operands into or out of a flattened
``(K, B*F)`` layout.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import DyHSL, DyHSLConfig
from repro.runtime import compile_module, compile_training_model
from repro.runtime.compiler import compile_plan
from repro.tensor import Tensor, no_grad
from repro.tensor import seed as seed_everything

NUM_NODES = 9


def _dyhsl(prior_layers=2, mhce_layers=2, window_sizes=(1, 3, 12)) -> DyHSL:
    seed_everything(31)
    rng = np.random.default_rng(31)
    adjacency = (rng.random((NUM_NODES, NUM_NODES)) < 0.45).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    config = DyHSLConfig(
        num_nodes=NUM_NODES,
        hidden_dim=8,
        prior_layers=prior_layers,
        num_hyperedges=4,
        window_sizes=window_sizes,
        mhce_layers=mhce_layers,
        dropout=0.0,
    )
    return DyHSL(config, adjacency).eval()


@pytest.mark.parametrize("fuse", [True, False])
@pytest.mark.parametrize(
    "prior_layers, mhce_layers, window_sizes",
    [(2, 2, (1, 3, 12)), (1, 3, (1, 2, 4, 6, 12))],
)
def test_one_spmm_step_per_aggregation(prior_layers, mhce_layers, window_sizes, fuse):
    model = _dyhsl(prior_layers, mhce_layers, window_sizes)
    x = np.random.default_rng(32).normal(size=(4, 12, NUM_NODES, 1))
    plan = compile_plan(model, x, fuse=fuse)
    names = Counter(step.name for step in plan.spec.steps)
    assert names["reshape_copy"] == 0
    assert names["spmm"] == prior_layers + mhce_layers * len(window_sizes)


def test_float64_plan_is_bit_identical_at_every_batch():
    model = _dyhsl()
    compiled = compile_module(model)
    rng = np.random.default_rng(33)
    for batch in (1, 2, 3, 4, 8, 16, 32):
        x = rng.normal(size=(batch, 12, NUM_NODES, 1))
        with no_grad():
            reference = model(Tensor(x)).data
        assert np.abs(compiled(x) - reference).max() == 0.0


def test_training_tape_forward_is_bit_identical():
    model = _dyhsl()
    model.train()
    x = np.random.default_rng(34).normal(size=(4, 12, NUM_NODES, 1))
    reference = model(Tensor(x)).data
    step = compile_training_model(model).step(x)
    assert np.array_equal(step.predictions, reference)
