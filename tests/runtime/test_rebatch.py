"""Plans above two rows come from the b1 and b2 traces, not a trace of their own.

A :class:`~repro.runtime.compiler.Rebatcher` keeps a module's lowerings at
one and two rows; every other batch size is the b1 lowering with its batch
dimensions written out.  That must give exactly the spec a trace at that
size gives, and a model whose two traces differ in any other way must
fall back to tracing each size, counted and named.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.baselines import create_baseline
from repro.core import DyHSL, DyHSLConfig
from repro.graph import SparseMatrix
from repro.runtime import CompiledModel, build_plan_spec
from repro.runtime import compiler as compiler_module
from repro.runtime.compiler import Rebatcher, compile_plan, layout_plan
from repro.tensor import Tensor, no_grad
from repro.tensor import seed as seed_everything

NUM_NODES = 9


def _adjacency():
    rng = np.random.default_rng(27)
    adjacency = (rng.random((NUM_NODES, NUM_NODES)) < 0.4).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


def _dyhsl(structure_learning="low_rank"):
    seed_everything(27)
    config = DyHSLConfig(
        num_nodes=NUM_NODES, hidden_dim=8, prior_layers=1, num_hyperedges=4,
        mhce_layers=1, structure_learning=structure_learning,
    )
    return DyHSL(config, _adjacency()).eval()


@pytest.fixture(scope="module")
def model():
    return _dyhsl()


@pytest.fixture()
def traces(monkeypatch):
    """The batch size of every trace the compiler runs."""
    batches = []
    lower_module = compiler_module.lower_module

    def counted(module, example, *args, **kwargs):
        batches.append(np.shape(example)[0])
        return lower_module(module, example, *args, **kwargs)

    monkeypatch.setattr(compiler_module, "lower_module", counted)
    return batches


def _windows(batch, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, 12, NUM_NODES, 1))


def _reference(model, x):
    with no_grad():
        return model(Tensor(x)).data


def _same(one, two) -> bool:
    """Deep equality: arrays byte for byte, sparse constants by their CSR arrays."""
    if type(one) is not type(two):
        return False
    if isinstance(one, np.ndarray):
        return one.shape == two.shape and one.dtype == two.dtype and one.tobytes() == two.tobytes()
    if isinstance(one, (tuple, list)):
        return len(one) == len(two) and all(_same(a, b) for a, b in zip(one, two))
    if isinstance(one, dict):
        return list(one) == list(two) and all(_same(one[key], two[key]) for key in one)
    if isinstance(one, slice):
        return _same((one.start, one.stop, one.step), (two.start, two.stop, two.step))
    if isinstance(one, SparseMatrix):
        return all(
            _same(getattr(one.csr, name), getattr(two.csr, name))
            for name in ("indptr", "indices", "data")
        )
    return one == two


def _assert_same_spec(got, expected):
    (spec, values), (traced, traced_values) = got, expected
    for field in dataclasses.fields(spec):
        if field.name != "steps":
            assert getattr(spec, field.name) == getattr(traced, field.name), field.name
    assert len(spec.steps) == len(traced.steps)
    for index, (step, traced_step) in enumerate(zip(spec.steps, traced.steps)):
        for field in dataclasses.fields(step):
            assert _same(getattr(step, field.name), getattr(traced_step, field.name)), (
                index, step.name, field.name,
            )
    assert _same(values, traced_values)


class TestRebatchedSpecs:
    @pytest.mark.parametrize("structure_learning", ["low_rank", "static", "from_scratch"])
    @pytest.mark.parametrize("fuse", [True, False])
    def test_rebatched_spec_equals_the_traced_spec(self, structure_learning, fuse):
        model = _dyhsl(structure_learning)
        rebatcher = Rebatcher()
        for batch in (3, 7, 16, 19):
            x = _windows(batch, seed=batch)
            lowered = rebatcher.lower(model, x, fuse)
            for dtype in (np.float64, np.float32):
                _assert_same_spec(
                    layout_plan(lowered, x.shape, dtype),
                    build_plan_spec(model, x, fuse=fuse, dtype=dtype),
                )
        assert rebatcher.counts() == (4, 0, None)

    def test_the_ladder_traces_twice(self, model, traces):
        compiled = CompiledModel(model)
        for batch in (1, 2, 4, 8, 16):
            x = _windows(batch, seed=batch)
            assert np.abs(compiled(x) - _reference(model, x)).max() == 0.0
        info = compiled.cache_info()
        assert sorted(traces) == [1, 2]
        assert (info.compiles, info.rebatched, info.rebatch_fallbacks) == (5, 3, 0)
        assert info.rebatch_fallback is None

    def test_precisions_share_the_traces(self, model, traces):
        compiled = CompiledModel(model)
        x = _windows(5)
        compiled(x, precision="float64")
        compiled(x, precision="float32")
        assert sorted(traces) == [1, 2]
        assert compiled.cache_info().rebatched == 2


class TestFallback:
    @pytest.mark.parametrize("name, reason", [
        ("FC-LSTM", "constant slot"),  # builds its initial state shaped by the batch
        ("TCN", "reshape"),  # a reshape that is a view at b1 and a copy at b2
    ])
    def test_fallback_is_counted_and_named(self, name, reason):
        model = create_baseline(name, _adjacency(), NUM_NODES, hidden_dim=8).eval()
        compiled = CompiledModel(model)
        x = _windows(4)
        assert np.abs(compiled(x) - _reference(model, x)).max() == 0.0
        info = compiled.cache_info()
        assert (info.compiles, info.rebatched, info.rebatch_fallbacks) == (1, 0, 1)
        assert reason in info.rebatch_fallback
        assert info.rebatch_fallback.startswith(type(model).__name__)


class TestWeightsAndThreads:
    def test_recompile_drops_the_kept_traces(self):
        model = _dyhsl()
        compiled = CompiledModel(model)
        x = _windows(16)
        before = compiled(x)
        assert compiled.cache_info().rebatched == 1
        for parameter in model.parameters():
            parameter.data *= 1.25
        compiled.recompile()
        after = compiled(x)
        assert np.abs(after - _reference(model, x)).max() == 0.0
        assert np.abs(after - before).max() > 0.0
        assert compiled.cache_info().rebatched == 2

    @pytest.mark.parametrize("batches", [(8, 16), (3, 5, 6, 7, 9, 10, 11, 12)])
    def test_threads_first_compiling_at_once_get_exact_plans(self, model, batches):
        # One exact-shape plan per batch, all lowered through one rebatcher.
        rebatcher = Rebatcher()
        barrier = threading.Barrier(len(batches))
        results = {}
        plans = []

        def serve(batch):
            x = _windows(batch, seed=batch)
            barrier.wait(timeout=30)
            plan = compile_plan(model, x, rebatcher=rebatcher)
            plans.append(plan)
            results[batch] = np.abs(plan.call(x) - _reference(model, x)).max()

        threads = [threading.Thread(target=serve, args=(batch,)) for batch in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {batch: 0.0 for batch in batches}
        # Every plan counted once: a lost counter update would show here.
        assert (len(plans), rebatcher.counts()[0]) == (len(batches), len(batches))

    def test_rebatched_plan_round_trips_through_an_artifact(self, model, tmp_path):
        x = _windows(16)
        CompiledModel(model, artifact_dir=tmp_path).compile_for(x)
        warm = CompiledModel(model, artifact_dir=tmp_path)
        assert np.abs(warm(x) - _reference(model, x)).max() == 0.0
        info = warm.cache_info()
        assert (info.compiles, info.artifact_loads) == (0, 1)
