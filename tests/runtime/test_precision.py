"""Precision-policy contracts of the compiled runtime.

Two documented guarantees (see ``docs/runtime.md`` §Precision):

* **float64 plans are bit-identical to autograd** — the precision machinery
  must be invisible at the default policy (``max |diff| == 0``);
* **float32 plans agree with float64 within the tolerance contract**
  ``rtol = 1e-4, atol = 1e-4`` (normalised inputs) for DyHSL in all three
  Table V DHSL modes and for the registry baselines — measured headroom is
  ~40x (max abs diff ~2e-6), so a violation signals a real kernel
  regression, not noise.  Numerically sensitive reductions (softmax /
  log-softmax / layer-norm statistics) accumulate in float64 by design.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import create_baseline
from repro.core import DyHSL, DyHSLConfig
from repro.runtime import (
    PRECISION_ENV_VAR,
    compile_module,
    resolve_precision,
)
from repro.tensor import Tensor, no_grad
from repro.tensor import seed as seed_everything

NUM_NODES = 9

#: The documented float32-vs-float64 tolerance contract.
F32_RTOL = 1e-4
F32_ATOL = 1e-4


@pytest.fixture(scope="module")
def adjacency() -> np.ndarray:
    rng = np.random.default_rng(11)
    dense = (rng.random((NUM_NODES, NUM_NODES)) < 0.45).astype(float)
    np.fill_diagonal(dense, 0.0)
    return dense


@pytest.fixture(scope="module")
def windows() -> np.ndarray:
    return np.random.default_rng(12).normal(size=(3, 12, NUM_NODES, 1))


def _dyhsl(adjacency, mode: str) -> DyHSL:
    seed_everything(21)
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


class TestResolvePrecision:
    def test_explicit_argument(self):
        assert resolve_precision("float64") == np.float64
        assert resolve_precision("float32") == np.float32
        assert resolve_precision(np.float32) == np.float32

    def test_default_is_float64(self, monkeypatch):
        monkeypatch.delenv(PRECISION_ENV_VAR, raising=False)
        assert resolve_precision() == np.float64

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv(PRECISION_ENV_VAR, "float32")
        assert resolve_precision() == np.float32
        # An explicit argument beats the environment.
        assert resolve_precision("float64") == np.float64

    def test_rejects_unknown_policies(self, monkeypatch):
        with pytest.raises(ValueError, match="precision"):
            resolve_precision("float16")
        monkeypatch.setenv(PRECISION_ENV_VAR, "bfloat16")
        with pytest.raises(ValueError):
            resolve_precision()


class TestToleranceContract:
    """float32 vs float64 within (rtol=1e-4, atol=1e-4), everywhere."""

    @pytest.mark.parametrize("mode", ["low_rank", "static", "from_scratch"])
    def test_all_table_v_dhsl_modes(self, adjacency, windows, mode):
        compiled = compile_module(_dyhsl(adjacency, mode), precision="float32")
        f64 = compiled(windows, precision="float64")
        f32 = compiled(windows)
        assert f32.dtype == np.float64  # outputs are cast back on exit
        np.testing.assert_allclose(f32, f64, rtol=F32_RTOL, atol=F32_ATOL)
        # The contract is meaningful only if the policies actually differ.
        assert np.abs(f32 - f64).max() > 0.0

    @pytest.mark.parametrize("name", ["AGCRN", "STGCN"])
    def test_registry_baselines(self, adjacency, windows, name):
        seed_everything(31)
        model = create_baseline(
            name, adjacency, NUM_NODES, horizon=12, input_length=12, hidden_dim=12
        )
        compiled = compile_module(model, precision="float32")
        np.testing.assert_allclose(
            compiled(windows), compiled(windows, precision="float64"),
            rtol=F32_RTOL, atol=F32_ATOL,
        )


class TestFloat64BitParity:
    """The precision machinery must be invisible at the default policy."""

    def test_float64_plans_stay_bit_identical(self, adjacency, windows):
        model = _dyhsl(adjacency, "low_rank")
        with no_grad():
            reference = model(Tensor(windows)).data
        produced = compile_module(model)(windows)
        assert np.array_equal(produced, reference), "float64 plan diverged from autograd"

    def test_float32_override_of_float64_model_and_back(self, adjacency, windows):
        model = _dyhsl(adjacency, "low_rank")
        compiled = compile_module(model)  # default float64
        reference = compiled(windows)
        compiled(windows, precision="float32")  # compiles the f32 plan
        # The float64 plan is untouched by its float32 sibling.
        assert np.array_equal(compiled(windows), reference)


class TestPolicyPlumbing:
    def test_plan_cache_keys_carry_the_dtype(self, adjacency, windows):
        compiled = compile_module(_dyhsl(adjacency, "low_rank"))
        compiled(windows)
        compiled(windows, precision="float32")
        stats = compiled.plan_stats()
        assert len(stats) == 2
        assert sorted(s.dtype for s in stats) == ["float32", "float64"]

    def test_float32_input_is_not_upcast(self, adjacency, windows):
        """A float32 input under a float32 policy must enter as-is (the
        dtype-audit rule): the served plan is the float32 plan, and the
        result equals the float64-input float32-policy answer exactly
        (the entry cast of a float64 input produces the same operand)."""
        compiled = compile_module(_dyhsl(adjacency, "low_rank"), precision="float32")
        from_f64 = compiled(windows)
        from_f32 = compiled(windows.astype(np.float32))
        assert np.array_equal(from_f64, from_f32)
        assert [s.dtype for s in compiled.plan_stats()] == ["float32"]

    def test_empty_batch_respects_policy(self, adjacency, windows):
        compiled = compile_module(_dyhsl(adjacency, "low_rank"), precision="float32")
        empty = compiled(np.empty((0, 12, NUM_NODES, 1)))
        assert empty.shape == (0, 12, NUM_NODES)
        assert empty.dtype == np.float64

    def test_constants_are_cast_once_at_compile(self, adjacency, windows):
        """Float32 plans hold float32 constants (no per-call casting)."""
        compiled = compile_module(_dyhsl(adjacency, "low_rank"), precision="float32")
        compiled(windows)
        plan = next(iter(compiled._plans.values()))
        floating = [
            value for value in plan._values
            if value is not None and np.issubdtype(np.asarray(value).dtype, np.floating)
        ]
        assert floating and all(np.asarray(v).dtype == np.float32 for v in floating)

    def test_environment_default(self, adjacency, windows, monkeypatch):
        monkeypatch.setenv(PRECISION_ENV_VAR, "float32")
        compiled = compile_module(_dyhsl(adjacency, "low_rank"))
        assert compiled.precision == "float32"
        compiled(windows)
        assert compiled.plan_stats()[0].dtype == "float32"


class TestServingPrecision:
    """The serving layers surface the policy and the per-request override."""

    @pytest.fixture()
    def served(self, adjacency):
        model = _dyhsl(adjacency, "low_rank")
        rng = np.random.default_rng(77)
        windows = rng.normal(size=(4, 12, NUM_NODES, 1)) * 10.0 + 50.0
        return model, windows

    def test_float32_service_and_sla_override(self, served):
        from repro.serving import ForecastService

        model, windows = served
        reference = ForecastService(model, cache_entries=0).forecast_many(windows)
        service = ForecastService(model, precision="float32")
        f32 = service.forecast_many(windows)
        np.testing.assert_allclose(f32, reference, rtol=F32_RTOL, atol=1e-2)
        # Per-request float64 SLA path: bit-identical to the all-f64 service.
        sla = service.forecast_many(windows, precision="float64")
        assert np.array_equal(sla, reference)
        assert service.stats().precision == "float32"

    def test_cache_namespaces_stay_disjoint(self, served):
        from repro.serving import ForecastService

        model, windows = served
        service = ForecastService(model, precision="float32")
        f32 = service.forecast(windows[0])
        sla = service.forecast(windows[0], precision="float64")
        assert not np.array_equal(f32, sla)
        # Both answers are now cached; repeats must come back unchanged
        # (a shared namespace would let one overwrite the other).
        assert np.array_equal(service.forecast(windows[0]), f32)
        assert np.array_equal(service.forecast(windows[0], precision="float64"), sla)

    def test_sharded_service_policies(self, served):
        from repro.serving import ForecastService, ShardedForecastService

        model, windows = served
        reference = ForecastService(model, cache_entries=0).forecast_many(windows)
        for shards in (2, 3):
            with ShardedForecastService(
                model, num_shards=shards, precision="float32", cache_entries=0
            ) as service:
                f32 = service.forecast_many(windows)
                np.testing.assert_allclose(f32, reference, rtol=F32_RTOL, atol=1e-2)
                assert np.array_equal(
                    service.forecast_many(windows, precision="float64"), reference
                )
                node = service.forecast_node(windows[0], node=4, precision="float64")
                assert np.array_equal(node, reference[0][:, 4])

    def test_override_path_respects_max_batch_size(self, served):
        """Per-request overrides bypass the batch queue but must keep its
        peak-batch bound: misses are chunked to max_batch_size."""
        from repro.serving import ForecastService

        model, _ = served
        rng = np.random.default_rng(88)
        windows = rng.normal(size=(10, 12, NUM_NODES, 1)) * 10.0 + 50.0
        reference = ForecastService(model, cache_entries=0).forecast_many(windows)
        service = ForecastService(model, precision="float32", max_batch_size=4)
        sla = service.forecast_many(windows, precision="float64")
        assert np.array_equal(sla, reference)
        # Every compiled plan served a (bucketed) batch of at most 4.
        forward = service._workers[0].forward
        assert all(stats.input_shape[0] <= 4 for stats in forward.plan_stats())

    def test_autograd_runtime_rejects_float32(self, served):
        from repro.serving import ForecastService

        model, windows = served
        with pytest.raises(ValueError, match="compiled runtime"):
            ForecastService(model, runtime="autograd", precision="float32")
        service = ForecastService(model, runtime="autograd")
        with pytest.raises(ValueError, match="compiled runtime"):
            service.forecast_many(windows, precision="float32")
        # A redundant float64 override on an autograd service is a no-op.
        assert service.forecast_many(windows, precision="float64").shape[0] == 4

    def test_streaming_buffer_follows_the_policy(self, served):
        from repro.serving import ForecastService

        model, windows = served
        service = ForecastService(model, precision="float32")
        assert service.buffer.dtype == np.float32
        for step in windows[0]:
            service.ingest(step)
        for step in windows[1][: model.config.input_length]:
            service.ingest(step)
        assert service.buffer.ready
        latest = service.forecast_latest()
        assert latest.shape == (model.config.output_length, NUM_NODES)
        f64_service = ForecastService(model)
        assert f64_service.buffer.dtype == np.float64
