"""Compiled training forwards and the recorded-tape backward.

Contracts:

* the compiled training forward is **bit-identical** to the autograd
  forward for eligible (dropout-free) models in all three Table V DHSL
  modes;
* the tape backward reproduces autograd's parameter gradients to
  accumulation-order noise (<= 1e-12 relative) and matches central finite
  differences;
* ineligible models (active dropout, batch norm) are rejected and the
  Trainer falls back to plain autograd, saying why in its history.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DyHSL, DyHSLConfig
from repro.nn import BatchNorm1d, Linear, Module, Sequential
from repro.runtime import (
    CompileError,
    compile_training_model,
    plan_trainable,
)
from repro.tensor import Tensor
from repro.tensor import seed as seed_everything

NUM_NODES = 7


def _dyhsl(mode="low_rank", dropout=0.0, seed=91) -> DyHSL:
    seed_everything(seed)
    rng = np.random.default_rng(seed)
    adjacency = (rng.random((NUM_NODES, NUM_NODES)) < 0.5).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    config = DyHSLConfig(
        num_nodes=NUM_NODES,
        hidden_dim=10,
        prior_layers=1,
        num_hyperedges=5,
        window_sizes=(1, 4, 12),
        mhce_layers=1,
        structure_learning=mode,
        dropout=dropout,
    )
    return DyHSL(config, adjacency)


def _autograd_step(model, x, loss_of):
    """Reference loss + parameter grads through plain autograd."""
    model.zero_grad()
    predictions = model(Tensor(x))
    loss = loss_of(predictions)
    loss.backward()
    grads = {name: p.grad.copy() for name, p in model.named_parameters()}
    model.zero_grad()
    return predictions.data.copy(), loss.item(), grads


def _tape_step(model, x, loss_of):
    """Loss + grads through the compiled training runtime."""
    model.zero_grad()
    runtime = compile_training_model(model)
    step = runtime.step(x)
    predictions = Tensor(step.predictions, requires_grad=True)
    loss = loss_of(predictions)
    loss.backward()
    step.backward(predictions.grad)
    grads = {name: p.grad.copy() for name, p in model.named_parameters()}
    model.zero_grad()
    return step.predictions, loss.item(), grads


def _max_rel_diff(reference, produced):
    worst = 0.0
    for name, expected in reference.items():
        got = produced[name]
        scale = np.abs(expected).max() + 1e-12
        worst = max(worst, float(np.abs(got - expected).max() / scale))
    return worst


def _mae_like(predictions):
    return (predictions * predictions).mean() + predictions.abs().mean()


class TestEligibility:
    def test_dropout_free_dyhsl_is_trainable(self):
        ok, reason = plan_trainable(_dyhsl(dropout=0.0))
        assert ok and reason == ""

    def test_active_dropout_is_rejected(self):
        ok, reason = plan_trainable(_dyhsl(dropout=0.1))
        assert not ok
        assert "dropout" in reason
        with pytest.raises(CompileError):
            compile_training_model(_dyhsl(dropout=0.1))

    def test_batch_norm_is_rejected(self):
        model = Sequential(Linear(4, 8), BatchNorm1d(8), Linear(8, 2))
        ok, reason = plan_trainable(model)
        assert not ok
        assert "batch norm" in reason


class TestForwardParity:
    @pytest.mark.parametrize("mode", ["low_rank", "static", "from_scratch"])
    def test_training_forward_is_bit_identical(self, mode):
        model = _dyhsl(mode)
        model.train()
        x = np.random.default_rng(92).normal(size=(4, 12, NUM_NODES, 1))
        reference, _, _ = _autograd_step(model, x, _mae_like)
        runtime = compile_training_model(model)
        step = runtime.step(x)
        assert np.array_equal(step.predictions, reference)
        # The module stays in training mode (tracing flips it temporarily).
        assert model.training

    def test_idle_plan_releases_the_trained_batch(self):
        """After backward, no slot (including view slots) may pin the batch."""
        import weakref

        model = _dyhsl()
        model.train()
        runtime = compile_training_model(model)
        payload = np.random.default_rng(90).normal(size=(4, 12, NUM_NODES, 1))
        step = runtime.step(payload)
        step.backward(np.zeros_like(step.predictions))
        reference = weakref.ref(payload)
        del payload, step
        assert reference() is None

    def test_plans_are_reused_across_steps(self):
        model = _dyhsl()
        model.train()
        runtime = compile_training_model(model)
        x = np.random.default_rng(93).normal(size=(4, 12, NUM_NODES, 1))
        runtime.step(x).backward(np.zeros((4, 12, NUM_NODES)))
        runtime.step(x).backward(np.zeros((4, 12, NUM_NODES)))
        assert len(runtime.plan_stats()) == 1


class TestTapeBackward:
    @pytest.mark.parametrize("mode", ["low_rank", "static", "from_scratch"])
    def test_gradients_match_autograd(self, mode):
        model = _dyhsl(mode)
        model.train()
        x = np.random.default_rng(94).normal(size=(4, 12, NUM_NODES, 1))
        _, ref_loss, ref_grads = _autograd_step(model, x, _mae_like)
        _, tape_loss, tape_grads = _tape_step(model, x, _mae_like)
        assert tape_loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
        assert set(tape_grads) == set(ref_grads)
        assert _max_rel_diff(ref_grads, tape_grads) <= 1e-12

    def test_gradients_accumulate_like_autograd_leaves(self):
        model = _dyhsl()
        model.train()
        runtime = compile_training_model(model)
        x = np.random.default_rng(95).normal(size=(2, 12, NUM_NODES, 1))
        for _ in range(2):  # no zero_grad in between: grads must sum
            step = runtime.step(x)
            predictions = Tensor(step.predictions, requires_grad=True)
            loss = _mae_like(predictions)
            loss.backward()
            step.backward(predictions.grad)
        double = {name: p.grad.copy() for name, p in model.named_parameters()}
        model.zero_grad()
        _, _, single = _tape_step(model, x, _mae_like)
        worst = _max_rel_diff({k: 2.0 * v for k, v in single.items()}, double)
        assert worst <= 1e-12

    def test_gradcheck_against_finite_differences(self):
        """Central differences through the *compiled* forward."""
        model = _dyhsl(seed=96)
        model.train()
        runtime = compile_training_model(model)
        rng = np.random.default_rng(97)
        x = rng.normal(size=(2, 12, NUM_NODES, 1))
        weight = rng.normal(size=(2, 12, NUM_NODES))  # fixed projection

        def loss_value() -> float:
            step = runtime.step(x)
            return float((step.predictions * weight).sum())

        step = runtime.step(x)
        step.backward(weight)
        epsilon = 1e-6
        checked = 0
        for name, parameter in model.named_parameters():
            flat = parameter.data.reshape(-1)
            for index in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                original = flat[index]
                flat[index] = original + epsilon
                upper = loss_value()
                flat[index] = original - epsilon
                lower = loss_value()
                flat[index] = original
                numeric = (upper - lower) / (2 * epsilon)
                analytic = parameter.grad.reshape(-1)[index]
                assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-6), name
                checked += 1
        assert checked > 10


class TestSavedChainIntermediates:
    """The tape saves fused-chain link values instead of recomputing them."""

    def _plan_of(self, runtime, x):
        runtime.step(x)  # compile
        return next(iter(runtime._plans.values()))

    def test_chain_buffers_are_allocated_per_link(self):
        model = _dyhsl()
        model.train()
        runtime = compile_training_model(model)
        x = np.random.default_rng(201).normal(size=(2, 12, NUM_NODES, 1))
        plan = self._plan_of(runtime, x)
        fused = [
            (kwargs, out_slot)
            for name, _, _, kwargs, out_slot, _ in plan._steps
            if name == "fused_elementwise"
        ]
        assert fused, "DyHSL must compile fused chains"
        for kwargs, out_slot in fused:
            buffers = plan._chain_buffers[out_slot]
            # One buffer per chain link, the tail being the step's own.
            assert len(buffers) == len(kwargs["chain"])
            assert len({id(b) for b in buffers}) == len(buffers)

    def test_forward_saves_and_backward_consumes_the_intermediates(self):
        model = _dyhsl()
        model.train()
        runtime = compile_training_model(model)
        x = np.random.default_rng(202).normal(size=(2, 12, NUM_NODES, 1))
        step = runtime.step(x)
        plan = next(iter(runtime._plans.values()))
        fused_slots = {
            out_slot for name, _, _, _, out_slot, _ in plan._steps
            if name == "fused_elementwise"
        }
        layer_norm_slots = {
            out_slot for name, _, _, _, out_slot, _ in plan._steps
            if name == "layer_norm"
        }
        # Exactly the fused chains (per-link values) and the layer norms
        # ((x_hat, sigma)) are saved; no other step keeps anything.
        assert set(plan._saved) == fused_slots | layer_norm_slots
        chains = {out_slot: kwargs["chain"] for name, _, _, kwargs, out_slot, _ in plan._steps
                  if name == "fused_elementwise"}
        for slot in fused_slots:
            assert isinstance(plan._saved[slot], list)
            assert len(plan._saved[slot]) == len(chains[slot])
        for slot in layer_norm_slots:
            assert isinstance(plan._saved[slot], tuple) and len(plan._saved[slot]) == 2
        predictions = Tensor(step.predictions, requires_grad=True)
        loss = _mae_like(predictions)
        loss.backward()
        step.backward(predictions.grad)
        # Consumed (popped) by the backward, cleared by release().
        assert not plan._saved

    def test_gradients_unchanged_by_the_saved_path(self):
        """Saved-intermediate backward == autograd."""
        model = _dyhsl(seed=203)
        model.train()
        x = np.random.default_rng(204).normal(size=(3, 12, NUM_NODES, 1))
        _, ref_loss, ref_grads = _autograd_step(model, x, _mae_like)
        _, tape_loss, tape_grads = _tape_step(model, x, _mae_like)
        assert tape_loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
        assert _max_rel_diff(ref_grads, tape_grads) <= 1e-12


class TestTrainerIntegration:
    def _trainer(self, dropout: float = 0.0, baseline: str = ""):
        """A 2-epoch trainer on a small DyHSL (or the named registry model);
        ``dropout=None`` keeps the DyHSL config default."""
        from repro.baselines import create_baseline
        from repro.data import ForecastingData, TrafficSimulatorConfig, WindowConfig, load_dataset
        from repro.training import Trainer, TrainerConfig

        seed_everything(101)
        dataset = load_dataset(
            "PEMS04",
            node_scale=0.05,
            step_scale=0.015,
            seed=101,
            simulator_config=TrafficSimulatorConfig(seed=101),
        )
        data = ForecastingData(dataset, window=WindowConfig(12, 12))
        if baseline:
            model = create_baseline(
                baseline, data.dataset.adjacency, data.dataset.num_nodes, hidden_dim=8
            )
        else:
            config = DyHSLConfig(
                num_nodes=data.dataset.num_nodes,
                hidden_dim=8,
                prior_layers=1,
                num_hyperedges=4,
                window_sizes=(1, 12),
                mhce_layers=1,
                **({} if dropout is None else {"dropout": dropout}),
            )
            model = DyHSL(config, data.dataset.adjacency)
        trainer_config = TrainerConfig(max_epochs=2, batch_size=8, patience=5)
        return Trainer(model, data, trainer_config)

    def test_compiled_training_matches_autograd_training(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME", "autograd")
        autograd_history = self._trainer().fit()
        monkeypatch.delenv("REPRO_RUNTIME")
        compiled_trainer = self._trainer()
        compiled_history = compiled_trainer.fit()
        assert compiled_trainer._training_runtime is not None  # it really ran compiled
        assert compiled_history.training_runtime == "compiled"
        assert autograd_history.training_runtime == "autograd: REPRO_RUNTIME=autograd"
        assert compiled_history.train_loss == pytest.approx(
            autograd_history.train_loss, rel=0, abs=1e-9
        )
        assert compiled_history.validation_mae == pytest.approx(
            autograd_history.validation_mae, rel=0, abs=1e-9
        )

    def test_dropout_model_falls_back_to_autograd(self):
        trainer = self._trainer(dropout=0.2)
        history = trainer.fit()
        assert trainer._training_runtime is None
        assert history.training_runtime.startswith("autograd: ")
        assert "dropout (p=0.2)" in history.training_runtime

    def test_history_names_the_training_runtime(self):
        """The default DyHSL (dropout 0.1) says why it trains on autograd;
        a dropout-free registry model trains compiled."""
        default = self._trainer(dropout=None).fit().training_runtime
        assert default.startswith("autograd: ")
        assert "'prior_encoder.dropout'" in default
        assert self._trainer(baseline="GRU-ED").fit().training_runtime == "compiled"

    def test_environment_escape_hatch_disables_compiled_training(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME", "autograd")
        trainer = self._trainer()
        assert trainer._training_forward_runtime() is None
        assert trainer.history.training_runtime == "autograd: REPRO_RUNTIME=autograd"

    def test_predict_caches_by_parameter_version(self):
        trainer = self._trainer()
        first = trainer._compiled_for_inference()
        assert trainer._compiled_for_inference() is first  # no weight change
        trainer.fit()  # optimiser steps + best-epoch restore bump the token
        after_fit = trainer._compiled_for_inference()
        assert after_fit is not first
        assert trainer._compiled_for_inference() is after_fit
        state = {key: value * 1.01 for key, value in trainer.model.state_dict().items()}
        trainer.model.load_state_dict(state)
        assert trainer._compiled_for_inference() is not after_fit
        # Loading into a *submodule* must invalidate too: weights_version
        # aggregates over children, so no folded plan can serve stale weights.
        current = trainer._compiled_for_inference()
        child_name, child = next(iter(trainer.model._modules.items()))
        child.load_state_dict(child.state_dict())
        assert trainer.model.weights_version > 0
        assert trainer._compiled_for_inference() is not current, child_name

    def test_predictions_track_weight_updates_through_the_cache(self):
        """The cached plan must never serve stale folded weights."""
        trainer = self._trainer()
        inputs = trainer.data.test.inputs[:4]
        before = trainer.predict(inputs)
        trainer.fit()
        after = trainer.predict(inputs)
        assert not np.allclose(before, after)
        # And the cached compiled predictions equal fresh autograd ones.
        assert np.allclose(after, trainer.predict(inputs, runtime="autograd"), atol=1e-10)
