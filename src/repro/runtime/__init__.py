"""Graph-free inference runtime.

Serving traffic through the autograd engine wastes most of its time in
Python: even under ``no_grad`` every op builds a ``Tensor`` and an op
record, so per-op dispatch — not the matmuls — dominates at
scale (the Section IV-D complexity argument of the paper is about raw
arithmetic, which this layer gets back to).  The runtime compiles a
:class:`~repro.nn.Module` forward pass into a flat plan of calls into
:mod:`repro.tensor.kernels` — the same kernels the autograd ops delegate
to — executed directly on ``numpy`` arrays with preallocated, reused
workspace buffers.

* :func:`compile_module` / :class:`CompiledModel` — compile once per input
  shape, replay on raw arrays;
* :func:`resolve_runtime_mode` — the trainer's escape hatch: the
  ``REPRO_RUNTIME`` environment variable (or ``Trainer.predict``'s
  ``runtime=`` argument) selects ``"compiled"`` (default) or
  ``"autograd"`` forwards for training and ``Trainer.predict``;
* :class:`CompileError` — raised when a forward pass cannot be traced
  (training mode, value-dependent control flow, ops without kernel specs).

Because both execution modes share one numerical source of truth, compiled
outputs match autograd outputs within 1e-10 (bit-identical in practice);
``tests/runtime/`` asserts this for DyHSL in all three Table V modes and
for the registry baselines.

Example
-------
>>> from repro.runtime import compile_module
>>> compiled = compile_module(model)
>>> predictions = compiled(windows)          # (B, T', N) ndarray
"""

from __future__ import annotations

import os
from typing import Optional

from .artifacts import ArtifactError, ArtifactStore, trace_hash, weights_fingerprint
from .compiler import CompileError, build_plan_spec, compile_plan
from .engine import (
    BUCKETS_ENV_VAR,
    DEFAULT_BUCKET_CAP,
    PRECISION_ENV_VAR,
    PRECISIONS,
    WORKSPACE_ALIGN,
    CompiledModel,
    Plan,
    PlanCacheInfo,
    PlanSpec,
    PlanStats,
    StepSpec,
    batch_pieces,
    bind_plan,
    bucket_batch_size,
    lane_pieces,
    plan_workspace_nbytes,
    resolve_bucket_cap,
    resolve_precision,
)
from .training import CompiledTrainingModel, compile_training_model, plan_trainable
from .verify import (
    VERIFY_ENV_VAR,
    VerifyError,
    VerifyReport,
    verify_enabled,
    verify_plan,
    verify_spec,
    verify_store,
)

__all__ = [
    "ArtifactError",
    "ArtifactStore",
    "BUCKETS_ENV_VAR",
    "CompileError",
    "CompiledModel",
    "CompiledTrainingModel",
    "DEFAULT_BUCKET_CAP",
    "PRECISION_ENV_VAR",
    "PRECISIONS",
    "Plan",
    "PlanCacheInfo",
    "PlanSpec",
    "PlanStats",
    "RUNTIME_MODES",
    "RUNTIME_ENV_VAR",
    "StepSpec",
    "VERIFY_ENV_VAR",
    "VerifyError",
    "VerifyReport",
    "WORKSPACE_ALIGN",
    "batch_pieces",
    "bind_plan",
    "bucket_batch_size",
    "build_plan_spec",
    "compile_module",
    "compile_plan",
    "compile_training_model",
    "lane_pieces",
    "plan_trainable",
    "plan_workspace_nbytes",
    "resolve_bucket_cap",
    "resolve_precision",
    "resolve_runtime_mode",
    "trace_hash",
    "verify_enabled",
    "verify_plan",
    "verify_spec",
    "verify_store",
    "weights_fingerprint",
]

#: Environment variable selecting the trainer's execution mode.
RUNTIME_ENV_VAR = "REPRO_RUNTIME"

#: Supported execution modes: compiled kernel plans vs. autograd forwards.
RUNTIME_MODES = ("compiled", "autograd")


def compile_module(
    module,
    fuse: bool = True,
    bucket_batches=None,
    precision=None,
    artifact_dir=None,
) -> CompiledModel:
    """Wrap ``module`` (switched to eval mode) in a :class:`CompiledModel`.

    ``fuse`` toggles the elementwise-chain fusion pass; ``bucket_batches``
    sets the batch-bucketing policy (see
    :func:`repro.runtime.engine.resolve_bucket_cap`); ``precision`` sets
    the execution-precision policy (``"float64"`` / ``"float32"``, default
    from ``REPRO_RUNTIME_PRECISION``).  ``artifact_dir`` (a directory
    or :class:`~repro.runtime.artifacts.ArtifactStore`) attaches a durable
    plan-artifact store — see ``docs/runtime.md`` §Plan artifacts.
    """
    return CompiledModel(
        module,
        fuse=fuse,
        bucket_batches=bucket_batches,
        precision=precision,
        artifact_dir=artifact_dir,
    )


def resolve_runtime_mode(mode: Optional[str] = None) -> str:
    """Resolve the execution mode: explicit argument > env var > compiled.

    Parameters
    ----------
    mode:
        ``"compiled"``, ``"autograd"`` or ``None`` to consult the
        ``REPRO_RUNTIME`` environment variable (defaulting to compiled).
    """
    if mode is None:
        mode = os.environ.get(RUNTIME_ENV_VAR, "").strip().lower() or "compiled"
    mode = mode.lower()
    if mode not in RUNTIME_MODES:
        raise ValueError(
            f"unknown runtime mode {mode!r}; expected one of {RUNTIME_MODES} "
            f"(set via argument or the {RUNTIME_ENV_VAR} environment variable)"
        )
    return mode
