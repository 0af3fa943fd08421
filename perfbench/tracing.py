"""Traced run: spans at every layer boundary, recorded from outside the program.

The benchmark wraps each layer's public entry points (and every entry of
``repro.tensor.kernels.KERNELS``, before any plan binds them) for the
duration of a traced run; nothing under ``src/`` changes.  A span carries
its name, start, end, parent span and request id (the id of the root span
of its thread's call stack).  Spans stay in memory and are written to
``.bench_out/<run>.spans.jsonl`` at the end.  A layer's self time is its
span minus the part its child spans cover.

Kernels run ~365 times per forward, so they are not kept as spans: each
``engine.forward`` span accumulates time, calls and operand bytes per
kernel class instead.  A link inside a fused chain runs inside its
``fused_elementwise`` step and counts only toward that step.  Forwards
replayed inside process-tier workers are not seen (the wrappers disable
themselves in forked children); the parent's ``dispatch.call`` spans time
them instead.

A traced run first runs the workload untraced for half the time, then
traced for the other half, and reports the traced/untraced ratio of each
end-to-end metric as the tracing overhead.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import threading
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.runtime import ArtifactStore, CompiledModel
from repro.runtime import compiler as compiler_module
from repro.runtime import engine as engine_module
from repro.runtime.engine import bucket_batch_size
from repro.serving import (
    ForecastCache,
    ForecastFrontend,
    ForecastService,
    MicroBatcher,
    ProcessShardExecutor,
    RollingWindowBuffer,
    SensorHealthMonitor,
    ShardedForecastService,
)
from repro.tensor import Tensor, kernels, no_grad
from repro.training import load_model_checkpoint

import deploy
import report
import workloads
from measure import blas_info

KERNEL_CLASSES = ("spmm", "fused_elementwise", "layer_norm", "matmul", "reshape_copy", "other")
FORWARD_BUCKETS = (1, 16, 32)
STAGES = ("embedding", "prior_encoder", "dhsl", "igc", "norm_fusion", "output_head", "other")
#: Batch of the per-stage autograd profile: each workload's dominant forward.
STAGE_BATCH = {"stream-85": 1, "backfill-170": 16, "mixed-85-procs": 8}
STAGE_REPEATS = 3
OVERHEAD_METRICS = ("setup_s", "p50_ms", "tail_ms", "windows_per_s")
#: One forward in this many also adds up its kernels' operand bytes.
BYTES_EVERY = 4


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "phase", "attrs")

    def __init__(self, id_, name, start, parent, request, phase) -> None:
        self.id = id_
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.phase = phase
        self.attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "request": self.request, "phase": self.phase,
            "attrs": self.attrs,
        }


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    csr = getattr(value, "csr", None)
    if csr is None:
        return 0
    return sum(getattr(getattr(csr, part, None), "nbytes", 0)
               for part in ("data", "indices", "indptr"))


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._phase = "prepare"
        self._ids = itertools.count(1)
        self._forwards = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._submitted: Dict[int, List[float]] = defaultdict(list)
        self.models: "weakref.WeakSet" = weakref.WeakSet()
        self.live: Dict[str, float] = {}
        self.active = True
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self) -> None:
        self.active = False

    # -- hooks the workloads call --------------------------------------
    def phase(self, name: str) -> None:
        if name == "after":
            self._snapshot_models()
        self._phase = name

    # -- spans -----------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            span_id, name, time.perf_counter(),
            parent.id if parent else None,
            parent.request if parent else span_id,
            self._phase,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # -- wrapping ------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str,
             annotate: Optional[Callable[[Span, tuple, dict, object], None]] = None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        self._patch(owner, attr, wrapper)

    def _wrap_forward(self) -> None:
        original = CompiledModel.__call__
        tracer = self

        def forward(model, x, *args, **kwargs):
            if not tracer.active:
                return original(model, x, *args, **kwargs)
            rows = int((x.data if isinstance(x, Tensor) else np.asarray(x)).shape[0])
            span = tracer.begin("engine.forward")
            local = tracer._local
            outer = getattr(local, "kernels", None)
            local.kernels = {}
            local.in_kernel = False
            # Operand bytes are the same on every forward of a plan; adding
            # them up costs more than the timing, so only sampled forwards do.
            local.count_bytes = next(tracer._forwards) % BYTES_EVERY == 0
            try:
                return original(model, x, *args, **kwargs)
            finally:
                tracer.end(span)
                span.attrs = {
                    "rows": rows,
                    "bucket": bucket_batch_size(rows, model.bucket_cap),
                    "kernels": local.kernels,
                    "bytes_counted": local.count_bytes,
                }
                local.kernels = outer

        self._patch(CompiledModel, "__call__", forward)

    def _wrap_kernels(self) -> None:
        tracer = self
        table = kernels.KERNELS
        for name, function in list(table.items()):
            kind = name if name in KERNEL_CLASSES else "other"
            view = name in kernels.VIEW_OPS

            def wrapped(*args, _function=function, _kind=kind, _view=view, **kwargs):
                local = tracer._local
                totals = getattr(local, "kernels", None)
                if totals is None or local.in_kernel or not tracer.active:
                    return _function(*args, **kwargs)
                local.in_kernel = True
                started = time.perf_counter()
                try:
                    result = _function(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - started
                    local.in_kernel = False
                nbytes = 0
                if local.count_bytes and not _view:
                    nbytes = sum(_nbytes(arg) for arg in args) + _nbytes(kwargs.get("matrix"))
                    nbytes += _nbytes(result)
                entry = totals.get(_kind)
                if entry is None:
                    totals[_kind] = [elapsed, 1, nbytes]
                else:
                    entry[0] += elapsed
                    entry[1] += 1
                    entry[2] += nbytes
                return result

            self._patches.append((table, name, function))
            table[name] = wrapped

    def install(self) -> None:
        """Wrap every layer boundary; call before any service is built."""
        self._wrap_kernels()
        self._wrap_forward()
        tracer = self

        init = CompiledModel.__init__

        def register(model, *args, **kwargs):
            init(model, *args, **kwargs)
            tracer.models.add(model)

        self._patch(CompiledModel, "__init__", register)

        def tag(key: str, value_of: Callable):
            def annotate(span, args, kwargs, result):
                span.attrs = {key: value_of(args, kwargs, result)}
            return annotate

        def submitted(span, args, kwargs, result):
            with tracer._lock:
                tracer._submitted[id(args[0])].append(span.start)

        def flushed(span, args, kwargs, result):
            with tracer._lock:
                waiting = tracer._submitted.pop(id(args[0]), [])
            span.attrs = {"rows": int(result or 0),
                          "waits": [span.start - when for when in waiting]}

        for owner, attr, name, annotate in (
            (ForecastFrontend, "ingest", "service.ingest", None),
            (ForecastFrontend, "forecast_many", "service.forecast_many", None),
            (ForecastFrontend, "swap_checkpoint", "service.swap", None),
            (ForecastService, "forecast", "service.forecast", None),
            (ForecastService, "forecast_latest", "service.forecast_latest", None),
            (ShardedForecastService, "forecast_latest", "service.forecast_latest", None),
            (RollingWindowBuffer, "ingest", "buffer.ingest", None),
            (RollingWindowBuffer, "snapshot", "buffer.snapshot", None),
            (SensorHealthMonitor, "observe", "quality.observe", None),
            (ForecastCache, "get", "cache.get",
             tag("hit", lambda args, kwargs, result: result is not None)),
            (ForecastCache, "put", "cache.put", None),
            (MicroBatcher, "submit", "batcher.submit", submitted),
            (MicroBatcher, "flush", "batcher.flush", flushed),
            (CompiledModel, "compile_for", "engine.compile_for", None),
            (compiler_module, "compile_plan", "compiler.compile", None),
            (ArtifactStore, "load", "artifacts.load",
             tag("found", lambda args, kwargs, result: result is not None)),
            (engine_module, "bind_plan", "artifacts.bind", None),
            (ProcessShardExecutor, "call", "dispatch.call",
             tag("lane", lambda args, kwargs, result: kwargs.get(
                 "lane", args[3] if len(args) > 3 else "bulk"))),
        ):
            self.wrap(owner, attr, name, annotate)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _snapshot_models(self) -> None:
        """Plan-cache counters and plan stats of the models still serving."""
        gc.collect()  # drop discarded set-ups' models, which sit in cycles
        compiles = loads = rejects = 0
        plans = []
        for model in list(self.models):
            info = model.cache_info()
            compiles += info.compiles
            loads += info.artifact_loads
            rejects += info.artifact_rejects
            plans.extend(model.plan_stats())
        steps = [stats.steps for stats in plans]
        self.live = {
            "engine.compiles": compiles,
            "engine.artifact_loads": loads,
            "artifacts.rejects": rejects,
            "compiler.steps": max(set(steps), key=steps.count) if steps else 0,
            "compiler.fused_chains": max((stats.fused_chains for stats in plans), default=0),
            "compiler.workspace_kib": sum(stats.workspace_bytes for stats in plans) / 1024.0,
        }

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict(), default=str) + "\n")


# ----------------------------------------------------------------------
# Per-layer metrics from the recorded spans.
# ----------------------------------------------------------------------
def _p50(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def _self_times(spans: List[Span]) -> Dict[int, float]:
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered.get(span.id, 0.0) for span in spans}


def layer_metrics(tracer: Tracer, record) -> Dict[str, float]:
    spans = tracer.spans
    timed = [span for span in spans if span.phase in ("timed", "capacity")]
    self_time = _self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in timed:
        by_name[span.name].append(span)
    metrics: Dict[str, float] = {}

    forwards = by_name["engine.forward"]
    count = max(len(forwards), 1)
    counted = max(sum(1 for span in forwards if span.attrs["bytes_counted"]), 1)
    kernel_total = 0.0
    for kind in KERNEL_CLASSES:
        seconds = calls = nbytes = 0.0
        for span in forwards:
            entry = span.attrs["kernels"].get(kind)
            if entry is not None:
                seconds += entry[0]
                calls += entry[1]
                nbytes += entry[2]
        kernel_total += seconds
        metrics[f"kernels.{kind}.ms_per_fwd"] = seconds * 1e3 / count
        metrics[f"kernels.{kind}.calls_per_fwd"] = calls / count
        metrics[f"kernels.{kind}.mb_per_fwd"] = nbytes / 1e6 / counted
    forward_total = sum(span.duration for span in forwards)
    metrics["kernels.dispatch_ms_per_fwd"] = (forward_total - kernel_total) * 1e3 / count
    metrics["kernels.share_of_forward"] = kernel_total / forward_total if forward_total else 0.0

    for bucket in FORWARD_BUCKETS:
        metrics[f"engine.forward_ms.b{bucket}"] = _p50(
            span.duration * 1e3 for span in forwards if span.attrs["bucket"] == bucket
        )
    requests = [span for span in timed if span.parent is None and span.name in (
        "service.forecast_latest", "service.forecast_many")]
    request_total = sum(span.duration for span in requests)
    metrics["engine.forward_share"] = forward_total / request_total if request_total else 0.0
    rows = sum(span.attrs["rows"] for span in forwards)
    padded = sum(span.attrs["bucket"] - span.attrs["rows"] for span in forwards)
    metrics["engine.pad_ratio"] = padded / rows if rows else 0.0
    metrics["engine.compiles"] = tracer.live.get("engine.compiles", 0)
    metrics["engine.artifact_loads"] = tracer.live.get("engine.artifact_loads", 0)

    everywhere: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        everywhere[span.name].append(span)
    # Compile time a set-up pays, summed over its plans.
    metrics["compiler.compile_ms"] = sum(
        s.duration * 1e3 for s in everywhere["compiler.compile"] if s.phase == "setup"
    ) / max(len(record.setup_s), 1)
    for key in ("compiler.steps", "compiler.fused_chains", "compiler.workspace_kib"):
        metrics[key] = tracer.live.get(key, 0)
    metrics["artifacts.load_ms"] = _p50(
        s.duration * 1e3 for s in everywhere["artifacts.load"] if s.attrs["found"])
    metrics["artifacts.bind_ms"] = _p50(s.duration * 1e3 for s in everywhere["artifacts.bind"])
    metrics["artifacts.rejects"] = tracer.live.get("artifacts.rejects", 0)

    metrics["buffer.ingest_us"] = _p50(self_time[s.id] * 1e6 for s in by_name["buffer.ingest"])
    metrics["buffer.snapshot_us"] = _p50(s.duration * 1e6 for s in by_name["buffer.snapshot"])
    metrics["quality.observe_us"] = _p50(s.duration * 1e6 for s in by_name["quality.observe"])
    quality = getattr(record.stats, "quality", None)
    observed = quality.steps_observed * record.deployment.sensors if quality else 0
    metrics["quality.imputed_share"] = quality.imputed_values / observed if observed else 0.0
    gets = by_name["cache.get"]
    metrics["cache.hit_ratio"] = (
        sum(1 for s in gets if s.attrs["hit"]) / len(gets) if gets else 0.0)
    metrics["cache.get_us"] = _p50(s.duration * 1e6 for s in gets)
    metrics["cache.put_us"] = _p50(s.duration * 1e6 for s in by_name["cache.put"])
    metrics["service.self_ms"] = _p50(self_time[s.id] * 1e3 for s in requests)

    flushes = [s for s in by_name["batcher.flush"] if s.attrs["rows"]]
    metrics["batcher.rows_per_flush"] = (
        sum(s.attrs["rows"] for s in flushes) / len(flushes) if flushes else 0.0)
    metrics["batcher.queue_wait_ms"] = _p50(
        wait * 1e3 for s in flushes for wait in s.attrs["waits"])
    metrics["batcher.flush_ms"] = _p50(s.duration * 1e3 for s in flushes)
    for lane in ("interactive", "bulk"):
        metrics[f"dispatch.call_ms.{lane}"] = _p50(
            s.duration * 1e3 for s in by_name["dispatch.call"] if s.attrs["lane"] == lane)

    lanes = {lane.lane: lane.rejected for lane in getattr(record.stats, "lanes", ()) or ()}
    metrics["lanes.bulk.rejected"] = lanes.get("bulk", 0)
    metrics["lanes.interactive.rejected"] = lanes.get("interactive", 0)
    metrics["workers.respawns"] = sum(shard.respawns for shard in record.health.shards)
    tier = getattr(record.stats, "process_tier", None)
    # Forked workers inherit the parent's initialised BLAS pool, so the
    # parent's live count is what they run with.
    metrics["workers.blas_threads"] = (blas_info()["threads"] or 0) if tier else 0
    metrics["resilience.retries"] = record.health.retries
    metrics["resilience.expired"] = record.health.expired_requests
    metrics["swap.plans_compiled"] = sum(r.plans_compiled for r in record.swaps)
    metrics["swap.artifacts_adopted"] = sum(r.artifacts_adopted for r in record.swaps)
    return metrics


# ----------------------------------------------------------------------
# Fig. 2 stages: an autograd forward with every stage's forward wrapped.
# ----------------------------------------------------------------------
def _stage_modules(model) -> Dict[str, list]:
    extractor = model.extractor
    return {
        "embedding": [model.embedding],
        "prior_encoder": [model.prior_encoder] if model.prior_encoder is not None else [],
        "dhsl": list(extractor.hypergraph_blocks._modules.values()),
        "igc": list(extractor.igc_blocks._modules.values()),
        "norm_fusion": list(extractor.layer_norms._modules.values()) + [extractor.fusion],
        "output_head": [model.output_head],
    }


def stage_profile(checkpoint: Path, windows: np.ndarray) -> Dict[str, float]:
    """Per-stage milliseconds and shares of an autograd forward of ``windows``."""
    loaded = load_model_checkpoint(checkpoint)
    model, scaler = loaded.model, loaded.scaler
    batch = np.array(windows, dtype=float)
    batch[..., 0] = scaler.transform(batch[..., 0])
    spent: Dict[str, float] = defaultdict(float)
    for stage, modules in _stage_modules(model).items():
        for module in modules:
            original = module.forward

            def timed(*args, _original=original, _stage=stage, **kwargs):
                started = time.perf_counter()
                try:
                    return _original(*args, **kwargs)
                finally:
                    spent[_stage] += time.perf_counter() - started

            module.forward = timed
    total = 0.0
    with no_grad():
        for _ in range(STAGE_REPEATS):
            started = time.perf_counter()
            model(Tensor(batch))
            total += time.perf_counter() - started
    spent["other"] = total - sum(spent.values())
    metrics = {}
    for stage in STAGES:
        metrics[f"stage.{stage}.ms_per_fwd"] = spent[stage] * 1e3 / STAGE_REPEATS
        metrics[f"stage.{stage}.share"] = spent[stage] / total
    return metrics


def traced_run(runner, workdir: Path, seed: int, seconds: float, out: Path) -> Dict[str, object]:
    """Untraced half, traced half, per-layer metrics and tracing overhead."""
    half = seconds / 2.0
    untraced = runner(workdir / "untraced", seed, half)
    baseline = report.end_to_end(untraced)
    baseline_check = report.check(untraced)
    baseline_counts = report.attempted_failed(untraced)
    del untraced
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        record = runner(workdir / "traced", seed, half, hooks=tracer)
    finally:
        tracer.uninstall()
    result = report.summary(record, seed)
    traced = result["end_to_end"]
    result["overhead"] = {name: traced[name] / baseline[name] for name in OVERHEAD_METRICS}
    # Both halves must pass the gate and the generator-lag rule.
    for key in ("parity", "valid"):
        result["check"][key] = bool(result["check"][key] and baseline_check[key])
    result["check"]["replayed"] += baseline_check["replayed"]
    result["attempted"] += baseline_counts[0]
    result["failed"] += baseline_counts[1]

    metrics = layer_metrics(tracer, record)
    flow = record.deployment.flow
    windows = np.stack([
        flow[start : start + deploy.INPUT_LENGTH] for start in range(STAGE_BATCH[record.workload])
    ])
    metrics.update(stage_profile(record.deployment.checkpoints[0], windows))
    for name in OVERHEAD_METRICS:
        metrics[f"trace.overhead.{name}"] = result["overhead"][name]
    result["metrics"] = report.spec_metrics("per_layer", metrics)
    result["expected_to_move"] = workloads.MOVES[record.workload]
    tracer.write(out.with_suffix(".spans.jsonl"))
    return result
