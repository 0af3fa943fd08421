"""Serving throughput — micro-batching and the graph-free compiled runtime.

Four levers stack on the serving path:

1. **Micro-batching** (PR 1): coalescing concurrent single-window requests
   into one ``(B, T, N, F)`` forward amortises the per-op Python dispatch
   cost across the batch.
2. **Compiled runtime** (:mod:`repro.runtime`, PR 2): replaying the forward
   as a flat kernel plan on raw arrays removes the autograd layer entirely
   — no ``Tensor`` construction, no gradient closures, reused workspace
   buffers, constant-folded parameter-only subgraphs.
3. **Fused, bucketed plans** (PR 3): elementwise-chain fusion (and blocked
   layer norm) cut the redundant memory passes that dominate once arrays
   are large enough to amortise dispatch, and power-of-two batch bucketing
   bounds the plan cache under ragged traffic.
4. **Precision policy** (PR 5): float32 plans halve the memory traffic the
   fused kernels are bound by (the documented tolerance contract bounds
   the drift; float64 plans stay bit-exact).

Every table is also recorded machine-readably in
``benchmarks/BENCH_runtime.json`` (req/s, speedup-vs-autograd, precision,
workers) so the perf trajectory is queryable across PRs.

This harness measures requests/second for concurrency levels {1, 8, 32,
128} on a compact DyHSL in three configurations (autograd per-request,
autograd micro-batched, compiled micro-batched), timed in interleaved
rounds, and asserts two contracts on the median per-round speedups:

* micro-batching alone is at least 4x faster than per-request forwards at
  128 concurrent requests (the PR-1 contract);
* the compiled runtime is at least 1.5x faster than the batched autograd
  path at the concurrency level where dispatch dominates, with outputs
  within 1e-10 of the autograd forwards everywhere.  (The bar was 2x when
  the autograd baseline rebuilt an O(nnz) spmm transpose per forward;
  PR 3 caches it on the SparseMatrix, which made *autograd* serving ~1.4x
  faster and narrowed the measured ratio — the compiled runtime's own
  absolute req/s are unchanged.)

The node-scale sweep scales the synthetic network up to the published
PEMS08 node count (170 sensors, further if ``REPRO_BENCH_NODE_SCALE`` asks
for it) with fused-vs-unfused columns and plan stats; its
``BENCH_runtime.json`` section carries a provenance block (commit, cores,
BLAS library and threads, date).  The PR-3 contract
sits at the 0.5-scale / batch-16 point where the PR-2 runtime had
converged to 1.0x — and is measured against *both* baselines this PR
moved: >= 1.15x over the PR-2 autograd configuration (reconstructed live
by adding back the per-forward spmm-transpose rebuild this PR removed),
and a clear win (>= 1.05x asserted, ~1.13x measured) over today's
autograd, which that same fix made ~1.1x faster at this scale.  Further
tables cover one ragged backfill cycle under three plan policies (padded
buckets, power-of-two pieces, exact per-size plans), row lanes and the
compiled training forward.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving_throughput.py -s
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core import DyHSL, DyHSLConfig
from repro.nn import MaskedMAELoss
from repro.runtime import CompiledModel, blas, compile_module, compile_training_model
from repro.runtime.compiler import Rebatcher, compile_plan
from repro.runtime.engine import _PlanArena, pad_batch_to_bucket, plan_workspace_nbytes
from repro.serving import ForecastService, MicroBatcher
from repro.tensor import Tensor, no_grad
from repro.tensor import seed as seed_everything

from conftest import NODE_SCALE, SEED, print_table, record_bench

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))
from perfbench import deploy  # noqa: E402  (the perfbench deployment's model)
from perfbench.measure import provenance  # noqa: E402  (commit, cores, BLAS, date)

#: Concurrency levels (pending requests coalesced into one flush).
BATCH_SIZES = (1, 8, 32, 128)

#: Interleaved rounds per concurrency level in the throughput contract.
THROUGHPUT_ROUNDS = 7

#: Served model: compact enough that per-call dispatch overhead — the cost
#: micro-batching amortises — dominates over raw matmul flops, which is the
#: regime a CPU serving box for a single district operates in.
NUM_NODES = 8
HIDDEN = 16

#: Published PEMS08 sensor count, the reference for the node-scale sweep.
PEMS08_NODES = 170

#: perfbench backfill-170's request mix (``perfbench/workloads.py``).
BACKFILL_SIZES = (1, 2, 3, 5, 7, 9, 12, 14, 16, 19, 23, 27, 32)

#: Node-scale sweep: fractions of the published PEMS08 network, up to the
#: full 170 sensors (1x) and further if REPRO_BENCH_NODE_SCALE asks for it.
SWEEP_SCALES = tuple(sorted({0.06, 0.125, 0.25, 0.5, 1.0, max(1.0, NODE_SCALE)}))


def _build_model(num_nodes: int = NUM_NODES, hidden: int = HIDDEN) -> DyHSL:
    seed_everything(SEED)
    rng = np.random.default_rng(SEED)
    adjacency = (rng.random((num_nodes, num_nodes)) < 0.4).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    config = DyHSLConfig(
        num_nodes=num_nodes,
        hidden_dim=hidden,
        prior_layers=2,
        num_hyperedges=8,
        window_sizes=(1, 2, 3, 4, 6, 12),
        mhce_layers=2,
    )
    return DyHSL(config, adjacency).eval()


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def _best_of_interleaved(callables, repeats: int):
    """Best-of timings taken round-robin so box-speed drift (shared CPU,
    frequency scaling) hits every candidate equally instead of biasing
    whichever happened to run during the slow seconds."""
    bests = [float("inf")] * len(callables)
    for _ in range(repeats):
        for index, callable_ in enumerate(callables):
            started = time.perf_counter()
            callable_()
            bests[index] = min(bests[index], time.perf_counter() - started)
    return bests


def _interleaved_rounds(callables, rounds: int) -> np.ndarray:
    """Seconds of every callable per round, shape ``(rounds, len(callables))``.

    The callables run back to back within a round, in reverse order on odd
    rounds, so a speedup is taken per round (both sides timed seconds
    apart) and summarised by its median, which holds steadier on a shared
    host than a ratio of two bests.
    """
    order = list(range(len(callables)))
    seconds = np.empty((rounds, len(callables)))
    for round_ in range(rounds):
        for index in order[::-1] if round_ % 2 else order:
            started = time.perf_counter()
            callables[index]()
            seconds[round_, index] = time.perf_counter() - started
    return seconds


def test_serving_throughput():
    """Requests/sec per concurrency: per-request vs. batched vs. compiled."""
    model = _build_model()
    compiled = compile_module(model)
    rng = np.random.default_rng(SEED + 1)
    windows = rng.normal(size=(max(BATCH_SIZES), 12, NUM_NODES, 1))

    with no_grad():
        model(Tensor(windows[:1]))  # warm-up: first call pays allocation costs
    for concurrency in BATCH_SIZES:
        compiled(windows[:concurrency])  # one-time plan compilation per shape

    rows: List[dict] = []
    batched_speedups: Dict[int, float] = {}
    runtime_speedups: Dict[int, float] = {}
    for concurrency in BATCH_SIZES:
        batch = windows[:concurrency]

        def per_request() -> np.ndarray:
            with no_grad():
                return np.stack(
                    [model(Tensor(window[None])).data[0] for window in batch], axis=0
                )

        def coalesced(forward) -> np.ndarray:
            batcher = MicroBatcher(forward, max_batch_size=max(BATCH_SIZES))
            pending = [batcher.submit(window) for window in batch]
            batcher.flush()
            assert batcher.stats.flushes == 1 and batcher.stats.largest_batch == concurrency
            return np.stack([handle.result() for handle in pending], axis=0)

        # Contract: neither coalescing nor compilation may change the
        # numbers being served.
        unbatched = per_request()
        batched_diff = float(np.abs(coalesced(model) - unbatched).max())
        runtime_diff = float(np.abs(coalesced(compiled) - unbatched).max())
        assert batched_diff <= 1e-10, f"batched forecasts diverge: {batched_diff}"
        assert runtime_diff <= 1e-10, f"compiled forecasts diverge: {runtime_diff}"

        # Gains are medians of per-round speedups; throughputs are bests.
        per_round = _interleaved_rounds(
            [per_request, lambda: coalesced(model), lambda: coalesced(compiled)],
            THROUGHPUT_ROUNDS,
        )
        per_request_rounds, batched_rounds, runtime_rounds = per_round.T
        batched_speedups[concurrency] = float(np.median(per_request_rounds / batched_rounds))
        runtime_speedups[concurrency] = float(np.median(batched_rounds / runtime_rounds))
        per_request_seconds, batched_seconds, runtime_seconds = per_round.min(axis=0)
        rows.append(
            {
                "concurrency": concurrency,
                "per-req req/s": round(concurrency / per_request_seconds, 1),
                "batched req/s": round(concurrency / batched_seconds, 1),
                "runtime req/s": round(concurrency / runtime_seconds, 1),
                "runtime gain": f"{runtime_speedups[concurrency]:.1f}x",
                "max |diff|": f"{runtime_diff:.1e}",
            }
        )

    print_table(
        "Serving throughput — per-request vs. micro-batched vs. compiled runtime",
        rows,
        ["concurrency", "per-req req/s", "batched req/s", "runtime req/s", "runtime gain", "max |diff|"],
    )
    record_bench(
        "serving_throughput",
        {
            "model": {"num_nodes": NUM_NODES, "hidden": HIDDEN},
            "precision": "float64",
            "workers": 1,
            "rows": [
                {
                    "concurrency": row["concurrency"],
                    "per_request_rps": row["per-req req/s"],
                    "batched_rps": row["batched req/s"],
                    "runtime_rps": row["runtime req/s"],
                    "speedup_vs_autograd_batched": round(
                        runtime_speedups[row["concurrency"]], 3
                    ),
                }
                for row in rows
            ],
        },
    )
    # The PR-1 contract: micro-batching alone gives >=4x at 128 concurrent.
    assert batched_speedups[128] >= 4.0, (
        f"micro-batching speedup {batched_speedups[128]:.2f}x below 4x"
    )
    # The runtime contract: where Python dispatch dominates (single-window
    # requests), compiling the forward must clearly beat the batched
    # autograd path.  1.5x since PR 3: caching the spmm transpose made the
    # autograd baseline itself ~1.4x faster (see module docstring), so the
    # old 2x ratio now sits at ~1.9-2.0x of the faster baseline.
    best_runtime_gain = max(runtime_speedups.values())
    assert best_runtime_gain >= 1.5, (
        f"compiled runtime best gain {best_runtime_gain:.2f}x below the 1.5x contract "
        f"(per concurrency: { {c: round(s, 2) for c, s in runtime_speedups.items()} })"
    )


def test_node_scale_sweep():
    """Autograd vs. unfused vs. fused runtime up to PEMS08 scale.

    Sweeps ``REPRO_BENCH_NODE_SCALE``-style fractions of the published 170
    PEMS08 sensors up to the full network (1x).  As the node count grows, each op
    moves more data and the fixed Python dispatch cost amortises away —
    this is where PR 2's runtime converged to 1.0x against autograd, and
    where the fusion pass (plus blocked layer norm and the reshape-copy
    classification fix) buys its win by cutting memory passes.  The PR-3
    contract asserts the fused runtime stays > 1.1x at the 0.5-scale /
    batch-16 point; DyHSL outputs must stay *bit-identical* (max |diff|
    == 0) in every mode.  Gains are medians of per-round speedups over
    interleaved rounds; the req/s columns are each mode's best round.
    """
    concurrency = 16
    rounds = 15
    rows: List[dict] = []
    stats_rows: List[dict] = []
    fused_gain_at_half = None
    pr2_gain_at_half = None
    for scale in SWEEP_SCALES:
        num_nodes = max(8, int(round(PEMS08_NODES * scale)))
        model = _build_model(num_nodes=num_nodes)
        rng = np.random.default_rng(SEED + 2)
        batch = rng.normal(size=(concurrency, 12, num_nodes, 1))
        fused = compile_module(model)
        unfused = compile_plan(model, batch, fuse=False).call

        def autograd_forward():
            with no_grad():
                model(Tensor(batch))

        autograd_forward()  # warm-up
        with no_grad():
            reference = model(Tensor(batch)).data
        fused_out = fused(batch)  # one-time plan compilation per shape
        unfused_out = unfused(batch)
        max_diff = max(
            float(np.abs(fused_out - reference).max()),
            float(np.abs(unfused_out - reference).max()),
        )
        assert max_diff == 0.0, f"runtime diverges at {num_nodes} nodes: {max_diff}"

        # PR 2's autograd forward also rebuilt the CSR transpose of every
        # spmm operand on every op call (PR 3 caches it on the matrix, a
        # baseline speedup shipped by this PR).  Rebuilding exactly those
        # transposes reconstructs the per-forward cost of the PR-2 baseline
        # — the configuration against which PR 2 recorded its 1.00x.
        fused_plan = next(iter(fused._plans.values()))  # the only compiled plan
        spmm_matrices = [
            step[2]["matrix"] for step in fused_plan._steps
            if step[2].get("matrix") is not None
        ]

        def pr2_transpose_overhead():
            for matrix in spmm_matrices:
                matrix.transpose()

        per_round = _interleaved_rounds(
            [
                autograd_forward,
                lambda: unfused(batch),
                lambda: fused(batch),
                pr2_transpose_overhead,
            ],
            rounds,
        )
        autograd_rounds, _, fused_rounds, transpose_rounds = per_round.T
        # Gains are medians of per-round speedups; throughputs are bests.
        fused_gain = float(np.median(autograd_rounds / fused_rounds))
        pr2_gain = float(np.median((autograd_rounds + transpose_rounds) / fused_rounds))
        autograd_seconds, unfused_seconds, fused_seconds, _ = per_round.min(axis=0)
        if scale == 0.5:
            fused_gain_at_half = fused_gain
            pr2_gain_at_half = pr2_gain
        rows.append(
            {
                "node scale": scale,
                "sensors": num_nodes,
                "autograd req/s": round(concurrency / autograd_seconds, 1),
                "unfused req/s": round(concurrency / unfused_seconds, 1),
                "fused req/s": round(concurrency / fused_seconds, 1),
                "fused gain": f"{fused_gain:.2f}x",
                "vs PR2 base": f"{pr2_gain:.2f}x",
                "max |diff|": f"{max_diff:.1e}",
            }
        )
        stats = fused.plan_stats()[0]
        assert stats.steps < stats.steps_unfused, "fusion must reduce the step count"
        stats_rows.append(
            {
                "sensors": num_nodes,
                "steps unfused": stats.steps_unfused,
                "steps fused": stats.steps,
                "chains": stats.fused_chains,
                "longest chain": max(stats.fused_chain_lengths, default=0),
                "folded": stats.folded,
                "workspace KiB": round(stats.workspace_bytes / 1024, 1),
            }
        )

    print_table(
        f"Node-scale sweep — autograd vs. unfused vs. fused runtime (batch {concurrency})",
        rows,
        [
            "node scale", "sensors", "autograd req/s", "unfused req/s",
            "fused req/s", "fused gain", "vs PR2 base", "max |diff|",
        ],
    )
    print_table(
        "Fused plan stats per node scale",
        stats_rows,
        [
            "sensors", "steps unfused", "steps fused", "chains",
            "longest chain", "folded", "workspace KiB",
        ],
    )
    record_bench(
        "node_scale_sweep",
        {
            "batch": concurrency,
            "precision": "float64",
            "workers": 1,
            "speedups": f"median of {rounds} interleaved per-round speedups",
            "provenance": provenance(REPO_ROOT, "node_scale_sweep", SEED, "float64"),
            "rows": [
                {
                    "node_scale": row["node scale"],
                    "sensors": row["sensors"],
                    "autograd_rps": row["autograd req/s"],
                    "unfused_rps": row["unfused req/s"],
                    "fused_rps": row["fused req/s"],
                    "speedup_vs_autograd": float(row["fused gain"].rstrip("x")),
                    "speedup_vs_pr2_baseline": float(row["vs PR2 base"].rstrip("x")),
                    "steps": stats_row["steps fused"],
                }
                for row, stats_row in zip(rows, stats_rows)
            ],
        },
    )
    # The PR-3 contract, at the 0.5-scale / batch-16 point where PR 2
    # measured 1.00x.  Two ratios, because that PR moved both sides:
    # against the PR-2 baseline configuration (autograd + its per-forward
    # spmm-transpose rebuild) the fused runtime cleared the 1.15x
    # acceptance bar when recorded; against today's autograd — itself
    # ~1.1x faster at this scale thanks to the transpose cache — the
    # fused runtime must still clearly win (measured ~1.13x; asserted at
    # 1.05x for noise).  The asserted floor sits at 1.10x, while a real
    # fusion regression drops the ratio to ~1.0 — the gap the floor must
    # catch.  Both gains are the median of 15 interleaved per-round
    # speedups: a ratio of two best-of-7 times missed the floor in about
    # one run of four on a shared 2-core host.
    if fused_gain_at_half is not None:
        assert pr2_gain_at_half >= 1.10, (
            f"fused runtime gain {pr2_gain_at_half:.2f}x over the PR-2 baseline "
            "at 0.5 node scale is below the 1.10x regression floor"
        )
        assert fused_gain_at_half >= 1.05, (
            f"fused runtime gain {fused_gain_at_half:.2f}x over current autograd "
            "at 0.5 node scale is below the 1.05x floor"
        )


def test_precision_throughput():
    """Precision-policy sweep at the 0.5x PEMS08 / batch-16 acceptance point.

    The compiled runtime is memory-bandwidth-bound at this scale (fusion
    already removed the redundant passes), so halving the itemsize is the
    next lever: float32 plans run every elementwise pass, GEMM and sparse
    product at single precision (numerically sensitive reductions
    accumulate in float64 — see ``docs/runtime.md``).  The acceptance
    contract asserts **>= 1.3x** over the float64 compiled runtime
    (measured ~1.8x on the recording box) with the documented tolerance
    (rtol=1e-4, atol=1e-4 on normalised inputs) holding against the
    bit-exact float64 output.
    """
    concurrency = 16
    repeats = 7
    num_nodes = max(8, int(round(PEMS08_NODES * 0.5)))
    model = _build_model(num_nodes=num_nodes)
    rng = np.random.default_rng(SEED + 6)
    batch = rng.normal(size=(concurrency, 12, num_nodes, 1))

    compiled64 = compile_module(model)
    compiled32 = compile_module(model, precision="float32")

    def autograd_forward():
        with no_grad():
            model(Tensor(batch))

    autograd_forward()  # warm-up
    with no_grad():
        reference = model(Tensor(batch)).data
    out64 = compiled64(batch)
    out32 = compiled32(batch)
    assert float(np.abs(out64 - reference).max()) == 0.0
    # The documented float32 tolerance contract, against the exact output.
    np.testing.assert_allclose(out32, out64, rtol=1e-4, atol=1e-4)
    f32_diff = float(np.abs(out32 - out64).max())

    autograd_s, f64_s, f32_s = _best_of_interleaved(
        [autograd_forward, lambda: compiled64(batch), lambda: compiled32(batch)],
        repeats,
    )
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    rows = [
        {
            "configuration": "autograd",
            "precision": "float64",
            "req/s": round(concurrency / autograd_s, 1),
            "vs f64 runtime": f"{f64_s / autograd_s:.2f}x",
            "max |diff|": "0.0e+00",
        },
        {
            "configuration": "compiled",
            "precision": "float64",
            "req/s": round(concurrency / f64_s, 1),
            "vs f64 runtime": "1.00x",
            "max |diff|": "0.0e+00",
        },
        {
            "configuration": "compiled",
            "precision": "float32",
            "req/s": round(concurrency / f32_s, 1),
            "vs f64 runtime": f"{f64_s / f32_s:.2f}x",
            "max |diff|": f"{f32_diff:.1e}",
        },
    ]
    print_table(
        f"Precision sweep — {num_nodes} sensors (0.5x PEMS08), batch {concurrency}, {cores} core(s)",
        rows,
        ["configuration", "precision", "req/s", "vs f64 runtime", "max |diff|"],
    )
    record_bench(
        "precision",
        {
            "sensors": num_nodes,
            "batch": concurrency,
            "cores": cores,
            "tolerance": {"rtol": 1e-4, "atol": 1e-4, "max_abs_diff": f32_diff},
            "rows": [
                {
                    "configuration": row["configuration"],
                    "precision": row["precision"],
                    "workers": 1,
                    "rps": row["req/s"],
                    "speedup_vs_autograd": round(autograd_s * row["req/s"] / concurrency, 3),
                    "speedup_vs_f64_runtime": float(row["vs f64 runtime"].rstrip("x")),
                }
                for row in rows
            ],
        },
    )
    speedup = f64_s / f32_s
    assert speedup >= 1.3, (
        f"float32 compiled serving at {speedup:.2f}x the float64 runtime is "
        "below the 1.3x acceptance contract"
    )


def test_ragged_cycle():
    """One backfill cycle under three plan policies: padded buckets,
    power-of-two pieces (what serving runs) and exact per-size plans.

    Every size of perfbench's backfill mix runs once on the perfbench
    deployment's model.  *Padded* replays the earlier serving path (pad to
    the bucket, run the bucket plan, slice back) and *pieces* is today's
    call; both run on one CompiledModel that holds the plans 1..32.
    *Exact* runs one plan per distinct size, each lowered from the b1 and
    b2 traces (``compile_plan`` with one shared ``Rebatcher``): the plans
    serving would hold without the pieces, bound as serving would bind
    them (every multi-row plan into one lane arena, the 1-row plan on its
    own).  Each size is timed as an
    interleaved best-of across the three policies, a cycle is the sum over
    sizes, and every policy must equal the autograd forward exactly
    (max |diff| == 0) in the same run.  The plans each policy holds, and
    their workspace, are why serving keeps the pieces.  The model's held
    workspace is its own count (``cache_info().workspace_bytes``: one lane,
    so one arena sized to the 32-row plan, plus the 1-row plan's own); the
    exact plans' is their arena plus their 1-row plan's own.  Exact plans
    are built, timed and dropped one size at a time, so this run never
    holds them all.
    """
    repeats = 5
    rng = np.random.default_rng(SEED + 7)
    rows: List[dict] = []
    for sensors in (deploy.PEMS08_SENSORS // 2, deploy.PEMS08_SENSORS):
        seed_everything(deploy.RELEASE_SEEDS[0])
        config = DyHSLConfig(
            num_nodes=sensors, input_length=deploy.INPUT_LENGTH, **deploy.MODEL_CONFIG
        )
        model = DyHSL(config, deploy.road_network(sensors).adjacency).eval()
        compiled = CompiledModel(model)
        for size in (1, 2, 4, 8, 16, 32):
            compiled.compile_for(np.zeros((size, deploy.INPUT_LENGTH, sensors, 1)))
        rebatcher = Rebatcher()
        seconds = {"padded": 0.0, "pieces": 0.0, "exact": 0.0}
        diffs = dict.fromkeys(seconds, 0.0)
        arena, exact_bytes = _PlanArena(), 0
        for size in BACKFILL_SIZES:
            batch = rng.normal(size=(size, deploy.INPUT_LENGTH, sensors, 1))
            if size == 1:
                exact = compile_plan(model, batch, rebatcher=rebatcher)
                exact_bytes += plan_workspace_nbytes(exact.spec.storage_sizes)
            else:
                exact = compile_plan(model, batch, rebatcher=rebatcher, workspace=arena)
            padded, _ = pad_batch_to_bucket(batch, compiled.bucket_cap)
            policies = {
                "padded": lambda: compiled(padded)[:size],
                "pieces": lambda: compiled(batch),
                "exact": lambda: exact.call(batch),
            }
            with no_grad():
                reference = model(Tensor(batch)).data
            for label, policy in policies.items():
                diffs[label] = max(diffs[label], float(np.abs(policy() - reference).max()))
            bests = _best_of_interleaved(list(policies.values()), repeats)
            for label, best in zip(policies, bests):
                seconds[label] += best
            del exact, policies
        assert compiled.cache_info().compiles == 6, "no plan shape beyond the warm ladder"
        assert rebatcher.counts() == (len(BACKFILL_SIZES) - 2, 0, None)
        exact_bytes += arena.nbytes
        pieces_bytes = compiled.cache_info().workspace_bytes
        held = {
            "padded": (6, pieces_bytes),
            "pieces": (6, pieces_bytes),
            "exact": (len(BACKFILL_SIZES), exact_bytes),
        }
        for label, (plans, nbytes) in held.items():
            rows.append(
                {
                    "sensors": sensors,
                    "policy": label,
                    "cycle ms": round(seconds[label] * 1e3, 1),
                    "plans": plans,
                    "workspace MiB": round(nbytes / 2**20, 1),
                    "max |diff|": diffs[label],
                }
            )
        for label, diff in diffs.items():
            assert diff == 0.0, f"{label} rows diverge at {sensors} sensors: {diff}"
        # Both hold one arena sized to the 32-row plan plus a 1-row plan.
        assert pieces_bytes == exact_bytes

    print_table(
        "Ragged backfill cycle — padded buckets vs. pieces vs. exact plans "
        f"(sum of per-size best of {repeats})",
        rows,
        ["sensors", "policy", "cycle ms", "plans", "workspace MiB", "max |diff|"],
    )
    record_bench(
        "ragged_cycle",
        {
            "sizes": list(BACKFILL_SIZES),
            "precision": "float64",
            "repeats": repeats,
            "timing": "sum over sizes of each size's interleaved best-of",
            "provenance": provenance(REPO_ROOT, "ragged_cycle", SEED, "float64"),
            "rows": [
                {
                    "sensors": row["sensors"],
                    "policy": row["policy"],
                    "cycle_ms": row["cycle ms"],
                    "plans": row["plans"],
                    "workspace_mib": row["workspace MiB"],
                    "max_abs_diff": row["max |diff|"],
                }
                for row in rows
            ],
        },
    )


def test_lane_parallel(monkeypatch):
    """One backfill cycle on one row lane vs. two.

    Every size of perfbench's backfill mix runs through two CompiledModels
    of the perfbench deployment's model: ``lanes=1`` (the caller's thread
    runs every piece) and ``lanes=2`` (the rows split into two chunks that
    run at once).  Each size and the whole cycle are timed as an
    interleaved best-of whose order alternates every round, and the lanes'
    outputs must equal the single lane's and the autograd forward's exactly
    (max |diff| == 0) in the same run.  The 2-row batch is also timed split
    1 | 1, the measurement behind ``MIN_LANE_ROWS``.
    """
    from repro.runtime import engine

    repeats = 7
    rng = np.random.default_rng(SEED + 8)
    rows: List[dict] = []
    sections: List[dict] = []
    for sensors in (deploy.PEMS08_SENSORS // 2, deploy.PEMS08_SENSORS):
        seed_everything(deploy.RELEASE_SEEDS[0])
        config = DyHSLConfig(
            num_nodes=sensors, input_length=deploy.INPUT_LENGTH, **deploy.MODEL_CONFIG
        )
        model = DyHSL(config, deploy.road_network(sensors).adjacency).eval()
        serial, laned = CompiledModel(model, lanes=1), CompiledModel(model, lanes=2)
        batches = [
            rng.normal(size=(int(size), deploy.INPUT_LENGTH, sensors, 1))
            for size in BACKFILL_SIZES
        ]
        two = batches[BACKFILL_SIZES.index(2)]

        def split_two():
            with monkeypatch.context() as patch:
                patch.setattr(engine, "MIN_LANE_ROWS", 1)
                return laned(two)

        max_diff = 0.0
        with no_grad():
            for batch in batches:
                expected = model(Tensor(batch)).data
                for produced in (serial(batch), laned(batch)):
                    max_diff = max(max_diff, float(np.abs(produced - expected).max()))
            max_diff = max(max_diff, float(np.abs(split_two() - model(Tensor(two)).data).max()))
        try:
            per_size = []
            for size, batch in zip(BACKFILL_SIZES, batches):
                candidates = [lambda: serial(batch), lambda: laned(batch)]
                if size == 2:
                    candidates.append(split_two)
                bests = [float("inf")] * len(candidates)
                for round_ in range(repeats):
                    order = range(len(candidates))
                    for index in (order if round_ % 2 == 0 else reversed(order)):
                        started = time.perf_counter()
                        candidates[index]()
                        bests[index] = min(bests[index], time.perf_counter() - started)
                per_size.append((int(size), bests))
            cycle_bests = [float("inf")] * 2
            for round_ in range(repeats):
                for index in ((0, 1) if round_ % 2 == 0 else (1, 0)):
                    compiled = (serial, laned)[index]
                    started = time.perf_counter()
                    for batch in batches:
                        compiled(batch)
                    cycle_bests[index] = min(cycle_bests[index], time.perf_counter() - started)
            # The one-lane model ran at the process's BLAS count; the laned
            # one held BLAS at one thread per split call, as a service does.
            serial_blas_threads = blas.threads()
        finally:
            laned.close()
        assert max_diff == 0.0, f"lanes diverge at {sensors} sensors: {max_diff}"
        serial_s, lanes_s = cycle_bests
        two_bests = dict(per_size)[2]
        rows.append(
            {
                "sensors": sensors,
                "1 lane ms": round(serial_s * 1e3, 1),
                "2 lanes ms": round(lanes_s * 1e3, 1),
                "speedup": round(serial_s / lanes_s, 2),
                "n=2 split": round(two_bests[0] / two_bests[2], 2),
                "max |diff|": max_diff,
            }
        )
        sections.append(
            {
                "sensors": sensors,
                "windows": sum(BACKFILL_SIZES),
                "cycle_1_lane_ms": round(serial_s * 1e3, 1),
                "cycle_2_lanes_ms": round(lanes_s * 1e3, 1),
                "cycle_speedup": round(serial_s / lanes_s, 2),
                "sizes": [
                    {
                        "rows": size,
                        "lanes_1_ms": round(bests[0] * 1e3, 2),
                        "lanes_2_ms": round(bests[1] * 1e3, 2),
                        "speedup": round(bests[0] / bests[1], 2),
                    }
                    for size, bests in per_size
                ],
                "two_rows": {
                    "one_lane_ms": round(two_bests[0] * 1e3, 2),
                    "split_1_1_ms": round(two_bests[2] * 1e3, 2),
                    "speedup_of_split": round(two_bests[0] / two_bests[2], 2),
                },
                "max_abs_diff": max_diff,
                "blas_threads_one_lane": serial_blas_threads,
            }
        )

    print_table(
        f"Backfill cycle — one row lane vs. two (best of {repeats}, interleaved)",
        rows,
        ["sensors", "1 lane ms", "2 lanes ms", "speedup", "n=2 split", "max |diff|"],
    )
    record_bench(
        "lane_parallel",
        {
            "sizes": list(BACKFILL_SIZES),
            "precision": "float64",
            "repeats": repeats,
            "min_lane_rows": engine.MIN_LANE_ROWS,
            "provenance": provenance(REPO_ROOT, "lane_parallel", SEED, "float64"),
            "rows": sections,
        },
    )


def test_compiled_training_forward():
    """Training epoch: autograd forward+backward vs. fused plan + tape.

    Runs on the dropout-free DyHSL shape and on every registry model
    ``plan_trainable`` accepts (the Table III models that train through
    the tape; the default DyHSL and the models with dropout train on
    autograd).  Each model sees the same mini-batch stream in both modes,
    with no optimiser step, so every epoch's losses must agree to float64
    accumulation noise.  The two modes alternate epoch by epoch (and which
    goes first per round); the ``compiled_training`` BENCH section records
    each mode's best epoch and the median and quartiles of the per-round
    speedups, which hold steadier than a ratio of bests on a shared host.
    """
    from repro.baselines import BASELINE_REGISTRY, create_baseline
    from repro.runtime import plan_trainable

    num_nodes = 24
    batches = 8
    batch_size = 16
    repeats = 9
    rng = np.random.default_rng(SEED + 4)
    inputs = rng.normal(size=(batches, batch_size, 12, num_nodes, 1))
    targets = rng.normal(size=(batches, batch_size, 12, num_nodes))
    loss_fn = MaskedMAELoss(null_value=None)
    adjacency = (np.random.default_rng(SEED).random((num_nodes, num_nodes)) < 0.4).astype(float)
    np.fill_diagonal(adjacency, 0.0)

    def dyhsl():
        config = DyHSLConfig(
            num_nodes=num_nodes, hidden_dim=HIDDEN, prior_layers=2, num_hyperedges=8,
            window_sizes=(1, 2, 3, 4, 6, 12), mhce_layers=2, dropout=0.0,
        )
        return DyHSL(config, adjacency)

    builders = {"DyHSL (dropout 0)": dyhsl}
    for name, spec in BASELINE_REGISTRY.items():
        if not spec.neural or name == "DyHSL":
            continue
        seed_everything(SEED)
        if plan_trainable(create_baseline(name, adjacency, num_nodes, hidden_dim=HIDDEN))[0]:
            builders[name] = lambda name=name: create_baseline(
                name, adjacency, num_nodes, hidden_dim=HIDDEN
            )
    assert list(builders)[1:] == [
        "FC-LSTM", "GRU-ED", "DCRNN", "AGCRN", "ASTGCN", "DHGNN", "HGC-RNN"
    ], f"tape-eligible registry models changed: {list(builders)[1:]}"

    def autograd_epoch(model, losses):
        for x, y in zip(inputs, targets):
            model.zero_grad()
            loss = loss_fn(model(Tensor(x)), Tensor(y))
            loss.backward()
            losses.append(loss.item())

    def compiled_epoch(model, runtime, losses):
        for x, y in zip(inputs, targets):
            model.zero_grad()
            step = runtime.step(x)
            predictions = Tensor(step.predictions, requires_grad=True)
            loss = loss_fn(predictions, Tensor(y))
            loss.backward()
            step.backward(predictions.grad)
            losses.append(loss.item())

    rows = []
    for label, build in builders.items():
        seed_everything(SEED)
        model = build()
        model.train()
        runtime = compile_training_model(model)
        autograd_losses: List[float] = []
        compiled_losses: List[float] = []
        compiled_epoch(model, runtime, [])  # compiles the plans
        modes = [
            (lambda: autograd_epoch(model, autograd_losses), []),
            (lambda: compiled_epoch(model, runtime, compiled_losses), []),
        ]
        for round_ in range(repeats):
            for epoch, seconds in modes[::-1] if round_ % 2 else modes:
                started = time.perf_counter()
                epoch()
                seconds.append(time.perf_counter() - started)
        autograd_seconds, compiled_seconds = (np.array(seconds) for _, seconds in modes)
        q1, median, q3 = np.percentile(autograd_seconds / compiled_seconds, [25, 50, 75])
        max_loss_diff = max(abs(a - b) for a, b in zip(autograd_losses, compiled_losses))
        assert max_loss_diff <= 1e-9, f"{label}: compiled training losses diverge: {max_loss_diff}"
        rows.append(
            {
                "model": label,
                "autograd_epoch_s": round(float(autograd_seconds.min()), 4),
                "tape_epoch_s": round(float(compiled_seconds.min()), 4),
                "speedup_median": round(float(median), 2),
                "speedup_q1": round(float(q1), 2),
                "speedup_q3": round(float(q3), 2),
                "max_loss_diff": max_loss_diff,
            }
        )

    print_table(
        f"Training epoch — autograd vs. compiled forward + tape "
        f"({num_nodes} sensors, {batches} batches of {batch_size}, {repeats} rounds)",
        [
            {
                **row,
                "speedup": f"{row['speedup_median']:.2f}x "
                           f"({row['speedup_q1']:.2f}-{row['speedup_q3']:.2f})",
                "max_loss_diff": f"{row['max_loss_diff']:.1e}",
            }
            for row in rows
        ],
        ["model", "autograd_epoch_s", "tape_epoch_s", "speedup", "max_loss_diff"],
    )
    record_bench(
        "compiled_training",
        {
            "sensors": num_nodes,
            "batches_per_epoch": batches,
            "batch_size": batch_size,
            "hidden": HIDDEN,
            "repeats": repeats,
            "blas_threads": blas.threads(),
            "provenance": provenance(REPO_ROOT, "compiled_training", SEED, "float64"),
            "rows": rows,
        },
    )

