"""Process tier — threads-vs-processes shard sweep and mixed-lane latency.

PR 7 moves shard execution off the interpreter's threads and into worker
*processes* replaying compiled plan artifacts over shared memory
(:mod:`repro.serving.process_tier`).  Two measurements judge it:

1. **Aggregate throughput** (``test_process_tier_sweep``): the same
   16-window query stream through ``ForecastService(num_shards=K)`` with 1,
   2 and 4 workers, once with ``executor="threads"`` and once with
   ``executor="processes"``, at the 0.5x PEMS08 configuration (85 sensors).
   Bit-parity (``max |diff| == 0``) is asserted for every configuration —
   throughput never buys drift.  On a box with >= 4 cores the 4-worker
   process tier must clear **1.5x** the single-worker thread service;
   NumPy kernels release the GIL, so thread shards already overlap — the
   process tier's margin comes from sidestepping the serialised Python
   dispatch between kernels.  On smaller boxes the sweep still runs and
   records the numbers (the ``cores`` column makes the regime explicit),
   but only parity is asserted.

2. **Interactive latency under bulk load** (``test_mixed_lane_latency``):
   ``forecast_latest`` p50/p99 on an otherwise idle service versus the
   same probe while a background thread hammers ``forecast_many`` backfill.
   The priority lanes must keep the interactive path responsive: with >= 4
   cores, loaded p99 <= 2x unloaded p99 (bulk chunking bounds how much
   in-flight work an interactive request can be stuck behind).

Results land in ``benchmarks/results.txt`` and machine-readably in
``benchmarks/BENCH_runtime.json`` under the ``process_tier`` section.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_process_tier.py -s
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List

import numpy as np

from repro.core import DyHSL, DyHSLConfig
from repro.serving import ForecastService
from repro.tensor import seed as seed_everything

from conftest import SEED, print_table, record_bench

#: Published PEMS08 sensor count; the sweep runs at half of it.
PEMS08_NODES = 170
NUM_NODES = max(8, int(round(PEMS08_NODES * 0.5)))
HIDDEN = 16
CONCURRENCY = 16
REPEATS = 3

#: Interactive probes per latency condition (p99 over this many samples).
PROBES = 40


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _best_of_interleaved(callables, repeats: int):
    bests = [float("inf")] * len(callables)
    for _ in range(repeats):
        for index, callable_ in enumerate(callables):
            started = time.perf_counter()
            callable_()
            bests[index] = min(bests[index], time.perf_counter() - started)
    return bests


def test_process_tier_sweep():
    """Threads vs. processes at 1/2/4 workers, bit-parity everywhere."""
    cores = _cores()
    model = _build_model()
    rng = np.random.default_rng(SEED + 11)
    windows = rng.normal(size=(CONCURRENCY, 12, NUM_NODES, 1)) * 10.0 + 50.0

    single = ForecastService(model, cache_entries=0)
    reference = single.forecast_many(windows)  # warm-up: compiles the plan

    services: List[tuple] = []
    for executor in ("threads", "processes"):
        for workers in (1, 2, 4):
            service = ForecastService(
                model,
                num_shards=workers,
                cache_entries=0,
                executor=executor,
            )
            produced = service.forecast_many(windows)  # warm: plans + spawns
            diff = float(np.abs(produced - reference).max())
            assert diff == 0.0, (
                f"{executor} x{workers} diverges from the single worker: {diff}"
            )
            services.append((executor, workers, service))

    candidates = [lambda: single.forecast_many(windows)]
    candidates += [
        (lambda service=service: service.forecast_many(windows))
        for _, _, service in services
    ]
    timings = _best_of_interleaved(candidates, REPEATS)
    single_rps = CONCURRENCY / timings[0]

    rows: List[Dict] = [
        {
            "executor": "single worker",
            "workers": 1,
            "cores": cores,
            "req/s": round(single_rps, 1),
            "vs single": "1.00x",
            "max |diff|": "0.0e+00",
        }
    ]
    rps_by_config: Dict[tuple, float] = {}
    for (executor, workers, _), seconds in zip(services, timings[1:]):
        rps = CONCURRENCY / seconds
        rps_by_config[(executor, workers)] = rps
        rows.append(
            {
                "executor": executor,
                "workers": workers,
                "cores": cores,
                "req/s": round(rps, 1),
                "vs single": f"{rps / single_rps:.2f}x",
                "max |diff|": "0.0e+00",
            }
        )
    print_table(
        f"Process-tier sweep — {NUM_NODES} sensors (0.5x PEMS08), batch {CONCURRENCY}",
        rows,
        ["executor", "workers", "cores", "req/s", "vs single", "max |diff|"],
    )
    record_bench(
        "process_tier",
        {
            "sensors": NUM_NODES,
            "batch": CONCURRENCY,
            "cores": cores,
            "precision": "float64",
            "rows": [
                {
                    "executor": row["executor"],
                    "workers": row["workers"],
                    "rps": row["req/s"],
                    "speedup_vs_single_worker": float(row["vs single"].rstrip("x")),
                }
                for row in rows
            ],
        },
    )
    if cores >= 4:
        achieved = rps_by_config[("processes", 4)] / single_rps
        assert achieved > 1.5, (
            f"4-worker process tier reached only {achieved:.2f}x the single "
            f"worker on a {cores}-core box; the contract is > 1.5x"
        )
    for _, _, service in services:
        service.close()


def test_mixed_lane_latency():
    """forecast_latest p50/p99: idle service vs. under bulk backfill."""
    cores = _cores()
    model = _build_model()
    rng = np.random.default_rng(SEED + 12)
    bulk = rng.normal(size=(CONCURRENCY, 12, NUM_NODES, 1)) * 10.0 + 50.0
    stream = rng.normal(size=(14, NUM_NODES)) * 10.0 + 50.0

    service = ForecastService(
        model,
        num_shards=2,
        cache_entries=0,
        executor="processes",
        bulk_chunk_rows=4,
    )
    try:
        for step in stream:
            service.ingest(step)
        service.forecast_latest()  # warm: interactive-lane plan + spawn
        service.forecast_many(bulk)  # warm: bulk-lane plan

        def probe() -> List[float]:
            latencies = []
            for _ in range(PROBES):
                started = time.perf_counter()
                service.forecast_latest()
                latencies.append(time.perf_counter() - started)
            return latencies

        unloaded = probe()

        stop = threading.Event()

        def backfill():
            while not stop.is_set():
                service.forecast_many(bulk)

        storm = threading.Thread(target=backfill)
        storm.start()
        try:
            time.sleep(0.05)  # let the bulk queue fill before probing
            loaded = probe()
        finally:
            stop.set()
            storm.join()

        def pct(values: List[float], q: float) -> float:
            return float(np.percentile(np.asarray(values), q) * 1e3)

        rows = [
            {
                "condition": condition,
                "p50 ms": round(pct(values, 50), 2),
                "p99 ms": round(pct(values, 99), 2),
                "cores": cores,
            }
            for condition, values in (("unloaded", unloaded), ("bulk storm", loaded))
        ]
        print_table(
            f"Interactive latency under bulk backfill — {NUM_NODES} sensors, "
            f"2 process workers",
            rows,
            ["condition", "p50 ms", "p99 ms", "cores"],
        )
        record_bench(
            "process_tier_latency",
            {
                "sensors": NUM_NODES,
                "cores": cores,
                "workers": 2,
                "unloaded_p50_ms": rows[0]["p50 ms"],
                "unloaded_p99_ms": rows[0]["p99 ms"],
                "loaded_p50_ms": rows[1]["p50 ms"],
                "loaded_p99_ms": rows[1]["p99 ms"],
            },
        )
        if cores >= 4:
            ratio = pct(loaded, 99) / max(pct(unloaded, 99), 1e-9)
            assert ratio <= 2.0, (
                f"interactive p99 degraded {ratio:.2f}x under bulk load on a "
                f"{cores}-core box; the lane contract is <= 2x"
            )
    finally:
        service.close()
