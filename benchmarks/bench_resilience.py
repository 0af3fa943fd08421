"""Resilience — kill-recovery time and deadline-guarded latency under load.

PR 10 adds the resilience layer (:mod:`repro.serving.resilience`): per-request
deadlines, bounded retries, per-shard circuit breakers and a heartbeat
watchdog that respawns hung or killed worker processes.  Two measurements
judge what that safety net costs:

1. **Worker-kill recovery** (``test_kill_recovery``): a seeded
   :class:`~repro.serving.FaultPlan` kills the process-tier worker on every
   second dispatch (the fault fires at visit 1 of each worker's stream, so
   each respawned worker serves one clean request and dies on the next).
   Every killed request is detected by the watchdog, the worker is
   respawned and the request transparently retried — the caller only sees
   a slower answer.  The table reports the clean per-request latency next
   to the full detect→respawn→retry cycle, and asserts bit-parity of every
   recovered forecast with an unfaulted reference.

2. **Loaded latency with deadlines armed** (``test_deadline_loaded_p99``):
   ``forecast_latest`` p50/p99 under a bulk backfill storm, once with no
   deadline and once with a generous ``deadline_ms`` budget on every probe.
   The deadline bookkeeping must be close to free (armed p50 <= 1.5x
   unarmed p50 on a >= 4-core box; p99 is recorded but not asserted — it
   is queue-position noise under a storm) and a generous budget must never
   expire a request.

Results land in ``benchmarks/results.txt`` and machine-readably in
``benchmarks/BENCH_runtime.json`` under the ``resilience`` section.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py -s
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List

import numpy as np

from repro.core import DyHSL, DyHSLConfig
from repro.serving import (
    FaultPlan,
    FaultSpec,
    ForecastService,
    ResilienceConfig,
    RetryPolicy,
    WatchdogConfig,
)
from repro.serving.faults import _decision
from repro.tensor import seed as seed_everything

from conftest import SEED, print_table, record_bench

#: Published PEMS08 sensor count; the bench runs at half of it, matching
#: the process-tier sweep so the latency columns are comparable.
PEMS08_NODES = 170
NUM_NODES = max(8, int(round(PEMS08_NODES * 0.5)))
HIDDEN = 16

#: Kill/recover cycles timed by ``test_kill_recovery``.
CYCLES = 5

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


def _find_seed(site: str, probability: float) -> int:
    """A seed whose visit 0 is safe and visit 1 fires — each respawned
    worker (visit counters reset on respawn) serves one request, then dies."""
    for seed in range(20_000):
        if _decision(seed, site, 1) < probability <= _decision(seed, site, 0):
            return seed
    raise AssertionError("no seed found in 20k scan")


def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q) * 1e3)


def test_kill_recovery():
    """Detect → respawn → retry latency for a killed worker, with parity."""
    cores = _cores()
    model = _build_model()
    rng = np.random.default_rng(SEED + 21)
    windows = rng.normal(size=(CYCLES + 1, 12, NUM_NODES, 1)) * 10.0 + 50.0

    reference = ForecastService(model, cache_entries=0)
    expected = [reference.forecast(window) for window in windows]

    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay_ms=1.0),
        watchdog=WatchdogConfig(hang_timeout_s=30.0),
    )

    # Clean baseline: same process-tier configuration, no fault plan.
    clean = ForecastService(
        model,
        num_shards=1,
        cache_entries=0,
        executor="processes",
        resilience=resilience,
    )
    try:
        clean.forecast(windows[0])  # warm: plan artifact + worker spawn
        baseline: List[float] = []
        for window in windows[1:]:
            started = time.perf_counter()
            clean.forecast(window)
            baseline.append(time.perf_counter() - started)
    finally:
        clean.close()

    seed = _find_seed("worker.dispatch", 0.5)
    plan = FaultPlan.build(
        seed, [FaultSpec(site="worker.dispatch", probability=0.5, action="kill")]
    )
    faulted = ForecastService(
        model,
        num_shards=1,
        cache_entries=0,
        executor="processes",
        resilience=resilience,
        fault_plan=plan,
    )
    try:
        produced = [faulted.forecast(windows[0])]  # visit 0: clean
        recovery: List[float] = []
        for window in windows[1:]:  # visit 1 of each fresh worker: killed
            started = time.perf_counter()
            produced.append(faulted.forecast(window))
            recovery.append(time.perf_counter() - started)
        respawns = faulted.stats().process_tier.respawns
        health = faulted.health()
    finally:
        faulted.close()

    assert respawns >= CYCLES, f"expected >= {CYCLES} respawns, saw {respawns}"
    assert health.retries >= CYCLES
    for got, want in zip(produced, expected):
        assert float(np.abs(got - want).max()) == 0.0

    rows: List[Dict] = [
        {
            "condition": "clean request",
            "p50 ms": round(_pct(baseline, 50), 2),
            "max ms": round(max(baseline) * 1e3, 2),
            "respawns": 0,
        },
        {
            "condition": "kill+recover",
            "p50 ms": round(_pct(recovery, 50), 2),
            "max ms": round(max(recovery) * 1e3, 2),
            "respawns": respawns,
        },
    ]
    print_table(
        f"Worker-kill recovery — {NUM_NODES} sensors, process tier, "
        f"{CYCLES} kill cycles",
        rows,
        ["condition", "p50 ms", "max ms", "respawns"],
    )
    record_bench(
        "resilience",
        {
            "sensors": NUM_NODES,
            "cores": cores,
            "kill_cycles": CYCLES,
            "fault_seed": seed,
            "clean_p50_ms": rows[0]["p50 ms"],
            "recovery_p50_ms": rows[1]["p50 ms"],
            "recovery_max_ms": rows[1]["max ms"],
            "respawns": respawns,
        },
    )


def test_deadline_loaded_p99():
    """forecast_latest p50/p99 under bulk storm, deadline armed vs. not."""
    cores = _cores()
    model = _build_model()
    rng = np.random.default_rng(SEED + 22)
    bulk = rng.normal(size=(16, 12, NUM_NODES, 1)) * 10.0 + 50.0
    stream = rng.normal(size=(14, NUM_NODES)) * 10.0 + 50.0

    service = ForecastService(
        model,
        num_shards=2,
        cache_entries=0,
        executor="processes",
        bulk_chunk_rows=4,
        resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=2)),
    )
    try:
        for step in stream:
            service.ingest(step)
        service.forecast_latest()  # warm: interactive-lane plan + spawn
        service.forecast_many(bulk)  # warm: bulk-lane plan

        def probe(deadline_ms) -> List[float]:
            latencies = []
            for _ in range(PROBES):
                started = time.perf_counter()
                service.forecast_latest(deadline_ms=deadline_ms)
                latencies.append(time.perf_counter() - started)
            return latencies

        stop = threading.Event()

        def backfill():
            while not stop.is_set():
                service.forecast_many(bulk)

        storm = threading.Thread(target=backfill)
        storm.start()
        try:
            time.sleep(0.05)  # let the bulk queue fill before probing
            unarmed = probe(None)
            armed = probe(10_000.0)
        finally:
            stop.set()
            storm.join()
        expired = service.health().expired_requests
    finally:
        service.close()

    assert expired == 0, f"generous 10s budget expired {expired} requests"

    rows = [
        {
            "condition": condition,
            "p50 ms": round(_pct(values, 50), 2),
            "p99 ms": round(_pct(values, 99), 2),
            "expired": expired if condition != "no deadline" else 0,
        }
        for condition, values in (("no deadline", unarmed), ("deadline 10s", armed))
    ]
    print_table(
        f"Loaded interactive latency, deadline armed — {NUM_NODES} sensors, "
        f"2 process workers under bulk storm",
        rows,
        ["condition", "p50 ms", "p99 ms", "expired"],
    )
    record_bench(
        "resilience_deadline_latency",
        {
            "sensors": NUM_NODES,
            "cores": cores,
            "workers": 2,
            "loaded_p99_ms_no_deadline": rows[0]["p99 ms"],
            "loaded_p99_ms_with_deadline": rows[1]["p99 ms"],
            "expired_requests": expired,
        },
    )
    if cores >= 4:
        # p99 under a storm is queue-position noise; the bookkeeping cost
        # the deadline adds is a median-level effect, so that is the contract.
        ratio = _pct(armed, 50) / max(_pct(unarmed, 50), 1e-9)
        assert ratio <= 1.5, (
            f"arming a deadline degraded loaded p50 by {ratio:.2f}x on a "
            f"{cores}-core box; the bookkeeping contract is <= 1.5x"
        )
