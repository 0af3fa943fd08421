"""Hot checkpoint swap — swap latency and availability under live traffic.

PR 8 adds zero-downtime checkpoint swaps to every serving executor
(:meth:`repro.serving.ForecastService.swap_checkpoint`).  Three
measurements judge it:

1. **Swap latency** (``test_swap_latency``): wall-clock of installing a
   new same-geometry checkpoint into a live single-worker service, cold
   (no artifact store — the new generation's plans compile during the
   swap) versus warm (the checkpoint carries an AOT sidecar and the
   service has a deployment store — the swap adopts the artifacts and
   binds from disk).  The asserted contract is *zero retraces* on the
   warm path (``plans_compiled == 0``); at this benchmark's small scale a
   single compile is cheap, so the wall-clock gap only opens up with the
   real model's bucket ladder.

2. **Availability under swap** (``test_availability_under_swap``):
   request traffic hammers ``forecast`` from worker threads while the
   main thread repeatedly swaps between two checkpoints.  Every answer
   must exactly equal the old-weights or new-weights expectation (zero
   failed, zero version-torn requests), and throughput while swapping is
   recorded next to the no-swap baseline.

3. **Quality-control overhead** (``test_quality_ingest_overhead``): per-step
   streaming ingest cost with and without a :class:`SensorHealthMonitor`
   in front of the ring, on a clean feed (the common case — detectors run
   every step even when nothing is wrong).

Results land in ``benchmarks/results.txt`` and machine-readably in
``benchmarks/BENCH_runtime.json`` under the ``hot_swap`` section.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_hot_swap.py -s
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

import numpy as np

from repro.core import DyHSL, DyHSLConfig
from repro.serving import ForecastService, SensorHealthMonitor
from repro.tensor import seed as seed_everything
from repro.training import save_model_checkpoint, save_plan_artifacts

from conftest import SEED, print_table, record_bench

#: Published PEMS08 sensor count; the benchmark runs at half of it.
PEMS08_NODES = 170
NUM_NODES = max(8, int(round(PEMS08_NODES * 0.5)))
HIDDEN = 16
WINDOW = 12
SWAP_ROUNDS = 4
TRAFFIC_THREADS = 3


def _build_model(seed_offset: int = 0) -> DyHSL:
    seed_everything(SEED + seed_offset)
    rng = np.random.default_rng(SEED)
    adjacency = (rng.random((NUM_NODES, NUM_NODES)) < 0.4).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    config = DyHSLConfig(
        num_nodes=NUM_NODES,
        hidden_dim=HIDDEN,
        prior_layers=2,
        num_hyperedges=8,
        window_sizes=(1, 2, 3, 4, 6, 12),
        mhce_layers=2,
    )
    return DyHSL(config, adjacency).eval()


def _adjacency(model: DyHSL) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    adjacency = (rng.random((NUM_NODES, NUM_NODES)) < 0.4).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


def _window() -> np.ndarray:
    rng = np.random.default_rng(SEED + 99)
    return rng.normal(size=(WINDOW, NUM_NODES, 1)) * 10.0 + 50.0


def test_swap_latency(tmp_path):
    """Cold (compiling) vs warm (artifact-adopting) swap wall-clock."""
    model_a, model_b = _build_model(0), _build_model(1)
    adjacency = _adjacency(model_a)
    window = _window()
    checkpoint_b = save_model_checkpoint(model_b, tmp_path / "b", adjacency=adjacency)

    rows: List[Dict[str, object]] = []

    # Cold: no deployment store — the new generation compiles its plans
    # inside the swap call.
    service = ForecastService(model_a)
    service.forecast(window)  # steady state: generation A's plans are live
    report = service.swap_checkpoint(checkpoint_b)
    rows.append(
        {
            "condition": "cold (compile)",
            "swap_ms": round(report.swap_ms, 1),
            "adopted": report.artifacts_adopted,
            "reused": report.plans_reused,
            "compiled": report.plans_compiled,
        }
    )
    assert report.plans_compiled >= 1
    cold_ms = report.swap_ms

    # Warm: AOT sidecar next to the checkpoint + a deployment store on the
    # service — the swap adopts the artifacts and binds from disk.
    save_plan_artifacts(model_b, checkpoint_b, examples=[window[None]])
    service = ForecastService(model_a, artifact_dir=tmp_path / "store")
    service.forecast(window)
    report = service.swap_checkpoint(checkpoint_b)
    rows.append(
        {
            "condition": "warm (artifacts)",
            "swap_ms": round(report.swap_ms, 1),
            "adopted": report.artifacts_adopted,
            "reused": report.plans_reused,
            "compiled": report.plans_compiled,
        }
    )
    assert report.artifacts_adopted >= 1
    assert report.plans_reused >= 1
    assert report.plans_compiled == 0, "warm swap must not retrace"

    print_table(
        "Hot swap latency (cold compile vs artifact adoption)",
        rows,
        ["condition", "swap_ms", "adopted", "reused", "compiled"],
    )
    record_bench("hot_swap", {"latency": rows, "cold_over_warm": round(cold_ms / max(report.swap_ms, 1e-9), 2)})


def test_availability_under_swap(tmp_path):
    """Zero failed / torn requests, and throughput, while swaps land."""
    model_a, model_b = _build_model(0), _build_model(1)
    adjacency = _adjacency(model_a)
    window = _window()
    checkpoint_a = save_model_checkpoint(model_a, tmp_path / "a", adjacency=adjacency)
    checkpoint_b = save_model_checkpoint(model_b, tmp_path / "b", adjacency=adjacency)

    expected_a = ForecastService(model_a).forecast(window)
    expected_b = ForecastService(model_b).forecast(window)

    service = ForecastService(model_a, cache_entries=0)
    service.forecast(window)  # warm generation A

    # Baseline: request throughput with no swaps in flight.
    start = time.perf_counter()
    baseline_requests = 0
    while time.perf_counter() - start < 0.5:
        service.forecast(window)
        baseline_requests += 1
    baseline_rps = baseline_requests / (time.perf_counter() - start)

    served = [0] * TRAFFIC_THREADS
    torn = [0] * TRAFFIC_THREADS
    errors: List[BaseException] = []
    done = threading.Event()

    def traffic(slot: int) -> None:
        try:
            while not done.is_set():
                forecast = service.forecast(window)
                if not (
                    np.array_equal(forecast, expected_a)
                    or np.array_equal(forecast, expected_b)
                ):
                    torn[slot] += 1
                served[slot] += 1
        except BaseException as error:  # pragma: no cover
            errors.append(error)

    threads = [
        threading.Thread(target=traffic, args=(slot,))
        for slot in range(TRAFFIC_THREADS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    swap_ms = []
    for round_index in range(SWAP_ROUNDS):
        target = checkpoint_b if round_index % 2 == 0 else checkpoint_a
        swap_ms.append(service.swap_checkpoint(target).swap_ms)
    done.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    assert not errors, f"requests failed during swaps: {errors[:3]}"
    assert sum(torn) == 0, f"{sum(torn)} version-torn forecasts served"
    assert sum(served) > 0
    swapping_rps = sum(served) / elapsed

    rows = [
        {
            "condition": "no swaps",
            "req_per_s": round(baseline_rps, 1),
            "swaps": 0,
            "failed": 0,
            "torn": 0,
        },
        {
            "condition": f"{SWAP_ROUNDS} swaps in {elapsed:.2f}s",
            "req_per_s": round(swapping_rps, 1),
            "swaps": SWAP_ROUNDS,
            "failed": len(errors),
            "torn": sum(torn),
        },
    ]
    print_table(
        "Availability under hot swaps (3 traffic threads)",
        rows,
        ["condition", "req_per_s", "swaps", "failed", "torn"],
    )
    record_bench(
        "hot_swap_availability",
        {
            "rows": rows,
            "mean_swap_ms": round(float(np.mean(swap_ms)), 1),
            "requests_during_swaps": int(sum(served)),
        },
    )


def test_quality_ingest_overhead():
    """Per-step ingest cost of the always-on quality detectors (clean feed)."""
    from repro.serving import RollingWindowBuffer

    rng = np.random.default_rng(SEED)
    steps = rng.normal(size=(400, NUM_NODES)) * 10.0 + 50.0

    def measure(buffer: RollingWindowBuffer) -> float:
        for step in steps[:50]:  # warm-up
            buffer.ingest(step)
        start = time.perf_counter()
        for step in steps[50:]:
            buffer.ingest(step)
        return (time.perf_counter() - start) / len(steps[50:]) * 1e6

    plain = measure(RollingWindowBuffer(WINDOW, num_nodes=NUM_NODES))
    monitored = measure(
        RollingWindowBuffer(
            WINDOW, num_nodes=NUM_NODES, quality=SensorHealthMonitor(NUM_NODES)
        )
    )
    rows = [
        {"condition": "plain ingest", "us_per_step": round(plain, 1)},
        {"condition": "with quality monitor", "us_per_step": round(monitored, 1)},
    ]
    print_table(
        "Streaming QC ingest overhead (85 sensors, clean feed)",
        rows,
        ["condition", "us_per_step"],
    )
    record_bench("quality_ingest", {"rows": rows})
