"""The three service-level workloads.

Each workload prepares its deployment, sets up its service several times
(``setup_s`` is the median), drives seeded traffic through the public
serving API for the requested number of seconds, and hands back what it
observed: latencies, per-phase accounting, generator lag and a seeded
sample of served requests for the correctness gate.

Every workload ends in closed-loop cycles whose rates give
``windows_per_s``, the throughput the service itself sets.  The
open-loop workloads spend the first part of their time in their open-loop
phase (latency timed from each request's due time, generator lag) and the
rest in a capacity phase: stream-85 sends its ticks back to back,
mixed-85-procs its bulk calls.  backfill-170 is closed loop throughout.
Why each workload exists is the ``why`` of its entry in BENCHMARK.json.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.serving import ServiceOverloaded

import deploy
from measure import OpenLoop, PhaseLog

#: The per-layer metrics a change to that layer is expected to move on each
#: workload.
MOVES: Dict[str, List[str]] = {
    "stream-85": [
        "kernels.*", "kernels.dispatch_ms_per_fwd", "engine.forward_ms.b1",
        "engine.forward_share", "compiler.steps", "compiler.fused_chains",
        "artifacts.load_ms", "artifacts.bind_ms", "artifacts.rejects",
        "buffer.ingest_us", "buffer.snapshot_us", "quality.observe_us",
        "quality.imputed_share", "cache.hit_ratio", "cache.get_us", "cache.put_us",
        "service.self_ms", "swap.plans_compiled", "swap.artifacts_adopted",
        "resilience.retries", "resilience.expired",
    ],
    "backfill-170": [
        "kernels.*", "engine.forward_ms.b16", "engine.forward_ms.b32",
        "engine.forward_share", "engine.pad_ratio", "engine.compiles",
        "compiler.compile_ms", "compiler.workspace_kib", "stage.*",
        "batcher.rows_per_flush", "batcher.queue_wait_ms", "batcher.flush_ms",
        "resilience.retries", "resilience.expired",
    ],
    "mixed-85-procs": [
        "dispatch.call_ms.interactive", "dispatch.call_ms.bulk",
        "lanes.bulk.rejected", "lanes.interactive.rejected", "workers.respawns",
        "workers.blas_threads", "batcher.rows_per_flush", "batcher.queue_wait_ms",
        "batcher.flush_ms", "artifacts.load_ms", "artifacts.bind_ms",
        "engine.artifact_loads", "resilience.retries", "resilience.expired",
    ],
}

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = {"stream-85": 9, "backfill-170": 3, "mixed-85-procs": 5}

#: Share of ``--seconds`` the open-loop workloads spend in their closed-loop
#: capacity phase.
CAPACITY_SHARE = 0.6

STREAM_TICK_HZ = 50.0
STREAM_POLLS = 4  # one miss, then token-cache hits
STREAM_DROPOUT = 0.01
#: Back-to-back ticks per capacity cycle.
STREAM_CYCLE_TICKS = 25
SWAPS = 3
SWAP_SPACING_S = 0.6

#: One cycle of the backfill client: every size from 1 to 32 is a bucket
#: edge or sits inside one, and the median call (12 windows) sits on the
#: 16-row plateau, away from the 16/32 bucket cliff.
BACKFILL_SIZES = (1, 2, 3, 5, 7, 9, 12, 14, 16, 19, 23, 27, 32)

MIXED_TICK_HZ = 20.0
MIXED_BULK_HZ = 2.0
MIXED_BULK_WINDOWS = 16
#: Capacity-phase bulk calls: 4 windows, 2 rows per replica.  From 8 rows
#: per replica up, the two workers' OpenBLAS pools oversubscribe the two
#: cores and a call flips between ~40 and ~95 ms (8 windows) or ~100 and
#: ~175 ms (16 windows) in runs of tens of calls, far more than any bound;
#: 4-window calls took 11-13 ms in every run.
MIXED_CAPACITY_WINDOWS = 4
#: Back-to-back bulk calls per capacity cycle.
MIXED_CYCLE_CALLS = 16

#: Interactive requests answered within this budget count toward goodput.
GOODPUT_BUDGET_S = 0.050

#: At most this many served requests are kept for the correctness gate.
GATE_SAMPLES = 12


@dataclass
class Sample:
    """One served request kept for replay through the autograd forward."""

    kind: str  # "latest": ``inputs`` is the normalised window that was served
    version: str  # "many": ``inputs`` are the raw windows sent
    inputs: np.ndarray
    served: np.ndarray


@dataclass
class RunRecord:
    """What one workload run observed."""

    workload: str
    setup_s: List[float] = field(default_factory=list)
    phases: List[PhaseLog] = field(default_factory=list)
    latest_s: List[float] = field(default_factory=list)
    latest_swap_s: List[float] = field(default_factory=list)
    bulk_s: List[float] = field(default_factory=list)
    #: Windows served, and seconds spent, in the closed-loop cycles.
    windows: int = 0
    timed_s: float = 0.0
    #: Windows per second of each closed-loop cycle.
    cycle_rates: List[float] = field(default_factory=list)
    lag_p99_ms: Dict[str, float] = field(default_factory=dict)
    swaps: List[object] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)
    interactive_misses: int = 0
    interactive_sent: int = 0
    stats: object = None
    health: object = None
    num_shards: int = 1
    deployment: object = None


class _Sampler:
    """Seeded choice of which served requests the gate replays."""

    def __init__(self, seed: int, rate: float) -> None:
        self._rng = np.random.default_rng(seed + 7919)
        self._rate = rate
        self.samples: List[Sample] = []

    def want(self) -> bool:
        # The first request is always kept, so even a short run is checked.
        if not self.samples:
            return True
        return len(self.samples) < GATE_SAMPLES and self._rng.random() < self._rate


def _prime_windows(sensors: int) -> np.ndarray:
    """Distinct constant windows for the set-up's first touch of each plan."""
    return 100.0 + np.arange(22, dtype=float)[:, None, None, None] * np.ones(
        (1, deploy.INPUT_LENGTH, sensors, 1)
    )


def _setup(record: RunRecord, deployment, repeats: int) -> object:
    """Build the service ``repeats`` times; keep the last, close the others."""
    prime = _prime_windows(deployment.sensors)
    service = None
    for _ in range(repeats):
        if service is not None:
            service.close()
            # Plans of a discarded set-up sit in reference cycles; free them
            # so peak memory measures one service, not every set-up.
            service = None
            gc.collect()
        started = time.perf_counter()
        service = deploy.build_service(record.workload, deployment, prime)
        record.setup_s.append(time.perf_counter() - started)
    return service


def _call(log: PhaseLog, fn: Callable, *args):
    """Run one request, account for it; returns ``(result, error)``."""
    try:
        result = fn(*args)
    except ServiceOverloaded as error:
        log.record(error, refused=True)
        return None, error
    except Exception as error:  # counted per type; a run with failures is reported
        log.record(error)
        return None, error
    log.record()
    return result, None


def _closed_loop(record: RunRecord, seconds: float, cycle: Callable[[], int]) -> None:
    """Serve cycles back to back for ``seconds``; record each cycle's rate.

    ``cycle`` sends one cycle's requests, each after the previous reply,
    and returns the windows served.  The phase ends on a cycle boundary.
    """
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        cycle_started = time.perf_counter()
        windows = cycle()
        record.windows += windows
        record.cycle_rates.append(windows / (time.perf_counter() - cycle_started))
    record.timed_s = time.perf_counter() - started


def _faulty_stream(flow: np.ndarray, seed: int) -> np.ndarray:
    """The raw feed: 1% NaN dropouts and one sensor stuck from step 40 on."""
    rng = np.random.default_rng(seed + 104729)
    feed = flow[..., 0].copy()
    feed[rng.random(feed.shape) < STREAM_DROPOUT] = np.nan
    stuck = int(rng.integers(feed.shape[1]))
    feed[40:, stuck] = feed[40, stuck] if np.isfinite(feed[40, stuck]) else 100.0
    return feed


class NoHooks:
    """Instrumentation points a traced run fills in (see ``tracing.py``)."""

    def phase(self, name: str) -> None:
        pass


# ----------------------------------------------------------------------
# stream-85
# ----------------------------------------------------------------------
def run_stream(workdir: Path, seed: int, seconds: float, hooks=NoHooks()) -> RunRecord:
    record = RunRecord("stream-85")
    open_s, capacity_s = seconds * (1 - CAPACITY_SHARE), seconds * CAPACITY_SHARE
    # Enough steps that the capacity phase rarely wraps around the feed.
    steps = int(STREAM_TICK_HZ * (open_s + SWAPS * SWAP_SPACING_S + 2) + 250 * capacity_s) + 64
    deployment = deploy.prepare(
        workdir, 85, seed, steps=max(steps, 600), releases=2, aot_batches=(1,)
    )
    feed = _faulty_stream(deployment.flow, seed)
    hooks.phase("setup")
    service = _setup(record, deployment, SETUP_REPEATS[record.workload])
    sampler = _Sampler(seed, rate=0.02)
    try:
        for step in feed[: deploy.INPUT_LENGTH]:
            service.ingest(step)
        cursor = deploy.INPUT_LENGTH

        def tick(log: PhaseLog, due: float, latencies: Optional[List[float]]) -> int:
            """Ingest one step, then poll; returns the windows computed (0 or 1).

            Poll latencies (from ``due``) count toward goodput only when a
            ``latencies`` list is given.
            """
            nonlocal cursor
            _call(log, service.ingest, feed[cursor % len(feed)])
            cursor += 1
            computed = 0
            for poll in range(STREAM_POLLS):
                version = service.model_version
                forecast, error = _call(log, service.forecast_latest)
                if latencies is not None:
                    latencies.append(time.perf_counter() - due)
                    record.interactive_sent += 1
                    if error is not None or latencies[-1] > GOODPUT_BUDGET_S:
                        record.interactive_misses += 1
                if poll == 0 and error is None:
                    computed = 1
                    if sampler.want():
                        window, _, served_by = service.buffer.snapshot(
                            also=lambda: service.model_version
                        )
                        if served_by == version:  # no swap landed mid-request
                            sampler.samples.append(Sample("latest", version, window, forecast))
            return computed

        def tick_loop(log: PhaseLog, latencies: List[float], loop: OpenLoop,
                      stop: Callable[[float], bool]) -> None:
            """Open-loop ticks until ``stop(due time)``."""
            index = 0
            while not stop(loop.due(index)):
                tick(log, loop.wait(index), latencies)
                index += 1

        hooks.phase("timed")
        main = PhaseLog("ticks")
        loop = OpenLoop(STREAM_TICK_HZ)
        tick_loop(main, record.latest_s, loop, lambda due: due - loop.start >= open_s)
        record.lag_p99_ms["ticks"] = loop.lag_p99_ms()
        record.phases.append(main)

        hooks.phase("capacity")
        capacity = PhaseLog("capacity-ticks")
        _closed_loop(record, capacity_s, lambda: sum(
            tick(capacity, time.perf_counter(), None) for _ in range(STREAM_CYCLE_TICKS)
        ))
        record.phases.append(capacity)

        # Swap phase: the same ticks while a second thread alternates the
        # serving release three times.
        hooks.phase("swap")
        swap_log = PhaseLog("swap-ticks")
        swapper_log = PhaseLog("swaps")
        done = threading.Event()
        targets = [deployment.checkpoints[(n + 1) % 2] for n in range(SWAPS)]

        def swapper() -> None:
            try:
                for n, target in enumerate(targets):
                    time.sleep(SWAP_SPACING_S if n else SWAP_SPACING_S / 2)
                    report, error = _call(swapper_log, service.swap_checkpoint, target)
                    if error is None:
                        deployment.versions[report.new_version] = target
                        record.swaps.append(report)
            finally:
                done.set()

        thread = threading.Thread(target=swapper, name="bench-swapper")
        swap_loop = OpenLoop(STREAM_TICK_HZ)
        thread.start()
        try:
            tick_loop(
                swap_log, record.latest_swap_s, swap_loop,
                lambda due: done.is_set() and due - swap_loop.start >= SWAPS * SWAP_SPACING_S,
            )
        finally:
            thread.join()
        record.lag_p99_ms["swap-ticks"] = swap_loop.lag_p99_ms()
        record.phases.extend([swap_log, swapper_log])
        hooks.phase("after")
        record.stats = service.stats()
        record.health = service.health()
    finally:
        service.close()
    record.samples = sampler.samples
    record.deployment = deployment
    return record


# ----------------------------------------------------------------------
# backfill-170
# ----------------------------------------------------------------------
def run_backfill(workdir: Path, seed: int, seconds: float, hooks=NoHooks()) -> RunRecord:
    record = RunRecord("backfill-170")
    deployment = deploy.prepare(workdir, deploy.PEMS08_SENSORS, seed, steps=4032)
    flow = deployment.flow
    rng = np.random.default_rng(seed)
    starts = rng.permutation(len(flow) - deploy.INPUT_LENGTH + 1)
    hooks.phase("setup")
    service = _setup(record, deployment, SETUP_REPEATS[record.workload])
    sampler = _Sampler(seed, rate=0.08)
    log = PhaseLog("backfill")
    try:
        hooks.phase("timed")
        cursor = 0

        def cycle() -> int:
            # Every size once, in a seeded order, so each cycle (and each
            # run, which ends on a cycle boundary) serves the same mix.
            nonlocal cursor
            served = 0
            for size in rng.permutation(BACKFILL_SIZES):
                picks = starts[np.arange(cursor, cursor + size) % len(starts)]
                cursor += size
                windows = np.stack([flow[s : s + deploy.INPUT_LENGTH] for s in picks])
                call_started = time.perf_counter()
                forecast, error = _call(log, service.forecast_many, windows)
                record.bulk_s.append(time.perf_counter() - call_started)
                if error is None:
                    served += int(size)
                    if sampler.want():
                        sampler.samples.append(
                            Sample("many", service.model_version, windows, forecast)
                        )
            return served

        _closed_loop(record, seconds, cycle)
        record.phases.append(log)
        hooks.phase("after")
        record.stats = service.stats()
        record.health = service.health()
    finally:
        service.close()
    record.samples = sampler.samples
    record.deployment = deployment
    return record


# ----------------------------------------------------------------------
# mixed-85-procs
# ----------------------------------------------------------------------
def run_mixed(workdir: Path, seed: int, seconds: float, hooks=NoHooks()) -> RunRecord:
    record = RunRecord("mixed-85-procs", num_shards=2)
    open_s, capacity_s = seconds * (1 - CAPACITY_SHARE), seconds * CAPACITY_SHARE
    deployment = deploy.prepare(workdir, 85, seed, steps=2016, aot_batches=(1, 2, 8))
    flow = deployment.flow
    rng = np.random.default_rng(seed)
    starts = rng.permutation(len(flow) - deploy.INPUT_LENGTH + 1)
    hooks.phase("setup")
    service = _setup(record, deployment, SETUP_REPEATS[record.workload])
    sampler = _Sampler(seed, rate=0.05)
    bulk_sampler = _Sampler(seed + 1, rate=0.2)
    interactive = PhaseLog("interactive")
    bulk = PhaseLog("bulk")
    cursor = 0

    def bulk_call(log: PhaseLog, size: int) -> int:
        """One ``forecast_many`` of windows no earlier call sent; returns windows served."""
        nonlocal cursor
        picks = starts[np.arange(cursor, cursor + size) % len(starts)]
        cursor += size
        windows = np.stack([flow[s : s + deploy.INPUT_LENGTH] for s in picks])
        forecast, error = _call(log, service.forecast_many, windows)
        if error is not None:
            return 0
        if bulk_sampler.want():
            bulk_sampler.samples.append(Sample("many", service.model_version, windows, forecast))
        return size

    try:
        for step in flow[: deploy.INPUT_LENGTH, :, 0]:
            service.ingest(step)
        hooks.phase("timed")
        start = time.perf_counter() + 0.01
        ticks = OpenLoop(MIXED_TICK_HZ, start=start)
        bulk_loop = OpenLoop(MIXED_BULK_HZ, start=start)

        def bulk_client() -> None:
            index = 0
            while bulk_loop.due(index) - start < open_s:
                due = bulk_loop.wait(index)
                bulk_call(bulk, MIXED_BULK_WINDOWS)
                record.bulk_s.append(time.perf_counter() - due)
                index += 1

        thread = threading.Thread(target=bulk_client, name="bench-bulk")
        thread.start()
        try:
            index = 0
            while ticks.due(index) - start < open_s:
                due = ticks.wait(index)
                step = flow[(deploy.INPUT_LENGTH + index) % len(flow), :, 0]
                _call(interactive, service.ingest, step)
                version = service.model_version
                forecast, error = _call(interactive, service.forecast_latest)
                record.latest_s.append(time.perf_counter() - due)
                record.interactive_sent += 1
                if error is not None or record.latest_s[-1] > GOODPUT_BUDGET_S:
                    record.interactive_misses += 1
                if error is None and sampler.want():
                    window, _ = service.buffer.snapshot()
                    sampler.samples.append(Sample("latest", version, window, forecast))
                index += 1
        finally:
            thread.join()
        record.lag_p99_ms["interactive"] = ticks.lag_p99_ms()
        record.lag_p99_ms["bulk"] = bulk_loop.lag_p99_ms()
        record.phases.extend([interactive, bulk])

        hooks.phase("capacity")
        capacity = PhaseLog("capacity-bulk")
        _closed_loop(record, capacity_s, lambda: sum(
            bulk_call(capacity, MIXED_CAPACITY_WINDOWS) for _ in range(MIXED_CYCLE_CALLS)
        ))
        record.phases.append(capacity)
        hooks.phase("after")
        record.stats = service.stats()
        record.health = service.health()
    finally:
        service.close()
    record.samples = sampler.samples + bulk_sampler.samples
    record.deployment = deployment
    return record


RUNNERS = {
    "stream-85": run_stream,
    "backfill-170": run_backfill,
    "mixed-85-procs": run_mixed,
}
