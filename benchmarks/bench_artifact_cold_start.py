"""Fleet cold start — compiling from scratch vs. binding saved plan artifacts.

Before this PR every process rebuilt its compiled plans from nothing: trace
the module, fold constants, fuse chains, pool workspace buffers — once
per worker, once per batch bucket, on every restart and
every fork.  A restarted N-shard fleet repeated the whole pipeline N times
for plans bit-identical to the ones the previous process had already built
and thrown away.

:mod:`repro.runtime.artifacts` makes plans durable: a compiled plan is
serialised (step list, fused chains, workspace layout, folded constants, dtype policy) keyed by a trace hash over the module
architecture, a weights fingerprint, the input shape, the precision and the
bucketing policy.  A fresh process pointed at the store binds the plan from
disk — validated by the hash key, an integrity checksum and a deferred
one-row parity spot check on the first result it serves — instead of
re-deriving it.

The scenario is production readiness: a fresh process warms the batch-size
plan ladder (1, 2, 4, 8, 16) and serves its first request.  Because cold
start is a fresh-process phenomenon (import costs, cold allocator, nothing
memoised), every measurement runs in an actual subprocess via
``_coldstart_worker.py`` — cold workers compile the ladder, warm workers
bind it from a store saved ahead of time.  Measured at the 0.5x PEMS08
acceptance point (85 sensors) in both precisions, single-worker and as a
2-replica process fleet, asserting the acceptance contract:

* the artifact-warm first request is **>= 5x** faster than the cold
  compile (plan compilation dominates readiness at this scale; the
  steady-state second request is also recorded, so the retrace *penalty*
  each side pays is visible in the table);
* the warm process performs **zero retraces** (``cache_info().compiles ==
  0`` on every worker, the machine-checkable definition);
* the served numbers are **bit-identical** to the cold-compiled plan's —
  in float32 exactly as in float64, because binding replays the serialised
  constants byte-for-byte.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_artifact_cold_start.py -s
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from conftest import print_table, record_bench

#: Published PEMS08 sensor count; the contract point is half of it.
PEMS08_NODES = 170
NUM_NODES = max(8, int(round(PEMS08_NODES * 0.5)))
LADDER = (1, 2, 4, 8, 16)
TRIALS = 2

#: The ISSUE acceptance floor for warm-vs-cold first-request latency.
SPEEDUP_FLOOR = 5.0

_WORKER = Path(__file__).resolve().with_name("_coldstart_worker.py")
_SRC = Path(__file__).resolve().parents[1] / "src"


def _run_worker(
    mode: str, precision: str, store: Optional[Path], out: Optional[Path]
) -> dict:
    """One fresh-process measurement; returns the worker's JSON record."""
    # The subprocess inherits the full environment on purpose: a stripped
    # env degrades BLAS/allocator behaviour enough to swamp the timings.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(_SRC), env.get("PYTHONPATH")) if part
    )
    command = [
        sys.executable,
        str(_WORKER),
        mode,
        str(NUM_NODES),
        precision,
        str(store) if store else "-",
        str(out) if out else "-",
    ]
    result = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, f"worker failed:\n{result.stderr}"
    return json.loads(result.stdout.strip().splitlines()[-1])


def _best_of(
    trials: int, mode: str, precision: str, store: Optional[Path], out: Optional[Path]
) -> dict:
    """Best-of-N fresh processes (min first-request latency wins)."""
    best: Optional[dict] = None
    for _ in range(trials):
        record = _run_worker(mode, precision, store, out)
        if best is None or record["first_ms"] < best["first_ms"]:
            best = record
    assert best is not None
    return best


def test_artifact_cold_start(tmp_path):
    """First-request latency of a fresh process: cold compile vs. warm bind."""
    scenarios = [
        ("single", "float64", 1, len(LADDER)),
        ("single", "float32", 1, len(LADDER)),
        ("fleet", "float64", 2, len(LADDER)),
    ]
    rows: List[dict] = []
    bench_rows: List[dict] = []
    failures: List[str] = []
    for mode, precision, workers, expected_loads in scenarios:
        label = f"{mode} {precision}"
        store = tmp_path / f"store-{mode}-{precision}"
        cold_npy = tmp_path / f"cold-{mode}-{precision}.npy"
        warm_npy = tmp_path / f"warm-{mode}-{precision}.npy"

        # AOT seeding: compile once, save the ladder's artifacts (the
        # "write artifacts alongside the checkpoint at train time" step).
        # Process replicas share one parent-side provider, so a fleet
        # compiles each trace once.
        seeded = _run_worker(mode, precision, store, None)
        assert seeded["compiles"] == len(LADDER)

        cold = _best_of(TRIALS, mode, precision, None, cold_npy)
        assert cold["compiles"] == expected_loads and cold["artifact_loads"] == 0

        warm = _best_of(TRIALS, mode, precision, store, warm_npy)
        assert warm["compiles"] == 0, f"{label} warm start retraced: {warm}"
        assert warm["artifact_loads"] == expected_loads

        # Bind-from-disk replays the serialised constants byte-for-byte, so
        # the parity contract is bit-identity in *both* precisions.
        produced, reference = np.load(warm_npy), np.load(cold_npy)
        assert np.array_equal(produced, reference), f"{label} artifact plan diverges"

        speedup = cold["first_ms"] / warm["first_ms"]
        if speedup < SPEEDUP_FLOOR:
            failures.append(
                f"{label}: warm start at {speedup:.1f}x the cold compile is below "
                f"the {SPEEDUP_FLOOR:.0f}x acceptance contract "
                f"(cold {cold['first_ms']:.0f} ms, warm {warm['first_ms']:.0f} ms)"
            )
        rows.append(
            {
                "configuration": label,
                "workers": workers,
                "cold first ms": round(cold["first_ms"], 1),
                "warm first ms": round(warm["first_ms"], 1),
                "steady ms": round(warm["second_ms"], 1),
                "speedup": f"{speedup:.1f}x",
                "retraces": warm["compiles"],
                "loads": warm["artifact_loads"],
            }
        )
        bench_rows.append(
            {
                "configuration": mode,
                "precision": precision,
                "workers": workers,
                "cold_first_request_ms": round(cold["first_ms"], 3),
                "warm_first_request_ms": round(warm["first_ms"], 3),
                "cold_steady_state_ms": round(cold["second_ms"], 3),
                "warm_steady_state_ms": round(warm["second_ms"], 3),
                "speedup_warm_vs_cold": round(speedup, 3),
                "warm_compiles": warm["compiles"],
                "warm_artifact_loads": warm["artifact_loads"],
                "bit_identical": True,
            }
        )

    print_table(
        f"Artifact cold start — {NUM_NODES} sensors (0.5x PEMS08), plan ladder "
        f"{LADDER}, first request of a fresh process (best of {TRIALS})",
        rows,
        [
            "configuration",
            "workers",
            "cold first ms",
            "warm first ms",
            "steady ms",
            "speedup",
            "retraces",
            "loads",
        ],
    )
    record_bench(
        "artifact_cold_start",
        {
            "sensors": NUM_NODES,
            "ladder": list(LADDER),
            "trials": TRIALS,
            "speedup_floor": SPEEDUP_FLOOR,
            "rows": bench_rows,
        },
    )
    assert not failures, "; ".join(failures)
