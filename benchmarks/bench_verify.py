"""Verify-time overhead — static plan verification stays off the hot path.

``REPRO_RUNTIME_VERIFY=1`` runs the full rule set (lifetimes, dtype flow, fusion legality, workspace layout) once per fresh compile and
once per disk artifact parse.  The contract this bench records and
asserts:

* **one-time, and cheap where it runs** — per-plan verification costs a
  fraction of the compile it gates (and of the disk parse at load);
* **zero steady-state cost** — once a plan is cached (or memoised in the
  artifact store), serving requests moves no verify counter and pays no
  verify work: hot-path latency is measured with the gate on and off on
  the same warmed plan.

Measured on a float32 TCN plan, recorded under the ``verify`` section of
``BENCH_runtime.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_verify.py -s
"""

from __future__ import annotations

import time

import numpy as np

from conftest import SEED, print_table, record_bench

from repro.baselines import create_baseline
from repro.runtime import VERIFY_ENV_VAR, ArtifactStore, compile_module
from repro.runtime.verify import verify_spec
from repro.tensor import seed as seed_everything

NUM_NODES = 40
VERIFY_REPEATS = 20
HOT_CALLS = 50


def _adjacency(nodes: int) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    dense = (rng.random((nodes, nodes)) < 0.3).astype(float)
    np.fill_diagonal(dense, 0.0)
    return dense


def _subjects():
    seed_everything(SEED)
    adjacency = _adjacency(NUM_NODES)
    tcn = create_baseline("TCN", adjacency, NUM_NODES, horizon=6, hidden_dim=24)
    return [("TCN/float32", tcn, dict(precision="float32"))]


def _median_ms(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return float(np.median(samples))


def test_verify_overhead(tmp_path, monkeypatch):
    windows = np.random.default_rng(SEED).normal(size=(4, 12, NUM_NODES, 1))
    rows = []
    payload = {}
    for label, model, options in _subjects():
        # --- compile-time cost (gate off), then the verify pass alone ----
        monkeypatch.delenv(VERIFY_ENV_VAR, raising=False)
        start = time.perf_counter()
        compiled = compile_module(model, artifact_dir=tmp_path / label.split("/")[0], **options)
        compiled(windows)
        compile_ms = (time.perf_counter() - start) * 1e3
        plan = next(iter(compiled._plans.values()))
        spec, values = plan.spec, plan._values
        verify_ms = _median_ms(lambda: verify_spec(spec, values), VERIFY_REPEATS)

        # --- load-time cost: disk parse vs the verify pass it gates ------
        store = ArtifactStore(tmp_path / label.split("/")[0])
        key = sorted(store.keys())[0]
        read_ms = _median_ms(
            lambda: store._read(store.path_for(key), key), VERIFY_REPEATS
        )

        # --- steady state: warmed plan, gate on vs off -------------------
        monkeypatch.setenv(VERIFY_ENV_VAR, "1")
        gated = compile_module(model, artifact_dir=store, **options)
        gated(windows)  # warm: loads (and verifies) the artifact once
        verified_once = gated.artifact_store.stats().verifies
        hot_on_ms = _median_ms(lambda: gated(windows), HOT_CALLS)
        assert gated.artifact_store.stats().verifies == verified_once, (
            "steady-state calls must not re-verify"
        )
        monkeypatch.delenv(VERIFY_ENV_VAR, raising=False)
        hot_off_ms = _median_ms(lambda: compiled(windows), HOT_CALLS)

        # One-time and cheap where it runs: a fraction of the compile.
        assert verify_ms < compile_ms, (label, verify_ms, compile_ms)

        rows.append({
            "plan": label,
            "steps": len(spec.steps),
            "verify ms": f"{verify_ms:.2f}",
            "compile ms": f"{compile_ms:.1f}",
            "verify/compile": f"{100 * verify_ms / compile_ms:.1f}%",
            "read ms": f"{read_ms:.2f}",
            "hot ms (off)": f"{hot_off_ms:.2f}",
            "hot ms (on)": f"{hot_on_ms:.2f}",
        })
        payload[label] = {
            "steps": len(spec.steps),
            "verify_ms": round(verify_ms, 3),
            "compile_ms": round(compile_ms, 2),
            "verify_vs_compile": round(verify_ms / compile_ms, 4),
            "artifact_read_ms": round(read_ms, 3),
            "hot_call_ms_gate_off": round(hot_off_ms, 3),
            "hot_call_ms_gate_on": round(hot_on_ms, 3),
            "steady_state_verifies": verified_once,
        }

    print_table(
        "Static verification overhead (one-time, off the hot path)",
        rows,
        ["plan", "steps", "verify ms", "compile ms", "verify/compile",
         "read ms", "hot ms (off)", "hot ms (on)"],
    )
    record_bench("verify", payload)
