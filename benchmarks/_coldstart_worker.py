"""Subprocess worker for :mod:`bench_artifact_cold_start`.

Cold start is a *fresh-process* phenomenon — import costs, cold allocator,
nothing memoised — so the benchmark measures it in actual fresh processes
rather than best-of-N loops inside a warm one.  Each invocation builds the
0.5x PEMS08 model, warms the batch-size plan ladder (compiling from
scratch, or binding from the artifact store under ``--store``), serves a
first request, then a second (steady-state) request, and prints one JSON
line of timings and plan-cache counters.

Usage::

    python _coldstart_worker.py single <nodes> <precision> <store|-> <out.npy|->
    python _coldstart_worker.py fleet  <nodes> <precision> <store|-> <out.npy|->
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

SEED = 2024
HIDDEN = 24
LADDER = (1, 2, 4, 8, 16)
FLEET_SHARDS = 2


def _build_model(num_nodes: int):
    from repro.core import DyHSL, DyHSLConfig
    from repro.tensor import seed as seed_everything

    seed_everything(SEED)
    rng = np.random.default_rng(SEED)
    adjacency = (rng.random((num_nodes, num_nodes)) < 0.4).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    config = DyHSLConfig(
        num_nodes=num_nodes,
        hidden_dim=HIDDEN,
        prior_layers=2,
        num_hyperedges=8,
        window_sizes=(1, 2, 3, 4, 6, 12),
        mhce_layers=2,
    )
    return DyHSL(config, adjacency).eval()


def main() -> None:
    mode, num_nodes, precision, store_root, out_npy = sys.argv[1:6]
    num_nodes = int(num_nodes)
    store_root = None if store_root == "-" else store_root
    out_npy = None if out_npy == "-" else out_npy

    from repro.runtime import ArtifactStore, CompiledModel
    from repro.serving import ForecastService

    model = _build_model(num_nodes)
    window = np.random.default_rng(SEED + 8).normal(size=(12, num_nodes, 1))
    store = ArtifactStore(store_root) if store_root else None

    if mode == "single":
        kwargs = {"artifact_dir": store} if store else {}
        compiled = CompiledModel(model, precision=precision, **kwargs)
        started = time.perf_counter()
        for size in LADDER:
            compiled.compile_for(np.zeros((size, *window.shape)))
        first = compiled(window[None])
        first_ms = (time.perf_counter() - started) * 1e3
        started = time.perf_counter()
        compiled(window[None])
        second_ms = (time.perf_counter() - started) * 1e3
        info = compiled.cache_info()
        compiles, loads = info.compiles, info.artifact_loads
    elif mode == "fleet":
        kwargs = {"artifact_dir": store} if store else {}
        with ForecastService(
            model,
            num_shards=FLEET_SHARDS,
            cache_entries=0,
            precision=precision,
            **kwargs,
        ) as fleet:
            started = time.perf_counter()
            fleet.warm_up(batch_sizes=LADDER)
            first = fleet.forecast(window)
            first_ms = (time.perf_counter() - started) * 1e3
            started = time.perf_counter()
            fleet.forecast(window)
            second_ms = (time.perf_counter() - started) * 1e3
            infos = [worker.forward.cache_info() for worker in fleet._workers]
        compiles = sum(info.compiles for info in infos)
        loads = sum(info.artifact_loads for info in infos)
    else:  # pragma: no cover - driver passes a known mode
        raise SystemExit(f"unknown mode {mode!r}")

    if out_npy:
        np.save(out_npy, np.asarray(first))
    print(
        json.dumps(
            {
                "first_ms": first_ms,
                "second_ms": second_ms,
                "compiles": compiles,
                "artifact_loads": loads,
            }
        )
    )


if __name__ == "__main__":
    main()
