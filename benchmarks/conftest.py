"""Shared infrastructure for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation section.  The paper's experiments run on the full PEMS datasets
on a GPU; this harness runs CPU-scale substitutes (see DESIGN.md): the same
models, the same protocol (60/20/20 chronological split, 12-in/12-out,
masked MAE/RMSE/MAPE), but on synthetic PEMS-like data with a reduced node
count, horizon length and epoch budget.  The environment variables below let
a user with more time raise the scale:

* ``REPRO_BENCH_NODE_SCALE``  (default 0.06)  — fraction of the published node count;
* ``REPRO_BENCH_STEP_SCALE``  (default 0.05)  — fraction of the published time steps;
* ``REPRO_BENCH_EPOCHS``      (default 10)    — training epochs for neural models;
* ``REPRO_BENCH_HIDDEN``      (default 24)    — hidden width for neural models.

Absolute errors are therefore not comparable with the paper; the *shape* of
each table (which method wins, the direction of every ablation) is the
reproduction target and is recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
from typing import Dict

import numpy as np
import pytest

from repro.core import DyHSL, DyHSLConfig
from repro.data import ForecastingData, TrafficSimulatorConfig, WindowConfig, load_dataset
from repro.tensor import seed as seed_everything
from repro.training import Trainer, TrainerConfig

NODE_SCALE = float(os.environ.get("REPRO_BENCH_NODE_SCALE", 0.06))
STEP_SCALE = float(os.environ.get("REPRO_BENCH_STEP_SCALE", 0.05))
EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", 10))
HIDDEN = int(os.environ.get("REPRO_BENCH_HIDDEN", 24))
SEED = 2024

_DATA_CACHE: Dict[str, ForecastingData] = {}


def benchmark_data(dataset_name: str) -> ForecastingData:
    """Build (and cache) the scaled-down forecasting pipeline for one dataset."""
    key = dataset_name.upper()
    if key not in _DATA_CACHE:
        seed_everything(SEED)
        dataset = load_dataset(
            key,
            node_scale=NODE_SCALE,
            step_scale=STEP_SCALE,
            seed=SEED,
            simulator_config=TrafficSimulatorConfig(seed=SEED),
        )
        _DATA_CACHE[key] = ForecastingData(dataset, window=WindowConfig(12, 12))
    return _DATA_CACHE[key]


def dyhsl_config(data: ForecastingData, **overrides) -> DyHSLConfig:
    """DyHSL configuration used across benchmarks (paper defaults, scaled width)."""
    params = dict(
        num_nodes=data.num_nodes,
        input_length=12,
        output_length=12,
        hidden_dim=HIDDEN,
        prior_layers=3,
        num_hyperedges=12,
        window_sizes=(1, 2, 3, 4, 6, 12),
        mhce_layers=2,
        dropout=0.1,
    )
    params.update(overrides)
    return DyHSLConfig(**params)


def trainer_config(**overrides) -> TrainerConfig:
    """Shared optimisation settings (Adam, lr 1e-3, batch 32 as in the paper)."""
    params = dict(learning_rate=1e-3, batch_size=32, max_epochs=EPOCHS, patience=max(EPOCHS, 5))
    params.update(overrides)
    return TrainerConfig(**params)


@pytest.fixture(scope="session")
def pems08_data() -> ForecastingData:
    """Scaled-down PEMS08 pipeline (used by Tables IV-VII and Figs. 5-7)."""
    return benchmark_data("PEMS08")


@pytest.fixture(scope="session")
def pems04_data() -> ForecastingData:
    """Scaled-down PEMS04 pipeline."""
    return benchmark_data("PEMS04")


@pytest.fixture(scope="session")
def trained_dyhsl(pems08_data) -> Trainer:
    """A DyHSL model trained once on PEMS08 and shared by several benchmarks."""
    seed_everything(SEED)
    model = DyHSL(dyhsl_config(pems08_data), pems08_data.adjacency)
    trainer = Trainer(model, pems08_data, trainer_config())
    trainer.fit()
    return trainer


#: Reproduced tables are also written here so they survive pytest's output
#: capturing.  Each table is one block under its ``=== title ===`` header;
#: a re-run replaces its own block and keeps every other table, so running
#: one benchmark file never erases the others' results.
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")
_RESULTS_HEADER = "Reproduced tables and figures (see EXPERIMENTS.md for the interpretation)"
_BLOCK_START = "\n\n=== "


def print_table(title: str, rows, columns) -> None:
    """Print one reproduced table and write it into ``benchmarks/results.txt``,
    replacing only the block under the same title."""
    header = " | ".join(f"{column:>14}" for column in columns)
    block = "\n".join(
        [f"{title} ===", header, "-" * len(header)]
        + [" | ".join(f"{str(row.get(column, '')):>14}" for column in columns) for row in rows]
    )
    print(f"\n=== {block}")
    try:
        with open(RESULTS_PATH, "r", encoding="utf-8") as handle:
            blocks = handle.read().rstrip("\n").split(_BLOCK_START)
    except FileNotFoundError:
        blocks = [_RESULTS_HEADER]
    for index in range(1, len(blocks)):
        if blocks[index].split("\n", 1)[0] == f"{title} ===":
            blocks[index] = block
            break
    else:
        blocks.append(block)
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        handle.write(_BLOCK_START.join(blocks) + "\n")


#: Machine-readable counterpart of the runtime/serving tables: each
#: benchmark section merges its rows here, so the perf trajectory is
#: queryable (req/s, speedup-vs-autograd, precision, workers) instead of
#: living only in the prose of ``results.txt``.
BENCH_JSON_PATH = os.path.join(os.path.dirname(__file__), "BENCH_runtime.json")


def record_bench(section: str, payload) -> None:
    """Merge one benchmark section into ``benchmarks/BENCH_runtime.json``.

    ``payload`` must be JSON-serialisable (rows of plain dicts).  Sections
    are replaced wholesale on re-run; unrelated sections from earlier runs
    are preserved so partial benchmark invocations don't erase the file.
    """
    data: Dict[str, object] = {}
    if os.path.exists(BENCH_JSON_PATH):
        try:
            with open(BENCH_JSON_PATH, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data["schema"] = "bench-runtime/v1"
    data[section] = payload
    with open(BENCH_JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
