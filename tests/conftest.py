"""Shared fixtures for the test suite.

Everything is intentionally tiny (a handful of sensors, a few days of
five-minute data) so the full suite runs quickly on a CPU while still
exercising every code path of the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import data as data_module
from repro.data import ForecastingData, TrafficSimulatorConfig, WindowConfig, load_dataset
from repro.graph import corridor_road_network
from repro.tensor import seed as seed_everything


@pytest.fixture(autouse=True)
def _seed_everything():
    """Seed the library RNG before every test for determinism."""
    seed_everything(1234)
    np.random.seed(1234)
    yield


@pytest.fixture(scope="session")
def small_network():
    """A 12-sensor corridor road network."""
    return corridor_road_network(12, num_corridors=3, cross_links=4, seed=7)


@pytest.fixture(scope="session")
def small_adjacency(small_network):
    """Adjacency matrix of the small road network."""
    return small_network.adjacency


@pytest.fixture(scope="session")
def wide_adjacency():
    """The 85-sensor road-network adjacency of :func:`wide_dyhsl`."""
    rng = np.random.default_rng(5)
    adjacency = (rng.random((85, 85)) < 0.05).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


@pytest.fixture(scope="session")
def wide_dyhsl(wide_adjacency):
    """An 85-sensor, hidden-16 DyHSL in eval mode.

    The smallest model at which a batch-flattened output-head GEMM gave a
    row different results at batch 1 and batch 32 (OpenBLAS picks its
    kernel path by row count); the tiny fixtures are too small to show it.
    """
    from repro.core import DyHSL, DyHSLConfig

    seed_everything(5)
    config = DyHSLConfig(
        num_nodes=85, hidden_dim=16, prior_layers=1, num_hyperedges=8,
        window_sizes=(1, 12), mhce_layers=1,
    )
    return DyHSL(config, wide_adjacency).eval()


@pytest.fixture(scope="session")
def small_dataset():
    """A scaled-down synthetic PEMS08 stand-in (10 sensors, ~2 days)."""
    return load_dataset(
        "PEMS08",
        node_scale=0.06,
        step_scale=0.033,
        seed=3,
        simulator_config=TrafficSimulatorConfig(noise_std=8.0, missing_rate=0.002, seed=3),
    )


@pytest.fixture(scope="session")
def forecasting_data(small_dataset):
    """The end-to-end preprocessing pipeline over the small dataset."""
    return ForecastingData(small_dataset, window=WindowConfig(input_length=12, output_length=12))


@pytest.fixture()
def tiny_batch(forecasting_data):
    """One small batch of (inputs, raw targets) from the training split."""
    inputs = forecasting_data.train.inputs[:4]
    targets = forecasting_data.train.targets[:4]
    return inputs, targets


@pytest.fixture()
def plan_engine():
    """The plan engine of a service's live generation: the inline worker's
    compiled model, or the one provider its process replicas share."""

    def engine(service):
        (plans,) = service._gen.plans
        return plans

    return engine
