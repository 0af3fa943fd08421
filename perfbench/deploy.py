"""The deployment under test: checkpoints, plan artifacts, traffic, services.

Everything a workload serves is built here.  The model weights, the road
network and the scaler are fixed (they are the deployed release); only
the traffic depends on the run's ``--seed``.  :func:`build_service` is the
one place that constructs a service, so a change to how services are put
together (ROADMAP item 3's single front end) edits this function only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import DyHSL, DyHSLConfig
from repro.data.scalers import StandardScaler
from repro.data.synthetic import TrafficSimulator, TrafficSimulatorConfig
from repro.graph import corridor_road_network
from repro.serving import ForecastService, ShardedForecastService
from repro.tensor import seed as seed_everything
from repro.training import save_model_checkpoint, save_plan_artifacts

#: Published PEMS08 sensor count; workloads run at 0.5x and 1x of it.
PEMS08_SENSORS = 170

#: The reference model of the ROADMAP's figures (``_build_model`` of the
#: serving benchmarks): small enough to serve on a CPU, every Fig. 2 stage on.
MODEL_CONFIG = dict(hidden_dim=16, prior_layers=2, num_hyperedges=8, mhce_layers=2)

INPUT_LENGTH = 12
#: Weight seeds of the two releases a hot swap alternates between.
RELEASE_SEEDS = (11, 12)


@dataclass
class Deployment:
    """Checkpoints and traffic of one run, under the run's work directory."""

    sensors: int
    checkpoints: List[Path]
    #: Deployment plan store (AOT-compiled plans of release 0), if any.
    store: Optional[Path]
    #: Seeded traffic ``(steps, N, 1)`` in vehicles per 5 minutes.
    flow: np.ndarray
    #: Model version -> checkpoint path, filled as services report versions.
    versions: Dict[str, Path] = field(default_factory=dict)


def road_network(sensors: int):
    """The deployment's fixed sensor graph."""
    return corridor_road_network(sensors, seed=0)


def simulate(sensors: int, steps: int, seed: int) -> np.ndarray:
    """Seeded PEMS-like traffic over the deployment's road network."""
    simulator = TrafficSimulator(
        road_network(sensors), TrafficSimulatorConfig(num_steps=steps, seed=seed)
    )
    flow, _ = simulator.generate()
    return flow


def prepare(workdir: Path, sensors: int, seed: int, steps: int,
            releases: int = 1, aot_batches: Sequence[int] = ()) -> Deployment:
    """Write the release checkpoint(s) and plan artifacts; simulate traffic.

    Release 0's AOT plans go to a deployment store (``workdir/store``);
    later releases carry theirs as the checkpoint's sidecar, which a hot
    swap adopts into that store.
    """
    adjacency = road_network(sensors).adjacency
    # The scaler is fitted on a fixed "training" simulation, so every seed
    # is served by the same release.
    scaler = StandardScaler().fit(simulate(sensors, 576, seed=0)[..., 0])
    config = DyHSLConfig(num_nodes=sensors, input_length=INPUT_LENGTH, **MODEL_CONFIG)
    store = workdir / "store" if aot_batches else None
    examples = [np.zeros((batch, INPUT_LENGTH, sensors, 1)) for batch in aot_batches]
    checkpoints = []
    for release in range(releases):
        seed_everything(RELEASE_SEEDS[release])
        model = DyHSL(config, adjacency).eval()
        path = save_model_checkpoint(
            model, workdir / f"dyhsl-{sensors}-r{release}", adjacency=adjacency, scaler=scaler
        )
        if examples:
            save_plan_artifacts(
                model, path, examples=examples,
                artifact_dir=store if release == 0 else None,
            )
        checkpoints.append(path)
    return Deployment(
        sensors=sensors,
        checkpoints=checkpoints,
        store=store,
        flow=simulate(sensors, steps, seed=seed),
    )


def build_service(workload: str, deployment: Deployment, prime: np.ndarray):
    """Construct one workload's service and make it ready to serve.

    Ready means every plan the workload uses is bound (and parity-checked,
    which an artifact-loaded plan does on its first result) and, on the
    process tier, the workers are spawned with their plans bound.
    ``prime`` holds raw windows ``(B, T, N, 1)`` used for that first touch.
    """
    checkpoint = deployment.checkpoints[0]
    if workload == "stream-85":
        service = ForecastService.from_checkpoint(
            checkpoint, quality=True, artifact_dir=deployment.store
        )
        service.warm_up([1])
        service.forecast(prime[0])
    elif workload == "backfill-170":
        service = ForecastService.from_checkpoint(
            checkpoint, cache_entries=0, max_batch_size=32
        )
        service.warm_up()
    elif workload == "mixed-85-procs":
        service = ShardedForecastService.from_checkpoint(
            checkpoint,
            num_shards=2,
            mode="replicas",
            executor="processes",
            artifact_dir=deployment.store,
        )
        # Workers fork on their shard's first dispatch, and forking while
        # another thread is inside an OpenBLAS call wedges that call in the
        # parent (seen on the second of two set-ups when both shards are
        # first touched concurrently).  So spawn the workers one at a time
        # with a 1-window call each (which also binds the interactive
        # lane's 1-row plan), then bind the 8- and 2-row bulk plans on
        # both: replica routing alternates windows, so 16 windows split 8/8
        # and 4 windows 2/2.
        service.forecast_many(prime[:1])
        service.forecast_many(prime[1:2])
        service.forecast_many(prime[2:18])
        service.forecast_many(prime[18:22])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    deployment.versions[service.model_version] = checkpoint
    return service
