"""Workspace layout: byte offsets placed by liveness.

``layout_plan`` gives every buffered step a byte offset into one flat
workspace.  These properties are checked against liveness computed here,
from the lowered steps, not by the layout code:

* no two buffers that are live at the same step share a byte (a step's
  inputs are live while it writes its output, and the plan output is live
  to the end);
* no step's output overlaps the bytes of its inputs;
* at the perfbench model's sizes, the workspace is within 1% of the peak
  live bytes — the most any layout could save.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import create_baseline
from repro.core import DyHSL, DyHSLConfig
from repro.graph import corridor_road_network
from repro.runtime.compiler import Rebatcher, layout_plan
from repro.tensor import seed as seed_everything

NUM_NODES = 9
BATCHES = (1, 2, 16)

#: Every neural baseline the serving layer can load (see test_parity.py).
COMPILED_BASELINES = ["FC-LSTM", "TCN", "GRU-ED", "STGCN", "DCRNN", "GraphWaveNet", "AGCRN"]


def _liveness(lowered, dtype):
    """``{output slot: (first step, last step, nbytes)}`` of every buffered
    step, and ``{slot: buffered slot it aliases}``; intervals inclusive."""
    itemsize = np.dtype(dtype).itemsize
    base = {}
    lives = {}
    for index, step in enumerate(lowered.steps):
        for slot in step.in_slots:
            if slot in base:
                first, _, nbytes = lives[base[slot]]
                lives[base[slot]] = (first, index, nbytes)
        if step.kind == "buffered":
            base[step.out_slot] = step.out_slot
            lives[step.out_slot] = (index, index, math.prod(step.shape) * itemsize)
        elif step.kind == "view" and step.in_slots[0] in base:
            base[step.out_slot] = base[step.in_slots[0]]
    if lowered.output_slot in base:
        first, _, nbytes = lives[base[lowered.output_slot]]
        lives[base[lowered.output_slot]] = (first, len(lowered.steps), nbytes)
    return lives, base


def _check_layout(lowered, shape, dtype):
    """Lay ``lowered`` out and assert the two safety properties; returns
    ``(spec, peak live bytes)``."""
    spec, _values = layout_plan(lowered, shape, dtype)
    lives, base = _liveness(lowered, dtype)
    offset = {
        step.out_slot: spec_step.storage
        for step, spec_step in zip(lowered.steps, spec.steps)
        if step.kind == "buffered"
    }
    assert set(offset) == set(lives)
    assert all(value % 64 == 0 for value in offset.values())
    end = max((offset[slot] + lives[slot][2] for slot in lives), default=0)
    assert spec.workspace_nbytes == spec.stats.workspace_bytes == end

    def overlap(a, b):
        return offset[a] < offset[b] + lives[b][2] and offset[b] < offset[a] + lives[a][2]

    slots = sorted(lives, key=lambda slot: lives[slot][0])
    for position, a in enumerate(slots):
        for b in slots[position + 1:]:
            if lives[b][0] > lives[a][1]:
                break
            assert not overlap(a, b), f"slots {a} and {b} are live together and share bytes"
    for step in lowered.steps:
        if step.kind != "buffered":
            continue
        for slot in step.in_slots:
            if slot in base:
                assert not overlap(step.out_slot, base[slot]), (
                    f"step writing slot {step.out_slot} overlaps its input {slot}"
                )
    peak = max(
        (
            sum(nbytes for first, last, nbytes in lives.values() if first <= index <= last)
            for index in range(len(lowered.steps))
        ),
        default=0,
    )
    assert peak <= spec.workspace_nbytes
    return spec, peak


def _layouts(model, nodes, dtype, batches=BATCHES):
    rebatcher = Rebatcher()
    rng = np.random.default_rng(5)
    for batch in batches:
        example = rng.normal(size=(batch, 12, nodes, 1))
        yield batch, _check_layout(rebatcher.lower(model, example), example.shape, dtype)


def _dyhsl(adjacency, mode) -> DyHSL:
    seed_everything(41)
    config = DyHSLConfig(
        num_nodes=NUM_NODES, hidden_dim=12, prior_layers=2, num_hyperedges=6,
        window_sizes=(1, 2, 3, 4, 6, 12), mhce_layers=2, structure_learning=mode,
    )
    return DyHSL(config, adjacency).eval()


@pytest.fixture(scope="module")
def adjacency() -> np.ndarray:
    rng = np.random.default_rng(42)
    dense = (rng.random((NUM_NODES, NUM_NODES)) < 0.45).astype(float)
    np.fill_diagonal(dense, 0.0)
    return dense


@pytest.mark.parametrize("dtype", ["float64", "float32"])
class TestLayoutSafety:
    @pytest.mark.parametrize("mode", ["low_rank", "static", "from_scratch"])
    def test_table_v_dhsl_modes(self, adjacency, dtype, mode):
        for _batch, (spec, _peak) in _layouts(_dyhsl(adjacency, mode), NUM_NODES, dtype):
            assert spec.workspace_nbytes > 0

    @pytest.mark.parametrize("name", COMPILED_BASELINES)
    def test_registry_baselines(self, adjacency, dtype, name):
        seed_everything(43)
        model = create_baseline(name, adjacency, NUM_NODES, horizon=12, hidden_dim=12).eval()
        for _batch, (spec, _peak) in _layouts(model, NUM_NODES, dtype):
            assert spec.workspace_nbytes > 0


class TestLayoutSize:
    @pytest.mark.parametrize("sensors", [85, 170])
    def test_dyhsl_workspace_is_its_peak_live_bytes(self, sensors):
        """The perfbench model: the workspace is within 1% of the bytes
        live at the busiest step, at every piece size."""
        seed_everything(11)
        config = DyHSLConfig(
            num_nodes=sensors, hidden_dim=16, prior_layers=2, num_hyperedges=8, mhce_layers=2
        )
        model = DyHSL(config, corridor_road_network(sensors, seed=0).adjacency).eval()
        for batch, (spec, peak) in _layouts(model, sensors, "float64"):
            assert spec.workspace_nbytes <= 1.01 * peak, (
                f"b{batch}: workspace {spec.workspace_nbytes} bytes against "
                f"{peak} live at the busiest step"
            )
