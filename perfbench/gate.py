"""Correctness gate: replay served requests through the autograd forward.

The compiled float64 runtime is bit-identical to the autograd forward of
the same batch (ROADMAP: max|diff| == 0 on every execution path).  The
gate reloads the checkpoint that served each sampled request and replays
it as the service batched it: a streaming request is the one buffer
snapshot that was served (QC-repaired values included); a ``forecast_many``
call is either one batch padded to its bucket (single worker) or, on a
replica fleet, the round-robin split across the replicas.  A request
passes when one of those batch compositions reproduces every served value
exactly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.runtime.engine import pad_batch_to_bucket, resolve_bucket_cap
from repro.tensor import Tensor, no_grad
from repro.training import load_model_checkpoint


def _forward(model, batch: np.ndarray) -> np.ndarray:
    """Autograd forward of ``batch`` padded exactly as the plan cache pads it."""
    padded, _ = pad_batch_to_bucket(np.ascontiguousarray(batch), resolve_bucket_cap(None))
    with no_grad():
        return model(Tensor(padded)).data[: batch.shape[0]]


def _normalise(scaler, windows: np.ndarray) -> np.ndarray:
    normalised = np.array(windows, dtype=float)
    if scaler is not None:
        normalised[..., 0] = scaler.transform(normalised[..., 0])
    return normalised


def _denormalise(scaler, predictions: np.ndarray) -> np.ndarray:
    return scaler.inverse_transform(predictions) if scaler is not None else predictions


def _compositions(count: int, shards: int) -> List[List[np.ndarray]]:
    """Row groupings the service may have batched ``count`` windows into."""
    whole = [np.arange(count)]
    if shards <= 1 or count < 2:
        return [whole]
    split = [np.arange(first, count, shards) for first in range(shards)]
    return [whole, split]


def replay(samples, versions: Dict[str, object], shards: int = 1) -> Tuple[int, float]:
    """Replay ``samples``; returns ``(requests checked, worst max|diff|)``."""
    loaded = {}
    worst = 0.0
    for sample in samples:
        if sample.version not in loaded:
            loaded[sample.version] = load_model_checkpoint(versions[sample.version])
        checkpoint = loaded[sample.version]
        model, scaler = checkpoint.model, checkpoint.scaler
        served = np.asarray(sample.served)
        if sample.kind == "latest":
            expected = _denormalise(scaler, _forward(model, sample.inputs[None])[0])
            diff = float(np.abs(expected[: served.shape[0]] - served).max())
        else:
            normalised = _normalise(scaler, sample.inputs)
            diff = float("inf")
            for groups in _compositions(len(normalised), shards):
                expected = np.empty_like(served)
                for rows in groups:
                    expected[rows] = _denormalise(scaler, _forward(model, normalised[rows]))
                diff = min(diff, float(np.abs(expected - served).max()))
                if diff == 0.0:
                    break
        worst = max(worst, diff)
    return len(samples), worst
