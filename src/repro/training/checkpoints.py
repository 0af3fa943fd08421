"""Model checkpointing.

Checkpoints are saved as NumPy ``.npz`` archives containing the flat
``state_dict`` of a model plus a small JSON metadata blob (epoch, metric).
This keeps the format dependency-free and diffable with standard tools.

Two levels of checkpoint exist:

* :func:`save_checkpoint` / :func:`load_checkpoint` — weights only; the
  caller must construct a matching model first.
* :func:`save_model_checkpoint` / :func:`load_model_checkpoint` — a
  *self-describing* checkpoint that additionally stores the
  :class:`~repro.core.DyHSLConfig`, the road-network adjacency and the
  fitted data scaler, so a fresh :class:`~repro.core.DyHSL` can be rebuilt
  from the file alone.  This is the format the serving layer
  (:mod:`repro.serving`) consumes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..nn import Module

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_model_checkpoint",
    "load_model_checkpoint",
    "save_plan_artifacts",
    "artifact_dir_for",
    "LoadedCheckpoint",
    "InMemoryCheckpoint",
]

_METADATA_KEY = "__checkpoint_metadata__"
_CONFIG_KEY = "__checkpoint_config__"
_ADJACENCY_KEY = "__checkpoint_adjacency__"
_SCALER_KEY = "__checkpoint_scaler__"
#: Keys in the archive that are not part of the model ``state_dict``.
_RESERVED_KEYS = (_METADATA_KEY, _CONFIG_KEY, _ADJACENCY_KEY, _SCALER_KEY)


def _encode_json(payload: Dict[str, Any]) -> np.ndarray:
    return np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8)


def _decode_json(blob: np.ndarray) -> Dict[str, Any]:
    return json.loads(blob.tobytes().decode("utf-8"))


def save_checkpoint(
    model: Module,
    path: Union[str, Path],
    metadata: Optional[Dict[str, float]] = None,
) -> Path:
    """Serialise ``model.state_dict()`` (plus metadata) to ``path``.

    Returns the resolved path with the ``.npz`` suffix ensured.
    """
    return _write_archive(model, path, metadata or {})


def _write_archive(
    model: Module,
    path: Union[str, Path],
    metadata: Dict[str, float],
    extras: Optional[Dict[str, np.ndarray]] = None,
) -> Path:
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(model.state_dict())
    payload[_METADATA_KEY] = _encode_json(metadata)
    payload.update(extras or {})
    np.savez(path, **payload)
    return path


def load_checkpoint(model: Module, path: Union[str, Path]) -> Dict[str, float]:
    """Load a checkpoint saved by :func:`save_checkpoint` into ``model``.

    Returns the metadata dictionary stored alongside the weights.  Also
    accepts the richer :func:`save_model_checkpoint` archives — the
    self-description blobs are simply ignored.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint {path} does not exist")
    with np.load(path, allow_pickle=False) as archive:
        state = {key: archive[key] for key in archive.files if key not in _RESERVED_KEYS}
        metadata_bytes = archive[_METADATA_KEY].tobytes() if _METADATA_KEY in archive.files else b"{}"
    model.load_state_dict(state)
    return json.loads(metadata_bytes.decode("utf-8"))


def save_model_checkpoint(
    model: Module,
    path: Union[str, Path],
    adjacency: np.ndarray,
    scaler: Optional[Any] = None,
    metadata: Optional[Dict[str, float]] = None,
) -> Path:
    """Save a self-describing DyHSL checkpoint.

    Besides the weights, the archive records the model's
    :class:`~repro.core.DyHSLConfig`, the road-network ``adjacency`` and
    (optionally) the fitted data scaler, so :func:`load_model_checkpoint`
    can rebuild the complete inference stack without any other inputs.

    Parameters
    ----------
    model:
        A :class:`~repro.core.DyHSL` instance (anything exposing a
        dataclass ``config`` attribute works).
    adjacency:
        Road-network adjacency ``(N, N)`` the model was built with.
    scaler:
        A fitted scaler exposing ``to_dict()`` (see
        :mod:`repro.data.scalers`), or ``None``.
    metadata:
        Free-form JSON-serialisable run information (epoch, metrics, ...).
    """
    config = getattr(model, "config", None)
    if config is None:
        raise ValueError("model does not expose a config attribute; use save_checkpoint instead")
    extras: Dict[str, np.ndarray] = {
        _CONFIG_KEY: _encode_json(asdict(config)),
        _ADJACENCY_KEY: np.asarray(adjacency, dtype=float),
    }
    if scaler is not None:
        extras[_SCALER_KEY] = _encode_json(scaler.to_dict())
    return _write_archive(model, path, metadata or {}, extras=extras)


def artifact_dir_for(checkpoint_path: Union[str, Path]) -> Path:
    """The conventional plan-artifact directory of one checkpoint.

    ``dyhsl.npz`` → ``dyhsl.artifacts`` — the sidecar a serving process
    passes as ``artifact_dir=`` to warm-start without retracing.
    """
    path = Path(checkpoint_path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    return path.with_suffix(".artifacts")


def save_plan_artifacts(
    model: Module,
    checkpoint_path: Union[str, Path],
    examples,
    precisions=("float64",),
    bucket_batches=None,
    artifact_dir: Optional[Union[str, Path]] = None,
) -> Path:
    """Compile serving plans ahead of time and persist them beside a checkpoint.

    The AOT half of "compile at train time": after
    :func:`save_model_checkpoint`, call this with the batch shapes the
    deployment will serve — each ``(example, precision)`` pair is traced,
    compiled and written as a durable plan artifact (see
    :mod:`repro.runtime.artifacts`) into ``artifact_dir`` (default: the
    :func:`artifact_dir_for` sidecar of ``checkpoint_path``).  A service
    restarted with ``from_checkpoint(path, artifact_dir=...)`` then binds
    its plans from disk and serves its first request with zero retraces.

    Examples are bucketed and precision-cast exactly like live requests,
    so the trace keys match the ones a service computes — single-worker
    services and replica fleets alike.  Returns the artifact directory.
    """
    from ..runtime import ArtifactStore, CompiledModel

    directory = Path(artifact_dir) if artifact_dir is not None else artifact_dir_for(checkpoint_path)
    store = ArtifactStore(directory)
    for precision in precisions:
        compiled = CompiledModel(
            model, precision=precision, bucket_batches=bucket_batches, artifact_dir=store
        )
        for example in examples:
            compiled.compile_for(example)
    return directory


@dataclass
class LoadedCheckpoint:
    """Everything :func:`load_model_checkpoint` recovers from an archive."""

    model: Module
    config: Any
    adjacency: np.ndarray
    scaler: Optional[Any]
    metadata: Dict[str, float]


def load_model_checkpoint(path: Union[str, Path]) -> LoadedCheckpoint:
    """Rebuild a fresh :class:`~repro.core.DyHSL` from a self-describing checkpoint.

    The returned model carries the checkpointed weights and is left in
    evaluation mode, ready for inference.
    """
    # Imported lazily: ``repro.core`` must not be a hard import of the
    # training subpackage at module load time.
    from ..core import DyHSL, DyHSLConfig
    from ..data.scalers import scaler_from_dict

    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint {path} does not exist")
    with np.load(path, allow_pickle=False) as archive:
        files = set(archive.files)
        if _CONFIG_KEY not in files or _ADJACENCY_KEY not in files:
            raise ValueError(
                f"checkpoint {path} is not self-describing; save it with save_model_checkpoint"
            )
        config = DyHSLConfig(**_decode_json(archive[_CONFIG_KEY]))
        adjacency = np.asarray(archive[_ADJACENCY_KEY], dtype=float)
        scaler = scaler_from_dict(_decode_json(archive[_SCALER_KEY])) if _SCALER_KEY in files else None
        metadata = _decode_json(archive[_METADATA_KEY]) if _METADATA_KEY in files else {}
        state = {key: archive[key] for key in files if key not in _RESERVED_KEYS}
    model = DyHSL(config, adjacency)
    model.load_state_dict(state)
    model.eval()
    return LoadedCheckpoint(
        model=model, config=config, adjacency=adjacency, scaler=scaler, metadata=metadata
    )


class InMemoryCheckpoint:
    """Keep the best model weights in memory during training.

    Avoids disk traffic for the many short training runs executed by the
    benchmark harness while still letting the trainer restore the best
    validation weights at the end.
    """

    def __init__(self) -> None:
        self._state: Optional[Dict[str, np.ndarray]] = None
        self._metadata: Dict[str, float] = {}

    def save(self, model: Module, **metadata: float) -> None:
        """Snapshot the model's current weights."""
        self._state = {key: value.copy() for key, value in model.state_dict().items()}
        self._metadata = dict(metadata)

    def restore(self, model: Module) -> Dict[str, float]:
        """Restore the last snapshot into ``model`` (no-op when empty)."""
        if self._state is not None:
            model.load_state_dict(self._state)
        return dict(self._metadata)

    @property
    def has_snapshot(self) -> bool:
        """Whether a snapshot has been taken."""
        return self._state is not None
