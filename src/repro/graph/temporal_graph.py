"""Temporal graph construction (Eq. 4 of the paper).

DyHSL lifts the static road network with ``N`` nodes into a *temporal graph*
with ``T * N`` nodes: one node per (time step, location) observation.  Two
kinds of edges connect the observations:

* **spatial edges** — within each time step, identical to the road network;
* **temporal edges** — each observation is connected to the same location at
  the previous / next time step (and to itself via a self loop).

The resulting ``(T*N, T*N)`` adjacency matrix feeds both the prior graph
convolution (Eq. 5) and the interactive graph convolution (Eq. 10–12).
Observations are indexed time-major: node ``t * N + i`` is location ``i`` at
time ``t``, matching the stacking order used throughout :mod:`repro.core`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .adjacency import random_walk_normalize, validate_adjacency

__all__ = [
    "build_temporal_adjacency",
    "normalized_temporal_adjacency",
    "normalized_temporal_csr",
    "temporal_node_index",
    "split_temporal_index",
]


def build_temporal_adjacency(adjacency: np.ndarray, num_steps: int) -> np.ndarray:
    """Build the temporal-graph adjacency matrix of Eq. 4.

    Parameters
    ----------
    adjacency:
        Road-network adjacency ``A`` of shape ``(N, N)``.
    num_steps:
        Number of time steps ``T`` in the observation window.

    Returns
    -------
    numpy.ndarray
        Matrix ``Â`` of shape ``(T*N, T*N)`` where block ``(t, t)`` equals
        ``A`` with unit self-loops, and blocks ``(t, t+1)`` / ``(t+1, t)``
        contain identity matrices connecting consecutive observations of the
        same location.
    """
    adjacency = validate_adjacency(adjacency)
    if num_steps <= 0:
        raise ValueError("num_steps must be positive")
    n = adjacency.shape[0]
    size = num_steps * n
    temporal = np.zeros((size, size), dtype=float)
    identity = np.eye(n)
    block_with_loops = adjacency.copy()
    np.fill_diagonal(block_with_loops, 1.0)
    for t in range(num_steps):
        start = t * n
        temporal[start:start + n, start:start + n] = block_with_loops
        if t + 1 < num_steps:
            nxt = (t + 1) * n
            temporal[start:start + n, nxt:nxt + n] = identity
            temporal[nxt:nxt + n, start:start + n] = identity
    return temporal


def normalized_temporal_adjacency(adjacency: np.ndarray, num_steps: int) -> np.ndarray:
    """Row-normalised temporal adjacency ``Ā`` used by Eq. 5.

    Each row sums to one so graph convolution averages over the joint
    spatio-temporal neighbourhood.
    """
    temporal = build_temporal_adjacency(adjacency, num_steps)
    return random_walk_normalize(temporal, add_loops=False)


#: Rows per dense chunk when :func:`normalized_temporal_csr` sums degrees.
_DEGREE_CHUNK_ROWS = 256


def normalized_temporal_csr(adjacency: np.ndarray, num_steps: int) -> sp.csr_matrix:
    """:func:`normalized_temporal_adjacency` in CSR form, built sparse.

    Equal bit for bit (``indptr``, ``indices`` and ``data``) to
    ``SparseMatrix(normalized_temporal_adjacency(adjacency, num_steps)).csr``
    without materialising the dense ``(T*N, T*N)`` matrix: the Eq. 4 blocks
    are Kronecker products, and each row's degree is summed over a dense
    chunk of rows, so the sum runs in numpy's dense order.
    """
    adjacency = validate_adjacency(adjacency)
    if num_steps <= 0:
        raise ValueError("num_steps must be positive")
    n = adjacency.shape[0]
    block_with_loops = adjacency.copy()
    np.fill_diagonal(block_with_loops, 1.0)
    neighbours = sp.eye(num_steps, k=1) + sp.eye(num_steps, k=-1)
    temporal = (
        sp.kron(sp.eye(num_steps), sp.csr_matrix(block_with_loops))
        + sp.kron(neighbours, sp.eye(n))
    ).tocsr()
    size = temporal.shape[0]
    degree = np.empty(size)
    for start in range(0, size, _DEGREE_CHUNK_ROWS):
        stop = start + _DEGREE_CHUNK_ROWS
        degree[start:stop] = temporal[start:stop].toarray().sum(axis=1)
    inv = np.zeros_like(degree)
    nonzero = degree > 0
    inv[nonzero] = 1.0 / degree[nonzero]
    temporal.data *= np.repeat(inv, np.diff(temporal.indptr))
    temporal.eliminate_zeros()
    temporal.sort_indices()
    return temporal


def temporal_node_index(time_step: int, location: int, num_nodes: int) -> int:
    """Index of observation ``(time_step, location)`` in the temporal graph."""
    if location < 0 or location >= num_nodes:
        raise IndexError(f"location {location} out of range for {num_nodes} nodes")
    if time_step < 0:
        raise IndexError("time_step must be non-negative")
    return time_step * num_nodes + location


def split_temporal_index(index: int, num_nodes: int) -> tuple:
    """Inverse of :func:`temporal_node_index`: return ``(time_step, location)``."""
    if index < 0:
        raise IndexError("index must be non-negative")
    return divmod(index, num_nodes)
