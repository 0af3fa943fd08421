"""Multi-scale Holistic Correlation Extraction (Section IV-D, Eq. 13–14).

The MHCE module integrates the two complementary views of the traffic state:

* the **DHSL block** extracts dynamic, non-pairwise relations through the
  learned temporal hypergraph;
* the **IGC block** extracts high-order relations grounded in the road
  network.

For every pooling window size ``ε`` the encoder states are max-pooled along
the time axis (capturing patterns of different periodicity), the two blocks
are applied in parallel for ``Ls`` iterations with their outputs averaged
(Eq. 13), the per-scale sequence embedding is obtained by mean pooling over
time, and finally the ``J`` scale embeddings are fused with a learned
softmax weighting (Eq. 14).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..graph.sparse import SparseMatrix
from ..graph.temporal_graph import normalized_temporal_csr
from ..nn import LayerNorm, Module, ModuleList, Parameter
from ..tensor import Tensor, init, ops
from .config import DyHSLConfig
from .dhsl import DynamicHypergraphBlock
from .igc import InteractiveGraphConvolution

__all__ = ["temporal_max_pool", "ScaleFusion", "MultiScaleExtractor"]


def temporal_max_pool(states: Tensor, window: int) -> Tensor:
    """Local max pooling along the time axis.

    Parameters
    ----------
    states:
        Tensor of shape ``(batch, T, N, d)``.
    window:
        Pooling window ``ε``; must divide ``T``.

    Returns
    -------
    Tensor
        Pooled tensor of shape ``(batch, T / ε, N, d)``.
    """
    batch, steps, nodes, dim = states.shape
    if window <= 0 or steps % window != 0:
        raise ValueError(f"window {window} must divide the sequence length {steps}")
    if window == 1:
        return states
    reshaped = states.reshape(batch, steps // window, window, nodes, dim)
    return reshaped.max(axis=2)


class ScaleFusion(Module):
    """Softmax-weighted fusion of per-scale embeddings (Eq. 14)."""

    def __init__(self, num_scales: int) -> None:
        super().__init__()
        if num_scales <= 0:
            raise ValueError("num_scales must be positive")
        self.num_scales = num_scales
        self.scale_weights = Parameter(init.zeros((num_scales,)), name="scale_weights")

    def forward(self, scale_embeddings: Sequence[Tensor]) -> Tensor:
        """Fuse ``J`` tensors of identical shape into their weighted average."""
        if len(scale_embeddings) != self.num_scales:
            raise ValueError(
                f"expected {self.num_scales} scale embeddings, got {len(scale_embeddings)}"
            )
        weights = self.scale_weights.softmax(axis=0)
        fused = scale_embeddings[0] * weights[0]
        for index in range(1, self.num_scales):
            fused = fused + scale_embeddings[index] * weights[index]
        return fused

    def normalized_weights(self) -> np.ndarray:
        """Current softmax scale weights (useful for analysis)."""
        from ..tensor import kernels

        return kernels.softmax(self.scale_weights.data, axis=0)


class MultiScaleExtractor(Module):
    """The full MHCE module operating on prior-encoder states.

    Parameters
    ----------
    config:
        Model configuration (window sizes, layer counts, ablation switches).
    adjacency:
        Road-network adjacency ``A`` used to build the per-scale temporal
        graphs for the IGC block.
    """

    def __init__(self, config: DyHSLConfig, adjacency: np.ndarray) -> None:
        super().__init__()
        self.config = config
        self.window_sizes = tuple(config.window_sizes)
        self.use_hypergraph = config.structure_learning != "none"
        self.use_igc = config.use_igc

        if self.use_hypergraph:
            self.hypergraph_blocks = ModuleList(
                [
                    DynamicHypergraphBlock(
                        hidden_dim=config.hidden_dim,
                        num_hyperedges=config.num_hyperedges,
                        num_nodes=config.num_nodes,
                        num_layers=config.hypergraph_layers,
                        mode=config.structure_learning,
                        dropout=config.dropout,
                    )
                    for _ in range(config.mhce_layers)
                ]
            )
        if self.use_igc:
            self.igc_blocks = ModuleList(
                [
                    InteractiveGraphConvolution(config.hidden_dim, dropout=config.dropout)
                    for _ in range(config.mhce_layers)
                ]
            )
        # A residual connection plus layer normalisation around every Eq. 13
        # update keeps activations well conditioned when the blocks are
        # iterated (the hypergraph convolution is cubic in the state scale,
        # so un-normalised stacking would explode).
        self.layer_norms = ModuleList([LayerNorm(config.hidden_dim) for _ in range(config.mhce_layers)])
        # Pre-compute the normalised temporal adjacency of every pooled
        # sequence length needed by the IGC block.
        self._scale_adjacency: Dict[int, SparseMatrix] = {}
        if self.use_igc:
            for window in self.window_sizes:
                pooled_steps = config.input_length // window
                if pooled_steps not in self._scale_adjacency:
                    self._scale_adjacency[pooled_steps] = SparseMatrix(
                        normalized_temporal_csr(adjacency, pooled_steps)
                    )
        self.fusion = ScaleFusion(len(self.window_sizes))

    # ------------------------------------------------------------------
    def _run_blocks(self, states: Tensor, pooled_steps: int) -> Tensor:
        """Apply Eq. 13 for ``Ls`` iterations on one pooled sequence."""
        adjacency = self._scale_adjacency.get(pooled_steps) if self.use_igc else None
        for layer in range(self.config.mhce_layers):
            outputs: List[Tensor] = []
            if self.use_hypergraph:
                outputs.append(self.hypergraph_blocks[layer](states))
            if self.use_igc:
                outputs.append(self.igc_blocks[layer](states, adjacency))
            if len(outputs) == 1:
                update = outputs[0]
            else:
                update = (outputs[0] + outputs[1]) * 0.5
            states = self.layer_norms[layer](states + update)
        return states

    def forward(self, states: Tensor) -> Tensor:
        """Extract the fused multi-scale global embedding.

        Parameters
        ----------
        states:
            Prior-encoder output of shape ``(batch, T, N, d)``.

        Returns
        -------
        Tensor
            Global per-node embedding ``γ`` of shape ``(batch, N, d)``.
        """
        batch, steps, nodes, dim = states.shape
        scale_embeddings: List[Tensor] = []
        for window in self.window_sizes:
            pooled = temporal_max_pool(states, window)  # (B, T/ε, N, d)
            pooled_steps = steps // window
            flattened = pooled.reshape(batch, pooled_steps * nodes, dim)
            updated = self._run_blocks(flattened, pooled_steps)
            unflattened = updated.reshape(batch, pooled_steps, nodes, dim)
            # Mean pooling along the time dimension gives the per-scale
            # sequence embedding γ^ε.
            scale_embeddings.append(unflattened.mean(axis=1))
        return self.fusion(scale_embeddings)

    def incidence_matrices(self, states: Tensor, window: int = 1, layer: int = 0) -> np.ndarray:
        """Extract learned incidence matrices for analysis (paper Fig. 7).

        Parameters
        ----------
        states:
            Prior-encoder output of shape ``(batch, T, N, d)``.
        window:
            Pooling scale whose hypergraph to inspect.
        layer:
            Which of the ``Ls`` DHSL blocks to query.

        Returns
        -------
        numpy.ndarray
            Incidence tensor of shape ``(batch, T/ε, N, I)``.
        """
        if not self.use_hypergraph:
            raise RuntimeError("hypergraph branch is disabled in this configuration")
        if window not in self.window_sizes:
            raise ValueError(f"window {window} is not one of the configured scales {self.window_sizes}")
        batch, steps, nodes, dim = states.shape
        pooled = temporal_max_pool(states, window)
        pooled_steps = steps // window
        flattened = pooled.reshape(batch, pooled_steps * nodes, dim)
        incidence = self.hypergraph_blocks[layer].last_incidence(flattened)
        return incidence.reshape(batch, pooled_steps, nodes, -1)
