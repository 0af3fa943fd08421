"""Prior graph encoder (Section IV-A, Eq. 4–5).

The encoder lifts the road network into a temporal graph (observations at
all time steps, connected by spatial and temporal edges) and runs ``Lp``
layers of message passing over it so every observation's state embedding
already mixes joint spatio-temporal context before the DHSL / IGC blocks.
"""

from __future__ import annotations

import numpy as np

from ..graph.sparse import SparseMatrix, sparse_matmul
from ..graph.temporal_graph import normalized_temporal_csr
from ..nn import Dropout, Linear, Module, ModuleList
from ..tensor import Tensor

__all__ = ["TemporalGraphConvolution", "PriorGraphEncoder"]


class TemporalGraphConvolution(Module):
    """One layer of Eq. 5: ``H' = φ(Ā H W)`` on the temporal graph.

    The normalised temporal adjacency ``Ā`` is a constant provided by the
    encoder; the layer owns only the feature transformation ``W``.
    A residual connection keeps deep stacks (the paper uses ``Lp = 6``)
    trainable without vanishing signals.
    """

    def __init__(self, hidden_dim: int, use_residual: bool = True) -> None:
        super().__init__()
        self.linear = Linear(hidden_dim, hidden_dim)
        self.use_residual = use_residual

    def forward(self, hidden: Tensor, adjacency: SparseMatrix) -> Tensor:
        aggregated = sparse_matmul(adjacency, hidden)
        transformed = self.linear(aggregated).relu()
        if self.use_residual:
            return transformed + hidden
        return transformed


class PriorGraphEncoder(Module):
    """Stack of temporal graph convolutions over the Eq. 4 temporal graph.

    Parameters
    ----------
    adjacency:
        Road-network adjacency ``A`` of shape ``(N, N)``.
    input_length:
        Observation window length ``T``.
    hidden_dim:
        Feature width ``d``.
    num_layers:
        Number of graph convolution layers ``Lp``.
    dropout:
        Dropout applied after each layer.
    """

    def __init__(
        self,
        adjacency: np.ndarray,
        input_length: int,
        hidden_dim: int,
        num_layers: int = 6,
        dropout: float = 0.1,
    ) -> None:
        super().__init__()
        self.num_nodes = int(np.asarray(adjacency).shape[0])
        self.input_length = input_length
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.adjacency = SparseMatrix(normalized_temporal_csr(adjacency, input_length))
        self.layers = ModuleList([TemporalGraphConvolution(hidden_dim) for _ in range(num_layers)])
        self.dropout = Dropout(dropout)

    def forward(self, features: Tensor) -> Tensor:
        """Encode initial observation features.

        Parameters
        ----------
        features:
            Tensor of shape ``(batch, T, N, d)`` from
            :class:`repro.core.embeddings.SpatioTemporalEmbedding`.

        Returns
        -------
        Tensor
            State representations ``h`` of shape ``(batch, T, N, d)``.
        """
        batch, steps, nodes, dim = features.shape
        if steps != self.input_length or nodes != self.num_nodes:
            raise ValueError(
                f"features ({steps}, {nodes}) do not match the encoder's ({self.input_length}, {self.num_nodes})"
            )
        # Time-major flattening: observation (t, i) sits at row t*N + i,
        # matching build_temporal_adjacency's block layout.
        hidden = features.reshape(batch, steps * nodes, dim)
        for layer in self.layers:
            hidden = layer(hidden, self.adjacency)
            hidden = self.dropout(hidden)
        return hidden.reshape(batch, steps, nodes, dim)
