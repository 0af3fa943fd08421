"""Graph, temporal-graph and hypergraph substrate.

Static structure utilities used by the DyHSL model, the data simulator and
the graph-based baselines: adjacency normalisation, the temporal-graph
construction of Eq. 4, sparse matrix products for constant structures,
hypergraph incidence machinery and synthetic road-network generators.
"""

from .adjacency import (
    add_self_loops,
    binary_adjacency,
    chebyshev_polynomials,
    gaussian_kernel_adjacency,
    normalized_laplacian,
    random_walk_normalize,
    scaled_laplacian,
    symmetric_normalize,
    validate_adjacency,
)
from .hypergraph import (
    Hypergraph,
    clique_expansion,
    hyperedges_from_incidence,
    hypergraph_convolution_operator,
    incidence_from_hyperedges,
    knn_hypergraph,
    normalize_incidence,
)
from .road_network import (
    RoadNetwork,
    corridor_road_network,
    grid_road_network,
    random_geometric_road_network,
)
from .sparse import SparseMatrix, sparse_matmul
from .temporal_graph import (
    build_temporal_adjacency,
    normalized_temporal_adjacency,
    normalized_temporal_csr,
    split_temporal_index,
    temporal_node_index,
)

__all__ = [
    "validate_adjacency",
    "add_self_loops",
    "symmetric_normalize",
    "random_walk_normalize",
    "normalized_laplacian",
    "scaled_laplacian",
    "chebyshev_polynomials",
    "gaussian_kernel_adjacency",
    "binary_adjacency",
    "build_temporal_adjacency",
    "normalized_temporal_adjacency",
    "normalized_temporal_csr",
    "temporal_node_index",
    "split_temporal_index",
    "SparseMatrix",
    "sparse_matmul",
    "Hypergraph",
    "incidence_from_hyperedges",
    "hyperedges_from_incidence",
    "clique_expansion",
    "normalize_incidence",
    "hypergraph_convolution_operator",
    "knn_hypergraph",
    "RoadNetwork",
    "corridor_road_network",
    "grid_road_network",
    "random_geometric_road_network",
]
