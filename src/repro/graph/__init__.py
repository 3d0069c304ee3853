"""Graph substrate: containers, visibility-graph builders and statistics.

This subpackage replaces the external graph tooling used by the paper
(networkx for structure, PGD for graphlet counting) with a self-contained,
numpy-backed implementation tuned for the small, sparse graphs produced by
time-series visibility transforms.
"""

from repro.graph.adjacency import Graph
from repro.graph.extended_metrics import extended_graph_statistics
from repro.graph.fast import (
    CSRGraph,
    fast_horizontal_visibility_graph_csr,
    fast_visibility_graph_csr,
    visibility_graphs,
    visibility_graphs_batch,
)
from repro.graph.incremental import SlidingGraphWindow, SlidingVisibilityGraph
from repro.graph.metrics import (
    assortativity_coefficient,
    degeneracy,
    degree_statistics,
    density,
    graph_statistics,
    hvg_degeneracy,
)
from repro.graph.motifs import (
    CONNECTED_MOTIFS_3,
    CONNECTED_MOTIFS_4,
    DISCONNECTED_MOTIFS_3,
    DISCONNECTED_MOTIFS_4,
    MOTIF_NAMES,
    MotifCounts,
    count_motifs,
)
from repro.graph.visibility import (
    horizontal_visibility_graph,
    visibility_graph,
    visibility_graph_dc,
    visibility_graph_naive,
)

__all__ = [
    "Graph",
    "CSRGraph",
    "fast_visibility_graph_csr",
    "fast_horizontal_visibility_graph_csr",
    "visibility_graphs",
    "visibility_graphs_batch",
    "SlidingVisibilityGraph",
    "SlidingGraphWindow",
    "visibility_graph",
    "visibility_graph_naive",
    "visibility_graph_dc",
    "horizontal_visibility_graph",
    "count_motifs",
    "MotifCounts",
    "MOTIF_NAMES",
    "CONNECTED_MOTIFS_3",
    "CONNECTED_MOTIFS_4",
    "DISCONNECTED_MOTIFS_3",
    "DISCONNECTED_MOTIFS_4",
    "density",
    "degeneracy",
    "assortativity_coefficient",
    "degree_statistics",
    "graph_statistics",
    "hvg_degeneracy",
    "extended_graph_statistics",
]
