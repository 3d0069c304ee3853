"""Extended graph features from the paper's future-work list (Section 6).

The conclusion names "degree distribution entropy, centrality,
bipartivity, etc. [11]" as candidate additional features.  This module
implements them — still keeping the paper's constraint that features be
cheap relative to motif counting:

* degree-distribution entropy (Shannon entropy of the degree histogram);
* degree variance / heterogeneity;
* estrada bipartivity index (via eigenvalues of the adjacency matrix);
* eigenvector-centrality statistics (max / mean / std);
* closeness-centrality statistics via BFS from a vertex sample;
* global clustering coefficient (transitivity) and average local
  clustering.

They plug into the pipeline through
``FeatureConfig(features="extended")`` and are exercised by the ablation
benchmark (``benchmarks/test_ablations.py``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.fast import CSRGraph, as_csr
from repro.graph.motifs import triangle_counts


def degree_entropy_from_degrees(degrees: np.ndarray) -> float:
    """Shannon entropy (nats) of a degree array — the shared final
    reduction of the batch and delta-maintained paths (the streaming
    tier feeds it the incrementally maintained window degree array, so
    the two are bit-identical by construction)."""
    if degrees.size == 0:
        return 0.0
    _, counts = np.unique(degrees, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def degree_entropy(graph: Graph | CSRGraph) -> float:
    """Shannon entropy (nats) of the degree distribution."""
    return degree_entropy_from_degrees(graph.degrees())


def degree_variance_from_degrees(degrees: np.ndarray) -> float:
    """Variance of a degree array — shared batch/streaming reduction."""
    if degrees.size == 0:
        return 0.0
    return float(degrees.var())


def degree_variance(graph: Graph | CSRGraph) -> float:
    """Variance of the degree sequence (degree heterogeneity)."""
    return degree_variance_from_degrees(graph.degrees())


def _adjacency_matrix(graph: Graph | CSRGraph) -> np.ndarray:
    n = graph.n_vertices
    A = np.zeros((n, n))
    edges = graph.edge_array()
    if edges.size:
        A[edges[:, 0], edges[:, 1]] = 1.0
        A[edges[:, 1], edges[:, 0]] = 1.0
    return A


def bipartivity(graph: Graph | CSRGraph, adjacency: np.ndarray | None = None) -> float:
    """Estrada–Rodríguez-Velázquez spectral bipartivity index.

    ``b = sum_i cosh(lambda_i) / sum_i exp(lambda_i)`` over the adjacency
    spectrum: the fraction of closed-walk weight on even walks.  Equals 1
    for bipartite graphs and decreases towards 1/2 as odd cycles
    accumulate.  Uses a dense eigendecomposition (fine at visibility-
    graph sizes) with max-shift normalisation to avoid overflow.

    ``adjacency`` lets callers that need several spectral metrics (see
    :func:`extended_graph_statistics`) build the dense matrix once and
    share it instead of rebuilding it per metric.
    """
    n = graph.n_vertices
    if n == 0 or graph.n_edges == 0:
        return 1.0
    if adjacency is None:
        adjacency = _adjacency_matrix(graph)
    eigenvalues = np.linalg.eigvalsh(adjacency)
    lam_max = eigenvalues.max()
    # Both exponents are <= 0 after shifting by lambda_max, since the
    # spectrum of an undirected graph satisfies |lambda| <= lambda_max.
    pos = np.exp(eigenvalues - lam_max)
    neg = np.exp(-eigenvalues - lam_max)
    return float(0.5 * (pos + neg).sum() / pos.sum())


def eigenvector_centrality_stats(
    graph: Graph | CSRGraph,
    max_iter: int = 200,
    tol: float = 1e-10,
    adjacency: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """``(max, mean, std)`` of the eigenvector centrality (power iteration).

    Disconnected graphs use the dominant component implicitly through
    the power iteration; empty graphs return zeros.  Iterates on the
    dense adjacency matrix (``adjacency`` if supplied, else built once
    here): the matrix is invariant to edge iteration order, so the
    float reduction is deterministic across graph builders and between
    the batch and streaming tiers — and BLAS ``gemv`` beats scatter-add
    at visibility-graph sizes anyway.
    """
    n = graph.n_vertices
    if n == 0 or graph.n_edges == 0:
        return (0.0, 0.0, 0.0)
    if adjacency is None:
        adjacency = _adjacency_matrix(graph)
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iter):
        # Iterate on A + I: same eigenvectors, but the spectral shift
        # breaks the +/-lambda oscillation of bipartite graphs.
        nxt = adjacency @ x + x
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return (0.0, 0.0, 0.0)
        nxt /= norm
        if np.abs(nxt - x).max() < tol:
            x = nxt
            break
        x = nxt
    x = np.abs(x)
    return (float(x.max()), float(x.mean()), float(x.std()))


def closeness_centrality_stats(
    graph: Graph | CSRGraph, n_sources: int = 32, seed: int = 0
) -> tuple[float, float]:
    """``(mean, max)`` closeness centrality estimated from BFS over a
    deterministic vertex sample (exact when ``n <= n_sources``)."""
    n = graph.n_vertices
    if n <= 1:
        return (0.0, 0.0)
    rng = np.random.default_rng(seed)
    sources = (
        np.arange(n)
        if n <= n_sources
        else np.sort(rng.choice(n, size=n_sources, replace=False))
    )
    csr = as_csr(graph)
    indptr, indices = csr.indptr.tolist(), csr.indices.tolist()
    closeness = []
    for source in sources.tolist():
        distances = [-1] * n
        distances[source] = 0
        frontier = [source]
        total = 0
        reached = 0
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in indices[indptr[u] : indptr[u + 1]]:
                    if distances[v] < 0:
                        distances[v] = distances[u] + 1
                        total += distances[v]
                        reached += 1
                        nxt.append(v)
            frontier = nxt
        if total > 0:
            closeness.append(reached / total)
        else:
            closeness.append(0.0)
    values = np.asarray(closeness)
    return (float(values.mean()), float(values.max()))


def transitivity_from_counts(triangle_edge_sum: int, wedges: int) -> float:
    """Global clustering from exact integer counts: ``triangle_edge_sum``
    is the sum over edges of endpoint co-degrees (three per triangle),
    ``wedges`` is ``sum_v C(deg_v, 2)``.  Shared final reduction of the
    batch and delta-maintained paths."""
    if wedges == 0:
        return 0.0
    return float(triangle_edge_sum / float(wedges))


def transitivity(graph: Graph | CSRGraph) -> float:
    """Global clustering coefficient: 3 * triangles / wedges."""
    degrees = graph.degrees()
    wedges = int(np.sum(degrees * (degrees - 1) // 2))
    return transitivity_from_counts(triangle_counts(graph)[0], wedges)


def average_clustering_from_counts(links_per_vertex, degrees) -> float:
    """Mean local clustering from per-vertex triangle (closed-pair)
    counts and degrees — shared batch/streaming reduction, accumulated
    in vertex order so the two paths are bit-identical."""
    n = len(degrees)
    if n == 0:
        return 0.0
    total = 0.0
    for u in range(n):
        k = int(degrees[u])
        if k < 2:
            continue
        total += 2.0 * int(links_per_vertex[u]) / (k * (k - 1))
    return float(total / n)


def average_clustering(graph: Graph | CSRGraph) -> float:
    """Mean of per-vertex local clustering coefficients."""
    return average_clustering_from_counts(triangle_counts(graph)[1], graph.degrees())


#: Keys of :func:`extended_graph_statistics`, in feature order.
EXTENDED_FEATURE_NAMES = (
    "DegEntropy",
    "DegVariance",
    "Bipartivity",
    "EigCentMax",
    "EigCentMean",
    "EigCentStd",
    "CloseMean",
    "CloseMax",
    "Transitivity",
    "AvgClustering",
)


def extended_graph_statistics(graph: Graph | CSRGraph) -> dict[str, float]:
    """All future-work features, keyed by display label.

    The dense adjacency matrix both spectral metrics need, and the
    triangle counts both clustering metrics need, are computed once
    here and shared, instead of per metric.
    """
    graph = as_csr(graph)
    degrees = graph.degrees()
    triangle_edge_sum, vertex_triangles = triangle_counts(graph)
    adjacency = _adjacency_matrix(graph) if graph.n_edges else None
    ev_max, ev_mean, ev_std = eigenvector_centrality_stats(graph, adjacency=adjacency)
    close_mean, close_max = closeness_centrality_stats(graph)
    values = (
        degree_entropy_from_degrees(degrees),
        degree_variance_from_degrees(degrees),
        bipartivity(graph, adjacency=adjacency),
        ev_max,
        ev_mean,
        ev_std,
        close_mean,
        close_max,
        transitivity_from_counts(
            triangle_edge_sum, int(np.sum(degrees * (degrees - 1) // 2))
        ),
        average_clustering_from_counts(vertex_triangles, degrees),
    )
    return dict(zip(EXTENDED_FEATURE_NAMES, values))
