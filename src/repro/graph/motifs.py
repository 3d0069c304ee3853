"""Exact counting of all graphlets (motifs) of size up to four.

This module stands in for PGD (Ahmed et al., *Efficient Graphlet Counting
for Large Networks*, ICDM 2015), the external C++ tool the paper uses for
motif statistics.  Like PGD it is edge-centric: per-edge triangle counts
are computed once, 4-cliques are counted by direct enumeration over
triangle pairs, and every remaining induced count — connected and
disconnected — follows from closed-form combinatorial identities.  The
identities are validated against brute-force enumeration in the tests.
Counting runs on :class:`~repro.graph.fast.CSRGraph` arrays; a set
:class:`~repro.graph.adjacency.Graph` argument is converted once at entry.

Motif identifiers follow Table 1 of the paper:

====  =======================  ====  =========================
M21   2-edge                   M22   2-node-independent
M31   3-triangle               M33   3-node-1-edge
M32   3-path (wedge)           M34   3-node-independent
M41   4-clique                 M47   4-node-triangle
M42   4-chordal-cycle          M48   4-node-star (wedge + node)
M43   4-tailed-triangle        M49   4-node-2-edges
M44   4-cycle                  M410  4-node-1-edge
M45   4-star                   M411  4-node-independent
M46   4-path
====  =======================  ====  =========================
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import comb

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.fast import CSRGraph, as_csr

CONNECTED_MOTIFS_2 = ("m21",)
DISCONNECTED_MOTIFS_2 = ("m22",)
CONNECTED_MOTIFS_3 = ("m31", "m32")
DISCONNECTED_MOTIFS_3 = ("m33", "m34")
CONNECTED_MOTIFS_4 = ("m41", "m42", "m43", "m44", "m45", "m46")
DISCONNECTED_MOTIFS_4 = ("m47", "m48", "m49", "m410", "m411")

MOTIF_NAMES: dict[str, str] = {
    "m21": "2-edge",
    "m22": "2-node-independent",
    "m31": "3-triangle",
    "m32": "3-path",
    "m33": "3-node-1-edge",
    "m34": "3-node-independent",
    "m41": "4-clique",
    "m42": "4-chordal-cycle",
    "m43": "4-tailed-triangle",
    "m44": "4-cycle",
    "m45": "4-star",
    "m46": "4-path",
    "m47": "4-node-triangle",
    "m48": "4-node-star",
    "m49": "4-node-2-edges",
    "m410": "4-node-1-edge",
    "m411": "4-node-independent",
}

#: The five normalisation groups of Section 3.1 (motifs of the same size
#: and connectivity form one probability distribution each).
MOTIF_GROUPS: tuple[tuple[str, ...], ...] = (
    CONNECTED_MOTIFS_2 + DISCONNECTED_MOTIFS_2,
    CONNECTED_MOTIFS_3,
    DISCONNECTED_MOTIFS_3,
    CONNECTED_MOTIFS_4,
    DISCONNECTED_MOTIFS_4,
)


@dataclass(frozen=True)
class MotifCounts:
    """Induced counts of every motif of size 2, 3 and 4."""

    m21: int
    m22: int
    m31: int
    m32: int
    m33: int
    m34: int
    m41: int
    m42: int
    m43: int
    m44: int
    m45: int
    m46: int
    m47: int
    m48: int
    m49: int
    m410: int
    m411: int

    def as_dict(self) -> dict[str, int]:
        """All counts keyed by motif identifier."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def probability_distributions(self) -> dict[str, float]:
        """Motif probability distributions (Def. 3.4), normalised per group.

        Within each of the five size/connectivity groups the counts are
        divided by the group total, so each group forms a probability
        distribution.  Empty groups yield zero probabilities.
        """
        counts = self.as_dict()
        out: dict[str, float] = {}
        for group in MOTIF_GROUPS:
            total = sum(counts[key] for key in group)
            for key in group:
                out[key] = counts[key] / total if total > 0 else 0.0
        return out

    def total_sets(self, size: int) -> int:
        """Sum of counts over all motifs of the given size."""
        keys = {
            2: CONNECTED_MOTIFS_2 + DISCONNECTED_MOTIFS_2,
            3: CONNECTED_MOTIFS_3 + DISCONNECTED_MOTIFS_3,
            4: CONNECTED_MOTIFS_4 + DISCONNECTED_MOTIFS_4,
        }[size]
        counts = self.as_dict()
        return sum(counts[key] for key in keys)


@dataclass(frozen=True)
class MotifPrimitives:
    """The aggregate quantities every induced count of size <= 4 derives
    from.

    Both counting paths reduce a graph to these integers and then apply
    the *same* closed-form identities (:func:`motifs_from_primitives`):
    the batch path (:func:`count_motifs`) computes them by edge-centric
    enumeration, while the streaming path
    (:class:`repro.graph.incremental_metrics.MotifState`) maintains them
    as running accumulators under vertex add/remove deltas.  Sharing the
    derivation makes batch/incremental equality a structural property:
    equal primitives imply equal counts, exactly, in integers.
    """

    n: int
    m: int
    #: Number of triangles.
    triangles: int
    #: Non-induced wedges ``sum_v C(deg_v, 2)``.
    wedges_noninduced: int
    #: Non-induced 3-stars ``sum_v C(deg_v, 3)``.
    degree_choose3: int
    #: Number of 4-cliques.
    k4: int
    #: Non-induced 4-cycles (pairs of distinct 2-paths, halved).
    cycles_noninduced: int
    #: ``sum_e C(tri_e, 2)`` over per-edge triangle counts.
    tri_pair_sum: int
    #: ``sum_v tri_v * (deg_v - 2)`` over per-vertex triangle counts.
    tailed_noninduced: int
    #: ``sum_e (deg_u - 1)(deg_v - 1) - tri_e``.
    paths_noninduced: int
    #: ``sum_e n - (deg_u + deg_v - tri_e)`` (3-node-1-edge sets).
    m33: int


def motifs_from_primitives(p: MotifPrimitives) -> MotifCounts:
    """Induced counts of every motif from the aggregate primitives.

    Pure integer arithmetic (the subtraction identities of PGD /
    Table 1), validated by :func:`_validate` — a wrong primitive almost
    always breaks the partition checks.
    """
    n, m = p.n, p.m
    triangles = p.triangles
    wedges = p.wedges_noninduced - 3 * triangles  # induced 3-paths (M32)
    m33 = p.m33
    m34 = comb(n, 3) - triangles - wedges - m33

    # Size-4 connected motifs.
    k4 = p.k4
    diamonds = p.tri_pair_sum - 6 * k4
    c4 = p.cycles_noninduced - diamonds - 3 * k4
    tailed = p.tailed_noninduced - 4 * diamonds - 12 * k4
    stars = p.degree_choose3 - tailed - 2 * diamonds - 4 * k4
    paths = p.paths_noninduced - 2 * tailed - 4 * c4 - 6 * diamonds - 12 * k4

    # Size-4 disconnected motifs, via subtraction identities.
    m47 = triangles * (n - 3) - tailed - 2 * diamonds - 4 * k4
    m48 = wedges * (n - 3) - 2 * tailed - 2 * diamonds - 4 * c4 - 3 * stars - 2 * paths
    m49 = (
        comb(m, 2)
        - p.wedges_noninduced
        - paths
        - 2 * c4
        - 2 * diamonds
        - 3 * k4
        - tailed
    )
    # Every edge lies in comb(n-2, 2) different 4-sets; distributing those
    # incidences over the known edge counts per motif isolates M410.
    edge_incidences = m * comb(max(n - 2, 0), 2)
    m410 = edge_incidences - (
        6 * k4
        + 5 * diamonds
        + 4 * tailed
        + 4 * c4
        + 3 * stars
        + 3 * paths
        + 3 * m47
        + 2 * m48
        + 2 * m49
    )
    m411 = comb(n, 4) - (
        k4 + diamonds + tailed + c4 + stars + paths + m47 + m48 + m49 + m410
    )

    counts = MotifCounts(
        m21=m,
        m22=comb(n, 2) - m,
        m31=triangles,
        m32=wedges,
        m33=m33,
        m34=m34,
        m41=k4,
        m42=diamonds,
        m43=tailed,
        m44=c4,
        m45=stars,
        m46=paths,
        m47=m47,
        m48=m48,
        m49=m49,
        m410=m410,
        m411=m411,
    )
    _validate(counts, n)
    return counts


#: Above this many wedges (neighbour pairs) the vectorized counting path
#: would allocate large intermediate arrays (several int64 arrays of this
#: length); fall back to per-edge loops over a set :class:`Graph`, which
#: are slower but O(1) extra memory per step.
_MAX_VECTOR_WEDGES = 2_000_000


def _pairs_in_runs(run_end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair ``(i, j)``, ``i < j``, of positions in the same
    run, where ``run_end[p]`` is one past the last position of ``p``'s
    run (runs are contiguous)."""
    remaining = run_end - np.arange(run_end.size) - 1
    first = np.repeat(np.arange(run_end.size), remaining)
    offsets = np.arange(first.size) - np.repeat(
        np.cumsum(remaining) - remaining, remaining
    )
    return first, first + offsets + 1


def _is_edge(directed_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` (``u * n + v``) in the sorted, non-empty
    CSR keys."""
    positions = np.minimum(np.searchsorted(directed_keys, keys), directed_keys.size - 1)
    return directed_keys[positions] == keys


def _triangle_substrate(csr: CSRGraph) -> tuple[np.ndarray, np.ndarray, int]:
    """Edge-centric substrate for triangle / 4-cycle counting.

    Enumerates every *wedge* (unordered neighbour pair of some vertex)
    straight from the sorted CSR rows and aggregates them into
    codegrees: for each vertex pair ``(a, b)`` the number of common
    neighbours.  Returns ``(edges, tri, paired)``: the ``(m, 2)`` edge
    array, its per-edge triangle counts (an edge's codegree) and the
    number of distinct 2-path pairs (twice the non-induced 4-cycles).
    When the wedge count is large enough that the intermediate arrays
    would dominate memory, the loop substitute computes the same values.
    """
    n = csr.n_vertices
    degrees = csr.degrees()
    n_wedges = int(np.sum(degrees * (degrees - 1) // 2))
    if n_wedges > _MAX_VECTOR_WEDGES:
        return _loop_pair_counts(csr.to_graph())
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    dst = csr.indices
    upper = src < dst
    edges = np.column_stack([src[upper], dst[upper]])
    if n_wedges == 0:
        return edges, np.zeros(edges.shape[0], dtype=np.int64), 0
    # Within each row every position pairs with the positions after it,
    # giving (a, b) with a < b.
    first, second = _pairs_in_runs(csr.indptr[1:][src])
    keys = dst[first] * np.int64(n) + dst[second]
    unique_keys, codegree = np.unique(keys, return_counts=True)
    paired = int(np.sum(codegree * (codegree - 1) // 2))
    edge_keys = edges[:, 0] * np.int64(n) + edges[:, 1]
    positions = np.minimum(
        np.searchsorted(unique_keys, edge_keys), unique_keys.size - 1
    )
    tri = np.where(unique_keys[positions] == edge_keys, codegree[positions], 0)
    return edges, tri.astype(np.int64), paired


def _loop_pair_counts(graph: Graph) -> tuple[np.ndarray, np.ndarray, int]:
    """The over-budget substitute for :func:`_triangle_substrate`: the
    same substrate by per-edge loops over adjacency sets."""
    edges = graph.edge_array()
    tri = np.zeros(edges.shape[0], dtype=np.int64)
    for idx, (u, v) in enumerate(edges.tolist()):
        tri[idx] = len(graph.adjacency(u) & graph.adjacency(v))
    # A 4-cycle is a pair of distinct 2-paths between the same endpoints.
    codegree: dict[tuple[int, int], int] = {}
    for u in range(graph.n_vertices):
        nbrs = sorted(graph.adjacency(u))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                key = (a, b)
                codegree[key] = codegree.get(key, 0) + 1
    paired = sum(c * (c - 1) // 2 for c in codegree.values())
    return edges, tri, paired


def _vertex_triangles(edges: np.ndarray, tri: np.ndarray, n: int) -> np.ndarray:
    """Triangles through each vertex from per-edge triangle counts (each
    triangle at ``v`` is seen via both of its edges at ``v``)."""
    vertex_tri = (
        np.bincount(edges[:, 0], weights=tri, minlength=n)
        + np.bincount(edges[:, 1], weights=tri, minlength=n)
    ).astype(np.int64)
    assert np.all(vertex_tri % 2 == 0)
    return vertex_tri // 2


def triangle_counts(graph: Graph | CSRGraph) -> tuple[int, np.ndarray]:
    """``(sum over edges of tri_e, triangles per vertex)`` — the exact
    integers behind transitivity (three per triangle) and local
    clustering."""
    csr = as_csr(graph)
    edges, tri, _ = _triangle_substrate(csr)
    return int(tri.sum()), _vertex_triangles(edges, tri, csr.n_vertices)


def _count_four_cliques(csr: CSRGraph, edges: np.ndarray, tri: np.ndarray) -> int:
    """Count 4-cliques, each once at its two smallest vertices: for every
    candidate edge ``(u, v)``, ``u < v``, the adjacent pairs among the
    common neighbours above ``v``.  Every edge of a 4-clique has at
    least two triangles, so the ``tri >= 2`` edges suffice as candidates.

    Vectorized over the CSR rows: the candidates' head rows, filtered to
    vertices above the tail that the tail also sees, give the common
    neighbours (ascending, grouped by candidate), and their within-group
    pairs are looked up among the CSR keys.  Over the wedge budget the
    loop runs on adjacency sets.
    """
    keep = tri >= 2
    heads, tails, tri = edges[keep, 0], edges[keep, 1], tri[keep]
    head_degrees = np.diff(csr.indptr)[heads]
    budget = max(int(head_degrees.sum()), int(np.sum(tri * (tri - 1) // 2)))
    if budget > _MAX_VECTOR_WEDGES:
        graph = csr.to_graph()
        total = 0
        for u, v in zip(heads.tolist(), tails.tolist()):
            common = sorted(graph.adjacency(u) & graph.adjacency(v))
            above = [w for w in common if w > v]
            for i, w in enumerate(above):
                total += len(graph.adjacency(w).intersection(above[i + 1 :]))
        return total
    if not heads.size:
        return 0
    n = np.int64(csr.n_vertices)
    directed_keys = np.repeat(np.arange(n), np.diff(csr.indptr)) * n + csr.indices
    group = np.repeat(np.arange(heads.size), head_degrees)
    nbrs = csr.concatenated_rows(heads)
    above = (nbrs > tails[group]) & _is_edge(directed_keys, tails[group] * n + nbrs)
    nbrs, group = nbrs[above], group[above]
    run_end = np.cumsum(np.bincount(group, minlength=heads.size))[group]
    first, second = _pairs_in_runs(run_end)
    return int(np.count_nonzero(_is_edge(directed_keys, nbrs[first] * n + nbrs[second])))


def count_motifs(graph: Graph | CSRGraph, *, horizontal: bool = False) -> MotifCounts:
    """Count every induced motif of size up to four in ``graph``.

    Both the triangle/codegree substrate and the 4-clique enumeration
    are vectorized passes over the CSR rows, costing ``O(sum_v deg_v^2)``
    for the wedges plus at most ``O(sum_e tri_e^2)`` for the triangle
    pairs of the ``tri >= 2`` edges, the cost profile PGD reports for its
    exact mode.  Graphs whose intermediates would be too large use per-edge
    loops on a set :class:`Graph` instead; both paths are integer-exact
    and produce identical counts.

    ``horizontal`` declares ``graph`` a horizontal visibility graph,
    which has no 4-clique (see :func:`repro.graph.metrics.hvg_degeneracy`),
    so the enumeration is skipped.
    """
    csr = as_csr(graph)
    n, m = csr.n_vertices, csr.n_edges
    degrees = csr.degrees()
    edges, tri, paired = _triangle_substrate(csr)
    heads, tails = edges[:, 0], edges[:, 1]
    k4 = 0 if horizontal else _count_four_cliques(csr, edges, tri)
    assert paired % 2 == 0, "each 4-cycle has exactly two diagonals"
    vertex_tri = _vertex_triangles(edges, tri, n)

    return motifs_from_primitives(
        MotifPrimitives(
            n=n,
            m=m,
            triangles=int(tri.sum()) // 3,
            wedges_noninduced=int(np.sum(degrees * (degrees - 1) // 2)),
            degree_choose3=int(np.sum(degrees * (degrees - 1) * (degrees - 2) // 6)),
            k4=k4,
            cycles_noninduced=paired // 2,
            tri_pair_sum=int(np.sum(tri * (tri - 1) // 2)),
            tailed_noninduced=int(np.sum(vertex_tri * (degrees - 2))),
            paths_noninduced=int(
                np.sum((degrees[heads] - 1) * (degrees[tails] - 1) - tri)
            ),
            m33=int(np.sum(n - (degrees[heads] + degrees[tails] - tri))),
        )
    )


def _validate(counts: MotifCounts, n: int) -> None:
    """Internal consistency checks: counts are non-negative and every
    k-subset of vertices is classified exactly once."""
    for key, value in counts.as_dict().items():
        if value < 0:
            raise AssertionError(f"negative motif count {key}={value}")
    if counts.total_sets(3) != comb(n, 3):
        raise AssertionError("size-3 motif counts do not partition all 3-sets")
    if counts.total_sets(4) != comb(n, 4):
        raise AssertionError("size-4 motif counts do not partition all 4-sets")


def count_motifs_bruteforce(graph: Graph) -> MotifCounts:
    """Classify every 3- and 4-subset directly (test oracle; O(n^4)).

    Four-vertex graphs are uniquely identified by their edge count plus
    sorted degree sequence, so no isomorphism machinery is needed.
    """
    from itertools import combinations

    n = graph.n_vertices
    size3 = {"m31": 0, "m32": 0, "m33": 0, "m34": 0}
    for trio in combinations(range(n), 3):
        k = sum(graph.has_edge(a, b) for a, b in combinations(trio, 2))
        size3[("m34", "m33", "m32", "m31")[k]] += 1

    signature_to_motif = {
        (6, (3, 3, 3, 3)): "m41",
        (5, (2, 2, 3, 3)): "m42",
        (4, (1, 2, 2, 3)): "m43",
        (4, (2, 2, 2, 2)): "m44",
        (3, (1, 1, 1, 3)): "m45",
        (3, (1, 1, 2, 2)): "m46",
        (3, (0, 2, 2, 2)): "m47",
        (2, (0, 1, 1, 2)): "m48",
        (2, (1, 1, 1, 1)): "m49",
        (1, (0, 0, 1, 1)): "m410",
        (0, (0, 0, 0, 0)): "m411",
    }
    size4 = {key: 0 for key in signature_to_motif.values()}
    for quad in combinations(range(n), 4):
        degs = {v: 0 for v in quad}
        n_edges = 0
        for a, b in combinations(quad, 2):
            if graph.has_edge(a, b):
                n_edges += 1
                degs[a] += 1
                degs[b] += 1
        signature = (n_edges, tuple(sorted(degs.values())))
        size4[signature_to_motif[signature]] += 1

    return MotifCounts(
        m21=graph.n_edges,
        m22=comb(n, 2) - graph.n_edges,
        **size3,
        **size4,
    )
