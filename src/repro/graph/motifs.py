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
Given a :class:`~repro.graph.fast.CSRUnion`, :func:`count_motifs` counts
every member in one vectorized pass per block of members (see
:data:`_UNION_WEDGES`) and returns one :class:`MotifCounts` per member.

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

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, fields
from itertools import combinations
from math import comb
from operator import attrgetter

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.fast import CSRGraph, CSRUnion, as_union, segment_sums

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
        return dict(zip(_FIELDS, _field_values(self)))

    def probabilities(self) -> tuple[float, ...]:
        """Motif probability distributions (Def. 3.4) in field order.

        Within each of the five size/connectivity groups the counts are
        divided by the group total, so each group forms a probability
        distribution.  Empty groups yield zero probabilities.
        """
        values = _field_values(self)
        out: list[float] = []
        for lo, hi in _GROUP_SPANS:
            total = sum(values[lo:hi])
            if total > 0:
                for count in values[lo:hi]:
                    out.append(count / total)
            else:
                out.extend([0.0] * (hi - lo))
        return tuple(out)

    def probability_distributions(self) -> dict[str, float]:
        """:meth:`probabilities` keyed by motif identifier."""
        return dict(zip(_FIELDS, self.probabilities()))

    def total_sets(self, size: int) -> int:
        """Sum of counts over all motifs of the given size."""
        lo, hi = _SIZE_SPANS[size]
        return sum(_field_values(self)[lo:hi])


#: Field names in declaration order, and a getter returning all counts
#: as one tuple (cheaper per call than ``dataclasses.fields``).
_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(MotifCounts))
_field_values = attrgetter(*_FIELDS)
assert _FIELDS == tuple(MOTIF_NAMES)


def _span(keys: tuple[str, ...]) -> tuple[int, int]:
    lo = _FIELDS.index(keys[0])
    assert _FIELDS[lo : lo + len(keys)] == keys, "groups are contiguous fields"
    return lo, lo + len(keys)


#: ``(lo, hi)`` field ranges of the normalisation groups and of each
#: motif size.
_GROUP_SPANS = tuple(_span(group) for group in MOTIF_GROUPS)
_SIZE_SPANS = {
    2: _span(CONNECTED_MOTIFS_2 + DISCONNECTED_MOTIFS_2),
    3: _span(CONNECTED_MOTIFS_3 + DISCONNECTED_MOTIFS_3),
    4: _span(CONNECTED_MOTIFS_4 + DISCONNECTED_MOTIFS_4),
}


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
#: length); fall back to per-edge loops over neighbour sets built from
#: the CSR rows, which are slower but O(1) extra memory per step.  The
#: budget is per graph: union members are only counted together while
#: their wedges sum to at most this (and :data:`_UNION_WEDGES`).
_MAX_VECTOR_WEDGES = 2_000_000

#: Members of a :class:`CSRUnion` are counted in one vectorized pass
#: while their summed wedge count stays at most this; a member above it
#: runs alone.  Joining small graphs saves per-call overhead, but a pass
#: over a larger block only adds sort and search work.  On random-walk
#: series a length-128 VG has ~5k-8k wedges and its four scales ~10k-12k
#: together, so they count as one block; a length-1024 VG has ~100k-200k
#: and runs alone while its small scales join.  Counting the VG and HVG
#: unions of a series with limits from 4k to 128k read within noise of
#: each other at lengths 128-2700; every member alone was 1.5x slower at
#: length 128, and one block per series 1.1x-1.4x slower at 2700.
_UNION_WEDGES = 16_000


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


def _is_edge(edge_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` (``u * n + v``, ``u < v``) in the sorted,
    non-empty edge keys."""
    positions = np.minimum(np.searchsorted(edge_keys, keys), edge_keys.size - 1)
    return edge_keys[positions] == keys


#: The common neighbours of every edge, as ``(centers, first)``: the
#: wedge centres grouped by their endpoint pair, and per edge the index
#: in ``centers`` of its first common neighbour (its ``tri`` common
#: neighbours follow in ascending order).  The loop path has no such
#: runs and hands on every vertex's neighbour set instead.
_CommonNeighbours = tuple[np.ndarray, np.ndarray] | list[set[int]]


def _triangle_substrate(
    union: CSRUnion,
) -> tuple[np.ndarray, np.ndarray, list[int], _CommonNeighbours]:
    """Edge-centric substrate for triangle / 4-cycle / 4-clique counting.

    Enumerates every *wedge* (unordered neighbour pair of some vertex)
    straight from the sorted CSR rows and groups them by endpoint pair
    into codegrees: for each vertex pair ``(a, b)`` the number of common
    neighbours.  Returns ``(edges, tri, paired, common)``: the ``(m, 2)``
    edge array, its per-edge triangle counts (an edge's codegree), per
    member the number of distinct 2-path pairs (twice the non-induced
    4-cycles), and the edges' common neighbours
    (:data:`_CommonNeighbours`).  When the wedge count is large enough
    that the intermediate arrays would dominate memory, the loop
    substitute (:func:`_loop_pair_counts`) computes the same counts.
    """
    n = union.n_vertices
    degrees = union.degrees()
    n_wedges = int(np.sum(degrees * (degrees - 1) // 2))
    if n_wedges > _MAX_VECTOR_WEDGES:
        return _loop_pair_counts(union)
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    dst = union.indices
    upper = src < dst
    edges = np.column_stack([src[upper], dst[upper]])
    if n_wedges == 0:
        no_wedge = np.zeros(edges.shape[0], dtype=np.int64)
        no_centers = np.empty(0, dtype=np.int64)
        return edges, no_wedge, [0] * union.n_members, (no_centers, no_wedge)
    # Within each row every position pairs with the positions after it,
    # giving (a, b) with a < b around the row's vertex.  A stable sort by
    # pair keeps each pair's centres ascending.
    first, second = _pairs_in_runs(union.indptr[1:][src])
    keys = dst[first] * np.int64(n) + dst[second]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    centers = src[first][order]
    new_pair = np.empty(keys.size, dtype=bool)
    new_pair[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_pair[1:])
    starts = np.flatnonzero(new_pair)
    unique_keys = keys[starts]
    codegree = np.diff(starts, append=keys.size)
    # Keys sort by their smaller vertex, so each member's pairs are one
    # contiguous run of the unique keys.
    key_bounds = np.searchsorted(unique_keys, union.bounds * np.int64(n))
    paired = segment_sums(codegree * (codegree - 1) // 2, key_bounds).tolist()
    edge_keys = edges[:, 0] * np.int64(n) + edges[:, 1]
    positions = np.minimum(
        np.searchsorted(unique_keys, edge_keys), unique_keys.size - 1
    )
    tri = np.where(unique_keys[positions] == edge_keys, codegree[positions], 0)
    return edges, tri, paired, (centers, starts[positions])


def _loop_pair_counts(
    union: CSRUnion,
) -> tuple[np.ndarray, np.ndarray, list[int], list[set[int]]]:
    """The over-budget substitute for :func:`_triangle_substrate`: the
    same substrate by per-edge loops over neighbour sets built once from
    the CSR rows, with the 2-path pairs of each vertex pair ``(a, b)``,
    ``a < b``, booked at ``a``.  The neighbour sets are returned in place
    of the common-neighbour runs, for :func:`_count_four_cliques`."""
    edges = union.edge_array()
    indptr = union.indptr.tolist()
    flat = union.indices.tolist()
    rows = [flat[indptr[u] : indptr[u + 1]] for u in range(union.n_vertices)]
    neighbours = [set(row) for row in rows]
    tri = np.array(
        [len(neighbours[u] & neighbours[v]) for u, v in edges.tolist()], dtype=np.int64
    )
    # A 4-cycle is a pair of distinct 2-paths between the same endpoints.
    # Rows are ascending, so every pair ``(a, b)`` has ``a < b``.
    codegree = Counter(pair for row in rows for pair in combinations(row, 2))
    pairs_at = [0] * union.n_vertices
    for (a, _), c in codegree.items():
        pairs_at[a] += c * (c - 1) // 2
    paired = segment_sums(np.asarray(pairs_at, dtype=np.int64), union.bounds)
    return edges, tri, paired.tolist(), neighbours


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
    union = as_union(graph)
    edges, tri, _, _ = _triangle_substrate(union)
    return int(tri.sum()), _vertex_triangles(edges, tri, union.n_vertices)


def _count_four_cliques(
    union: CSRUnion,
    edges: np.ndarray,
    tri: np.ndarray,
    common: _CommonNeighbours,
) -> list[int]:
    """Count 4-cliques per member, each once at its two smallest
    vertices: for every candidate edge ``(u, v)``, ``u < v``, the
    adjacent pairs among the common neighbours above ``v``.  Every edge
    of a 4-clique has at least two triangles, so the ``tri >= 2`` edges
    suffice as candidates.

    Vectorized over the substrate's common-neighbour runs: each
    candidate's run, filtered to vertices above its tail, is ascending,
    and its within-run pairs are looked up among the edge keys.  The
    pairs of consecutive candidates are checked in chunks of about
    ``_MAX_VECTOR_WEDGES``, so a graph under the wedge budget never
    leaves the vectorized path.  Given the loop path's neighbour sets
    instead of the runs, the same enumeration runs as set loops.
    """
    keep = tri >= 2
    tails, counts = edges[keep, 1], tri[keep]
    if isinstance(common, list):
        bounds = union.bounds.tolist()
        totals = [0] * union.n_members
        for u, v in zip(edges[keep, 0].tolist(), tails.tolist()):
            member = bisect_right(bounds, u) - 1
            above = sorted(w for w in common[u] & common[v] if w > v)
            for i, w in enumerate(above):
                totals[member] += len(common[w].intersection(above[i + 1 :]))
        return totals
    totals = np.zeros(union.n_members, dtype=np.int64)
    if not tails.size:
        return totals.tolist()
    centers, first_common = common
    starts = first_common[keep]
    run_offsets = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    nbrs = centers[np.repeat(starts, counts) + run_offsets]
    group = np.repeat(np.arange(counts.size), counts)
    above = nbrs > tails[group]
    nbrs, group = nbrs[above], group[above]
    sizes = np.bincount(group, minlength=counts.size)
    run_start = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=run_start[1:])
    # Chunk boundaries (as positions in ``nbrs``) between candidates,
    # about every _MAX_VECTOR_WEDGES pairs; one candidate's pairs never
    # exceed its graph's wedge count, which is within the budget.
    pair_totals = np.cumsum(sizes * (sizes - 1) // 2)
    chunk = max(_MAX_VECTOR_WEDGES, 1)
    cuts = np.searchsorted(
        pair_totals, np.arange(chunk, int(pair_totals[-1]), chunk), side="right"
    )
    positions = [0, *run_start[cuts].tolist(), nbrs.size]
    run_end = run_start[1:][group]
    n = np.int64(union.n_vertices)
    edge_keys = edges[:, 0] * n + edges[:, 1]
    for lo, hi in zip(positions, positions[1:]):
        first, second = _pairs_in_runs(run_end[lo:hi] - lo)
        low, high = nbrs[lo:hi][first], nbrs[lo:hi][second]
        hits = low[_is_edge(edge_keys, low * n + high)]
        owner = np.searchsorted(union.bounds, hits, side="right") - 1
        totals += np.bincount(owner, minlength=union.n_members)
    return totals.tolist()


def _wedge_blocks(member_wedges: list[int], limit: int) -> list[tuple[int, int]]:
    """Greedy ``(first, stop)`` runs of consecutive members whose wedges
    sum to at most ``limit``; a member over ``limit`` forms its own run."""
    blocks = []
    first = total = 0
    for j, wedges in enumerate(member_wedges):
        if j > first and total + wedges > limit:
            blocks.append((first, j))
            first, total = j, 0
        total += wedges
    blocks.append((first, len(member_wedges)))
    return blocks


def count_motifs(
    graph: Graph | CSRGraph, *, horizontal: bool = False
) -> MotifCounts | list[MotifCounts]:
    """Count every induced motif of size up to four in ``graph``.

    Both the triangle/codegree substrate and the 4-clique enumeration
    are vectorized passes over the CSR rows, costing ``O(sum_v deg_v^2)``
    for the wedges plus at most ``O(sum_e tri_e^2)`` for the triangle
    pairs of the ``tri >= 2`` edges, the cost profile PGD reports for its
    exact mode.  Graphs whose intermediates would be too large use per-edge
    loops on neighbour sets read from the CSR rows instead; both paths
    are integer-exact and produce identical counts.

    A :class:`CSRUnion` yields a list with one :class:`MotifCounts` per
    member, counted in blocks of consecutive members (:func:`_wedge_blocks`
    under :data:`_UNION_WEDGES`); any other graph is a one-member union
    and yields its :class:`MotifCounts`.

    ``horizontal`` declares every graph a horizontal visibility graph,
    which has no 4-clique (see :func:`repro.graph.metrics.hvg_degeneracy`),
    so the enumeration is skipped.
    """
    union = as_union(graph)
    degrees = union.degrees()
    member_wedges = segment_sums(degrees * (degrees - 1) // 2, union.bounds)
    limit = min(_UNION_WEDGES, _MAX_VECTOR_WEDGES)
    counts: list[MotifCounts] = []
    for first, stop in _wedge_blocks(member_wedges.tolist(), limit):
        primitives, _ = _count_block(union.select(first, stop), horizontal)
        counts += map(motifs_from_primitives, primitives)
    return counts if isinstance(graph, CSRUnion) else counts[0]


def _count_block(
    union: CSRUnion, horizontal: bool
) -> tuple[list[MotifPrimitives], np.ndarray]:
    """Motif primitives of every member of ``union`` from one substrate
    pass, plus the triangles through each vertex of the union.

    Every primitive is a sum over vertices or edges, and a member's
    vertices and (row-ordered) edges are contiguous, so the per-member
    primitives are exact ``int64`` segment sums.  :func:`count_motifs`
    feeds them to :func:`motifs_from_primitives`; the streaming motif
    accumulator loads a whole window graph from them.
    """
    bounds = union.bounds
    degrees = union.degrees()
    edges, tri, paired, common = _triangle_substrate(union)
    heads, tails = edges[:, 0], edges[:, 1]
    k4 = (
        [0] * union.n_members
        if horizontal
        else _count_four_cliques(union, edges, tri, common)
    )
    vertex_tri = _vertex_triangles(edges, tri, union.n_vertices)
    wedges, choose3, tailed = segment_sums(
        np.stack(
            [
                degrees * (degrees - 1) // 2,
                degrees * (degrees - 1) * (degrees - 2) // 6,
                vertex_tri * (degrees - 2),
            ]
        ),
        bounds,
    ).tolist()
    head_degrees, tail_degrees = degrees[heads], degrees[tails]
    edge_bounds = np.searchsorted(heads, bounds)
    tri_sum, tri_pairs, paths, endpoint_sum = segment_sums(
        np.stack(
            [
                tri,
                tri * (tri - 1) // 2,
                (head_degrees - 1) * (tail_degrees - 1) - tri,
                head_degrees + tail_degrees - tri,
            ]
        ),
        edge_bounds,
    ).tolist()
    primitives = []
    for j, (n, m) in enumerate(zip(np.diff(bounds).tolist(), np.diff(edge_bounds).tolist())):
        assert paired[j] % 2 == 0, "each 4-cycle has exactly two diagonals"
        primitives.append(
            MotifPrimitives(
                n=n,
                m=m,
                triangles=tri_sum[j] // 3,
                wedges_noninduced=wedges[j],
                degree_choose3=choose3[j],
                k4=k4[j],
                cycles_noninduced=paired[j] // 2,
                tri_pair_sum=tri_pairs[j],
                tailed_noninduced=tailed[j],
                paths_noninduced=paths[j],
                m33=n * m - endpoint_sum[j],
            )
        )
    return primitives, vertex_tri


def _validate(counts: MotifCounts, n: int) -> None:
    """Internal consistency checks: counts are non-negative and every
    k-subset of vertices is classified exactly once."""
    values = _field_values(counts)
    if min(values) < 0:
        key, value = next((k, v) for k, v in zip(_FIELDS, values) if v < 0)
        raise AssertionError(f"negative motif count {key}={value}")
    lo, hi = _SIZE_SPANS[3]
    if sum(values[lo:hi]) != comb(n, 3):
        raise AssertionError("size-3 motif counts do not partition all 3-sets")
    lo, hi = _SIZE_SPANS[4]
    if sum(values[lo:hi]) != comb(n, 4):
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
