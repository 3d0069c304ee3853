"""Cheap statistical graph features (Section 2.2 of the paper).

Everything here is intentionally O(|V|) or O(|E|):

* density — Equation 2;
* degeneracy (maximal K such that a K-core exists) — Batagelj–Zaversnik
  bucket algorithm, Equation 3;
* degree assortativity — Pearson correlation of degrees across edges,
  Equation 4 (Newman's formulation);
* degree statistics — max / min / mean degree.

All run on :class:`~repro.graph.fast.CSRGraph` arrays (a set ``Graph`` is
converted once at entry); HVGs skip the peel (:func:`hvg_degeneracy`).
Given a :class:`~repro.graph.fast.CSRUnion`, :func:`degeneracy` and
:func:`graph_statistics` return one result per member from one pass over
the union; any other graph is a one-member union.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.fast import CSRGraph, CSRUnion, as_csr, as_union, segment_sums

#: Keys of :func:`graph_statistics`, in feature order.
STAT_KEYS = (
    "density",
    "kcore",
    "assortativity",
    "degree_max",
    "degree_min",
    "degree_mean",
)


def density_from_counts(n: int, m: int) -> float:
    """Edge density from vertex/edge counts — the shared final reduction
    of the batch and delta-maintained paths."""
    if n < 2:
        return 0.0
    return 2.0 * m / (n * (n - 1))


def density(graph: Graph | CSRGraph) -> float:
    """Edge density ``2|E| / (|V| (|V|-1))``; 0 for graphs with < 2 vertices."""
    return density_from_counts(graph.n_vertices, graph.n_edges)


def degeneracy(graph: Graph | CSRGraph) -> int | list[int]:
    """Largest K for which ``graph`` has a non-empty K-core.

    O(|V| + |E|) bucket-queue peel over the CSR rows in plain Python
    lists: repeatedly remove a minimum-degree vertex; the running maximum
    of the degrees seen at removal time is the core number of the
    removed vertex.  A vertex is re-queued in its new bucket when its
    degree drops, and stale entries are skipped.

    A :class:`CSRUnion` is peeled once as a whole: core numbers are
    per connected component, so each member's degeneracy is the largest
    core number among its vertices, returned as a list.  Any other graph
    is a one-member union and returns its degeneracy.
    """
    union = as_union(graph)
    n = union.n_vertices
    core = [0] * n
    if n:
        indptr, indices = union.indptr.tolist(), union.indices.tolist()
        # A removed vertex has degree -1, so it never matches a bucket
        # again and is never decremented.
        degree = union.degrees().tolist()
        buckets: list[list[int]] = [[] for _ in range(max(degree) + 1)]
        for v, d in enumerate(degree):
            buckets[d].append(v)
        best = d = 0
        for _ in range(n):
            while True:
                bucket = buckets[d]
                if bucket:
                    v = bucket.pop()
                    if degree[v] == d:
                        break
                else:
                    d += 1
            degree[v] = -1
            if d > best:
                best = d
            core[v] = best
            for u in indices[indptr[v] : indptr[v + 1]]:
                du = degree[u]
                if du > 0:
                    degree[u] = du - 1
                    buckets[du - 1].append(u)
            # Removing v lowers each neighbour's degree by one at most.
            if d:
                d -= 1
    bounds = union.bounds.tolist()
    result = [max(core[lo:hi], default=0) for lo, hi in zip(bounds, bounds[1:])]
    return result if isinstance(graph, CSRUnion) else result[0]


def hvg_degeneracy(n: int, m: int) -> int:
    """Degeneracy of a horizontal visibility graph with ``n`` vertices
    and ``m`` edges: ``0`` if ``m == 0``, ``1`` if ``m == n - 1``, else
    ``2``.  The same argument shows an HVG has no 4-clique (``m41 == 0``).

    Proof.  Consecutive points always see each other, so the HVG
    contains the path ``0-1-...-(n-1)`` and is connected.  Draw the
    vertices on a line in time order and every edge as an arc above it.
    Two arcs ``(a, c)`` and ``(b, d)`` with ``a < b < c < d`` would need
    ``x_b < min(x_a, x_c) <= x_c`` (``b`` lies under ``(a, c)``) and
    ``x_c < min(x_b, x_d) <= x_b`` (``c`` lies under ``(b, d)``) at once,
    so no two arcs cross and every vertex lies on the outer face: an HVG
    is outerplanar.  Every subgraph of an outerplanar graph is
    outerplanar and has a vertex of degree at most 2, so the degeneracy
    is at most 2, and ``K4`` is not outerplanar.  A connected graph with
    no edges has at most one vertex (degeneracy 0); with ``n - 1`` edges
    it is a tree (degeneracy 1); with more it contains a cycle, whose
    2-core is non-empty (degeneracy 2).
    """
    if m == 0:
        return 0
    return 1 if m == n - 1 else 2


def assortativity_from_sums(m: int, d2: int, d3: int, e_prod: int) -> float:
    """Degree assortativity from exact integer moment sums.

    With ``x``/``y`` the degrees at either end of each edge (both
    orientations), Newman's ``cov(x, y) / (std(x) std(y))`` reduces over
    the ``2m`` orientations to an exact rational: ``sum x = d2``
    (``sum_v deg_v^2``), ``sum x^2 = d3``, ``sum x*y = 2 * e_prod``
    (``e_prod = sum_e deg_u deg_v``), and since ``x`` and ``y`` hold the
    same multiset, ``std(x) std(y) == var(x)``.  Clearing the common
    ``4 m^2`` denominator gives

        r = (4 m e_prod - d2^2) / (2 m d3 - d2^2)

    computed in arbitrary-precision integers with one final float
    division — the shared reduction of the batch and delta-maintained
    paths, so their results are bit-identical by construction (and
    independent of edge order, which the previous array reduction only
    approximated via a canonical sort).  Degenerate graphs (no edges,
    or all degrees equal so the variance vanishes) return 0.0.
    """
    if m == 0:
        return 0.0
    num = 4 * m * e_prod - d2 * d2
    den = 2 * m * d3 - d2 * d2
    if den == 0:
        return 0.0
    return float(num) / float(den)


def assortativity_coefficient(graph: Graph | CSRGraph) -> float:
    """Degree assortativity (Pearson correlation over edge endpoints).

    Follows Newman (2003): with ``x_e``/``y_e`` the degrees at either end
    of each edge (each edge contributing both orientations), the
    coefficient is ``cov(x, y) / (std(x) std(y))``.  Degenerate graphs
    (all degrees equal, or no edges) return 0.0, matching the convention
    used when feeding the value to a classifier.

    Reduced through :func:`assortativity_from_sums` on exact integer
    moment sums, so the result is independent of edge iteration order
    and equal, bit for bit, to the streaming tier's delta-maintained
    accumulators.  ``d3`` is accumulated over the degree histogram in
    Python integers (no ``int64`` overflow for any feasible graph size);
    ``e_prod`` sums ``deg_u * deg_v`` over both orientations of every CSR
    entry, then halves.
    """
    csr = as_csr(graph)
    if csr.n_edges == 0:
        return 0.0
    degrees = csr.degrees()
    d2 = int(np.dot(degrees, degrees))
    d3 = sum(c * d**3 for d, c in enumerate(np.bincount(degrees).tolist()) if c)
    e_prod = int(np.dot(np.repeat(degrees, degrees), degrees[csr.indices])) // 2
    return assortativity_from_sums(csr.n_edges, d2, d3, e_prod)


def degree_statistics_from_degrees(degrees: np.ndarray) -> tuple[float, float, float]:
    """``(max, min, mean)`` of a degree array — the shared final
    reduction of the batch and delta-maintained paths (the streaming
    tier feeds it the incrementally maintained window degree array)."""
    if degrees.size == 0:
        return (0.0, 0.0, 0.0)
    return (float(degrees.max()), float(degrees.min()), float(degrees.mean()))


def degree_statistics(graph: Graph | CSRGraph) -> tuple[float, float, float]:
    """``(max, min, mean)`` vertex degree; zeros for the empty graph."""
    return degree_statistics_from_degrees(graph.degrees())


def graph_statistics(
    graph: Graph | CSRGraph, *, horizontal: bool = False
) -> dict[str, float] | list[tuple[float, ...]]:
    """All non-motif statistical features used by the paper, by name.

    ``horizontal`` declares ``graph`` a horizontal visibility graph, whose
    k-core comes from :func:`hvg_degeneracy` instead of a peel.

    A :class:`CSRUnion` yields one tuple per member, its values in
    :data:`STAT_KEYS` order.  The integer inputs of every member (vertex
    and edge counts, degree moments) are exact segment sums over the
    union, and the float finals run per member through the same
    reductions as for a single graph (:func:`density_from_counts`,
    :func:`assortativity_from_sums`,
    :func:`degree_statistics_from_degrees`).  Any other graph is a
    one-member union and yields a dict keyed by :data:`STAT_KEYS`.
    """
    union = as_union(graph)
    bounds = union.bounds
    degrees = union.degrees()
    entry_bounds = union.indptr[bounds]
    sizes = np.diff(bounds).tolist()
    edges = (np.diff(entry_bounds) // 2).tolist()
    if horizontal:
        kcores = [hvg_degeneracy(n, m) for n, m in zip(sizes, edges)]
    else:
        kcores = degeneracy(union)
    # Degree moments: int64 unless sum_v deg_v^3 (which also bounds
    # sum_e deg_u deg_v) could overflow it, then exact Python ints.
    max_degree = int(degrees.max()) if degrees.size else 0
    exact = degrees if max_degree**3 * union.n_vertices < 2**63 else degrees.astype(object)
    d2, d3 = segment_sums(np.stack([exact * exact, exact * exact * exact]), bounds).tolist()
    e_prod = segment_sums(
        np.repeat(exact, degrees) * exact[union.indices], entry_bounds
    ).tolist()
    rows = []
    bound_list = bounds.tolist()
    for j, (n, m) in enumerate(zip(sizes, edges)):
        rows.append(
            (
                density_from_counts(n, m),
                float(kcores[j]),
                assortativity_from_sums(m, d2[j], d3[j], e_prod[j] // 2),
                *degree_statistics_from_degrees(degrees[bound_list[j] : bound_list[j + 1]]),
            )
        )
    return rows if isinstance(graph, CSRUnion) else dict(zip(STAT_KEYS, rows[0]))
