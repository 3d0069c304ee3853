"""Delta-maintained graph metrics for the streaming tier.

The batch metric layer (:mod:`repro.graph.metrics`,
:mod:`repro.graph.motifs`, :mod:`repro.graph.extended_metrics`) is a set
of stateless functions over a finished graph.  On a stride-1 sliding
window those functions dominate the online tick: the window graph is
maintained incrementally (:mod:`repro.graph.incremental`), but every
globally-coupled metric was recomputed from scratch per tick.

This module re-expresses those metrics as **states** fed by the edge
delta stream the sliding structures emit:

* :class:`GraphDelta` — one vertex-level event (``add`` with the edges
  the new point created, ``remove`` with the edges the evicted point
  owned, ``load`` with the batch-built graph of a window filled in one
  step, or ``clear``).
* :class:`MetricState` — the two-method protocol every state implements:
  ``apply(delta)`` folds one event into O(degree)-local accumulators
  (a ``load`` sets them from the batch primitives of the whole graph,
  exactly the values the equivalent ``add`` sequence would leave),
  ``value()`` derives the metric through the *same* final reduction the
  batch function uses.  Integer metrics are therefore exactly equal and
  derived floats bit-identical to batch, by construction — property
  tested on every prefix and window in
  ``tests/test_incremental_metrics_property.py``.
* :class:`MotifState` — the one edge-delta accumulator: vertex and edge
  counts, degree moments, edge degree products, per-vertex triangle
  counts and the codegree and edge-triangle pair sums.  Motif counts,
  density, assortativity, transitivity and clustering all derive from
  it.
* :class:`KCoreState` — the degeneracy of a VG (see below).
* :class:`IncrementalMetricBank` — per-graph bundle of one motif
  accumulator plus a VG k-core state.  It subscribes to a
  :class:`~repro.graph.incremental.SlidingVisibilityGraph` and exposes
  drop-in replacements for :func:`~repro.graph.metrics.graph_statistics`,
  :func:`~repro.graph.motifs.count_motifs` and
  :func:`~repro.graph.extended_metrics.extended_graph_statistics`.

Cost model per tick (one evict + one push): every accumulator update is
local to the changed vertex's neighbourhood — O(degree) set/dict work
for the degree moments and per-vertex triangles, one set intersection
per neighbour for the codegree and edge-triangle sums (read off the
adjacency sets, so no per-pair or per-edge table is kept), O(degree^2)
for the 4-clique increments — versus the batch layer's full O(n + m·d)
sweep.
Degeneracy is the one metric without a cheap local delta.  On an HVG it
is a closed form in the vertex/edge counts
(:func:`~repro.graph.metrics.hvg_degeneracy`); on a VG
:class:`KCoreState` keeps the last exact value with two certificates
and re-peels only when one fails.  Spectral metrics (bipartivity,
eigencentrality, closeness) are recomputed from the incrementally
maintained CSR — they are already cheap relative to the old motif
recomputation and stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.graph.extended_metrics import (
    _adjacency_matrix,
    average_clustering_from_counts,
    bipartivity,
    closeness_centrality_stats,
    degree_entropy_from_degrees,
    degree_variance_from_degrees,
    eigenvector_centrality_stats,
    transitivity_from_counts,
)
from repro.graph.fast import CSRGraph, as_union
from repro.graph.metrics import (
    assortativity_from_sums,
    degeneracy,
    degree_statistics_from_degrees,
    density_from_counts,
    hvg_degeneracy,
)
from repro.graph.motifs import (
    MotifCounts,
    MotifPrimitives,
    _count_block,
    motifs_from_primitives,
)

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class GraphDelta:
    """One vertex-level change to a sliding window graph.

    ``op`` is ``"add"`` (``vertex`` entered with edges to ``neighbors``),
    ``"remove"`` (``vertex`` left, destroying its edges to ``neighbors``
    — the sliding structures evict the oldest point, whose surviving
    neighbours are exactly its right-adjacency), ``"load"`` (an empty
    window filled in one step: ``graph`` is the whole window graph, its
    local vertex ``i`` the global vertex ``vertex + i``), or ``"clear"``
    (window reset; ``vertex``/``neighbors`` are meaningless).  Vertex
    ids are the sliding structures' *global* indices: they never repeat,
    so states may key dictionaries by them without collision.
    """

    op: str
    vertex: int
    neighbors: np.ndarray
    graph: CSRGraph | None = None


#: A ``clear`` event, shared (the payload carries no information).
CLEAR_DELTA = GraphDelta("clear", -1, _EMPTY)


class MetricState(Protocol):
    """Protocol for delta-maintained metrics.

    ``apply`` folds one :class:`GraphDelta` into internal accumulators;
    ``value`` derives the current metric.  States must accept any legal
    event sequence (interleaved adds/removes/clears, and a load into an
    empty window) and must keep ``value()`` equal to the corresponding
    batch function applied to the current graph.
    """

    def apply(self, delta: GraphDelta) -> None: ...

    def value(self): ...


def _neighbourhood_sums(
    adj: dict[int, set[int]], au: set[int], aw: set[int]
) -> tuple[int, int]:
    """What an edge ``(u, w)`` adds to the edge degree-product and
    codegree-pair sums, read with the edge absent (``au``/``aw`` are the
    endpoints' neighbour sets).

    Every edge at ``u`` (resp. ``w``) has its ``u``-side degree raised by
    one: the first sum is the neighbours' degrees.  ``u`` becomes a new
    common neighbour of ``(w, x)`` for every neighbour ``x`` of ``u``,
    and symmetrically, and ``C(c + 1, 2) - C(c, 2) = c``: the second sum
    is those pairs' codegrees.
    """
    degrees = paired = 0
    for x in au:  # repro: allow[determinism] exact integer sum, order-free
        ax = adj[x]
        degrees += len(ax)
        paired += len(aw & ax)
    for y in aw:  # repro: allow[determinism] exact integer sum, order-free
        ay = adj[y]
        degrees += len(ay)
        paired += len(au & ay)
    return degrees, paired


def _cliques_through(adj: dict[int, set[int]], common: list[int]) -> int:
    """4-cliques through an edge whose endpoints share the ascending
    neighbours ``common``: its adjacent pairs, enumerated exactly as the
    batch counter does per edge."""
    k4 = 0
    for idx, c in enumerate(common):
        ac = adj[c]
        for c2 in common[idx + 1 :]:
            if c2 in ac:
                k4 += 1
    return k4


class MotifState:
    """All motif primitives of :class:`~repro.graph.motifs.MotifPrimitives`
    as running accumulators under single-edge updates.

    Per edge ``(u, w)`` the update is neighbourhood-local: degree-moment
    deltas are closed forms in the endpoint degrees.  Only pairs through
    ``u`` or ``w`` change codegree, by one each, so the 4-cycle sum
    ``sum C(codeg, 2)`` moves by ``sum_{x in N(u)} |N(w) & N(x)|`` plus
    the symmetric term.  Only edges to the common neighbourhood
    ``N(u) & N(w)`` change triangle count, so ``sum_e C(tri_e, 2)``
    moves by ``C(t, 2)`` for the edge itself plus ``|N(u) & N(c)| +
    |N(w) & N(c)|`` per common neighbour ``c``.  Every codegree and edge
    triangle count is a set intersection of the kept adjacency, read
    with the edge absent (before an add, after a remove), so no per-pair
    or per-edge table is stored.  The per-vertex triangles ``tri_v`` are
    kept, and the common neighbourhood also yields the new 4-cliques by
    direct enumeration, exactly as the batch counter does per edge;
    ``horizontal`` declares the graph an HVG, which has no 4-clique (see
    :func:`~repro.graph.metrics.hvg_degeneracy`), and skips that loop.
    ``value()`` hands the primitives to
    :func:`~repro.graph.motifs.motifs_from_primitives`, the identical
    closed-form derivation the batch path uses, so equal primitives give
    equal counts in exact integers (and
    :func:`~repro.graph.motifs._validate`'s partition checks run on
    every call as a safety net).

    A ``load`` delta fills an empty state from the batch counter's
    primitives of the whole graph (:func:`~repro.graph.motifs._count_block`)
    instead of one edge at a time; the running sums are the primitives
    before their closed-form offsets, so every accumulator, the
    adjacency sets and ``tri_v`` end equal to an edge-by-edge fill.
    """

    __slots__ = (
        "_horizontal",
        "_adj",
        "_tri_v",
        "_n",
        "_m",
        "_t",
        "_w",
        "_deg_c3",
        "_e_prod",
        "_td",
        "_paired",
        "_tri_pair",
        "_k4",
    )

    def __init__(self, *, horizontal: bool = False) -> None:
        self._horizontal = horizontal
        self._reset()

    def _reset(self) -> None:
        self._adj: dict[int, set[int]] = {}
        #: Triangles through each vertex (absent == 0).
        self._tri_v: dict[int, int] = {}
        self._n = 0
        self._m = 0
        self._t = 0  # triangles
        self._w = 0  # sum_v C(deg_v, 2)
        self._deg_c3 = 0  # sum_v C(deg_v, 3)
        self._e_prod = 0  # sum_e deg_u * deg_v
        self._td = 0  # sum_v tri_v * deg_v
        self._paired = 0  # sum_pairs C(codeg, 2)  (== 2 * non-induced C4)
        self._tri_pair = 0  # sum_e C(tri_e, 2)
        self._k4 = 0

    def apply(self, delta: GraphDelta) -> None:
        if delta.op == "add":
            v = delta.vertex
            self._adj[v] = set()
            self._n += 1
            for nb in delta.neighbors.tolist():
                self._add_edge(v, nb)
        elif delta.op == "remove":
            v = delta.vertex
            for nb in delta.neighbors.tolist():
                self._remove_edge(v, nb)
            del self._adj[v]
            self._tri_v.pop(v, None)
            self._n -= 1
        elif delta.op == "load":
            self._load(delta.vertex, delta.graph)
        else:
            self._reset()

    def _load(self, lo: int, graph: CSRGraph) -> None:
        """Replace every accumulator by the batch primitives of ``graph``,
        whose local vertex ``i`` is the global vertex ``lo + i``."""
        (p,), vertex_tri = _count_block(as_union(graph), self._horizontal)
        n = graph.n_vertices
        indptr = graph.indptr.tolist()
        flat = (graph.indices + lo).tolist()
        self._adj = {lo + v: set(flat[indptr[v] : indptr[v + 1]]) for v in range(n)}
        self._tri_v = {
            lo + v: t for v, t in enumerate(vertex_tri.tolist()) if t
        }
        t, m, w = p.triangles, p.m, p.wedges_noninduced
        self._n, self._m, self._t, self._w = n, m, t, w
        self._deg_c3 = p.degree_choose3
        self._k4 = p.k4
        self._tri_pair = p.tri_pair_sum
        # The inverses of the offsets primitives() applies.
        d2 = 2 * w + 2 * m
        self._paired = 2 * p.cycles_noninduced
        self._td = p.tailed_noninduced + 6 * t
        self._e_prod = p.paths_noninduced + d2 - m + 3 * t

    def _add_edge(self, u: int, w: int) -> None:
        adj = self._adj
        au, aw = adj[u], adj[w]
        du, dw = len(au), len(aw)
        tv = self._tri_v
        # Degree moments: deg(u): du -> du + 1, deg(w): dw -> dw + 1.
        self._w += du + dw
        self._deg_c3 += du * (du - 1) // 2 + dw * (dw - 1) // 2
        # The new edge contributes its own endpoint product.
        s, paired = _neighbourhood_sums(adj, au, aw)
        self._e_prod += s + (du + 1) * (dw + 1)
        self._paired += paired
        # tri_v * deg: the endpoint degrees rose with tri_v unchanged so far.
        self._td += tv.get(u, 0) + tv.get(w, 0)
        # Triangles closed by the new edge: one per common neighbour.
        common = au & aw
        t = len(common)
        if t:
            self._t += t
            # The new edge carries t triangles; each edge (u, c) and
            # (w, c) gains one on top of its codegree before the edge.
            tri_pair = t * (t - 1) // 2
            clist = sorted(common)
            for c in clist:
                ac = adj[c]
                tri_pair += len(au & ac) + len(aw & ac)
                tv[c] = tv.get(c, 0) + 1
                self._td += len(ac)
            self._tri_pair += tri_pair
            if not self._horizontal:
                # New 4-cliques {u, w, c, c2}.
                self._k4 += _cliques_through(adj, clist)
            tv[u] = tv.get(u, 0) + t
            tv[w] = tv.get(w, 0) + t
            self._td += t * (du + 1) + t * (dw + 1)
        au.add(w)
        aw.add(u)
        self._m += 1

    def _remove_edge(self, u: int, w: int) -> None:
        # Exact mirror of _add_edge: after detaching the edge, the local
        # degrees and codegrees equal the pre-add values, so every delta
        # negates.
        adj = self._adj
        au, aw = adj[u], adj[w]
        au.discard(w)
        aw.discard(u)
        self._m -= 1
        du, dw = len(au), len(aw)
        tv = self._tri_v
        common = au & aw
        t = len(common)
        if t:
            self._t -= t
            tri_pair = t * (t - 1) // 2
            clist = sorted(common)
            for c in clist:
                ac = adj[c]
                tri_pair += len(au & ac) + len(aw & ac)
                nv = tv[c] - 1
                if nv:
                    tv[c] = nv
                else:
                    del tv[c]
                self._td -= len(ac)
            self._tri_pair -= tri_pair
            if not self._horizontal:
                self._k4 -= _cliques_through(adj, clist)
            for v in (u, w):
                nv = tv[v] - t
                if nv:
                    tv[v] = nv
                else:
                    del tv[v]
            self._td -= t * (du + 1) + t * (dw + 1)
        s, paired = _neighbourhood_sums(adj, au, aw)
        self._w -= du + dw
        self._deg_c3 -= du * (du - 1) // 2 + dw * (dw - 1) // 2
        self._e_prod -= s + (du + 1) * (dw + 1)
        self._paired -= paired
        self._td -= tv.get(u, 0) + tv.get(w, 0)

    def primitives(self) -> MotifPrimitives:
        """Current aggregates in the batch layer's primitive vocabulary."""
        d2 = 2 * self._w + 2 * self._m  # sum deg^2 == 2 sum C(deg, 2) + 2m
        return MotifPrimitives(
            n=self._n,
            m=self._m,
            triangles=self._t,
            wedges_noninduced=self._w,
            degree_choose3=self._deg_c3,
            k4=self._k4,
            cycles_noninduced=self._paired // 2,
            tri_pair_sum=self._tri_pair,
            tailed_noninduced=self._td - 6 * self._t,
            paths_noninduced=self._e_prod - d2 + self._m - 3 * self._t,
            m33=self._n * self._m - d2 + 3 * self._t,
        )

    def assortativity(self) -> float:
        """Degree assortativity through the batch reduction
        :func:`~repro.graph.metrics.assortativity_from_sums`.  Its degree
        square and cube sums follow from ``deg^2 == 2 C(deg, 2) + deg``
        and ``deg^3 == 6 C(deg, 3) + 6 C(deg, 2) + deg``, so every input
        is an exact integer and the float is bit-identical."""
        m, w = self._m, self._w
        d2 = 2 * w + 2 * m
        d3 = 6 * self._deg_c3 + 6 * w + 2 * m
        return assortativity_from_sums(m, d2, d3, self._e_prod)

    def value(self) -> MotifCounts:
        return motifs_from_primitives(self.primitives())

    def triangle_edge_sum(self) -> int:
        """Sum over edges of endpoint co-degrees (three per triangle) —
        the transitivity numerator the batch path accumulates."""
        return 3 * self._t

    def wedge_sum(self) -> int:
        """``sum_v C(deg_v, 2)`` — the transitivity denominator."""
        return self._w

    def local_triangles(self, lo: int, hi: int) -> np.ndarray:
        """Per-vertex triangle counts for global vertices ``lo..hi-1``,
        in window order (the batch ``average_clustering`` link counts)."""
        tv = self._tri_v
        return np.fromiter(
            (tv.get(g, 0) for g in range(lo, hi)), dtype=np.int64, count=hi - lo
        )


def _kcore(csr: CSRGraph, degrees: np.ndarray, k: int) -> np.ndarray | None:
    """Vertex mask of the non-empty ``k``-core (iterative vectorized
    peeling), or ``None`` when none survives."""
    deg = degrees.astype(np.int64, copy=True)
    alive = np.ones(deg.size, dtype=bool)
    kill = deg < k
    while kill.any():
        alive &= ~kill
        if not alive.any():
            return None
        nbrs = csr.concatenated_rows(np.nonzero(kill)[0])
        if nbrs.size:
            deg -= np.bincount(nbrs, minlength=deg.size)
        kill = alive & (deg < k)
    return alive if alive.any() else None


class KCoreState:
    """Exact degeneracy kept by two certificates, peeling only when one
    fails.  A push only adds edges (at the new vertex) and an eviction
    only removes the oldest vertex, so with ``k`` the last exact value:

    * the ``k``-core the last peel found keeps minimum degree ``>= k``
      until the eviction front reaches its oldest vertex; only then is
      ``k`` re-certified by a peel, lowering it while no core survives;
    * a new ``(k + 1)``-core must contain a vertex pushed since, and the
      last such push created all that vertex's core edges, so ``k + 1``
      is peel-tested only after a push created ``>= k + 1`` edges.

    A tick needing no peel does not even render the CSR.  The first
    value (and the first after a clear or a load) is the batch
    :func:`~repro.graph.metrics.degeneracy`.
    """

    __slots__ = ("_csr_provider", "_k", "_first", "_evicted", "_grown")

    def __init__(self, csr_provider: Callable[[], CSRGraph]) -> None:
        self._csr_provider = csr_provider
        self._reset()

    def _reset(self) -> None:
        self._k: int | None = None
        #: Window position of the witness core's oldest vertex when it
        #: was found, and the evictions since.
        self._first = 0
        self._evicted = 0
        #: Most edges one push created since the last value.
        self._grown = 0

    def apply(self, delta: GraphDelta) -> None:
        if delta.op == "add":
            self._grown = max(self._grown, delta.neighbors.size)
        elif delta.op == "remove":
            self._evicted += 1
        else:  # clear, or load into an empty window: peel afresh
            self._reset()

    def value(self) -> int:
        grown, self._grown = self._grown, 0
        k = self._k
        broken = k is not None and k > 0 and self._evicted > self._first
        if k is not None and not broken and grown <= k:
            return k
        csr = self._csr_provider()
        degrees = csr.degrees()
        core = None
        if k is None:
            k = degeneracy(csr)
            core = _kcore(csr, degrees, k) if k else None
        else:
            if broken:
                core = _kcore(csr, degrees, k)
                while core is None and k > 0:
                    k -= 1
                    core = _kcore(csr, degrees, k) if k else None
            while grown > k:
                mask = _kcore(csr, degrees, k + 1)
                if mask is None:
                    break
                k, core = k + 1, mask
        if core is not None:
            self._first, self._evicted = int(np.argmax(core)), 0
        self._k = k
        return k


class IncrementalMetricBank:
    """Per-graph bundle of delta-maintained metric states: one motif
    accumulator plus a VG k-core state.

    Subscribes to one :class:`~repro.graph.incremental.SlidingVisibilityGraph`
    and mirrors the batch feature functions: :meth:`statistics` ==
    ``graph_statistics(g)``, :meth:`motifs` == ``count_motifs(g)``,
    :meth:`extended` == ``extended_graph_statistics(g)`` for the current
    window graph ``g`` — integers exactly, derived floats bit for bit.
    Density, assortativity, transitivity and clustering derive from the
    :class:`MotifState` counts and sums, the degree statistics from the
    sliding graph's degree array.  An HVG's degeneracy is a closed form
    in the vertex and edge counts, so only a VG bank keeps a
    :class:`KCoreState`.
    """

    __slots__ = ("_svg", "_states", "motif_state", "_kcore", "phase_clock")

    def __init__(self, svg, *, phase_clock=None) -> None:
        self._svg = svg
        self.motif_state = MotifState(horizontal=svg.kind == "hvg")
        self._states: list[MetricState] = [self.motif_state]
        self._kcore: KCoreState | None = None
        if svg.kind != "hvg":
            self._kcore = KCoreState(svg.csr)
            self._states.append(self._kcore)
        self.phase_clock = phase_clock
        svg.subscribe(self.apply)

    def apply(self, delta: GraphDelta) -> None:
        clock = self.phase_clock
        if clock is None:
            for state in self._states:
                state.apply(delta)
            return
        start = clock.now()
        for state in self._states:
            state.apply(delta)
        clock.add(clock.now() - start)

    def statistics(self) -> dict[str, float]:
        """Drop-in for ``graph_statistics(window_graph)``."""
        motif = self.motif_state
        degrees = self._svg.degree_array()
        d_max, d_min, d_mean = degree_statistics_from_degrees(degrees)
        kcore = (
            hvg_degeneracy(motif._n, motif._m)
            if self._kcore is None
            else self._kcore.value()
        )
        return {
            "density": density_from_counts(motif._n, motif._m),
            "kcore": float(kcore),
            "assortativity": motif.assortativity(),
            "degree_max": d_max,
            "degree_min": d_min,
            "degree_mean": d_mean,
        }

    def motifs(self) -> MotifCounts:
        """Drop-in for ``count_motifs(window_graph)``."""
        return self.motif_state.value()

    def extended(self) -> dict[str, float]:
        """Drop-in for ``extended_graph_statistics(window_graph)``.

        Entropy, variance, transitivity and average clustering derive
        from the maintained degree array and triangle tables through the
        shared batch reductions; the spectral and BFS metrics are
        recomputed from the incrementally maintained CSR (identical to
        the batch graph, so the floats agree bit for bit).
        """
        svg = self._svg
        motif = self.motif_state
        degrees = svg.degree_array()
        graph = svg.csr()
        adjacency = _adjacency_matrix(graph) if graph.n_edges else None
        ev_max, ev_mean, ev_std = eigenvector_centrality_stats(
            graph, adjacency=adjacency
        )
        close_mean, close_max = closeness_centrality_stats(graph)
        lo = svg._lo
        return {
            "DegEntropy": degree_entropy_from_degrees(degrees),
            "DegVariance": degree_variance_from_degrees(degrees),
            "Bipartivity": bipartivity(graph, adjacency=adjacency),
            "EigCentMax": ev_max,
            "EigCentMean": ev_mean,
            "EigCentStd": ev_std,
            "CloseMean": close_mean,
            "CloseMax": close_max,
            "Transitivity": transitivity_from_counts(
                motif.triangle_edge_sum(), motif.wedge_sum()
            ),
            "AvgClustering": average_clustering_from_counts(
                motif.local_triangles(lo, lo + len(degrees)), degrees
            ),
        }
