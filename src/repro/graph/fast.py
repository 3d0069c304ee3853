"""Visibility-graph construction on array-backed graphs.

The reference builders in :mod:`repro.graph.visibility` are pure Python
and pay per-edge ``set`` bookkeeping through :class:`Graph.add_edge`;
they are test oracles only.  This module holds the graph type and the
builders every program path runs on:

* :class:`CSRGraph` — an immutable CSR-style (``indptr``/``indices``)
  graph representation assembled from edge arrays with vectorized NumPy
  (no per-edge Python work); every batch metric runs on it;
* :class:`CSRUnion` — the disjoint union of several CSR graphs, each
  member owning a contiguous vertex range, so one vectorized metric pass
  yields every member's integers as exact segment sums
  (:func:`segment_sums`); a plain graph is a one-member union
  (:func:`as_union`);
* :func:`hvg_edge_array` — the O(n) HVG stack algorithm run over plain
  arrays, collecting edges into flat buffers instead of adjacency sets;
* :func:`vg_edge_array` — natural-VG divide and conquer driven by a
  Cartesian max-tree built in one O(n) stack pass (no per-interval
  ``argmax``), with the per-pivot max-slope sweeps vectorized through
  ``np.maximum.accumulate`` once an interval is large enough to amortise
  the NumPy call overhead;
* :func:`fast_visibility_graph_csr` / :func:`fast_horizontal_visibility_graph_csr`
  — single-graph builders, graph-identical to the reference builders
  (property-tested in ``tests/test_fast_graph_property.py``);
* :func:`visibility_graphs` — the combined per-series builder producing
  the VG and HVG of one series from a single shared Cartesian-tree pass
  (the HVG edges *are* the tree-construction pops/links);
* :func:`visibility_graphs_batch` — batched construction over a
  ``(n_series, n)`` array.

The Cartesian-tree trick: the pivot recursion of
:func:`repro.graph.visibility.visibility_graph_dc` repeatedly takes the
argmax of an interval; those argmaxes are exactly the nodes of the
Cartesian max-tree, which one monotone-stack pass builds in O(n).  The
same pass pops/links are exactly the HVG edges, so VG and HVG of one
series share it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.adjacency import Graph

#: Pivot sweeps shorter than this run as plain Python loops; longer ones
#: are vectorized.  Crossover measured on the micro benchmark (NumPy call
#: overhead beats a ~50-iteration interpreter loop).
_VECTOR_SWEEP_MIN = 48

_EMPTY_EDGES = np.empty((0, 2), dtype=np.int64)


def _as_float_array(series: Sequence[float]) -> np.ndarray:
    values = np.asarray(series, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"time series must be 1-dimensional, got shape {values.shape}")
    if values.size and not np.all(np.isfinite(values)):
        raise ValueError("time series contains NaN or infinite values")
    return values


class CSRGraph:
    """Immutable undirected graph in CSR (compressed sparse row) form.

    Parameters
    ----------
    n_vertices:
        Number of vertices (``0..n_vertices-1``).
    indptr:
        ``(n_vertices + 1,)`` int64 row pointers.
    indices:
        ``(2 * n_edges,)`` int64 neighbour lists, row ``u`` occupying
        ``indices[indptr[u]:indptr[u + 1]]`` in ascending order.

    Use :meth:`from_edge_array` / :meth:`from_graph` instead of the raw
    constructor; both sort and deduplicate-check vectorized.
    """

    __slots__ = ("indptr", "indices", "_n_edges", "_hash")

    def __init__(self, n_vertices: int, indptr: np.ndarray, indices: np.ndarray):
        if indptr.shape != (n_vertices + 1,):
            raise ValueError(
                f"indptr must have shape ({n_vertices + 1},), got {indptr.shape}"
            )
        self.indptr = indptr
        self.indices = indices
        self._n_edges = indices.size // 2
        self._hash: int | None = None

    # -- construction -----------------------------------------------------
    @classmethod
    def from_edge_array(cls, n_vertices: int, edges: np.ndarray) -> "CSRGraph":
        """Build from an ``(m, 2)`` array of undirected edges.

        Edges may be in either orientation but must be distinct and free
        of self loops (guaranteed by the visibility builders; checked
        vectorized here since this constructor is exported API).
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            return cls(
                n_vertices,
                np.zeros(n_vertices + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self loops are not allowed")
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        if src.min() < 0 or src.max() >= n_vertices:
            raise IndexError(f"edge endpoint out of range for n={n_vertices}")
        # Sort once on the fused (row, column) key: cheaper than a two-key
        # lexsort and yields ascending neighbours within each row.
        keys = src * np.int64(n_vertices) + dst
        order = np.argsort(keys)
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edges are not allowed")
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n_vertices), out=indptr[1:])
        return cls(n_vertices, indptr, dst[order])

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Convert an adjacency-set :class:`Graph`."""
        return cls.from_edge_array(graph.n_vertices, graph.edge_array())

    # -- basic queries ----------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return self.indptr.size - 1

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self._n_edges

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an ``int64`` array."""
        return np.diff(self.indptr)

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbour array of ``u`` (a view; do not mutate)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def concatenated_rows(self, vs: np.ndarray) -> np.ndarray:
        """Neighbour rows of the vertices ``vs``, concatenated in order
        (vectorized gather)."""
        starts = self.indptr[vs]
        lens = self.indptr[vs + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        shift = np.cumsum(lens) - lens
        offsets = np.arange(total, dtype=np.int64) - np.repeat(shift, lens)
        return self.indices[np.repeat(starts, lens) + offsets]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists (binary search)."""
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.size and int(row[pos]) == v

    def adjacency(self, u: int) -> np.ndarray:
        """Neighbours of ``u`` — :class:`Graph`-compatible spelling.

        Returns the sorted CSR row (a view) instead of a set, so
        membership tests on it are O(degree) scans.  The batch metrics
        never call it: they work on ``indptr``/``indices`` directly.
        """
        return self.neighbors(u)

    def edges(self):
        """Iterate edges as ``(u, v)`` int tuples with ``u < v``."""
        return map(tuple, self.edge_array().tolist())

    def edge_array(self) -> np.ndarray:
        """Edges as an ``(m, 2)`` array with ``u < v`` per row."""
        src = np.repeat(np.arange(self.n_vertices, dtype=np.int64), self.degrees())
        keep = src < self.indices
        return np.column_stack([src[keep], self.indices[keep]])

    # -- interop ----------------------------------------------------------
    def to_graph(self) -> Graph:
        """Convert to an adjacency-set :class:`Graph` in bulk (for
        cross-checking against the reference oracles).

        Builds each adjacency set straight from the CSR row (Python ints,
        matching what :meth:`Graph.add_edge` would have stored) without
        the per-edge membership/range checks.
        """
        n = self.n_vertices
        graph = Graph(n)
        indptr = self.indptr.tolist()
        flat = self.indices.tolist()
        adj = graph._adj
        for u in range(n):
            adj[u] = set(flat[indptr[u] : indptr[u + 1]])
        graph._n_edges = self._n_edges
        return graph

    # -- dunder -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        # Content hash (cached): the class is documented immutable, and
        # structural __eq__ requires equal objects to hash equally.
        if self._hash is None:
            self._hash = hash(
                (self.indptr.size, self.indptr.tobytes(), self.indices.tobytes())
            )
        return self._hash

    def __repr__(self) -> str:
        return f"CSRGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def as_csr(graph: Graph | CSRGraph) -> CSRGraph:
    """``graph`` as a :class:`CSRGraph`; a set :class:`Graph` is
    converted once, so metric entry points accept either type."""
    return graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)


class CSRUnion(CSRGraph):
    """Disjoint union of CSR graphs (its *members*) in one CSR.

    Member ``j`` owns the contiguous vertex range
    ``bounds[j]:bounds[j + 1]``; its CSR entries, and its upper-triangle
    edges in row order, are contiguous too.  A per-vertex or per-edge
    integer array over the union therefore reduces to per-member totals
    by exact segment sums (:func:`segment_sums`), which is how the batch
    metrics count every member in one vectorized pass.  Members may be
    empty (``bounds[j] == bounds[j + 1]``).
    """

    __slots__ = ("bounds",)

    def __init__(
        self,
        n_vertices: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        bounds: np.ndarray,
    ):
        super().__init__(n_vertices, indptr, indices)
        if bounds.size < 2 or bounds[0] != 0 or bounds[-1] != n_vertices:
            raise ValueError(f"bounds must run from 0 to {n_vertices}, got {bounds}")
        self.bounds = bounds

    @classmethod
    def single(cls, graph: CSRGraph) -> "CSRUnion":
        """``graph`` as a one-member union (shares its arrays)."""
        n = graph.n_vertices
        return cls(n, graph.indptr, graph.indices, np.array([0, n], dtype=np.int64))

    @classmethod
    def of(cls, graphs: Sequence[CSRGraph]) -> "CSRUnion":
        """The disjoint union of ``graphs``, members in the given order."""
        if len(graphs) == 1:
            return cls.single(graphs[0])
        if not graphs:
            raise ValueError("a union needs at least one member")
        bounds = np.zeros(len(graphs) + 1, dtype=np.int64)
        np.cumsum([g.n_vertices for g in graphs], out=bounds[1:])
        entries = np.cumsum([0] + [g.indices.size for g in graphs])
        indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64)]
            + [g.indptr[1:] + e for g, e in zip(graphs, entries.tolist())]
        )
        indices = np.concatenate(
            [g.indices + v for g, v in zip(graphs, bounds.tolist())]
        )
        return cls(int(bounds[-1]), indptr, indices, bounds)

    @property
    def n_members(self) -> int:
        """Number of member graphs."""
        return self.bounds.size - 1

    def select(self, first: int, stop: int) -> "CSRUnion":
        """The union of members ``first..stop-1`` (a contiguous block;
        the union itself when that is every member)."""
        if first == 0 and stop == self.n_members:
            return self
        lo, hi = int(self.bounds[first]), int(self.bounds[stop])
        start, end = int(self.indptr[lo]), int(self.indptr[hi])
        return CSRUnion(
            hi - lo,
            self.indptr[lo : hi + 1] - start,
            self.indices[start:end] - lo,
            self.bounds[first : stop + 1] - lo,
        )

    def members(self) -> list[CSRGraph]:
        """Every member as a standalone :class:`CSRGraph`."""
        out = []
        for j in range(self.n_members):
            block = self.select(j, j + 1)
            out.append(CSRGraph(block.n_vertices, block.indptr, block.indices))
        return out

    def __repr__(self) -> str:
        return (
            f"CSRUnion(n_members={self.n_members}, n_vertices={self.n_vertices}, "
            f"n_edges={self.n_edges})"
        )


def as_union(graph: Graph | CSRGraph) -> CSRUnion:
    """``graph`` as a :class:`CSRUnion`: a union is returned as is, any
    other graph becomes a one-member union."""
    return graph if isinstance(graph, CSRUnion) else CSRUnion.single(as_csr(graph))


def segment_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sums of ``values[..., bounds[j]:bounds[j + 1]]`` along the last
    axis, one per segment.

    Prefix sums in the array's own dtype, so ``int64`` (or Python-int
    ``object``) inputs sum exactly, and empty segments give 0 (unlike
    ``np.add.reduceat``).
    """
    prefix = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,), dtype=values.dtype)
    np.cumsum(values, axis=-1, out=prefix[..., 1:])
    return prefix[..., bounds[1:]] - prefix[..., bounds[:-1]]


def _cartesian_max_tree(
    values_list: list[float],
) -> tuple[list[int], list[int], int, list[int], list[int]]:
    """One-pass monotone-stack construction of the Cartesian max-tree.

    Returns ``(left, right, root, hvg_u, hvg_v)``: ``left``/``right`` are
    child arrays of the max-tree (the earlier of equal maxima is the
    ancestor, matching ``np.argmax`` first-hit semantics), and
    ``(hvg_u, hvg_v)`` are the HVG edges, which the same pass yields as a
    by-product — every strictly-smaller pop and every stack-top link is
    one HVG edge (cf. ``horizontal_visibility_graph``).

    The two stack disciplines differ only on ties: the Cartesian tree
    must *keep* an equal value on the stack (popping it would orphan the
    true first maximum and corrupt pivot intervals), while the HVG drops
    the earlier of two equal bars because it is occluded for every later
    vertex.  Ties are therefore handled by marking the occluded entry
    instead of popping it: it stays on the stack for tree linkage but no
    longer emits HVG edges.
    """
    n = len(values_list)
    left = [-1] * n
    right = [-1] * n
    hvg_u: list[int] = []
    hvg_v: list[int] = []
    push_u = hvg_u.append
    push_v = hvg_v.append
    stack: list[int] = []
    stack_vals: list[float] = []
    occluded: list[bool] = []
    for j, vj in enumerate(values_list):
        popped = -1
        while stack_vals and stack_vals[-1] < vj:
            popped = stack.pop()
            stack_vals.pop()
            if not occluded.pop():
                push_u(popped)
                push_v(j)
        left[j] = popped
        if stack:
            top = stack[-1]
            right[top] = j
            # An occluded entry is never on top when a link is emitted:
            # its occluding equal sits above it until both are popped
            # together by a strictly larger value.
            push_u(top)
            push_v(j)
            if stack_vals[-1] == vj:
                occluded[-1] = True
        stack.append(j)
        stack_vals.append(vj)
        occluded.append(False)
    root = stack[0] if stack else -1
    return left, right, root, hvg_u, hvg_v


def hvg_edge_array(series: Sequence[float]) -> np.ndarray:
    """HVG edges of ``series`` as an ``(m, 2)`` int64 array.

    Same stack algorithm as the reference builder, but collecting edges
    into flat arrays instead of adjacency sets.
    """
    values = _as_float_array(series)
    _, _, _, hvg_u, hvg_v = _cartesian_max_tree(values.tolist())
    return _edge_array(hvg_u, hvg_v)


def _edge_array(us: list[int], vs: list[int]) -> np.ndarray:
    """``(m, 2)`` int64 edge array from parallel endpoint lists."""
    if not us:
        return _EMPTY_EDGES
    return np.column_stack(
        [np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)]
    )


def _vg_edges_from_tree(
    values: np.ndarray,
    values_list: list[float],
    left: list[int],
    right: list[int],
    root: int,
) -> np.ndarray:
    """All natural-VG edges, given the Cartesian max-tree of the series.

    Walks the tree with an explicit stack; each node is the argmax pivot
    of its subtree interval, connected by two max-slope sweeps.  Long
    sweeps are vectorized (``cummax`` over the slope array); short ones
    stay interpreter loops, which are faster below ``_VECTOR_SWEEP_MIN``.
    """
    n = values.size
    small_u: list[int] = []
    small_v: list[int] = []
    ap_u = small_u.append
    ap_v = small_v.append
    # Sweeps of span 3..(_VECTOR_SWEEP_MIN - 1) are deferred as
    # (pivot, direction, span) triples and later run through one padded
    # 2-D cummax; span 1-2 is decided inline (the adjacent vertex is
    # always visible, the second one iff its slope beats the first).
    med_k: list[int] = []
    med_dir: list[int] = []
    med_span: list[int] = []
    pivot_ids: list[int] = []
    pivot_js: list[np.ndarray] = []
    stack: list[tuple[int, int, int]] = [(0, n - 1, root)]
    push = stack.append
    pop = stack.pop
    while stack:
        lo, hi, k = pop()
        vk = values_list[k]
        span = k - lo
        if span:
            if span <= 2:
                ap_u(k)
                ap_v(k - 1)
                if span == 2 and (values_list[k - 2] - vk) / 2 > values_list[k - 1] - vk:
                    ap_u(k)
                    ap_v(k - 2)
            elif span < _VECTOR_SWEEP_MIN:
                med_k.append(k)
                med_dir.append(-1)
                med_span.append(span)
            else:
                seg = values[k - 1 : lo - 1 : -1] if lo else values[k - 1 :: -1]
                slopes = (seg - vk) / np.arange(1, span + 1, dtype=np.float64)
                cummax = np.maximum.accumulate(slopes)
                visible = np.empty(span, dtype=bool)
                visible[0] = True
                visible[1:] = slopes[1:] > cummax[:-1]
                pivot_ids.append(k)
                pivot_js.append(k - 1 - np.nonzero(visible)[0])
            push((lo, k - 1, left[k]))
        span = hi - k
        if span:
            if span <= 2:
                ap_u(k)
                ap_v(k + 1)
                if span == 2 and (values_list[k + 2] - vk) / 2 > values_list[k + 1] - vk:
                    ap_u(k)
                    ap_v(k + 2)
            elif span < _VECTOR_SWEEP_MIN:
                med_k.append(k)
                med_dir.append(1)
                med_span.append(span)
            else:
                seg = values[k + 1 : hi + 1]
                slopes = (seg - vk) / np.arange(1, span + 1, dtype=np.float64)
                cummax = np.maximum.accumulate(slopes)
                visible = np.empty(span, dtype=bool)
                visible[0] = True
                visible[1:] = slopes[1:] > cummax[:-1]
                pivot_ids.append(k)
                pivot_js.append(k + 1 + np.nonzero(visible)[0])
            push((k + 1, hi, right[k]))
    parts = []
    if med_k:
        parts.append(_batched_sweeps(values, med_k, med_dir, med_span))
    if pivot_ids:
        counts = [js.size for js in pivot_js]
        us = np.repeat(np.asarray(pivot_ids, dtype=np.int64), counts)
        vs = np.concatenate(pivot_js)
        parts.append(np.column_stack([us, vs]))
    if small_u:
        parts.append(_edge_array(small_u, small_v))
    if not parts:
        return _EMPTY_EDGES
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _batched_sweeps(
    values: np.ndarray, ks: list[int], dirs: list[int], spans: list[int]
) -> np.ndarray:
    """Run many short max-slope sweeps as one padded 2-D ``cummax``.

    Each row is one sweep: row ``r`` scans ``spans[r]`` vertices outward
    from pivot ``ks[r]`` in direction ``dirs[r]``.  Rows are padded to
    the widest span with ``-inf`` slopes, which can never beat the
    running maximum (column 0 is always valid, so the cummax is finite
    from the first column on); the slope arithmetic per element is the
    same ``(v_j - v_k) / distance`` as the scalar sweep, so visibility
    decisions are bit-identical.
    """
    k_arr = np.asarray(ks, dtype=np.int64)
    dir_arr = np.asarray(dirs, dtype=np.int64)
    span_arr = np.asarray(spans, dtype=np.int64)
    width = int(span_arr.max())
    offsets = np.arange(1, width + 1, dtype=np.int64)
    positions = k_arr[:, None] + dir_arr[:, None] * offsets[None, :]
    valid = offsets[None, :] <= span_arr[:, None]
    gathered = values[np.where(valid, positions, 0)]
    slopes = np.where(
        valid,
        (gathered - values[k_arr][:, None]) / offsets[None, :].astype(np.float64),
        -np.inf,
    )
    cummax = np.maximum.accumulate(slopes, axis=1)
    visible = np.empty(slopes.shape, dtype=bool)
    visible[:, 0] = True
    visible[:, 1:] = slopes[:, 1:] > cummax[:, :-1]
    rows, cols = np.nonzero(visible)
    return np.column_stack([k_arr[rows], positions[rows, cols]])


def vg_edge_array(series: Sequence[float]) -> np.ndarray:
    """Natural-VG edges of ``series`` as an ``(m, 2)`` int64 array."""
    values = _as_float_array(series)
    if values.size < 2:
        return _EMPTY_EDGES
    values_list = values.tolist()
    left, right, root, _, _ = _cartesian_max_tree(values_list)
    return _vg_edges_from_tree(values, values_list, left, right, root)


def fast_horizontal_visibility_graph_csr(series: Sequence[float]) -> CSRGraph:
    """HVG of ``series`` as a :class:`CSRGraph`."""
    values = _as_float_array(series)
    return CSRGraph.from_edge_array(values.size, hvg_edge_array(values))


def fast_visibility_graph_csr(series: Sequence[float]) -> CSRGraph:
    """Natural VG of ``series`` as a :class:`CSRGraph`."""
    values = _as_float_array(series)
    return CSRGraph.from_edge_array(values.size, vg_edge_array(values))


def visibility_graphs(series: Sequence[float]) -> tuple[CSRGraph, CSRGraph]:
    """``(VG, HVG)`` of one series from a single Cartesian-tree pass.

    The stack pass that builds the VG's pivot tree emits the HVG edges as
    a by-product, so requesting both graphs (the default feature config)
    costs one pass plus the VG sweeps.
    """
    values = _as_float_array(series)
    n = values.size
    values_list = values.tolist()
    left, right, root, hvg_u, hvg_v = _cartesian_max_tree(values_list)
    vg_edges = (
        _vg_edges_from_tree(values, values_list, left, right, root)
        if n >= 2
        else _EMPTY_EDGES
    )
    return (
        CSRGraph.from_edge_array(n, vg_edges),
        CSRGraph.from_edge_array(n, _edge_array(hvg_u, hvg_v)),
    )


def visibility_graphs_batch(
    X: np.ndarray, kind: str = "vg"
) -> list[CSRGraph]:
    """Build the VG (or HVG) of every row of ``X``.

    Parameters
    ----------
    X:
        ``(n_series, n)`` array, or any iterable of 1-D series (series
        of different lengths are allowed).
    kind:
        ``"vg"`` or ``"hvg"``.
    """
    if kind == "vg":
        builder = fast_visibility_graph_csr
    elif kind == "hvg":
        builder = fast_horizontal_visibility_graph_csr
    else:
        raise ValueError(f"kind must be 'vg' or 'hvg', got {kind!r}")
    if isinstance(X, np.ndarray):
        rows = X[None, :] if X.ndim == 1 else X
        return [builder(row) for row in rows]
    return [builder(np.asarray(row, dtype=np.float64)) for row in X]
