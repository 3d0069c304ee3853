"""Incremental sliding-window maintenance of visibility graphs.

The batch builders (:mod:`repro.graph.fast`) rebuild a window's VG/HVG
from scratch; on a stride-1 sliding window that throws away the work of
the ``n - 1`` shared points.  :class:`SlidingVisibilityGraph` keeps the
graph of the current window alive across ``push``/``evict`` and updates
it with exactly the edges that change:

* **push(x)** — appending a point can only create edges incident to it
  (no remaining pair gains or loses an interior point), so one
  visibility pass from the right end finds every new edge.  For the
  HVG that pass is the reference stack algorithm with its stack
  *persisted across pushes* (the stack holds the strict suffix maxima
  of the window — a property of later points only, so it is the same
  stack a fresh pass over any suffix would build).  For the natural VG
  the pass replays exactly the decisions the divide-and-conquer
  builders make: every VG edge is discovered from its *pivot* endpoint
  (the Cartesian-tree ancestor — the max of the enclosing interval), so
  the structure keeps the tree's right spine (the non-strict suffix
  maxima) with one running max-slope per spine vertex.  The new point
  is tested against each spine vertex's sweep — the same
  ``slope > running_max`` comparison, in the same order, on the same
  floats as :func:`repro.graph.visibility.visibility_graph_dc` — and
  then runs its own (vectorized) pivot sweep over the interval it
  dominates.  Bit-identical decisions matter: on adversarial values
  (e.g. PAA block means) differently-anchored float comparisons can
  disagree about a borderline line of sight, and the contract here is
  equality with the batch builders, not merely mathematical visibility.
* **evict()** — the evicted point is the window minimum index, hence
  interior to no remaining pair: only its own edges disappear.  Its
  neighbours are exactly the right-adjacency recorded at push time, and
  in each neighbour's (ascending) left-neighbour list the evicted
  vertex is the head — eviction advances a per-vertex head pointer
  instead of rewriting lists.
* **load(values, csr)** — an empty window takes a whole series at once
  from its batch-built graph: the rows are split at their own vertex
  into left and right neighbours, and the monotone structure is read
  off the values (suffix maxima) and the rows (each VG spine vertex's
  running max slope is its slope to its last neighbour).  The result is
  the state the pushes would have left, at a fraction of their cost for
  long windows; subscribers see one ``load`` delta instead of one
  ``add`` per point.

Per tick (one push + one evict) the work is one O(window) vectorized
sweep plus O(degree) bookkeeping, versus the batch builder's full
O(window) *sweeps*; ``benchmarks/test_streaming.py`` records the
resulting per-tick speedup in ``results/BENCH_streaming.json``.

``csr()`` materialises the window as a :class:`~repro.graph.fast.CSRGraph`
with window-local vertex ids, *identical* to what the batch builders
produce for the same window (property-tested on every prefix and window
in ``tests/test_incremental_graph_property.py``).  Per-vertex neighbour
rows and the degree array are maintained incrementally, so a call after
one tick re-renders only the O(degree) rows the tick touched and pays
one C-level concatenation for the rest.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.fast import (
    CSRGraph,
    fast_horizontal_visibility_graph_csr,
    visibility_graphs,
)
from repro.graph.incremental_metrics import CLEAR_DELTA, GraphDelta

_EMPTY_ROW = np.empty(0, dtype=np.int64)

#: Kinds accepted by :class:`SlidingVisibilityGraph`.
KINDS = ("vg", "hvg")


class SlidingVisibilityGraph:
    """VG or HVG of a sliding window, maintained incrementally.

    Parameters
    ----------
    kind:
        ``"vg"`` (natural visibility) or ``"hvg"`` (horizontal).
    window:
        Optional capacity: when set, a ``push`` on a full window evicts
        the oldest point first.  Without it the structure only grows
        until :meth:`evict` is called.
    allocator:
        Optional slab allocator (``acquire(length, dtype)`` /
        ``release(row)``, e.g. :class:`repro.core.slab.SlabPool`) for
        the numeric value/degree buffers.  With ``window`` set those
        buffers are fixed at ``2 * window`` elements and never grow, so
        pooled rows are reused verbatim across session churn; call
        :meth:`release_buffers` when done to return them.

    Vertices carry *global* indices internally (the k-th pushed point is
    vertex ``k`` forever); :meth:`csr`/:meth:`graph` translate to
    window-local ids ``0..len-1`` so the output is directly comparable
    to a batch build of the same window.

    Thread safety: none — an instance belongs to a single stream
    session and must be externally serialised (the serving tier holds
    the session lock around every touch).  The allocator, if shared,
    must itself be thread-safe.
    """

    __slots__ = (
        "kind",
        "window",
        "_alloc",
        "_buf",
        "_deg",
        "_base",
        "_lo",
        "_hi",
        "_left",
        "_left_head",
        "_right",
        "_rows",
        "_dirty",
        "_m",
        "_stack",
        "_rmax",
        "_listeners",
    )

    def __init__(self, kind: str, window: int | None = None, allocator=None):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.kind = kind
        self.window = window
        self._alloc = allocator
        capacity = 64 if window is None else max(2 * window, 2)
        if allocator is None:
            self._buf = np.empty(capacity, dtype=np.float64)
            self._deg = np.zeros(capacity, dtype=np.int64)
        else:
            self._buf = allocator.acquire(capacity, "float64")
            self._deg = allocator.acquire(capacity, "int64")
        self._base = 0  # global index of _buf[0] / _deg[0]
        self._lo = 0  # global index of the oldest window point
        self._hi = 0  # one past the newest
        self._left: dict[int, np.ndarray] = {}
        self._left_head: dict[int, int] = {}
        self._right: dict[int, list[int]] = {}
        #: Cached per-vertex neighbour rows (global indices, ascending),
        #: ``_rows[g - _lo]``; entries in ``_dirty`` are stale.
        self._rows: list[np.ndarray] = []
        self._dirty: set[int] = set()
        self._m = 0
        # The maintained monotone structure (deque: eviction trims the
        # bottom, pushes pop the top).  HVG: the *strict* suffix maxima
        # (strictly decreasing values).  VG: the Cartesian tree's right
        # spine — the non-strict suffix maxima (ties kept, matching the
        # first-hit ``argmax`` pivot rule), each with a running max
        # slope over the points pushed after it (``_rmax``).
        self._stack: deque[int] = deque()
        self._rmax: dict[int, float] = {}
        #: Delta subscribers (e.g. metric banks), called once per
        #: push/evict/load/clear with the :class:`GraphDelta` describing it.
        self._listeners: list = []

    # -- sizes -------------------------------------------------------------
    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def n_vertices(self) -> int:
        """Points currently in the window."""
        return self._hi - self._lo

    @property
    def n_edges(self) -> int:
        """Undirected edges of the current window graph."""
        return self._m

    def values(self) -> np.ndarray:
        """Window values, oldest first (a copy)."""
        return self._buf[self._lo - self._base : self._hi - self._base].copy()

    def degree_array(self) -> np.ndarray:
        """Window degrees, oldest first — the incrementally maintained
        accumulator behind the streaming degree statistics.

        A *view* into internal storage: read it and let go (the next
        push may reallocate); never write through it.
        """
        return self._deg[self._lo - self._base : self._hi - self._base]

    def subscribe(self, listener) -> None:
        """Register a callable receiving one :class:`GraphDelta` per
        push (``add``), evict (``remove``), load and clear — the
        edge-delta stream the incremental metric states consume."""
        self._listeners.append(listener)

    # -- updates -----------------------------------------------------------
    def push(self, value: float) -> int:
        """Append one point (evicting first on a full window).

        Returns the number of edges the new point created.
        """
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"series values must be finite, got {value!r}")
        if self.window is not None and self._hi - self._lo >= self.window:
            self.evict()
        self._ensure_capacity()
        g = self._hi
        offset = g - self._base
        self._buf[offset] = value
        self._hi = g + 1
        if self.kind == "hvg":
            left = self._hvg_left_visible(g, value)
        else:
            left = self._vg_left_visible(g, value)
        self._left[g] = left
        self._left_head[g] = 0
        self._right[g] = []
        self._rows.append(left)  # complete while nothing is evicted/appended
        n_new = left.size
        self._deg[offset] = n_new
        if n_new:
            base = self._base
            dirty = self._dirty
            deg = self._deg
            for k in left.tolist():
                self._right[k].append(g)
                deg[k - base] += 1
                dirty.add(k)
            self._m += n_new
        if self._listeners:
            delta = GraphDelta("add", g, left)
            for listener in self._listeners:
                listener(delta)
        return int(n_new)

    def evict(self) -> None:
        """Drop the oldest point and every edge incident to it."""
        if self._hi == self._lo:
            raise IndexError("evict from an empty window")
        i = self._lo
        neighbours = self._right[i]
        if neighbours:
            base = self._base
            dirty = self._dirty
            deg = self._deg
            for k in neighbours:
                # The evicted vertex is the window's minimum index, so it
                # heads each neighbour's ascending left-neighbour list.
                self._left_head[k] += 1
                deg[k - base] -= 1
                dirty.add(k)
            self._m -= len(neighbours)
        del self._left[i], self._left_head[i], self._right[i]
        del self._rows[0]
        self._dirty.discard(i)
        self._lo = i + 1
        if self._stack and self._stack[0] == i:
            self._stack.popleft()
            self._rmax.pop(i, None)
        if self._listeners:
            delta = GraphDelta("remove", i, np.asarray(neighbours, dtype=np.int64))
            for listener in self._listeners:
                listener(delta)

    def load(self, values, csr: CSRGraph) -> None:
        """Fill an empty window with ``values`` in one step, given their
        batch-built graph ``csr`` (:mod:`repro.graph.fast`).

        Leaves the state ``len(values)`` pushes would: the same values,
        degrees and neighbour lists (each CSR row split at its own
        vertex into left and right neighbours), and the same monotone
        structure (:meth:`_load_spine`), so later pushes and evictions
        emit the same deltas.  Subscribers get one ``load``
        :class:`GraphDelta` carrying ``csr`` instead of one ``add`` per
        point.
        """
        if self._hi != self._lo:
            raise ValueError(f"load needs an empty window, this one holds {len(self)} points")
        values = np.asarray(values, dtype=np.float64)
        n = values.size
        if values.ndim != 1 or csr.n_vertices != n:
            raise ValueError(
                f"load needs a 1-D series and its graph, got shape {values.shape} "
                f"and a graph of {csr.n_vertices} vertices"
            )
        if self.window is not None and n > self.window:
            raise ValueError(f"cannot load {n} points into a window of {self.window}")
        if not np.all(np.isfinite(values)):
            raise ValueError("series values must be finite")
        if n > self._buf.size:  # unbounded windows only
            self._resize(n)
        lo = self._base = self._lo
        self._hi = lo + n
        self._buf[:n] = values
        indptr = csr.indptr
        degrees = np.diff(indptr)
        self._deg[:n] = degrees
        self._m = csr.n_edges
        owner = np.repeat(np.arange(n), degrees)
        lefts = np.bincount(owner[csr.indices < owner], minlength=n)
        starts, ends = indptr[:-1].tolist(), indptr[1:].tolist()
        splits = (indptr[:-1] + lefts).tolist()
        flat = csr.indices + lo
        flat_list = flat.tolist()
        vertices = range(lo, lo + n)
        rows = [flat[start:end] for start, end in zip(starts, ends)]
        self._rows.extend(rows)
        self._left.update(zip(vertices, [row[:k] for row, k in zip(rows, lefts.tolist())]))
        self._left_head.update(dict.fromkeys(vertices, 0))
        self._right.update(zip(vertices, [flat_list[a:b] for a, b in zip(splits, ends)]))
        self._load_spine(values, csr)
        if self._listeners:
            delta = GraphDelta("load", lo, _EMPTY_ROW, csr)
            for listener in self._listeners:
                listener(delta)

    def _load_spine(self, values: np.ndarray, csr: CSRGraph) -> None:
        """The monotone structure pushes of ``values`` leave behind.

        HVG: the strict suffix maxima.  VG: the non-strict suffix
        maxima, each with its running max slope.  A spine vertex's
        sweep raises that max at every hit and only there, and the
        first later point reaching the maximum is a hit, so the max is
        the slope to its last (right) neighbour, on the floats
        :meth:`_vg_left_visible` compares; the newest vertex has none
        yet (``-inf``).
        """
        n = values.size
        if n == 0:
            return
        later = np.empty(n)
        later[-1] = -np.inf
        later[:-1] = np.maximum.accumulate(values[:0:-1])[::-1]
        lo = self._lo
        if self.kind == "hvg":
            self._stack.extend((np.flatnonzero(values > later) + lo).tolist())
            return
        spine = np.flatnonzero(values >= later)
        self._stack.extend((spine + lo).tolist())
        inner = spine[:-1]
        last = csr.indices[csr.indptr[inner + 1] - 1]
        slopes = (values[last] - values[inner]) / (last - inner)
        self._rmax.update(zip((inner + lo).tolist(), slopes.tolist()))
        self._rmax[lo + n - 1] = -np.inf

    def clear(self) -> None:
        """Reset to an empty window (global indices keep counting up)."""
        self._left.clear()
        self._left_head.clear()
        self._right.clear()
        self._rows.clear()
        self._dirty.clear()
        self._stack.clear()
        self._rmax.clear()
        self._m = 0
        self._lo = self._hi
        for listener in self._listeners:
            listener(CLEAR_DELTA)

    # -- materialisation ---------------------------------------------------
    def csr(self) -> CSRGraph:
        """The window graph as a :class:`CSRGraph` (window-local ids).

        Identical (``==``) to the batch builders' CSR for the same
        window values.
        """
        lo, hi = self._lo, self._hi
        n = hi - lo
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n == 0:
            return CSRGraph(0, indptr, _EMPTY_ROW.copy())
        rows = self._rows
        if self._dirty:
            for g in self._dirty:
                rows[g - lo] = self._render_row(g)
            self._dirty.clear()
        np.cumsum(self._deg[lo - self._base : hi - self._base], out=indptr[1:])
        if indptr[-1] == 0:
            return CSRGraph(n, indptr, _EMPTY_ROW.copy())
        indices = np.concatenate(rows)
        if lo:
            indices = indices - lo
        return CSRGraph(n, indptr, indices)

    def graph(self) -> Graph:
        """The window graph as an adjacency-set :class:`Graph`."""
        return self.csr().to_graph()

    def _render_row(self, g: int) -> np.ndarray:
        left = self._left[g]
        head = self._left_head[g]
        valid_left = left[head:] if head else left
        right = self._right[g]
        if not right:
            return valid_left
        right_arr = np.asarray(right, dtype=np.int64)
        if not valid_left.size:
            return right_arr
        return np.concatenate([valid_left, right_arr])

    # -- visibility passes -------------------------------------------------
    def _vg_left_visible(self, g: int, value: float) -> np.ndarray:
        """Vertices gaining an edge to the new point, by pivot sweeps.

        Two parts, together reproducing the divide-and-conquer builder's
        float decisions exactly:

        * every spine vertex ``p`` (``v_p >= value``) is the pivot of an
          interval whose right sweep now reaches the new point: the
          reference comparison ``slope(p, g) > running_max(p)`` decides
          the edge and advances ``p``'s running max;
        * the new point is the pivot of the interval it dominates (left
          of it, down to the nearest spine vertex): one vectorized
          max-slope sweep — the same arithmetic as
          :func:`repro.graph.fast.vg_edge_array`'s pivot sweeps.
        """
        stack = self._stack
        rmax = self._rmax
        buf, base = self._buf, self._base
        while stack and buf[stack[-1] - base] < value:
            # Popped vertices fall inside the new point's pivot interval;
            # their own sweeps are complete (they reached g - 1).
            del rmax[stack.pop()]
        hits: list[int] = []
        for p in stack:
            slope = (value - buf[p - base]) / (g - p)
            if slope > rmax[p]:
                hits.append(p)
                rmax[p] = slope
        sweep_lo = stack[-1] + 1 if stack else self._lo
        stack.append(g)
        rmax[g] = -np.inf
        span = g - sweep_lo
        if span == 0:
            return np.asarray(hits, dtype=np.int64) if hits else _EMPTY_ROW
        if span == 1:
            hits.append(sweep_lo)
            return np.asarray(hits, dtype=np.int64)
        seg = buf[sweep_lo - base : g - base][::-1]
        slopes = (seg - value) / np.arange(1, span + 1, dtype=np.float64)
        cummax = np.maximum.accumulate(slopes)
        visible = np.empty(span, dtype=bool)
        visible[0] = True
        visible[1:] = slopes[1:] > cummax[:-1]
        swept = (g - 1 - np.nonzero(visible)[0])[::-1]
        if not hits:
            return np.ascontiguousarray(swept)
        return np.concatenate([np.asarray(hits, dtype=np.int64), swept])

    def _hvg_left_visible(self, g: int, value: float) -> np.ndarray:
        """HVG edges of the new point, via the persistent monotone stack.

        Same discipline as the reference builder: pop (and connect)
        every strictly smaller bar, connect the first bar at least as
        tall, and drop an equal bar it occludes.
        """
        stack = self._stack
        buf, base = self._buf, self._base
        left: list[int] = []
        while stack and buf[stack[-1] - base] < value:
            left.append(stack.pop())
        if stack:
            top = stack[-1]
            left.append(top)
            if buf[top - base] == value:
                stack.pop()
        stack.append(g)
        if not left:
            return _EMPTY_ROW
        left.reverse()
        return np.asarray(left, dtype=np.int64)

    # -- storage -----------------------------------------------------------
    def _ensure_capacity(self) -> None:
        if self._hi - self._base < self._buf.size:
            return
        live = self._hi - self._lo
        lo_offset = self._lo - self._base
        if lo_offset >= self._buf.size // 2:
            # Plenty of dead space in front: slide live values down.
            self._buf[:live] = self._buf[lo_offset : lo_offset + live]
            self._deg[:live] = self._deg[lo_offset : lo_offset + live]
        else:
            self._resize(max(2 * self._buf.size, live + 1))
        self._base = self._lo

    def _resize(self, size: int) -> None:
        """Move the live values and degrees into buffers of ``size``."""
        live = self._hi - self._lo
        lo_offset = self._lo - self._base
        if self._alloc is None:
            grown = np.empty(size, dtype=np.float64)
            grown_deg = np.zeros(size, dtype=np.int64)
        else:
            # Only the unbounded (window=None) case ever gets here;
            # windowed buffers slide in place at fixed capacity.
            grown = self._alloc.acquire(size, "float64")
            grown_deg = self._alloc.acquire(size, "int64")
        grown[:live] = self._buf[lo_offset : lo_offset + live]
        grown_deg[:live] = self._deg[lo_offset : lo_offset + live]
        if self._alloc is not None:
            self._alloc.release(self._buf)
            self._alloc.release(self._deg)
        self._buf = grown
        self._deg = grown_deg
        self._base = self._lo

    def release_buffers(self) -> None:
        """Return slab-backed buffers to the allocator (idempotent).

        The graph is unusable afterwards; call only when discarding it
        (session close).  A no-op for graphs built without an
        allocator.
        """
        if self._alloc is None:
            return
        alloc, self._alloc = self._alloc, None
        alloc.release(self._buf)
        alloc.release(self._deg)
        self._buf = np.empty(0, dtype=np.float64)
        self._deg = np.empty(0, dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"SlidingVisibilityGraph(kind={self.kind!r}, window={self.window}, "
            f"n_vertices={self.n_vertices}, n_edges={self.n_edges})"
        )


class SlidingGraphWindow:
    """VG and/or HVG of one sliding window, updated together.

    A thin convenience over per-kind :class:`SlidingVisibilityGraph`
    instances sharing the same push/evict cadence — the shape the
    streaming feature extractor and the benchmarks consume.

    Thread safety: none (same contract as the per-kind graphs — the
    owner serialises access).
    """

    __slots__ = ("graphs",)

    def __init__(
        self,
        kinds: tuple[str, ...] = ("vg", "hvg"),
        window: int | None = None,
        allocator=None,
    ):
        if not kinds:
            raise ValueError("at least one graph kind is required")
        self.graphs = {
            kind: SlidingVisibilityGraph(kind, window, allocator=allocator)
            for kind in kinds
        }

    def release_buffers(self) -> None:
        """Return every kind's slab-backed buffers (idempotent)."""
        for graph in self.graphs.values():
            graph.release_buffers()

    def push(self, value: float) -> None:
        for graph in self.graphs.values():
            graph.push(value)

    def load(self, values) -> None:
        """Fill the empty window with ``values`` in one step: one batch
        build of every kind (:func:`~repro.graph.fast.visibility_graphs`
        shares the Cartesian-tree pass between VG and HVG), then
        :meth:`SlidingVisibilityGraph.load` per kind."""
        if "vg" in self.graphs:
            vg, hvg = visibility_graphs(values)
            built = {"vg": vg, "hvg": hvg}
        else:
            built = {"hvg": fast_horizontal_visibility_graph_csr(values)}
        for kind, graph in self.graphs.items():
            graph.load(values, built[kind])

    def evict(self) -> None:
        for graph in self.graphs.values():
            graph.evict()

    def clear(self) -> None:
        for graph in self.graphs.values():
            graph.clear()

    def __len__(self) -> int:
        return len(next(iter(self.graphs.values())))

    def csr(self, kind: str) -> CSRGraph:
        return self.graphs[kind].csr()

    def graph(self, kind: str) -> Graph:
        return self.graphs[kind].graph()
