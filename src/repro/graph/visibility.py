"""Visibility-graph transforms for time series.

Implements the natural visibility graph (VG) of Lacasa et al. (2008) and
the horizontal visibility graph (HVG) of Luque et al. (2009):

* ``visibility_graph_naive`` — the O(n^2) left-to-right sweep, used as the
  reference implementation;
* ``visibility_graph_dc`` — the divide-and-conquer builder (max-value
  pivot recursion) with O(n log n) expected complexity, standing in for
  the sub-quadratic algorithm of Afshani et al. cited by the paper;
* ``horizontal_visibility_graph`` — the exact O(n) stack algorithm.

Both VG builders produce identical graphs (tested against each other and
against brute force); ``visibility_graph`` dispatches to the
divide-and-conquer variant by default.  They return set :class:`Graph`
objects and serve as the oracles the CSR builders of
:mod:`repro.graph.fast` are tested against.

Visibility definition (paper Def. 2.3): ``(i, j)`` with ``i < j`` is an
edge iff for every ``k`` with ``i < k < j``::

    v_k < v_j + (v_i - v_j) * (j - k) / (j - i)

i.e. every intermediate bar lies strictly below the straight line joining
the tops of bars ``i`` and ``j``.  HVG (Def. 2.4) instead requires
``v_k < min(v_i, v_j)`` for all intermediate ``k``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.fast import _as_float_array


def visibility_graph_naive(series: Sequence[float]) -> Graph:
    """Natural visibility graph via the O(n^2) angular sweep.

    For each vertex ``i`` we scan right keeping the running maximum of the
    slope from ``i``; vertex ``j`` is visible from ``i`` exactly when the
    slope to ``j`` strictly exceeds every intermediate slope.
    """
    values = _as_float_array(series)
    n = values.size
    graph = Graph(n)
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
        max_slope = -np.inf
        vi = values[i]
        for j in range(i + 1, n):
            slope = (values[j] - vi) / (j - i)
            if slope > max_slope:
                if j > i + 1:
                    graph.add_edge(i, j)
                max_slope = slope
    return graph


def _connect_pivot(values: np.ndarray, graph: Graph, lo: int, hi: int, k: int) -> None:
    """Connect pivot ``k`` (the argmax on [lo, hi]) to all vertices it sees
    within the range, using the max-slope sweep in both directions."""
    vk = values[k]
    # Scan left of the pivot.
    max_slope = -np.inf
    for j in range(k - 1, lo - 1, -1):
        slope = (values[j] - vk) / (k - j)
        if slope > max_slope:
            graph.add_edge(k, j)
            max_slope = slope
    # Scan right of the pivot.
    max_slope = -np.inf
    for j in range(k + 1, hi + 1):
        slope = (values[j] - vk) / (j - k)
        if slope > max_slope:
            graph.add_edge(k, j)
            max_slope = slope


def visibility_graph_dc(series: Sequence[float]) -> Graph:
    """Natural visibility graph via divide and conquer on the maximum.

    The maximum bar on an interval blocks every line of sight between
    vertices on its two sides (visibility is strict, so ties block as
    well), hence all cross edges are incident to the pivot.  Connecting
    the pivot by two linear sweeps and recursing on both halves yields
    O(n log n) expected work for non-degenerate series.
    """
    values = _as_float_array(series)
    n = values.size
    graph = Graph(n)
    if n == 0:
        return graph
    # Explicit stack instead of recursion: monotone series degrade the
    # recursion depth to O(n), which would overflow Python's stack.
    stack: list[tuple[int, int]] = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi <= lo:
            continue
        k = lo + int(np.argmax(values[lo : hi + 1]))
        _connect_pivot(values, graph, lo, hi, k)
        if k - 1 > lo:
            stack.append((lo, k - 1))
        if hi > k + 1:
            stack.append((k + 1, hi))
        # Intervals of length 2 still need their chain edge, which the
        # pivot sweep already added (pivot sees its neighbours).
    return graph


def visibility_graph(series: Sequence[float]) -> Graph:
    """Natural visibility graph of ``series`` (divide-and-conquer builder)."""
    return visibility_graph_dc(series)


def horizontal_visibility_graph(series: Sequence[float]) -> Graph:
    """Horizontal visibility graph via the O(n) stack algorithm.

    Processing values left to right, each new bar connects to every
    shorter bar popped from the stack plus the first bar at least as
    tall, which then occludes everything further left.
    """
    values = _as_float_array(series)
    n = values.size
    graph = Graph(n)
    stack: list[int] = []
    for j in range(n):
        vj = values[j]
        while stack and values[stack[-1]] < vj:
            graph.add_edge(stack.pop(), j)
        if stack:
            graph.add_edge(stack[-1], j)
            # Equal-height bars occlude each other for everything beyond,
            # so the occluded equal bar can be dropped.
            if values[stack[-1]] == vj:
                stack.pop()
        stack.append(j)
    return graph


def horizontal_visibility_graph_naive(series: Sequence[float]) -> Graph:
    """Reference O(n^2) HVG builder (used to validate the stack variant)."""
    values = _as_float_array(series)
    n = values.size
    graph = Graph(n)
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
        for j in range(i + 2, n):
            bound = min(values[i], values[j])
            if np.all(values[i + 1 : j] < bound):
                graph.add_edge(i, j)
    return graph
