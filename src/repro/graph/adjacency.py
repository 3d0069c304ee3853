"""Adjacency-set undirected graph: the reference and interop type.

The reference visibility builders (:mod:`repro.graph.visibility`) emit
this type, and the tests use it as the oracle the array-backed
:class:`~repro.graph.fast.CSRGraph` is checked against; the batch and
streaming metrics run on ``CSRGraph`` and convert a ``Graph`` argument
once at entry.  Conversion helpers to and from networkx are provided for
cross-checking.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


class Graph:
    """A simple undirected graph on vertices ``0..n_vertices-1``.

    Parameters
    ----------
    n_vertices:
        Number of vertices.  Vertices are implicit; isolated vertices are
        allowed and participate in disconnected-motif counts.
    edges:
        Optional iterable of ``(u, v)`` pairs.  Self loops are rejected;
        duplicate edges are silently collapsed.
    """

    __slots__ = ("_adj", "_n_edges")

    def __init__(self, n_vertices: int, edges: Iterable[tuple[int, int]] = ()):
        if n_vertices < 0:
            raise ValueError("n_vertices must be non-negative")
        self._adj: list[set[int]] = [set() for _ in range(n_vertices)]
        self._n_edges = 0
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction -----------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge ``(u, v)`` if not already present."""
        if u == v:
            raise ValueError(f"self loop on vertex {u} is not allowed")
        if not (0 <= u < len(self._adj)) or not (0 <= v < len(self._adj)):
            raise IndexError(f"edge ({u}, {v}) out of range for n={len(self._adj)}")
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._n_edges += 1

    # -- basic queries ----------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self._n_edges

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether the undirected edge ``(u, v)`` exists."""
        return v in self._adj[u]

    def neighbors(self, u: int) -> frozenset[int]:
        """Neighbour set of ``u`` (read-only view semantics)."""
        return frozenset(self._adj[u])

    def adjacency(self, u: int) -> set[int]:
        """Internal adjacency set of ``u``; the caller must not mutate it."""
        return self._adj[u]

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        return len(self._adj[u])

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an ``int64`` array."""
        return np.fromiter(
            (len(nbrs) for nbrs in self._adj), dtype=np.int64, count=len(self._adj)
        )

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` with ``u < v``."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_array(self) -> np.ndarray:
        """Edges as an ``(m, 2)`` array with ``u < v`` per row."""
        if self._n_edges == 0:
            return np.empty((0, 2), dtype=np.int64)
        out = np.empty((self._n_edges, 2), dtype=np.int64)
        i = 0
        for u, v in self.edges():
            out[i, 0] = u
            out[i, 1] = v
            i += 1
        return out

    # -- structure --------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the graph is connected (single vertex counts as connected)."""
        n = self.n_vertices
        if n <= 1:
            return True
        seen = bytearray(n)
        stack = [0]
        seen[0] = 1
        found = 1
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    found += 1
                    stack.append(v)
        return found == n

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on ``vertices`` with vertices relabelled 0..k-1."""
        verts = list(vertices)
        index = {v: i for i, v in enumerate(verts)}
        sub = Graph(len(verts))
        for v in verts:
            for w in self._adj[v]:
                if w in index and v < w:
                    sub.add_edge(index[v], index[w])
        return sub

    # -- interop ----------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (for cross-checking)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n_vertices))
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g) -> "Graph":
        """Build from a networkx graph with integer labels ``0..n-1``."""
        out = cls(g.number_of_nodes())
        for u, v in g.edges():
            out.add_edge(int(u), int(v))
        return out

    # -- dunder -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:  # graphs are mutable; identity hash
        return id(self)

    def __repr__(self) -> str:
        return f"Graph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"
