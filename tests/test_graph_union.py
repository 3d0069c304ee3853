"""Disjoint-union metrics: one pass over a :class:`CSRUnion` equals one
call per member, exactly.

``count_motifs``, ``graph_statistics`` and ``degeneracy`` take a union
of graphs and return one result per member; the feature pipeline runs
them on the union of all scale graphs of one series.  These tests pin
every member's result to the same function called on that member alone
(and to brute-force enumeration for small members), over members of
every awkward shape, in any order and under any blocking of the motif
counter.
"""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.adjacency as adjacency_module
import repro.graph.motifs as motifs_module
from repro.core.config import FeatureConfig
from repro.core.features import extract_feature_vector
from repro.core.multiscale import multiscale_representation
from repro.graph.adjacency import Graph
from repro.graph.fast import (
    CSRGraph,
    CSRUnion,
    as_union,
    fast_horizontal_visibility_graph_csr,
    fast_visibility_graph_csr,
    segment_sums,
)
from repro.graph.metrics import STAT_KEYS, degeneracy, graph_statistics
from repro.graph.motifs import count_motifs, count_motifs_bruteforce


def _csr(n: int, edges) -> CSRGraph:
    return CSRGraph.from_edge_array(n, np.asarray(list(edges), dtype=np.int64).reshape(-1, 2))


def star(k: int) -> CSRGraph:
    return _csr(k + 1, [(0, v) for v in range(1, k + 1)])


def wheel(k: int) -> CSRGraph:
    rim = [(v, v % k + 1) for v in range(1, k + 1)]
    return _csr(k + 1, [(0, v) for v in range(1, k + 1)] + rim)


def complete(k: int) -> CSRGraph:
    return _csr(k, combinations(range(k), 2))


def gnp(n: int, p: float, seed: int) -> CSRGraph:
    rng = np.random.default_rng(seed)
    return _csr(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def _walk(seed: int, n: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).standard_normal(n))


series = st.one_of(
    st.integers(0, 40).map(lambda n: np.full(n, 1.5)),
    st.lists(st.integers(0, 2), max_size=40).map(lambda xs: np.asarray(xs, dtype=float)),
    st.tuples(st.integers(0, 2**16), st.integers(0, 60)).map(lambda a: _walk(*a)),
)
members = st.one_of(
    st.tuples(st.integers(0, 3), st.floats(0, 1), st.integers(0, 99)).map(
        lambda a: gnp(*a)
    ),
    series.map(fast_visibility_graph_csr),
    series.map(fast_horizontal_visibility_graph_csr),
    st.integers(1, 12).map(star),
    st.integers(3, 10).map(wheel),
    st.sampled_from([complete(5), complete(4), complete(6)]),
    st.tuples(st.integers(4, 10), st.floats(0, 1), st.integers(0, 99)).map(
        lambda a: gnp(*a)
    ),
)
#: Motif-counter block limits: every member alone, tiny blocks, the
#: default, one block for everything.
block_limits = st.sampled_from([-1, 0, 10, 200, motifs_module._UNION_WEDGES, 10**9])


class TestUnionEqualsMembers:
    @given(st.lists(members, min_size=1, max_size=7), block_limits)
    @settings(max_examples=150, deadline=None)
    def test_every_metric_equals_its_per_member_call(self, graphs, limit):
        union = CSRUnion.of(graphs)
        with mock.patch.object(motifs_module, "_UNION_WEDGES", limit):
            counts = count_motifs(union)
        stats = graph_statistics(union)
        cores = degeneracy(union)
        assert len(counts) == len(stats) == len(cores) == len(graphs)
        for j, graph in enumerate(graphs):
            assert counts[j] == count_motifs(graph)
            assert stats[j] == tuple(graph_statistics(graph)[key] for key in STAT_KEYS)
            assert cores[j] == degeneracy(graph)
            if graph.n_vertices <= 8:
                assert counts[j] == count_motifs_bruteforce(graph.to_graph())

    @given(st.lists(series, min_size=1, max_size=6), block_limits)
    @settings(max_examples=60, deadline=None)
    def test_hvg_union_closed_forms(self, values, limit):
        graphs = [fast_horizontal_visibility_graph_csr(v) for v in values]
        union = CSRUnion.of(graphs)
        with mock.patch.object(motifs_module, "_UNION_WEDGES", limit):
            counts = count_motifs(union, horizontal=True)
            assert counts == count_motifs(union)
        assert graph_statistics(union, horizontal=True) == graph_statistics(union)
        assert counts == [count_motifs(g) for g in graphs]

    def test_plain_graph_is_a_one_member_union(self):
        g = wheel(6)
        assert count_motifs(g) == count_motifs(CSRUnion.single(g))[0]
        assert degeneracy(g) == degeneracy(as_union(g))[0] == 3
        stats = graph_statistics(g)
        assert list(stats) == list(STAT_KEYS)
        assert tuple(stats.values()) == graph_statistics(as_union(g))[0]
        set_graph = Graph(3, [(0, 1)])
        assert count_motifs(set_graph) == count_motifs(as_union(set_graph))[0]


def record_loops(monkeypatch) -> list[int]:
    """Route the motif counter's over-budget loop through a recorder;
    returns the list each looped union's vertex count is appended to."""
    looped: list[int] = []
    original = motifs_module._loop_pair_counts
    monkeypatch.setattr(
        motifs_module,
        "_loop_pair_counts",
        lambda union: looped.append(union.n_vertices) or original(union),
    )
    return looped


class TestWedgeBudget:
    def test_members_under_budget_never_build_a_set_graph(self, monkeypatch):
        graphs = [fast_visibility_graph_csr(_walk(seed, 48)) for seed in range(4)]
        graphs += [star(20), wheel(9)]
        wedges = [int(np.sum(g.degrees() * (g.degrees() - 1) // 2)) for g in graphs]
        budget = max(wedges) + 1
        assert sum(wedges) > budget
        expected = [count_motifs(g) for g in graphs]
        monkeypatch.setattr(motifs_module, "_MAX_VECTOR_WEDGES", budget)
        looped = record_loops(monkeypatch)
        assert count_motifs(CSRUnion.of(graphs)) == expected
        assert count_motifs(CSRUnion.of(graphs[::-1])) == expected[::-1]
        assert looped == []

    def test_four_clique_pairs_are_chunked_under_the_budget(self, monkeypatch):
        # K16 has 1680 wedges but 1820 common-neighbour pairs to check
        # (one per 4-clique): two chunks under a budget of 1700.
        graphs = [complete(16), wheel(5), fast_visibility_graph_csr(_walk(1, 30))]
        assert all(np.sum(g.degrees() * (g.degrees() - 1) // 2) <= 1700 for g in graphs)
        expected = [count_motifs(g) for g in graphs]
        assert expected[0].m41 == 1820
        monkeypatch.setattr(motifs_module, "_MAX_VECTOR_WEDGES", 1700)
        looped = record_loops(monkeypatch)
        for graph, counts in zip(graphs, expected):
            assert count_motifs(graph) == counts
        assert count_motifs(CSRUnion.of(graphs[::-1])) == expected[::-1]
        assert looped == []

    def test_over_budget_member_alone_uses_the_loop(self, monkeypatch):
        graphs = [wheel(5), complete(6), star(3)]
        expected = [count_motifs(g) for g in graphs]
        monkeypatch.setattr(motifs_module, "_MAX_VECTOR_WEDGES", 40)
        looped = record_loops(monkeypatch)
        assert count_motifs(CSRUnion.of(graphs)) == expected
        # K6 has 60 wedges: only it leaves the vectorized path.
        assert looped == [6]

    def test_blocks_are_greedy_runs(self):
        blocks = motifs_module._wedge_blocks
        assert blocks([5, 5, 5], 10) == [(0, 2), (2, 3)]
        assert blocks([20, 1, 1], 10) == [(0, 1), (1, 3)]
        assert blocks([1, 20, 1], 10) == [(0, 1), (1, 2), (2, 3)]
        assert blocks([0, 0], -1) == [(0, 1), (1, 2)]

    @pytest.mark.slow
    def test_length_4096_extraction_builds_no_set_graph(self, monkeypatch):
        """Each scale graph of this length-4096 walk is under the budget,
        though all scales together are not."""
        walk = _walk(4, 4096)
        wedges = []
        for scaled in multiscale_representation(walk):
            degrees = fast_visibility_graph_csr(scaled).degrees()
            wedges.append(int(np.sum(degrees * (degrees - 1) // 2)))
        assert max(wedges) <= motifs_module._MAX_VECTOR_WEDGES < sum(wedges)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a set Graph was built on the extraction path")

        monkeypatch.setattr(adjacency_module.Graph, "__init__", refuse)
        vector, names = extract_feature_vector(walk, FeatureConfig())
        assert vector.size == len(names) and np.all(np.isfinite(vector))


class TestUnionType:
    def test_members_round_trip(self):
        graphs = [wheel(4), _csr(0, []), star(2), _csr(1, [])]
        union = CSRUnion.of(graphs)
        assert union.n_members == 4
        assert union.bounds.tolist() == [0, 5, 5, 8, 9]
        assert union.n_edges == sum(g.n_edges for g in graphs)
        assert union.members() == graphs
        assert union.select(2, 4).members() == graphs[2:]
        assert union.select(0, 4) is union

    def test_bounds_must_cover_the_vertices(self):
        g = wheel(4)
        with pytest.raises(ValueError, match="bounds"):
            CSRUnion(g.n_vertices, g.indptr, g.indices, np.array([0, 3]))
        with pytest.raises(ValueError, match="at least one member"):
            CSRUnion.of([])

    def test_segment_sums_are_exact(self):
        values = np.array([1, 2, 3, 4], dtype=np.int64)
        assert segment_sums(values, np.array([0, 0, 1, 4])).tolist() == [0, 1, 9]
        big = np.array([3**40, 1], dtype=object)
        assert segment_sums(big, np.array([0, 2])).tolist() == [3**40 + 1]
        rows = np.stack([values, values * 10])
        assert segment_sums(rows, np.array([0, 2, 4])).tolist() == [[3, 7], [30, 70]]
