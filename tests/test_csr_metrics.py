"""Batch metrics on CSR arrays: HVG closed forms, arbitrary-graph
equality with set-graph oracles, and the over-budget motif fallback.

The batch metric layer runs on :class:`~repro.graph.fast.CSRGraph`.
These tests pin it to oracles that never touch CSR: brute-force subset
classification for motifs and direct set-graph reductions for the
statistics, on arbitrary graphs (isolated vertices, clique-rich graphs,
the tiny sizes) rather than only visibility graphs.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.adjacency as adjacency_module
import repro.graph.motifs as motifs_module
from repro.core.config import HEURISTIC_COLUMNS, FeatureConfig
from repro.core.features import extract_feature_vector
from repro.graph.adjacency import Graph
from repro.graph.fast import CSRGraph, fast_visibility_graph_csr
from repro.graph.incremental import SlidingVisibilityGraph
from repro.graph.incremental_metrics import IncrementalMetricBank
from repro.graph.metrics import (
    assortativity_from_sums,
    degeneracy,
    graph_statistics,
    hvg_degeneracy,
)
from repro.graph.motifs import count_motifs, count_motifs_bruteforce, triangle_counts
from repro.graph.visibility import horizontal_visibility_graph

# -- series for the HVG closed forms (n in 0..300) ----------------------------

random_series = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), max_size=300
).map(np.asarray)
tie_series = st.lists(st.integers(0, 3), max_size=300).map(
    lambda xs: np.asarray(xs, dtype=np.float64)
)
lengths = st.integers(0, 300)
monotone_series = st.one_of(
    lengths.map(lambda n: np.arange(float(n))),
    lengths.map(lambda n: np.arange(float(n))[::-1].copy()),
)
constant_series = lengths.map(np.zeros)
random_walks = st.tuples(st.integers(0, 2**32 - 1), lengths, st.booleans()).map(
    lambda args: _random_walk(*args)
)
hvg_series = st.one_of(
    random_series, tie_series, monotone_series, constant_series, random_walks
)


def _random_walk(seed: int, n: int, rounded: bool) -> np.ndarray:
    walk = np.cumsum(np.random.default_rng(seed).standard_normal(n))
    return np.round(walk) if rounded else walk


class TestHVGClosedForms:
    @given(hvg_series)
    @settings(max_examples=120, deadline=None)
    def test_closed_forms_match_peel_and_enumeration(self, values):
        hvg = horizontal_visibility_graph(values)
        assert hvg_degeneracy(hvg.n_vertices, hvg.n_edges) == degeneracy(hvg)
        assert count_motifs(hvg).m41 == 0
        # Declaring the graph horizontal changes no value.
        assert graph_statistics(hvg, horizontal=True) == graph_statistics(hvg)
        assert count_motifs(hvg, horizontal=True) == count_motifs(hvg)

    def test_every_branch(self):
        assert hvg_degeneracy(0, 0) == 0
        assert hvg_degeneracy(1, 0) == 0
        assert hvg_degeneracy(5, 4) == 1  # monotone series: a path
        assert hvg_degeneracy(5, 6) == 2

    def test_bank_keeps_no_kcore_state_for_hvg(self):
        """The streaming bank derives the HVG k-core from the motif
        state's counts; only the VG bank re-certifies a peel."""
        banks = {}
        for kind in ("vg", "hvg"):
            sliding = SlidingVisibilityGraph(kind, window=16)
            banks[kind] = IncrementalMetricBank(sliding)
            for x in np.cumsum(np.random.default_rng(4).standard_normal(40)):
                sliding.push(x)
                assert banks[kind].statistics() == graph_statistics(sliding.graph())
        assert banks["hvg"]._kcore is None
        assert banks["vg"]._kcore is not None


# -- arbitrary graphs vs set-graph oracles ---------------------------------------


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p); sparse draws leave isolated vertices."""
    rng = np.random.default_rng(seed)
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def clique_rich_graph(n: int, seed: int) -> Graph:
    """Overlapping K4/K5 blocks plus sparse noise (many 4-cliques, many
    tri >= 2 edges without one)."""
    rng = np.random.default_rng(seed)
    g = Graph(n)
    for _ in range(max(1, n // 3)):
        members = rng.choice(n, size=min(n, int(rng.integers(4, 6))), replace=False)
        for u, v in combinations(sorted(members.tolist()), 2):
            g.add_edge(u, v)
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.05:
            g.add_edge(u, v)
    return g


def statistics_oracle(g: Graph) -> dict[str, float]:
    """``graph_statistics`` by direct reductions over adjacency sets."""
    n, m = g.n_vertices, g.n_edges
    degree = [g.degree(v) for v in range(n)]
    # Degeneracy: the largest k whose k-core (iterated removal of
    # vertices of degree < k) is non-empty.
    kcore = 0
    for k in range(1, n):
        alive = set(range(n))
        while True:
            drop = {v for v in alive if len(g.adjacency(v) & alive) < k}
            if not drop:
                break
            alive -= drop
        if not alive:
            break
        kcore = k
    d2 = sum(d * d for d in degree)
    d3 = sum(d**3 for d in degree)
    e_prod = sum(degree[u] * degree[v] for u, v in g.edges())
    return {
        "density": 0.0 if n < 2 else 2.0 * m / (n * (n - 1)),
        "kcore": float(kcore),
        "assortativity": assortativity_from_sums(m, d2, d3, e_prod),
        "degree_max": float(max(degree, default=0)),
        "degree_min": float(min(degree, default=0)),
        "degree_mean": sum(degree) / n if n else 0.0,
    }


def _arbitrary_graphs():
    graphs = [Graph(n) for n in range(4)]
    graphs += [Graph(2, [(0, 1)]), Graph(3, [(0, 1)]), Graph(3, [(0, 1), (1, 2)])]
    graphs.append(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    graphs.append(Graph(5, [(u, v) for u, v in combinations(range(5), 2)]))
    for seed in range(6):
        for p in (0.05, 0.2, 0.5, 0.9):
            graphs.append(gnp_graph(4 + 2 * seed, p, seed))
        graphs.append(clique_rich_graph(8 + seed, seed))
    return graphs


ARBITRARY = _arbitrary_graphs()


class TestCSRMetricsOnArbitraryGraphs:
    @pytest.mark.parametrize("index", range(len(ARBITRARY)))
    def test_motifs_equal_bruteforce(self, index):
        g = ARBITRARY[index]
        assert count_motifs(CSRGraph.from_graph(g)) == count_motifs_bruteforce(g)

    @pytest.mark.parametrize("index", range(len(ARBITRARY)))
    def test_statistics_equal_set_graph_oracle(self, index):
        g = ARBITRARY[index]
        csr = CSRGraph.from_graph(g)
        assert graph_statistics(csr) == statistics_oracle(g)
        assert degeneracy(csr) == statistics_oracle(g)["kcore"]

    @given(st.integers(0, 10_000), st.integers(0, 14), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_gnp(self, seed, n, p):
        g = gnp_graph(n, p, seed)
        csr = CSRGraph.from_graph(g)
        assert count_motifs(csr) == count_motifs_bruteforce(g)
        assert graph_statistics(csr) == statistics_oracle(g)

    def test_clique_rich_graphs_have_four_cliques(self):
        """The clique-rich family really exercises the 4-clique path."""
        assert sum(count_motifs(g).m41 > 0 for g in ARBITRARY) >= 6


# -- the over-budget fallback ------------------------------------------------------


class TestOverBudgetFallback:
    """``_MAX_VECTOR_WEDGES = -1`` forces the per-edge loops (on
    neighbour sets read from the CSR rows); counts must not change."""

    def _graphs(self):
        rng = np.random.default_rng(9)
        csrs = [CSRGraph.from_graph(g) for g in ARBITRARY]
        csrs += [fast_visibility_graph_csr(rng.standard_normal(n)) for n in (0, 1, 40, 90)]
        csrs.append(fast_visibility_graph_csr(np.round(rng.standard_normal(70))))
        return csrs

    def test_fallback_equals_vectorized(self, monkeypatch):
        graphs = self._graphs()
        expected = [(count_motifs(g), triangle_counts(g)) for g in graphs]
        loops = []
        original = motifs_module._loop_pair_counts
        monkeypatch.setattr(motifs_module, "_MAX_VECTOR_WEDGES", -1)
        monkeypatch.setattr(
            motifs_module,
            "_loop_pair_counts",
            lambda graph: loops.append(graph) or original(graph),
        )
        for graph, (motifs, (tri_sum, vertex_tri)) in zip(graphs, expected):
            assert count_motifs(graph) == motifs
            fallback_sum, fallback_vertex = triangle_counts(graph)
            assert fallback_sum == tri_sum
            assert np.array_equal(fallback_vertex, vertex_tri)
        assert len(loops) == 2 * len(graphs)


# -- the extraction path never builds a set graph ----------------------------------


def refuse_set_graphs(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a set Graph was built on a program path")

    monkeypatch.setattr(adjacency_module.Graph, "__init__", refuse)


class TestNoSetGraphOnExtractionPath:
    @pytest.mark.parametrize(
        "config",
        [HEURISTIC_COLUMNS["G"], HEURISTIC_COLUMNS["B"], FeatureConfig(features="extended")],
        ids=["G", "B", "extended"],
    )
    def test_extract_feature_vector_builds_no_graph(self, monkeypatch, config):
        series = np.cumsum(np.random.default_rng(5).standard_normal(128))
        expected, _ = extract_feature_vector(series, config)
        refuse_set_graphs(monkeypatch)
        vector, _ = extract_feature_vector(series, config)
        assert np.array_equal(vector, expected)

    def test_over_budget_scales_build_no_graph(self, monkeypatch):
        """With the wedge budget lowered, the larger scales take the
        motif counter's loop path, which reads CSR rows too."""
        series = np.cumsum(np.random.default_rng(6).standard_normal(128))
        config = FeatureConfig(features="extended")
        expected, _ = extract_feature_vector(series, config)
        loops = []
        original = motifs_module._loop_pair_counts
        monkeypatch.setattr(motifs_module, "_MAX_VECTOR_WEDGES", 200)
        monkeypatch.setattr(
            motifs_module,
            "_loop_pair_counts",
            lambda union: loops.append(union.n_vertices) or original(union),
        )
        refuse_set_graphs(monkeypatch)
        vector, _ = extract_feature_vector(series, config)
        assert np.array_equal(vector, expected)
        assert 128 in loops  # the T0 VG took the loop

    def test_wl_kernel_builds_no_graph(self, monkeypatch):
        from repro.core.graph_kernel import WLVisibilityKernelClassifier

        rng = np.random.default_rng(7)
        X = np.cumsum(rng.standard_normal((6, 64)), axis=1)
        y = np.arange(6) % 2
        expected = WLVisibilityKernelClassifier().fit(X, y).predict_proba(X)
        refuse_set_graphs(monkeypatch)
        proba = WLVisibilityKernelClassifier().fit(X, y).predict_proba(X)
        assert np.array_equal(proba, expected)

    def test_figure2_builds_no_graph(self, monkeypatch):
        from repro.experiments.figures import figure2_data

        expected = figure2_data("BeetleFly")
        refuse_set_graphs(monkeypatch)
        assert figure2_data("BeetleFly") == expected
