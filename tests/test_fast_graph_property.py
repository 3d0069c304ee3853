"""Property tests pinning the fast-path graph/feature subsystem to the
reference implementations.

The fast builders (:mod:`repro.graph.fast`) must be *graph-identical* to
the pure-Python reference builders on every input — most importantly on
tie-heavy, constant and monotone series, where the Cartesian-tree tie
handling and the HVG occlusion rule earn their keep — and
:class:`repro.core.batch.BatchFeatureExtractor` must be bit-for-bit
identical to the serial :class:`repro.core.features.FeatureExtractor`
for every ``(n_jobs, cache)`` combination.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchFeatureExtractor, series_cache_key
from repro.core.config import FeatureConfig
from repro.core.features import FeatureExtractor
from repro.graph.adjacency import Graph
from repro.graph.fast import (
    CSRGraph,
    fast_horizontal_visibility_graph_csr,
    fast_visibility_graph_csr,
    hvg_edge_array,
    vg_edge_array,
    visibility_graphs,
    visibility_graphs_batch,
)
from repro.graph.visibility import (
    horizontal_visibility_graph,
    horizontal_visibility_graph_naive,
    visibility_graph_dc,
    visibility_graph_naive,
)

# Float series: generic values.
float_series = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=2,
    max_size=120,
).map(np.asarray)

# Tie-heavy series: few distinct integer levels force equal-value runs,
# the adversarial regime for visibility tie-breaking.
tie_series = st.lists(st.integers(0, 3), min_size=2, max_size=120).map(
    lambda xs: np.asarray(xs, dtype=np.float64)
)

degenerate_series = st.one_of(
    st.integers(2, 80).map(lambda n: np.zeros(n)),  # constant
    st.integers(2, 80).map(lambda n: np.arange(float(n))),  # increasing
    st.integers(2, 80).map(lambda n: np.arange(float(n))[::-1].copy()),  # decreasing
    st.integers(2, 40).map(lambda n: (np.arange(2.0 * n) - n) ** 2),  # convex
)

all_series = st.one_of(float_series, tie_series, degenerate_series)


class TestFastBuildersIdentical:
    @given(all_series)
    @settings(max_examples=60, deadline=None)
    def test_fast_vg_equals_naive_and_dc(self, values):
        reference = visibility_graph_naive(values)
        assert visibility_graph_dc(values) == reference
        assert fast_visibility_graph_csr(values).to_graph() == reference

    @given(all_series)
    @settings(max_examples=60, deadline=None)
    def test_fast_hvg_equals_stack_and_naive(self, values):
        reference = horizontal_visibility_graph_naive(values)
        assert horizontal_visibility_graph(values) == reference
        assert fast_horizontal_visibility_graph_csr(values).to_graph() == reference

    @given(all_series)
    @settings(max_examples=40, deadline=None)
    def test_combined_builder_matches_individual(self, values):
        vg, hvg = visibility_graphs(values)
        assert vg.to_graph() == visibility_graph_naive(values)
        assert hvg.to_graph() == horizontal_visibility_graph_naive(values)

    @given(tie_series)
    @settings(max_examples=40, deadline=None)
    def test_edge_arrays_are_duplicate_free(self, values):
        for edges in (vg_edge_array(values), hvg_edge_array(values)):
            canonical = {tuple(sorted(edge)) for edge in edges.tolist()}
            assert len(canonical) == len(edges)
            assert all(u != v for u, v in edges.tolist())

    def test_trivial_sizes(self):
        for values in ([], [1.0], [1.0, 1.0], [2.0, 1.0]):
            series = np.asarray(values)
            assert fast_visibility_graph_csr(series).to_graph() == visibility_graph_naive(
                series
            )
            assert fast_horizontal_visibility_graph_csr(
                series
            ).to_graph() == horizontal_visibility_graph_naive(series)
            vg, hvg = visibility_graphs(series)
            assert vg.to_graph() == visibility_graph_naive(series)
            assert hvg.to_graph() == horizontal_visibility_graph_naive(series)


class TestCSRGraph:
    @given(all_series)
    @settings(max_examples=40, deadline=None)
    def test_csr_invariants(self, values):
        csr = fast_visibility_graph_csr(values)
        assert csr.n_vertices == values.size
        assert csr.indptr[0] == 0 and csr.indptr[-1] == csr.indices.size
        assert np.all(np.diff(csr.indptr) >= 0)
        assert int(csr.degrees().sum()) == 2 * csr.n_edges
        for u in range(csr.n_vertices):
            row = csr.neighbors(u)
            assert np.all(np.diff(row) > 0)  # sorted, duplicate-free

    @given(all_series)
    @settings(max_examples=30, deadline=None)
    def test_round_trip_through_graph(self, values):
        reference = visibility_graph_dc(values)
        csr = CSRGraph.from_graph(reference)
        assert csr.to_graph() == reference
        assert np.array_equal(csr.degrees(), reference.degrees())
        edges = csr.edge_array()
        assert {tuple(e) for e in edges.tolist()} == set(reference.edges())

    def test_has_edge(self):
        series = np.asarray([1.0, 3.0, 2.0, 4.0])
        csr = fast_visibility_graph_csr(series)
        reference = visibility_graph_naive(series)
        for u in range(4):
            for v in range(4):
                if u != v:
                    assert csr.has_edge(u, v) == reference.has_edge(u, v)

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(IndexError):
            CSRGraph.from_edge_array(3, np.asarray([[0, 3]]))

    def test_rejects_self_loops_and_duplicates(self):
        with pytest.raises(ValueError, match="self loop"):
            CSRGraph.from_edge_array(3, np.asarray([[1, 1]]))
        with pytest.raises(ValueError, match="duplicate"):
            CSRGraph.from_edge_array(3, np.asarray([[0, 1], [1, 0]]))

    def test_batch_builder(self):
        X = np.random.default_rng(0).normal(size=(5, 64))
        for kind, reference in (
            ("vg", visibility_graph_dc),
            ("hvg", horizontal_visibility_graph),
        ):
            graphs = visibility_graphs_batch(X, kind=kind)
            assert len(graphs) == 5
            for row, csr in zip(X, graphs):
                assert csr.to_graph() == reference(row)
        with pytest.raises(ValueError):
            visibility_graphs_batch(X, kind="nope")


class TestBatchExtractorParity:
    """BatchFeatureExtractor == FeatureExtractor, bit for bit."""

    @pytest.fixture(scope="class")
    def dataset(self):
        rng = np.random.default_rng(9)
        # Include exact ties so graph construction differences would show.
        X = np.round(rng.normal(size=(10, 96)), 1)
        return X

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_parallel_matches_serial_bit_for_bit(self, dataset, n_jobs, tmp_path):
        config = FeatureConfig()
        serial = FeatureExtractor(config)
        expected = serial.transform(dataset)
        batch = BatchFeatureExtractor(
            config, n_jobs=n_jobs, cache=False, cache_dir=tmp_path
        )
        result = batch.transform(dataset)
        assert np.array_equal(expected, result)
        assert batch.feature_names_ == serial.feature_names_

    def test_cache_round_trip_bit_for_bit(self, dataset, tmp_path):
        config = FeatureConfig(scales="uvg")
        serial = FeatureExtractor(config)
        expected = serial.transform(dataset)
        batch = BatchFeatureExtractor(config, n_jobs=1, cache_dir=tmp_path)
        first = batch.transform(dataset)
        assert batch.last_cache_misses_ == len(dataset)
        second = batch.transform(dataset)
        assert batch.last_cache_hits_ == len(dataset)
        assert batch.last_cache_misses_ == 0
        assert np.array_equal(expected, first)
        assert np.array_equal(expected, second)
        assert batch.feature_names_ == serial.feature_names_

    def test_cache_is_config_sensitive(self, dataset, tmp_path):
        full = BatchFeatureExtractor(FeatureConfig(), cache_dir=tmp_path)
        mpds = BatchFeatureExtractor(
            FeatureConfig(features="mpds"), cache_dir=tmp_path
        )
        wide = full.transform(dataset)
        narrow = mpds.transform(dataset)
        assert mpds.last_cache_hits_ == 0  # different config, different keys
        assert wide.shape[1] > narrow.shape[1]

    def test_corrupt_cache_entry_is_a_miss(self, dataset, tmp_path):
        config = FeatureConfig(scales="uvg", graphs="hvg", features="mpds")
        batch = BatchFeatureExtractor(config, cache_dir=tmp_path)
        expected = batch.transform(dataset)
        key = series_cache_key(np.ascontiguousarray(dataset[0]), config)
        (tmp_path / f"{key}.npy").write_bytes(b"not an npy file")
        again = batch.transform(dataset)
        assert batch.last_cache_misses_ == 1
        assert np.array_equal(expected, again)

    def test_fast_flag_changes_nothing_numerically(self, dataset):
        config = FeatureConfig()
        fast = FeatureExtractor(config).transform(dataset)
        slow = FeatureExtractor(config, fast=False).transform(dataset)
        assert np.array_equal(fast, slow)

    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ValueError):
            BatchFeatureExtractor(n_jobs=0)
        with pytest.raises(ValueError):
            BatchFeatureExtractor(n_jobs=-2)

    def test_env_knob_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            BatchFeatureExtractor()
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert BatchFeatureExtractor().n_jobs == 3
