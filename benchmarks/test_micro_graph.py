"""Micro-benchmarks backing the complexity claims of Sections 2.1 / 4.5:

* VG divide-and-conquer vs the naive O(n^2) sweep;
* the fast-path (array-backed) builders of :mod:`repro.graph.fast`
  vs both reference builders at n=2048;
* HVG O(n) construction;
* motif counting (the PGD replacement);
* full per-series MVG feature extraction (fast and reference builders);
* DTW with and without a Sakoe-Chiba band, and LB_Keogh.

``benchmarks/test_fastpath.py`` aggregates the headline speedups into
``results/BENCH_fastpath.json``.
"""

import numpy as np
import pytest
from _bench_utils import pick

from repro.core.config import FeatureConfig
from repro.core.features import extract_feature_vector
from repro.distance.dtw import dtw_distance, lb_keogh
from repro.graph.motifs import count_motifs
from repro.graph.visibility import (

    horizontal_visibility_graph,
    visibility_graph_dc,
    visibility_graph_naive,
)

#: Everything in benchmarks/ is a macro/micro benchmark.
pytestmark = pytest.mark.bench


#: Smoke mode (REPRO_BENCH_SMOKE=1) shrinks every series so the whole
#: module stays seconds-cheap while still exercising the code paths.
N_512 = pick(512, 64)
N_2048 = pick(2048, 96)
N_4096 = pick(4096, 128)
N_256 = pick(256, 64)


@pytest.fixture(scope="module")
def series_512():
    return np.random.default_rng(0).normal(size=N_512)


@pytest.fixture(scope="module")
def series_2048():
    return np.random.default_rng(7).normal(size=N_2048)


@pytest.fixture(scope="module")
def series_4096():
    return np.random.default_rng(1).normal(size=N_4096)


def test_vg_naive_512(benchmark, series_512):
    graph = benchmark(visibility_graph_naive, series_512)
    assert graph.is_connected()


def test_vg_divide_conquer_512(benchmark, series_512):
    graph = benchmark(visibility_graph_dc, series_512)
    assert graph == visibility_graph_naive(series_512)


def test_vg_divide_conquer_4096(benchmark, series_4096):
    graph = benchmark(visibility_graph_dc, series_4096)
    assert graph.is_connected()


def test_hvg_4096(benchmark, series_4096):
    graph = benchmark(horizontal_visibility_graph, series_4096)
    assert graph.is_connected()


def test_vg_seed_2048(benchmark, series_2048):
    graph = benchmark(visibility_graph_dc, series_2048)
    assert graph.is_connected()


def test_hvg_seed_2048(benchmark, series_2048):
    graph = benchmark(horizontal_visibility_graph, series_2048)
    assert graph.is_connected()


def test_vg_fast_csr_2048(benchmark, series_2048):
    from repro.graph.fast import fast_visibility_graph_csr

    csr = benchmark(fast_visibility_graph_csr, series_2048)
    assert csr.to_graph() == visibility_graph_dc(series_2048)


def test_hvg_fast_csr_2048(benchmark, series_2048):
    from repro.graph.fast import fast_horizontal_visibility_graph_csr

    csr = benchmark(fast_horizontal_visibility_graph_csr, series_2048)
    assert csr.to_graph() == horizontal_visibility_graph(series_2048)


def test_vg_hvg_fast_combined_2048(benchmark, series_2048):
    from repro.graph.fast import visibility_graphs

    vg, hvg = benchmark(visibility_graphs, series_2048)
    assert vg.n_edges >= hvg.n_edges


def test_vg_hvg_fast_to_graph_2048(benchmark, series_2048):
    from repro.graph.fast import visibility_graphs

    def to_graphs(series):
        return [graph.to_graph() for graph in visibility_graphs(series)]

    vg, hvg = benchmark(to_graphs, series_2048)
    assert vg == visibility_graph_dc(series_2048)
    assert hvg == horizontal_visibility_graph(series_2048)


def test_motif_counting_vg_256(benchmark):
    graph = visibility_graph_dc(np.random.default_rng(2).normal(size=N_256))
    counts = benchmark(count_motifs, graph)
    assert counts.m21 == graph.n_edges


def test_feature_extraction_mvg_256(benchmark):
    series = np.random.default_rng(3).normal(size=N_256)
    vector, names = benchmark(extract_feature_vector, series, FeatureConfig())
    assert vector.size == len(names)


def test_feature_extraction_mvg_256_reference_builders(benchmark):
    series = np.random.default_rng(3).normal(size=N_256)
    vector, names = benchmark(
        lambda: extract_feature_vector(series, FeatureConfig(), fast=False)
    )
    assert vector.size == len(names)


def test_dtw_full_256(benchmark):
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=N_256), rng.normal(size=N_256)
    assert benchmark(dtw_distance, a, b) > 0


def test_dtw_banded_256(benchmark):
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=N_256), rng.normal(size=N_256)
    assert benchmark(dtw_distance, a, b, 0.1) > 0


def test_lb_keogh_256(benchmark):
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=N_256), rng.normal(size=N_256)
    bound = benchmark(lb_keogh, a, b, 0.1)
    assert bound <= dtw_distance(a, b, 0.1) + 1e-9
