"""Graph-kernel time series classification (the Section-5 suggestion).

The related-work section notes that "graph kernel methods can be used
for evaluating graph similarity, which may potentially be used for TSC
as well".  This module implements that idea end to end with the
Weisfeiler–Lehman (WL) subtree kernel:

1. a series is converted to its (multiscale) visibility graphs;
2. vertices start labelled by (bucketed) degree and are iteratively
   relabelled with hashes of their neighbourhood label multisets (the
   1-WL colour refinement);
3. the per-graph colour histogram across all refinement rounds is the
   explicit WL feature map — the WL kernel is its inner product;
4. a linear classifier (logistic regression on L2-normalised feature
   maps) classifies the series.

Exposed as :class:`WLVisibilityKernelClassifier` and compared against
MVG in the ablation benchmark; refinement reads :mod:`repro.graph.fast` CSR rows.
"""

from __future__ import annotations

import zlib
from collections import Counter

import numpy as np

from repro.core.multiscale import multiscale_representation
from repro.graph.adjacency import Graph
from repro.graph.fast import CSRGraph, as_csr, fast_visibility_graph_csr, visibility_graphs
from repro.ml.base import BaseEstimator, check_X_y
from repro.ml.linear import LogisticRegression


def wl_color_histogram(
    graph: Graph | CSRGraph, n_iterations: int, degree_buckets: int = 8
) -> Counter:
    """WL subtree feature map of one graph.

    Vertices start from bucketed-degree labels (visibility graphs of
    different series lengths still share the initial vocabulary), then
    ``n_iterations`` rounds of colour refinement follow; the returned
    counter accumulates every colour seen in every round.  A set
    :class:`Graph` is converted to CSR once.
    """
    graph = as_csr(graph)
    n = graph.n_vertices
    degrees = graph.degrees().tolist()
    max_degree = max(max(degrees), 1) if n else 1
    labels = [
        f"d{min(d * degree_buckets // (max_degree + 1), degree_buckets - 1)}"
        for d in degrees
    ]
    histogram: Counter = Counter(labels)
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    # Compress the (long) signatures into stable short colour ids.
    # zlib.crc32 (not hash()) keeps colours identical across processes
    # regardless of PYTHONHASHSEED.  One palette is shared by all
    # refinement rounds, so a signature seen again (stable colourings
    # converge after a couple of rounds) reuses its interned id instead
    # of being re-hashed and re-allocated each round.
    palette: dict[str, str] = {}
    for _ in range(n_iterations):
        neighbour_labels = [labels[v] for v in indices]
        signatures = [
            f"{label}|{','.join(sorted(neighbour_labels[lo:hi]))}"
            for label, lo, hi in zip(labels, indptr, indptr[1:])
        ]
        for signature in signatures:
            if signature not in palette:
                palette[signature] = f"c{zlib.crc32(signature.encode()):08x}"
        labels = [palette[s] for s in signatures]
        histogram.update(labels)
    return histogram


def wl_kernel_value(a: Counter, b: Counter) -> float:
    """WL subtree kernel: inner product of two colour histograms."""
    if len(a) > len(b):
        a, b = b, a
    return float(sum(count * b.get(color, 0) for color, count in a.items()))


class WLVisibilityKernelClassifier(BaseEstimator):
    """TSC through WL kernels on (multiscale) visibility graphs.

    Parameters
    ----------
    n_iterations:
        WL refinement rounds (2-3 is the usual sweet spot).
    multiscale:
        Use all PAA scales (as MVG does) or only the original series.
    use_hvg:
        Include the HVG of each scale alongside the VG.
    """

    def __init__(
        self,
        n_iterations: int = 2,
        multiscale: bool = True,
        use_hvg: bool = True,
        tau: int = 15,
        C: float = 10.0,
    ):
        self.n_iterations = n_iterations
        self.multiscale = multiscale
        self.use_hvg = use_hvg
        self.tau = tau
        self.C = C

    def _series_histogram(self, series: np.ndarray) -> Counter:
        scales = (
            multiscale_representation(series, tau=self.tau)
            if self.multiscale
            else [series]
        )
        histogram: Counter = Counter()
        for scale_index, scaled in enumerate(scales):
            if self.use_hvg:
                graphs = visibility_graphs(scaled)
            else:
                graphs = (fast_visibility_graph_csr(scaled),)
            for graph_index, graph in enumerate(graphs):
                colors = wl_color_histogram(graph, self.n_iterations)
                # Scope colours per (scale, graph type) so a T0-VG colour
                # never collides with a T2-HVG colour.
                histogram.update(
                    {f"{scale_index}.{graph_index}.{c}": v for c, v in colors.items()}
                )
        return histogram

    def _vectorize(self, histograms: list[Counter]) -> np.ndarray:
        matrix = np.zeros((len(histograms), len(self._vocabulary)))
        for row, histogram in enumerate(histograms):
            for color, count in histogram.items():
                column = self._vocabulary.get(color)
                if column is not None:
                    matrix[row, column] = count
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        return matrix / np.where(norms == 0.0, 1.0, norms)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "WLVisibilityKernelClassifier":
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        histograms = [self._series_histogram(series) for series in X]
        vocabulary = sorted(set().union(*histograms)) if histograms else []
        self._vocabulary = {color: i for i, color in enumerate(vocabulary)}
        features = self._vectorize(histograms)
        self._model = LogisticRegression(C=self.C, max_iter=300)
        self._model.fit(features, y)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        histograms = [self._series_histogram(series) for series in X]
        return self._model.predict_proba(self._vectorize(histograms))

    def kernel_matrix(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """Explicit WL kernel matrix between two series collections
        (exposed for use with kernel machines)."""
        X = np.asarray(X, dtype=np.float64)
        hist_x = [self._series_histogram(series) for series in X]
        hist_y = (
            hist_x
            if Y is None
            else [self._series_histogram(series) for series in np.asarray(Y, dtype=np.float64)]
        )
        out = np.empty((len(hist_x), len(hist_y)))
        for i, a in enumerate(hist_x):
            for j, b in enumerate(hist_y):
                out[i, j] = wl_kernel_value(a, b)
        return out
