"""Feature extraction from multiscale visibility graphs (Algorithm 1).

Every series is expanded into its multiscale representation, each scale
is transformed into a VG and/or HVG, and from every graph we extract

* the motif probability distributions (normalised within the five
  size/connectivity groups of Section 3.1), and
* optionally the cheap statistical features: density, k-core,
  assortativity and degree max/min/mean.

Feature names follow the paper's Figure 10 convention, e.g.
``"T0 HVG P(M44)"`` or ``"T2 VG Assort."``, so the case study's output is
directly comparable.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FeatureConfig
from repro.core.multiscale import multiscale_representation
from repro.graph import fast as fast_builders
from repro.graph.adjacency import Graph
from repro.graph.fast import CSRGraph
from repro.graph.metrics import graph_statistics
from repro.graph.motifs import MOTIF_NAMES, count_motifs
from repro.graph.visibility import horizontal_visibility_graph, visibility_graph

#: Display names of the statistical (non-MPD) features.
_STAT_LABELS = {
    "density": "Density",
    "kcore": "KCore",
    "assortativity": "Assort.",
    "degree_max": "DegMax",
    "degree_min": "DegMin",
    "degree_mean": "DegMean",
}

_MOTIF_KEYS = tuple(MOTIF_NAMES)


def assemble_feature_dict(
    motifs, stats: dict[str, float] | None, extended: dict[str, float] | None
) -> dict[str, float]:
    """Labelled feature dict from already-computed metric values.

    The single assembly point both extraction paths share: the batch
    path (:func:`graph_feature_dict`) feeds it values from the stateless
    metric functions, the streaming path
    (:class:`repro.core.streaming.StreamingFeatureExtractor`) from its
    delta-maintained metric banks — so label set and ordering cannot
    drift between the two.
    """
    out = {
        f"P(M{key[1:]})": value
        for key, value in motifs.probability_distributions().items()
    }
    if stats is not None:
        out.update({_STAT_LABELS[key]: value for key, value in stats.items()})
    if extended is not None:
        out.update(extended)
    return out


def graph_feature_dict(
    graph: Graph | CSRGraph,
    include_stats: bool = True,
    include_extended: bool = False,
    *,
    horizontal: bool = False,
) -> dict[str, float]:
    """Features of a single graph, keyed by short feature label.

    ``include_extended`` adds the Section-6 future-work features
    (degree entropy, bipartivity, centrality, clustering statistics).
    ``horizontal`` declares ``graph`` an HVG, whose k-core and 4-clique
    count are closed forms (:func:`repro.graph.metrics.hvg_degeneracy`).
    """
    stats = graph_statistics(graph, horizontal=horizontal) if include_stats else None
    if include_extended:
        from repro.graph.extended_metrics import extended_graph_statistics

        extended = extended_graph_statistics(graph)
    else:
        extended = None
    return assemble_feature_dict(
        count_motifs(graph, horizontal=horizontal), stats, extended
    )


#: Reference (pure-Python) builders; the fast path must stay
#: graph-identical to these (enforced by the property tests).
_REFERENCE_BUILDERS = {
    "vg": visibility_graph,
    "hvg": horizontal_visibility_graph,
}


def _build_scale_graphs(
    series: np.ndarray, graph_types: tuple[str, ...], fast: bool
) -> dict[str, CSRGraph]:
    """Visibility graphs of one scale as :class:`CSRGraph`, keyed by
    graph type (``fast=False`` converts the reference builders' graphs).

    When both graph types are requested the combined builder shares the
    Cartesian-tree pass between the VG and the HVG.  The builders are
    looked up on the module at call time, so wrappers installed there
    (``perfbench/tracing.py``) see every call.
    """
    if not fast:
        return {
            kind: CSRGraph.from_graph(_REFERENCE_BUILDERS[kind](series))
            for kind in graph_types
        }
    if len(graph_types) == 2:
        vg, hvg = fast_builders.visibility_graphs(series)
        return {"vg": vg, "hvg": hvg}
    if graph_types[0] == "vg":
        return {"vg": fast_builders.fast_visibility_graph_csr(series)}
    return {"hvg": fast_builders.fast_horizontal_visibility_graph_csr(series)}


def extract_feature_vector(
    series: np.ndarray, config: FeatureConfig, *, fast: bool = True
) -> tuple[np.ndarray, list[str]]:
    """Feature vector and names for one series under ``config``.

    Implements Algorithm 1: build graphs per scale, extract and
    concatenate features.  The scale set depends on ``config.scales``;
    scale 0 is the original series.  ``fast=False`` forces the reference
    graph builders (the outputs are identical either way; only the
    builder wall-clock differs).  No set :class:`Graph` is built unless
    a graph exceeds the motif counter's wedge budget.
    """
    series = np.asarray(series, dtype=np.float64)
    representation = multiscale_representation(series, tau=config.tau)
    if config.scales == "uvg":
        scales = [(0, representation[0])]
    elif config.scales == "amvg":
        scales = list(enumerate(representation))[1:]
    else:  # mvg
        scales = list(enumerate(representation))
    if not scales:
        raise ValueError(
            f"series of length {series.size} yields no scales for "
            f"{config.scales!r} with tau={config.tau}"
        )

    values: list[float] = []
    names: list[str] = []
    for scale_index, scaled_series in scales:
        graphs = _build_scale_graphs(scaled_series, config.graph_types(), fast)
        for graph_type in config.graph_types():
            graph = graphs[graph_type]
            features = graph_feature_dict(
                graph,
                include_stats=config.include_stats,
                include_extended=config.include_extended,
                horizontal=graph_type == "hvg",
            )
            prefix = f"T{scale_index} {graph_type.upper()}"
            for label, value in features.items():
                names.append(f"{prefix} {label}")
                values.append(value)
    return np.asarray(values, dtype=np.float64), names


def feature_mask(names: list[str], config: FeatureConfig) -> np.ndarray:
    """Boolean mask selecting, from a *full* MVG feature layout (Table 2
    column G), the columns belonging to ``config``.

    Lets sweeps extract features once and slice every heuristic column
    out of the superset; equivalent to extracting under ``config``
    directly (asserted in the tests).
    """

    def keep(name: str) -> bool:
        scale_token, graph_token, _ = name.split(" ", 2)
        if config.scales == "uvg" and scale_token != "T0":
            return False
        if config.scales == "amvg" and scale_token == "T0":
            return False
        if config.graphs != "both" and graph_token.lower() != config.graphs:
            return False
        if config.features == "mpds" and "P(M" not in name:
            return False
        return True

    return np.array([keep(name) for name in names], dtype=bool)


class FeatureExtractor:
    """Batch MVG feature extraction with stable column ordering.

    Series of equal length produce identical feature layouts; mixed
    lengths are rejected at ``transform`` time because scale counts (and
    hence columns) would differ.

    ``fast=False`` pins the reference graph builders (useful for
    benchmarking the fast path against the seed behaviour; outputs are
    identical).  For multiprocessing fan-out and on-disk caching see
    :class:`repro.core.batch.BatchFeatureExtractor`.
    """

    def __init__(self, config: FeatureConfig | None = None, fast: bool = True):
        self.config = config or FeatureConfig()
        self.fast = fast
        self.feature_names_: list[str] | None = None

    def transform(self, X: np.ndarray) -> np.ndarray:
        """``(n_samples, n_features)`` matrix of MVG features."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        rows = []
        names: list[str] | None = None
        for series in X:
            vector, series_names = extract_feature_vector(
                series, self.config, fast=self.fast
            )
            if names is None:
                names = series_names
            elif names != series_names:
                raise ValueError("inconsistent feature layout across series")
            rows.append(vector)
        self.feature_names_ = names
        return np.stack(rows)

    def n_features(self, series_length: int) -> int:
        """Number of features produced for series of ``series_length``."""
        probe = np.linspace(0.0, 1.0, series_length)
        vector, _ = extract_feature_vector(probe, self.config)
        return vector.size
