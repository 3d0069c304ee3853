"""Feature extraction from multiscale visibility graphs (Algorithm 1).

Every series is expanded into its multiscale representation, each scale
is transformed into a VG and/or HVG (a :class:`~repro.graph.fast.CSRGraph`
from :mod:`repro.graph.fast`; no set :class:`Graph` is built on this
path), and from every graph we extract

* the motif probability distributions (normalised within the five
  size/connectivity groups of Section 3.1), and
* optionally the cheap statistical features: density, k-core,
  assortativity and degree max/min/mean.

Feature names follow the paper's Figure 10 convention, e.g.
``"T0 HVG P(M44)"`` or ``"T2 VG Assort."``, so the case study's output is
directly comparable.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from repro.core.config import FeatureConfig
from repro.core.multiscale import multiscale_representation
from repro.graph import fast as fast_builders
from repro.graph.adjacency import Graph
from repro.graph.extended_metrics import (
    EXTENDED_FEATURE_NAMES,
    extended_graph_statistics,
)
from repro.graph.fast import CSRGraph, CSRUnion, as_union
from repro.graph.metrics import STAT_KEYS, graph_statistics
from repro.graph.motifs import MOTIF_NAMES, count_motifs

#: Display names of the statistical (non-MPD) features.
_STAT_LABELS = {
    "density": "Density",
    "kcore": "KCore",
    "assortativity": "Assort.",
    "degree_max": "DegMax",
    "degree_min": "DegMin",
    "degree_mean": "DegMean",
}

_MOTIF_LABELS = tuple(f"P(M{key[1:]})" for key in MOTIF_NAMES)


def graph_feature_labels(include_stats: bool, include_extended: bool) -> tuple[str, ...]:
    """Short labels of one graph's features, in feature order."""
    labels = _MOTIF_LABELS
    if include_stats:
        labels += tuple(_STAT_LABELS[key] for key in STAT_KEYS)
    if include_extended:
        labels += EXTENDED_FEATURE_NAMES
    return labels


def _fill_graph_rows(
    out: np.ndarray,
    union: CSRUnion,
    *,
    horizontal: bool,
    include_stats: bool,
    include_extended: bool,
) -> None:
    """Write the features of every member of ``union`` into ``out``, one
    row per member in :func:`graph_feature_labels` order.

    ``count_motifs`` and ``graph_statistics`` each take the whole union
    and return one result per member; they are looked up on this module
    at call time, so wrappers installed here (``perfbench/tracing.py``)
    see every call.
    """
    n_motifs = len(_MOTIF_LABELS)
    for row, counts in zip(out, count_motifs(union, horizontal=horizontal)):
        row[:n_motifs] = counts.probabilities()
    column = n_motifs
    if include_stats:
        column += len(STAT_KEYS)
        out[:, n_motifs:column] = graph_statistics(union, horizontal=horizontal)
    if include_extended:
        for row, member in zip(out, union.members()):
            row[column:] = tuple(extended_graph_statistics(member).values())


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
    A :class:`~repro.graph.fast.CSRUnion` argument must have one member.
    """
    union = as_union(graph)
    if union.n_members != 1:
        raise ValueError(f"expected one graph, got a union of {union.n_members}")
    labels = graph_feature_labels(include_stats, include_extended)
    row = np.empty((1, len(labels)), dtype=np.float64)
    _fill_graph_rows(
        row,
        union,
        horizontal=horizontal,
        include_stats=include_stats,
        include_extended=include_extended,
    )
    return dict(zip(labels, row[0].tolist()))


def _build_scale_graphs(
    scales: Sequence[np.ndarray], graph_types: tuple[str, ...]
) -> dict[str, CSRUnion]:
    """Visibility graphs of every scale of one series, keyed by graph
    type: each value is the :class:`CSRUnion` of that type's graphs, one
    member per scale in order.

    When both graph types are requested the combined builder shares the
    Cartesian-tree pass between the VG and the HVG of each scale.  The
    builders are looked up on the module at call time, so wrappers
    installed there (``perfbench/tracing.py``) see every call.
    """
    members: dict[str, list[CSRGraph]] = {kind: [] for kind in graph_types}
    for series in scales:
        if len(graph_types) == 2:
            vg, hvg = fast_builders.visibility_graphs(series)
            members["vg"].append(vg)
            members["hvg"].append(hvg)
        elif graph_types[0] == "vg":
            members["vg"].append(fast_builders.fast_visibility_graph_csr(series))
        else:
            members["hvg"].append(fast_builders.fast_horizontal_visibility_graph_csr(series))
    return {kind: CSRUnion.of(graphs) for kind, graphs in members.items()}


def scale_plan(window: int, config: FeatureConfig) -> list[tuple[int, int]]:
    """``(scale_index, scale_length)`` pairs a series (or stream window)
    of ``window`` points yields under ``config`` — exactly the scales
    :func:`repro.core.multiscale.multiscale_representation` produces,
    filtered by the config's scale selection."""
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    lengths = [(0, window)]
    length = window // 2
    while length > config.tau:
        lengths.append((len(lengths), length))
        length //= 2
    if config.scales == "uvg":
        plan = lengths[:1]
    elif config.scales == "amvg":
        plan = lengths[1:]
    else:  # mvg
        plan = lengths
    if not plan:
        raise ValueError(
            f"series of length {window} yields no scales for "
            f"{config.scales!r} with tau={config.tau}"
        )
    return plan


def feature_layout_width(window: int, config: FeatureConfig) -> int:
    """Features a series (or stream window) of ``window`` points extracts
    under ``config``.

    Cheap (no extraction): scale count is arithmetic and the per-graph
    layout is constant per feature mode.  Used by the serving tier to
    reject a stream window, or a classify series, whose layout cannot
    match the model's fitted feature width *before* any extraction.
    """
    per_graph = len(graph_feature_labels(config.include_stats, config.include_extended))
    return len(scale_plan(window, config)) * len(config.graph_types()) * per_graph


#: ``(config, scale count) -> feature names``; the layout of a series
#: depends on nothing else.
_LAYOUTS: dict[tuple[FeatureConfig, int], tuple[str, ...]] = {}


def feature_layout(config: FeatureConfig, n_scales: int) -> tuple[str, ...]:
    """Feature names of a series with ``n_scales`` selected scales under
    ``config``: per scale, per graph type, the graph's feature labels."""
    key = (config, n_scales)
    names = _LAYOUTS.get(key)
    if names is None:
        first = 1 if config.scales == "amvg" else 0
        labels = graph_feature_labels(config.include_stats, config.include_extended)
        names = tuple(
            f"T{scale} {kind.upper()} {label}"
            for scale in range(first, first + n_scales)
            for kind in config.graph_types()
            for label in labels
        )
        _LAYOUTS[key] = names
    return names


def _warn_if_fast(fast: bool | None) -> None:
    """Warn, at the caller's caller, that a passed ``fast=`` is ignored."""
    if fast is not None:
        warnings.warn(
            "fast= is deprecated and ignored: every graph is built by repro.graph.fast",
            DeprecationWarning,
            stacklevel=3,
        )


def extract_feature_vector(
    series: np.ndarray, config: FeatureConfig, *, fast: bool | None = None
) -> tuple[np.ndarray, list[str]]:
    """Feature vector and names for one series under ``config``.

    Implements Algorithm 1: build graphs per scale, extract and
    concatenate features.  The scale set depends on ``config.scales``
    (as in :func:`scale_plan`); scale 0 is the original series.  No set
    :class:`Graph` is built, not even for a graph over the motif
    counter's wedge budget.  ``fast`` is deprecated: any value warns.
    An empty series raises ``ValueError``.

    Each graph type's graphs of all scales form one
    :class:`~repro.graph.fast.CSRUnion`, so the metrics run once per
    type over every scale, and their values go straight into the
    feature row; the names come from :func:`feature_layout`.
    """
    _warn_if_fast(fast)
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise ValueError("cannot extract features from an empty series")
    representation = multiscale_representation(series, tau=config.tau)
    scales = [representation[index] for index, _ in scale_plan(series.size, config)]
    graph_types = config.graph_types()
    width = len(graph_feature_labels(config.include_stats, config.include_extended))
    rows = np.empty((len(scales), len(graph_types), width), dtype=np.float64)
    graphs = _build_scale_graphs(scales, graph_types)
    for position, graph_type in enumerate(graph_types):
        _fill_graph_rows(
            rows[:, position],
            graphs[graph_type],
            horizontal=graph_type == "hvg",
            include_stats=config.include_stats,
            include_extended=config.include_extended,
        )
    return rows.ravel(), list(feature_layout(config, len(scales)))


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
    hence columns) would differ.  ``fast`` is deprecated: any value
    warns once and is ignored.  For multiprocessing fan-out and on-disk
    caching see :class:`repro.core.batch.BatchFeatureExtractor`.
    """

    def __init__(self, config: FeatureConfig | None = None, fast: bool | None = None):
        _warn_if_fast(fast)
        self.config = config or FeatureConfig()
        self.feature_names_: list[str] | None = None

    def transform(self, X: np.ndarray) -> np.ndarray:
        """``(n_samples, n_features)`` matrix of MVG features."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        rows = []
        names: list[str] | None = None
        for series in X:
            vector, series_names = extract_feature_vector(series, self.config)
            if names is None:
                names = series_names
            elif names != series_names:
                raise ValueError("inconsistent feature layout across series")
            rows.append(vector)
        self.feature_names_ = names
        return np.stack(rows)

    def n_features(self, series_length: int) -> int:
        """Number of features produced for series of ``series_length``."""
        return feature_layout_width(series_length, self.config)
