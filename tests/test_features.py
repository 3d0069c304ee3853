"""MVG feature extraction (Algorithm 1) and the Table-2 column masks."""

import numpy as np
import pytest

from repro.core.config import HEURISTIC_COLUMNS, FeatureConfig
from repro.core.features import (
    FeatureExtractor,
    extract_feature_vector,
    feature_mask,
    graph_feature_dict,
)
from repro.graph import Graph


@pytest.fixture
def series(rng):
    return rng.normal(size=96)


class TestGraphFeatureDict:
    def test_mpds_only(self):
        features = graph_feature_dict(Graph(5, [(0, 1), (1, 2)]), include_stats=False)
        assert len(features) == 17
        assert all(key.startswith("P(M") for key in features)

    def test_with_stats(self):
        features = graph_feature_dict(Graph(5, [(0, 1), (1, 2)]), include_stats=True)
        assert len(features) == 23
        assert "Density" in features
        assert "Assort." in features
        assert "KCore" in features


class TestExtractFeatureVector:
    def test_uvg_both_graphs_all_features(self, series):
        config = FeatureConfig(scales="uvg", graphs="both", features="all")
        vector, names = extract_feature_vector(series, config)
        assert vector.size == 2 * 23
        assert names[0].startswith("T0 VG")
        assert any(name.startswith("T0 HVG") for name in names)

    def test_mvg_scales_multiply_features(self, series):
        config = FeatureConfig(scales="mvg", graphs="both", features="all")
        vector, names = extract_feature_vector(series, config)
        # length 96 -> scales 96, 48, 24 (tau=15): 3 scales x 2 graphs x 23
        assert vector.size == 3 * 2 * 23
        assert {name.split(" ")[0] for name in names} == {"T0", "T1", "T2"}

    def test_amvg_excludes_original(self, series):
        config = FeatureConfig(scales="amvg", graphs="vg", features="all")
        _, names = extract_feature_vector(series, config)
        assert all(not name.startswith("T0 ") for name in names)

    def test_hvg_only(self, series):
        config = FeatureConfig(scales="uvg", graphs="hvg", features="mpds")
        vector, names = extract_feature_vector(series, config)
        assert vector.size == 17
        assert all("HVG" in name for name in names)

    def test_values_finite(self, series):
        vector, _ = extract_feature_vector(series, FeatureConfig())
        assert np.all(np.isfinite(vector))

    def test_too_short_for_amvg_raises(self):
        config = FeatureConfig(scales="amvg")
        with pytest.raises(ValueError):
            extract_feature_vector(np.ones(16), config)

    @pytest.mark.parametrize("scales", ["uvg", "mvg", "amvg"])
    def test_empty_series_raises(self, scales):
        # An empty series used to extract as a row of zeros under uvg and
        # mvg, a vector that looks real.
        with pytest.raises(ValueError, match="empty series"):
            extract_feature_vector(np.array([]), FeatureConfig(scales=scales))

    def test_names_follow_figure10_convention(self, series):
        _, names = extract_feature_vector(series, FeatureConfig())
        assert "T0 HVG P(M44)" in names
        assert "T1 VG Assort." in names


class TestFeatureMask:
    @pytest.fixture
    def full_layout(self, series):
        extractor = FeatureExtractor(HEURISTIC_COLUMNS["G"])
        features = extractor.transform(series[None, :])
        return features, extractor.feature_names_

    @pytest.mark.parametrize("column", list("ABCDEF"))
    def test_mask_equals_direct_extraction(self, series, full_layout, column):
        full_features, names = full_layout
        config = HEURISTIC_COLUMNS[column]
        mask = feature_mask(names, config)
        direct, direct_names = extract_feature_vector(series, config)
        assert [n for n, m in zip(names, mask) if m] == direct_names
        assert np.allclose(full_features[0, mask], direct)

    def test_g_mask_is_identity(self, full_layout):
        _, names = full_layout
        assert feature_mask(names, HEURISTIC_COLUMNS["G"]).all()


class TestFeatureExtractor:
    def test_batch_shape(self, rng):
        X = rng.normal(size=(5, 64))
        extractor = FeatureExtractor(FeatureConfig(scales="uvg"))
        features = extractor.transform(X)
        assert features.shape == (5, 46)
        assert len(extractor.feature_names_) == 46

    def test_single_series_promoted(self, rng):
        extractor = FeatureExtractor(FeatureConfig(scales="uvg"))
        features = extractor.transform(rng.normal(size=64))
        assert features.shape == (1, 46)

    def test_n_features_probe(self):
        extractor = FeatureExtractor(FeatureConfig())
        assert extractor.n_features(96) == 3 * 2 * 23

    def test_deterministic(self, rng):
        X = rng.normal(size=(3, 64))
        e1 = FeatureExtractor(FeatureConfig()).transform(X)
        e2 = FeatureExtractor(FeatureConfig()).transform(X)
        assert np.array_equal(e1, e2)

    def test_affine_invariance_of_graph_features(self, rng):
        """The full MVG feature vector is invariant to affine transforms of
        the series (VG/HVG invariance carries through motif counting)."""
        x = rng.normal(size=80)
        f1 = FeatureExtractor(FeatureConfig()).transform(x)
        f2 = FeatureExtractor(FeatureConfig()).transform(3.0 * x + 7.0)
        assert np.allclose(f1, f2)


class TestConfigValidation:
    def test_bad_scales(self):
        with pytest.raises(ValueError):
            FeatureConfig(scales="nope")

    def test_bad_graphs(self):
        with pytest.raises(ValueError):
            FeatureConfig(graphs="nope")

    def test_bad_features(self):
        with pytest.raises(ValueError):
            FeatureConfig(features="nope")

    def test_negative_tau(self):
        with pytest.raises(ValueError):
            FeatureConfig(tau=-1)

    def test_heuristic_columns_complete(self):
        assert set(HEURISTIC_COLUMNS) == set("ABCDEFG")

    def test_heuristic_lookup(self):
        from repro.core.config import heuristic_config

        assert heuristic_config("g") == HEURISTIC_COLUMNS["G"]
        with pytest.raises(KeyError):
            heuristic_config("Z")

    def test_column_g_is_full_mvg(self):
        config = HEURISTIC_COLUMNS["G"]
        assert config.scales == "mvg"
        assert config.graphs == "both"
        assert config.features == "all"
