"""JSON model persistence round-trips."""

import numpy as np
import pytest

from repro.registry import REGISTRY, available
from repro.ml import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
    MinMaxScaler,
    RandomForestClassifier,
)
from repro.ml.persistence import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)


def roundtrip(model):
    return model_from_dict(model_to_dict(model))


class TestEstimatorRoundtrips:
    def test_decision_tree(self, blobs):
        X, y = blobs
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        restored = roundtrip(model)
        assert np.array_equal(restored.predict(X), model.predict(X))
        assert np.allclose(restored.predict_proba(X), model.predict_proba(X))

    def test_random_forest(self, blobs):
        X, y = blobs
        model = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        restored = roundtrip(model)
        assert np.allclose(restored.predict_proba(X), model.predict_proba(X))

    def test_gradient_boosting(self, blobs):
        X, y = blobs
        model = GradientBoostingClassifier(n_estimators=8, random_state=0).fit(X, y)
        restored = roundtrip(model)
        assert np.allclose(restored.predict_proba(X), model.predict_proba(X))

    def test_gradient_boosting_binary(self, binary_blobs):
        X, y = binary_blobs
        model = GradientBoostingClassifier(n_estimators=5, random_state=0).fit(X, y)
        restored = roundtrip(model)
        assert np.allclose(restored.predict_proba(X), model.predict_proba(X))

    def test_logistic_regression(self, blobs):
        X, y = blobs
        model = LogisticRegression().fit(X, y)
        restored = roundtrip(model)
        assert np.allclose(restored.predict_proba(X), model.predict_proba(X))

    def test_minmax_scaler(self, rng):
        X = rng.normal(size=(10, 3))
        scaler = MinMaxScaler().fit(X)
        restored = roundtrip(scaler)
        assert np.allclose(restored.transform(X), scaler.transform(X))

    def test_string_labels_preserved(self):
        X = np.array([[0.0], [10.0], [0.5], [9.5]])
        y = np.array(["low", "high", "low", "high"])
        model = DecisionTreeClassifier().fit(X, y)
        restored = roundtrip(model)
        assert list(restored.predict(X)) == list(model.predict(X))
        assert restored.classes_.dtype == model.classes_.dtype


class TestMVGPipelinePersistence:
    def test_roundtrip_predictions(self, tiny_series_dataset, tmp_path):
        from repro.core import MVGClassifier

        X_tr, y_tr, X_te, _ = tiny_series_dataset
        model = MVGClassifier(random_state=0).fit(X_tr, y_tr)
        path = save_model(model, tmp_path / "mvg.json")
        restored = load_model(path)
        assert np.array_equal(restored.predict(X_te), model.predict(X_te))
        assert restored.feature_names_ == model.feature_names_

    def test_grid_searched_pipeline_persists_best(self, tiny_series_dataset, tmp_path):
        from repro.core import MVGClassifier

        X_tr, y_tr, X_te, _ = tiny_series_dataset
        model = MVGClassifier(
            param_grid={"n_estimators": [5, 10]}, random_state=0
        ).fit(X_tr, y_tr)
        restored = load_model(save_model(model, tmp_path / "mvg.json"))
        assert np.array_equal(restored.predict(X_te), model.predict(X_te))


#: Registry classifiers persistence deliberately does not cover yet.
#: A new registry entry must either round-trip below or be added here
#: *consciously* — it can no longer lack a serializer silently.
KNOWN_UNSERIALIZABLE = {
    "boss",
    "bop",
    "fs",
    "ls",
    "mvg-stacking",
    "sax-vsm",
    "svm",
    "wl-kernel",
}


class TestEveryRegistryClassifier:
    def test_known_unserializable_names_are_current(self):
        names = {entry.name for entry in available("classifier")}
        assert KNOWN_UNSERIALIZABLE <= names, "stale KNOWN_UNSERIALIZABLE entry"

    @pytest.mark.parametrize(
        "name", sorted(entry.name for entry in available("classifier"))
    )
    def test_save_load_identical_predictions(
        self, name, blobs, tiny_series_dataset, tmp_path
    ):
        model = REGISTRY.make(name)
        if name in KNOWN_UNSERIALIZABLE:
            with pytest.raises(TypeError):
                model_to_dict(model)
            return
        if REGISTRY.entry(name).consumes == "features":
            X_fit, y_fit = blobs
            X_eval = X_fit
        else:
            X_fit, y_fit, X_eval, _ = tiny_series_dataset
        if "random_state" in model.get_params():
            model.set_params(random_state=0)
        model.fit(X_fit, y_fit)
        restored = load_model(save_model(model, tmp_path / f"{name}.json"))
        assert np.array_equal(restored.predict(X_eval), model.predict(X_eval))


class TestErrors:
    def test_unsupported_model(self):
        with pytest.raises(TypeError):
            model_to_dict(object())

    def test_bad_version(self):
        blob = {"version": 99, "kind": "DecisionTreeClassifier"}
        with pytest.raises(ValueError):
            model_from_dict(blob)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            model_from_dict({"version": 1, "kind": "Nope"})

    def test_file_roundtrip(self, blobs, tmp_path):
        X, y = blobs
        model = DecisionTreeClassifier(max_depth=2).fit(X, y)
        path = save_model(model, tmp_path / "tree.json")
        assert path.exists()
        restored = load_model(path)
        assert np.array_equal(restored.predict(X), model.predict(X))


class TestFeatureExtractorBlobs:
    def test_new_blob_has_no_fast_key(self):
        from repro.core.config import HEURISTIC_COLUMNS
        from repro.core.features import FeatureExtractor

        blob = model_to_dict(FeatureExtractor(HEURISTIC_COLUMNS["B"]))
        assert "fast" not in blob
        assert roundtrip(FeatureExtractor(HEURISTIC_COLUMNS["B"])).config == HEURISTIC_COLUMNS["B"]

    def test_old_blob_with_fast_key_loads_silently(self):
        """Blobs written while ``fast=`` selected a builder carry a
        ``"fast"`` key; it loads, warns nothing, and extracts the same."""
        import warnings
        from dataclasses import asdict

        from repro.core.config import FeatureConfig
        from repro.core.features import FeatureExtractor

        config = FeatureConfig(scales="amvg", graphs="vg")
        blob = {"version": 1, "kind": "FeatureExtractor", "config": asdict(config), "fast": False}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restored = model_from_dict(blob)
        X = np.round(np.random.default_rng(3).normal(size=(3, 64)), 1)
        assert np.array_equal(restored.transform(X), FeatureExtractor(config).transform(X))
