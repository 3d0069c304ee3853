"""JSON persistence for fitted models.

A deployment-oriented extra: trained MVG pipelines can be saved and
reloaded without pickle (human-readable, versionable, safe to share).
Supported estimators: decision trees, random forests, the gradient
booster, logistic regression, the nearest-neighbour family (1NN-ED,
1NN-DTW, k-NN — their fitted state is the training set),
the min-max/standard scalers, the MVG
feature extractors and series mappers, the end-to-end
:class:`~repro.core.pipeline.MVGClassifier` and composable
:class:`~repro.api.pipeline.Pipeline` chains whose steps are themselves
supported (grid-searched pipelines persist their refit best estimator).

This is what the CLI verbs round-trip::

    python -m repro fit --model mvg:A --dataset Wine --out wine.json
    python -m repro predict --model-file wine.json --dataset Wine

Usage::

    from repro.ml.persistence import save_model, load_model

    save_model(clf, "model.json")
    clf = load_model("model.json")
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.ioutil import atomic_write_json
from repro.ml.boosting import GradientBoostingClassifier, _BoostTree
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LogisticRegression
from repro.ml.preprocessing import MinMaxScaler
from repro.ml.tree import DecisionTreeClassifier, _Node

FORMAT_VERSION = 1


def _classes_to_json(classes: np.ndarray) -> dict[str, Any]:
    return {"dtype": str(classes.dtype), "values": classes.tolist()}


def _classes_from_json(blob: dict[str, Any]) -> np.ndarray:
    return np.asarray(blob["values"], dtype=blob["dtype"])


# -- per-estimator encoders ---------------------------------------------------


def _tree_to_dict(model: DecisionTreeClassifier) -> dict[str, Any]:
    nodes = [
        {
            "feature": node.feature,
            "threshold": node.threshold,
            "left": node.left,
            "right": node.right,
            "value": None if node.value is None else node.value.tolist(),
        }
        for node in model._nodes
    ]
    return {
        "params": model.get_params(),
        "classes": _classes_to_json(model.classes_),
        "n_features": model.n_features_,
        "nodes": nodes,
        "feature_importances": model.feature_importances_.tolist(),
    }


def _tree_from_dict(blob: dict[str, Any]) -> DecisionTreeClassifier:
    model = DecisionTreeClassifier(**blob["params"])
    model.classes_ = _classes_from_json(blob["classes"])
    model.n_features_ = blob["n_features"]
    model._nodes = [
        _Node(
            feature=node["feature"],
            threshold=node["threshold"],
            left=node["left"],
            right=node["right"],
            value=None if node["value"] is None else np.asarray(node["value"]),
        )
        for node in blob["nodes"]
    ]
    model.feature_importances_ = np.asarray(blob["feature_importances"])
    return model


def _forest_to_dict(model: RandomForestClassifier) -> dict[str, Any]:
    return {
        "params": model.get_params(),
        "classes": _classes_to_json(model.classes_),
        "trees": [_tree_to_dict(tree) for tree in model.estimators_],
    }


def _forest_from_dict(blob: dict[str, Any]) -> RandomForestClassifier:
    model = RandomForestClassifier(**blob["params"])
    model.classes_ = _classes_from_json(blob["classes"])
    model.estimators_ = [_tree_from_dict(t) for t in blob["trees"]]
    model.feature_importances_ = np.mean(
        [tree.feature_importances_ for tree in model.estimators_], axis=0
    )
    return model


def _boosting_to_dict(model: GradientBoostingClassifier) -> dict[str, Any]:
    rounds = [
        [
            {
                "feature": tree.feature,
                "threshold": tree.threshold,
                "left": tree.left,
                "right": tree.right,
                "value": tree.value,
            }
            for tree in round_trees
        ]
        for round_trees in model.trees_
    ]
    return {
        "params": model.get_params(),
        "classes": _classes_to_json(model.classes_),
        "n_outputs": model._n_outputs,
        "n_features": model.n_features_,
        "rounds": rounds,
    }


def _boosting_from_dict(blob: dict[str, Any]) -> GradientBoostingClassifier:
    model = GradientBoostingClassifier(**blob["params"])
    model.classes_ = _classes_from_json(blob["classes"])
    model._n_outputs = blob["n_outputs"]
    model.n_features_ = blob["n_features"]
    model.trees_ = []
    for round_blob in blob["rounds"]:
        round_trees = []
        for tree_blob in round_blob:
            tree = _BoostTree(
                feature=list(tree_blob["feature"]),
                threshold=list(tree_blob["threshold"]),
                left=list(tree_blob["left"]),
                right=list(tree_blob["right"]),
                value=list(tree_blob["value"]),
            )
            round_trees.append(tree)
        model.trees_.append(round_trees)
    model._compile()
    return model


def _logistic_to_dict(model: LogisticRegression) -> dict[str, Any]:
    return {
        "params": model.get_params(),
        "classes": _classes_to_json(model.classes_),
        "coef": model.coef_.tolist(),
        "intercept": np.asarray(model.intercept_).tolist(),
        "center": model._center.tolist(),
    }


def _logistic_from_dict(blob: dict[str, Any]) -> LogisticRegression:
    model = LogisticRegression(**blob["params"])
    model.classes_ = _classes_from_json(blob["classes"])
    model.coef_ = np.asarray(blob["coef"])
    model.intercept_ = np.asarray(blob["intercept"])
    model._center = np.asarray(blob["center"])
    return model


def _scaler_to_dict(model: MinMaxScaler) -> dict[str, Any]:
    return {"min": model.min_.tolist(), "scale": model.scale_.tolist()}


def _scaler_from_dict(blob: dict[str, Any]) -> MinMaxScaler:
    model = MinMaxScaler()
    model.min_ = np.asarray(blob["min"])
    model.scale_ = np.asarray(blob["scale"])
    return model


def _standard_scaler_to_dict(model: Any) -> dict[str, Any]:
    return {"mean": model.mean_.tolist(), "scale": model.scale_.tolist()}


def _standard_scaler_from_dict(blob: dict[str, Any]) -> Any:
    from repro.ml.preprocessing import StandardScaler

    model = StandardScaler()
    model.mean_ = np.asarray(blob["mean"])
    model.scale_ = np.asarray(blob["scale"])
    return model


def _params_only_to_dict(model: Any) -> dict[str, Any]:
    """Encoder for stateless components fully described by get_params."""
    return {"params": model.get_params()}


def _params_only_from_dict(cls: type) -> Any:
    def decode(blob: dict[str, Any]) -> Any:
        return cls(**blob["params"])

    return decode


def _feature_extractor_to_dict(model: Any) -> dict[str, Any]:
    from dataclasses import asdict

    return {"config": asdict(model.config)}


def _feature_extractor_from_dict(blob: dict[str, Any]) -> Any:
    from repro.core.config import FeatureConfig
    from repro.core.features import FeatureExtractor

    # A ``"fast"`` key (older blobs) selected nothing numerically: ignored.
    return FeatureExtractor(FeatureConfig(**blob["config"]))


def _batch_extractor_to_dict(model: Any) -> dict[str, Any]:
    from dataclasses import asdict

    # n_jobs and the cache directory are machine-local runtime knobs;
    # reloaded extractors fall back to their defaults.
    return {"config": asdict(model.config), "cache": model.cache}


def _batch_extractor_from_dict(blob: dict[str, Any]) -> Any:
    from repro.core.batch import BatchFeatureExtractor
    from repro.core.config import FeatureConfig

    return BatchFeatureExtractor(FeatureConfig(**blob["config"]), cache=blob["cache"])


def _memorizer_to_dict(model: Any) -> dict[str, Any]:
    """Encoder for instance-based models whose fitted state is the
    training set itself (1-NN baselines, k-NN)."""
    return {
        "params": model.get_params(),
        "classes": _classes_to_json(model.classes_),
        "X": model._X.tolist(),
        "y": _classes_to_json(model._y),
    }


def _memorizer_from_dict(import_path: tuple[str, str]):
    module_name, class_name = import_path

    def decode(blob: dict[str, Any]) -> Any:
        import importlib

        cls = getattr(importlib.import_module(module_name), class_name)
        model = cls(**blob["params"])
        model._X = np.asarray(blob["X"], dtype=np.float64)
        model._y = _classes_from_json(blob["y"])
        model.classes_ = _classes_from_json(blob["classes"])
        return model

    return decode


def _memorizer_encoders() -> dict[str, tuple]:
    return {
        class_name: (
            _memorizer_to_dict,
            _memorizer_from_dict((module_name, class_name)),
        )
        for module_name, class_name in (
            ("repro.baselines.nn", "NearestNeighborEuclidean"),
            ("repro.baselines.nn", "NearestNeighborDTW"),
            ("repro.ml.knn", "KNeighborsClassifier"),
        )
    }


def _mapper_encoders() -> dict[str, tuple]:
    from repro.api.mappers import IdentityMapper, PAADownsampler, ZNormalizer

    return {
        "IdentityMapper": (_params_only_to_dict, _params_only_from_dict(IdentityMapper)),
        "ZNormalizer": (_params_only_to_dict, _params_only_from_dict(ZNormalizer)),
        "PAADownsampler": (_params_only_to_dict, _params_only_from_dict(PAADownsampler)),
    }


_ENCODERS = {
    "DecisionTreeClassifier": (_tree_to_dict, _tree_from_dict),
    "RandomForestClassifier": (_forest_to_dict, _forest_from_dict),
    "GradientBoostingClassifier": (_boosting_to_dict, _boosting_from_dict),
    "LogisticRegression": (_logistic_to_dict, _logistic_from_dict),
    "MinMaxScaler": (_scaler_to_dict, _scaler_from_dict),
    "StandardScaler": (_standard_scaler_to_dict, _standard_scaler_from_dict),
    "FeatureExtractor": (_feature_extractor_to_dict, _feature_extractor_from_dict),
    "BatchFeatureExtractor": (_batch_extractor_to_dict, _batch_extractor_from_dict),
}
_ENCODERS.update(_mapper_encoders())
_ENCODERS.update(_memorizer_encoders())


def model_to_dict(model: Any) -> dict[str, Any]:
    """Serialisable representation of a supported fitted model."""
    # MVGClassifier and Pipeline are handled structurally to avoid
    # import cycles.
    from repro.api.pipeline import Pipeline
    from repro.core.pipeline import MVGClassifier

    if isinstance(model, Pipeline):
        if not hasattr(model, "steps_"):
            raise TypeError("cannot persist an unfitted Pipeline")
        return {
            "version": FORMAT_VERSION,
            "kind": "Pipeline",
            "steps": [
                {"name": name, "component": model_to_dict(component)}
                for name, component in model.steps_
            ],
        }
    if isinstance(model, MVGClassifier):
        from dataclasses import asdict

        from repro.core.config import FeatureConfig

        config = model.config or FeatureConfig()
        return {
            "version": FORMAT_VERSION,
            "kind": "MVGClassifier",
            "config": asdict(config),
            "classes": _classes_to_json(model.classes_),
            "feature_names": model.feature_names_,
            "scaler": None if model._scaler is None else _scaler_to_dict(model._scaler),
            "model": model_to_dict(model.fitted_classifier_),
        }

    kind = type(model).__name__
    if kind not in _ENCODERS:
        raise TypeError(f"persistence does not support {kind}")
    encode, _ = _ENCODERS[kind]
    return {"version": FORMAT_VERSION, "kind": kind, **encode(model)}


def model_from_dict(blob: dict[str, Any]) -> Any:
    """Rebuild a fitted model from :func:`model_to_dict` output."""
    version = blob.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported persistence format version {version!r}")
    kind = blob["kind"]
    if kind == "Pipeline":
        from repro.api.pipeline import Pipeline

        steps = [
            (step["name"], model_from_dict(step["component"]))
            for step in blob["steps"]
        ]
        pipeline = Pipeline(steps)
        pipeline.steps_ = list(steps)
        final = steps[-1][1]
        if hasattr(final, "classes_"):
            pipeline.classes_ = final.classes_
        return pipeline
    if kind == "MVGClassifier":
        from repro.core.config import FeatureConfig
        from repro.core.pipeline import MVGClassifier

        model = MVGClassifier(config=FeatureConfig(**blob["config"]))
        model.classes_ = _classes_from_json(blob["classes"])
        model.feature_names_ = blob["feature_names"]
        model._scaler = (
            None if blob["scaler"] is None else _scaler_from_dict(blob["scaler"])
        )
        model._model = model_from_dict(blob["model"])
        return model
    if kind not in _ENCODERS:
        raise ValueError(f"unknown model kind {kind!r}")
    _, decode = _ENCODERS[kind]
    return decode(blob)


def save_model(model: Any, path: str | Path) -> Path:
    """Serialise ``model`` to JSON at ``path`` (written atomically)."""
    return atomic_write_json(Path(path), model_to_dict(model))


def load_model(path: str | Path) -> Any:
    """Load a model previously written by :func:`save_model`."""
    with open(path) as handle:
        return model_from_dict(json.load(handle))
