"""Flat-ensemble prediction and staged grid search: equality contracts.

* ``predict_proba`` routed through the stacked node arrays equals a
  per-tree, per-row reference walker that accumulates the rounds in fit
  order — bit for bit, on random ensembles of mixed tree sizes, with NaN
  features and with zero rows.
* ``staged_predict_proba`` stage ``s`` equals the model refitted with
  ``n_estimators=s``.
* ``GridSearchCV`` with staged scoring equals a reference search that
  fits every grid point separately: ``results_``, ``best_params_``,
  ``best_score_`` and the refit model's JSON.
* ``feature_importances_`` equals the split count over every tree.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Pipeline
from repro.ml import GradientBoostingClassifier, GridSearchCV, MinMaxScaler
from repro.ml.base import clone
from repro.ml.boosting import _BoostTree
from repro.ml.model_selection import ParameterGrid, cross_val_score
from repro.ml.persistence import model_from_dict, model_to_dict


def walk(tree: _BoostTree, x: np.ndarray) -> float:
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return tree.value[node]


def reference_logits(model: GradientBoostingClassifier, X: np.ndarray, rounds: int):
    logits = np.zeros((X.shape[0], model._n_outputs))
    for round_trees in model.trees_[:rounds]:
        for out_idx, tree in enumerate(round_trees):
            leaf = np.array([walk(tree, x) for x in X], dtype=np.float64)
            logits[:, out_idx] += model.learning_rate * leaf
    return logits


def reference_proba(model: GradientBoostingClassifier, X: np.ndarray, rounds: int):
    logits = reference_logits(model, X, rounds)
    if model._n_outputs == 1:
        p1 = 1.0 / (1.0 + np.exp(-logits[:, 0]))
        return np.column_stack([1.0 - p1, p1])
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def reference_importances(model: GradientBoostingClassifier) -> np.ndarray:
    importances = np.zeros(model.n_features_)
    for round_trees in model.trees_:
        for tree in round_trees:
            for feature in tree.feature:
                if feature >= 0:
                    importances[feature] += 1.0
    total = importances.sum()
    return importances / total if total > 0 else importances


@st.composite
def random_trees(draw, n_features: int) -> _BoostTree:
    """A preorder tree of random shape: depth 0 (a single leaf) to 6."""
    tree = _BoostTree()
    max_depth = draw(st.integers(0, 6))
    finite = st.floats(-3.0, 3.0, allow_nan=False)

    def grow(depth: int) -> int:
        node = tree.add_node()
        tree.value[node] = draw(finite)
        if depth < max_depth and draw(st.booleans()):
            tree.feature[node] = draw(st.integers(0, n_features - 1))
            tree.threshold[node] = draw(finite)
            tree.left[node] = grow(depth + 1)
            tree.right[node] = grow(depth + 1)
        return node

    grow(0)
    return tree


@st.composite
def random_ensembles(draw):
    n_features = draw(st.integers(1, 5))
    n_classes = draw(st.integers(2, 4))
    n_outputs = 1 if n_classes == 2 else n_classes
    rounds = draw(st.integers(0, 5))
    model = GradientBoostingClassifier(
        n_estimators=rounds, learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0]))
    )
    model.classes_ = np.arange(n_classes)
    model._n_outputs = n_outputs
    model.n_features_ = n_features
    model.trees_ = [
        [draw(random_trees(n_features)) for _ in range(n_outputs)]
        for _ in range(rounds)
    ]
    model._compile()
    return model


class TestFlatPredict:
    @given(random_ensembles(), st.integers(0, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_equals_reference_walker(self, model, n_rows, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_rows, model.n_features_))
        X[rng.random(X.shape) < 0.15] = np.nan
        if n_rows:
            # Rows exactly on a threshold must go left (x <= threshold).
            tree = model.trees_[0][0] if model.trees_ else None
            if tree is not None and tree.feature[0] >= 0:
                X[0, tree.feature[0]] = tree.threshold[0]
        rounds = len(model.trees_)
        probabilities = model.predict_proba(X)
        assert probabilities.shape == (n_rows, model.classes_.size)
        assert np.array_equal(probabilities, reference_proba(model, X, rounds))
        staged = model.staged_predict_proba(X, range(rounds + 1))
        for stage, stage_proba in enumerate(staged):
            assert np.array_equal(stage_proba, reference_proba(model, X, stage))
        assert np.array_equal(model.feature_importances_, reference_importances(model))

    def test_json_round_trip_predicts_identically(self, blobs):
        X, y = blobs
        gb = GradientBoostingClassifier(
            n_estimators=12, max_depth=3, subsample=0.5, random_state=0
        ).fit(X, y)
        loaded = model_from_dict(json.loads(json.dumps(model_to_dict(gb))))
        assert np.array_equal(loaded.predict_proba(X), gb.predict_proba(X))
        assert np.array_equal(loaded.feature_importances_, gb.feature_importances_)

    def test_stage_out_of_range_rejected(self, binary_blobs):
        X, y = binary_blobs
        gb = GradientBoostingClassifier(n_estimators=3, random_state=0).fit(X, y)
        for stage in (-1, 4):
            with pytest.raises(ValueError, match="outside 0..3"):
                gb.staged_predict_proba(X, [stage])


@pytest.mark.parametrize("dataset", ["binary_blobs", "blobs"])
def test_fitted_importances_equal_split_counts(request, dataset):
    X, y = request.getfixturevalue(dataset)
    gb = GradientBoostingClassifier(
        n_estimators=15, subsample=0.5, colsample_bytree=0.5, random_state=3
    ).fit(X, y)
    assert np.array_equal(gb.feature_importances_, reference_importances(gb))


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 4]),
    st.sampled_from([1.0, 0.6]),
)
@settings(max_examples=15, deadline=None)
def test_staged_predict_equals_refit(seed, n_classes, subsample):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(30, 4))
    y = np.arange(30) % n_classes
    full = GradientBoostingClassifier(
        n_estimators=6, max_depth=3, subsample=subsample, colsample_bytree=0.5,
        random_state=seed,
    ).fit(X, y)
    stages = [1, 3, 6]
    staged = full.staged_predict_proba(X, stages)
    for stage, stage_proba in zip(stages, staged):
        refit = clone(full).set_params(n_estimators=stage).fit(X, y)
        assert np.array_equal(stage_proba, refit.predict_proba(X))


def reference_grid_search(estimator, grid, X, y, scoring, cv=3, random_state=0):
    """Fit every grid point separately; first strict maximum wins."""
    results = []
    best_score, best_params = -np.inf, None
    for params in ParameterGrid(grid):
        candidate = clone(estimator).set_params(**params)
        scores = cross_val_score(
            candidate, X, y, cv=cv, scoring=scoring, random_state=random_state
        )
        mean_score = float(scores.mean())
        results.append({"params": params, "mean_score": mean_score})
        if mean_score > best_score:
            best_score, best_params = mean_score, params
    refit = clone(estimator).set_params(**best_params).fit(X, y)
    return results, best_params, best_score, refit


def assert_same_search(search: GridSearchCV, reference, X) -> None:
    results, best_params, best_score, refit = reference
    assert search.results_ == results
    assert search.best_params_ == best_params
    assert search.best_score_ == best_score
    assert model_to_dict(search.best_estimator_) == model_to_dict(refit)
    assert np.array_equal(search.predict_proba(X), refit.predict_proba(X))


@given(
    seed=st.integers(0, 2**32 - 1),
    n_classes=st.sampled_from([2, 3]),
    subsample=st.sampled_from([1.0, 0.5]),
    colsample=st.sampled_from([1.0, 0.5]),
    gamma=st.sampled_from([0.0, 1e9]),
    scoring=st.sampled_from(["neg_log_loss", "accuracy"]),
    n_estimators=st.lists(st.integers(0, 6), min_size=1, max_size=4),
)
@settings(max_examples=20, deadline=None)
def test_staged_grid_search_equals_unstaged(
    seed, n_classes, subsample, colsample, gamma, scoring, n_estimators
):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(27, 4))
    y = np.arange(27) % n_classes
    X[:, 0] += y  # some signal, so scores differ between grid points
    base = GradientBoostingClassifier(
        subsample=subsample, colsample_bytree=colsample, gamma=gamma,
        max_depth=2, random_state=seed % 7,
    )
    grid = {
        "learning_rate": [0.1, 0.5],
        "n_estimators": n_estimators,
        "reg_lambda": [1.0],
    }
    search = GridSearchCV(base, grid, cv=3, scoring=scoring, random_state=0).fit(X, y)
    reference = reference_grid_search(base, grid, X, y, scoring)
    assert_same_search(search, reference, X)
    if gamma > 1.0:
        trees = search.best_estimator_.trees_
        assert all(tree.feature == [-1] for round_trees in trees for tree in round_trees)


def test_pipeline_grid_falls_back_to_unstaged(blobs):
    X, y = blobs
    pipe = Pipeline(
        [
            ("scale", MinMaxScaler()),
            ("clf", GradientBoostingClassifier(subsample=0.5, random_state=0)),
        ]
    )
    assert not hasattr(pipe, "staged_predict_proba")
    grid = {"clf__n_estimators": [2, 5], "clf__learning_rate": [0.1, 0.3]}
    search = GridSearchCV(pipe, grid, cv=3, random_state=0).fit(X, y)
    results, best_params, best_score, refit = reference_grid_search(
        pipe, grid, X, y, "neg_log_loss"
    )
    assert search.results_ == results
    assert search.best_params_ == best_params
    assert search.best_score_ == best_score
    assert np.array_equal(search.predict_proba(X), refit.predict_proba(X))
