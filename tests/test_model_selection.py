"""Stratified CV, grid search and splitting utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    GridSearchCV,
    ParameterGrid,
    StratifiedKFold,
    cross_val_score,
    train_test_split,
)


class TestStratifiedKFold:
    def test_folds_partition_everything(self):
        y = np.array([0] * 9 + [1] * 6)
        folds = list(StratifiedKFold(3, random_state=0).split(y))
        assert len(folds) == 3
        all_validation = np.sort(np.concatenate([v for _, v in folds]))
        assert np.array_equal(all_validation, np.arange(15))

    def test_no_train_validation_overlap(self):
        y = np.repeat([0, 1, 2], 10)
        for train, validation in StratifiedKFold(5, random_state=0).split(y):
            assert np.intersect1d(train, validation).size == 0

    def test_stratification_preserved(self):
        y = np.array([0] * 30 + [1] * 6)
        for _, validation in StratifiedKFold(3, random_state=0).split(y):
            labels = y[validation]
            assert np.sum(labels == 0) == 10
            assert np.sum(labels == 1) == 2

    def test_at_least_two_splits(self):
        with pytest.raises(ValueError):
            StratifiedKFold(1)

    def test_deterministic_with_seed(self):
        y = np.repeat([0, 1], 12)
        a = [v.tolist() for _, v in StratifiedKFold(3, random_state=7).split(y)]
        b = [v.tolist() for _, v in StratifiedKFold(3, random_state=7).split(y)]
        assert a == b

    @given(st.integers(2, 5), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_property_partition(self, n_splits, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, size=40)
        folds = list(StratifiedKFold(n_splits, random_state=seed).split(y))
        combined = np.sort(np.concatenate([v for _, v in folds]))
        assert np.array_equal(combined, np.arange(40))


class TestTrainTestSplit:
    def test_sizes(self):
        X = np.arange(100).reshape(50, 2)
        y = np.repeat([0, 1], 25)
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, test_size=0.2, random_state=0)
        assert X_te.shape[0] == 10
        assert X_tr.shape[0] == 40
        assert y_tr.size + y_te.size == 50

    def test_stratified_keeps_both_classes(self):
        y = np.array([0] * 45 + [1] * 5)
        X = np.arange(100).reshape(50, 2)
        _, _, _, y_te = train_test_split(X, y, test_size=0.2, random_state=0)
        assert set(np.unique(y_te)) == {0, 1}

    def test_unstratified(self):
        X = np.arange(40).reshape(20, 2)
        y = np.repeat([0, 1], 10)
        X_tr, X_te, _, _ = train_test_split(
            X, y, test_size=0.25, stratify=False, random_state=0
        )
        assert X_te.shape[0] == 5


class TestParameterGrid:
    def test_cartesian_product(self):
        grid = ParameterGrid({"a": [1, 2], "b": ["x", "y", "z"]})
        combos = list(grid)
        assert len(combos) == len(grid) == 6
        assert {"a": 1, "b": "z"} in combos

    def test_single_axis(self):
        assert len(ParameterGrid({"a": [1, 2, 3]})) == 3

    def test_empty_axes(self):
        assert len(ParameterGrid({})) == 1


class TestCrossValScore:
    def test_scores_shape_and_range(self, blobs):
        X, y = blobs
        scores = cross_val_score(
            DecisionTreeClassifier(max_depth=4), X, y, cv=3, random_state=0
        )
        assert scores.shape == (3,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_neg_log_loss_nonpositive(self, blobs):
        X, y = blobs
        scores = cross_val_score(
            DecisionTreeClassifier(max_depth=4),
            X,
            y,
            cv=3,
            scoring="neg_log_loss",
            random_state=0,
        )
        assert np.all(scores <= 0)

    def test_unknown_scoring(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError):
            cross_val_score(DecisionTreeClassifier(), X, y, scoring="f2")


class TestGridSearchCV:
    def test_selects_and_refits(self, blobs):
        X, y = blobs
        gs = GridSearchCV(
            GradientBoostingClassifier(random_state=0),
            {"n_estimators": [5, 20], "max_depth": [2, 4]},
            cv=3,
            random_state=0,
        )
        gs.fit(X, y)
        assert gs.best_params_["n_estimators"] in (5, 20)
        assert len(gs.results_) == 4
        assert gs.score(X, y) > 0.9

    def test_predict_proba_delegates(self, blobs):
        X, y = blobs
        gs = GridSearchCV(
            DecisionTreeClassifier(),
            {"max_depth": [2, 3]},
            cv=3,
            scoring="accuracy",
            random_state=0,
        )
        gs.fit(X, y)
        probs = gs.predict_proba(X)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_best_score_is_max(self, blobs):
        X, y = blobs
        gs = GridSearchCV(
            DecisionTreeClassifier(),
            {"max_depth": [1, 2, 5]},
            cv=3,
            scoring="accuracy",
            random_state=0,
        )
        gs.fit(X, y)
        assert gs.best_score_ == pytest.approx(
            max(r["mean_score"] for r in gs.results_)
        )

    @pytest.mark.parametrize(
        "grid", [{"n_estimators": [2, 4]}, {"learning_rate": [0.1, 0.3]}]
    )
    def test_singleton_class_does_not_crash(self, rng, grid):
        # The lone class-2 sample lands in one validation fold whose
        # training folds never saw class 2; log loss charges it epsilon.
        X = rng.normal(size=(25, 3))
        y = np.array([0, 1] * 12 + [2])
        gs = GridSearchCV(
            GradientBoostingClassifier(n_estimators=3, random_state=0),
            grid,
            cv=3,
            random_state=0,
        ).fit(X, y)
        assert len(gs.results_) == 2
        assert all(np.isfinite(r["mean_score"]) for r in gs.results_)
        assert set(gs.classes_) == {0, 1, 2}

    def test_unfitted_raises(self):
        gs = GridSearchCV(DecisionTreeClassifier(), {"max_depth": [1]})
        with pytest.raises(RuntimeError):
            gs.predict(np.ones((2, 2)))
