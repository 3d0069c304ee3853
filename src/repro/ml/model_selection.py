"""Cross-validation, parameter grids and grid search.

The paper tunes every generic classifier with 3-fold *stratified*
cross-validation and grid search scored by cross entropy (Equation 5);
``GridSearchCV`` defaults mirror that setup.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Iterator

import numpy as np

from repro.ml.base import BaseEstimator, clone
from repro.ml.metrics import accuracy_score, log_loss


class StratifiedKFold:
    """K folds preserving per-class proportions."""

    def __init__(self, n_splits: int = 3, shuffle: bool = True, random_state: int | None = None):
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, y: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indices, validation_indices)`` pairs."""
        y = np.asarray(y)
        rng = np.random.default_rng(self.random_state)
        fold_of = np.empty(y.size, dtype=np.int64)
        for cls in np.unique(y):
            idx = np.flatnonzero(y == cls)
            if self.shuffle:
                idx = rng.permutation(idx)
            # Deal samples of this class round-robin over folds.
            fold_of[idx] = np.arange(idx.size) % self.n_splits
        for fold in range(self.n_splits):
            validation = np.flatnonzero(fold_of == fold)
            train = np.flatnonzero(fold_of != fold)
            yield train, validation


def train_test_split(
    X: np.ndarray,
    y: np.ndarray,
    test_size: float = 0.3,
    stratify: bool = True,
    random_state: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random (optionally stratified) split returning ``X_tr, X_te, y_tr, y_te``."""
    X = np.asarray(X)
    y = np.asarray(y)
    rng = np.random.default_rng(random_state)
    test_mask = np.zeros(y.size, dtype=bool)
    if stratify:
        for cls in np.unique(y):
            idx = rng.permutation(np.flatnonzero(y == cls))
            n_test = max(1, int(round(test_size * idx.size)))
            test_mask[idx[:n_test]] = True
    else:
        idx = rng.permutation(y.size)
        test_mask[idx[: max(1, int(round(test_size * y.size)))]] = True
    return X[~test_mask], X[test_mask], y[~test_mask], y[test_mask]


class ParameterGrid:
    """Iterate the Cartesian product of a ``{name: [values...]}`` mapping."""

    def __init__(self, grid: dict[str, list[Any]]):
        self.grid = {key: list(values) for key, values in grid.items()}

    def __iter__(self) -> Iterator[dict[str, Any]]:
        keys = sorted(self.grid)
        for combo in product(*(self.grid[key] for key in keys)):
            yield dict(zip(keys, combo))

    def __len__(self) -> int:
        out = 1
        for values in self.grid.values():
            out *= len(values)
        return out


def _score(estimator: BaseEstimator, X: np.ndarray, y: np.ndarray, scoring: str) -> float:
    """Higher is better for every scoring name."""
    if scoring == "accuracy":
        return accuracy_score(y, estimator.predict(X))
    return _score_probabilities(estimator.classes_, estimator.predict_proba(X), y, scoring)


def _score_probabilities(
    classes: np.ndarray, probabilities: np.ndarray, y: np.ndarray, scoring: str
) -> float:
    """:func:`_score` from ``predict_proba`` outputs, for an estimator
    whose ``predict`` is their argmax."""
    if scoring == "accuracy":
        return accuracy_score(y, classes[np.argmax(probabilities, axis=1)])
    if scoring == "neg_log_loss":
        return -log_loss(y, probabilities, classes=classes)
    raise ValueError(f"unknown scoring {scoring!r}")


def cross_val_score(
    estimator: BaseEstimator,
    X: np.ndarray,
    y: np.ndarray,
    cv: int = 3,
    scoring: str = "accuracy",
    random_state: int | None = None,
) -> np.ndarray:
    """Per-fold scores under stratified K-fold CV."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    folds = StratifiedKFold(cv, shuffle=True, random_state=random_state)
    scores = []
    for train_idx, valid_idx in folds.split(y):
        model = clone(estimator)
        model.fit(X[train_idx], y[train_idx])
        scores.append(_score(model, X[valid_idx], y[valid_idx], scoring))
    return np.asarray(scores)


class GridSearchCV(BaseEstimator):
    """Exhaustive grid search with stratified CV and refit on the winner.

    Grid points are scored in :class:`ParameterGrid` order and the first
    strict maximum of the mean CV score wins.

    Staged scoring: when the estimator has ``staged_predict_proba`` (the
    gradient booster) and the grid has an ``n_estimators`` axis, each
    setting of the other parameters is fitted once per fold with the
    largest ``n_estimators``, and every requested count is scored from
    that fit's staged probabilities.  A boosted model's first ``s`` rounds
    are the model fitted with ``n_estimators=s``, so ``results_``,
    ``best_params_``, ``best_score_`` and the refit model are the same as
    fitting every grid point separately.  Any other estimator (including
    a pipeline tuned through ``clf__n_estimators``) fits every point.
    """

    def __init__(
        self,
        estimator: BaseEstimator,
        param_grid: dict[str, list[Any]],
        cv: int = 3,
        scoring: str = "neg_log_loss",
        random_state: int | None = None,
    ):
        self.estimator = estimator
        self.param_grid = param_grid
        self.cv = cv
        self.scoring = scoring
        self.random_state = random_state

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GridSearchCV":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.results_: list[dict[str, Any]] = []
        best_score = -np.inf
        best_params: dict[str, Any] | None = None
        staged = "n_estimators" in self.param_grid and hasattr(
            self.estimator, "staged_predict_proba"
        )
        stage_scores: list[tuple[dict[str, Any], dict[int, float]]] = []
        for params in ParameterGrid(self.param_grid):
            if staged:
                mean_score = self._staged_mean_score(params, X, y, stage_scores)
            else:
                candidate = clone(self.estimator).set_params(**params)
                scores = cross_val_score(
                    candidate, X, y, cv=self.cv, scoring=self.scoring,
                    random_state=self.random_state,
                )
                mean_score = float(scores.mean())
            self.results_.append({"params": params, "mean_score": mean_score})
            if mean_score > best_score:
                best_score = mean_score
                best_params = params
        assert best_params is not None, "param_grid must be non-empty"
        self.best_params_ = best_params
        self.best_score_ = best_score
        self.best_estimator_ = clone(self.estimator).set_params(**best_params)
        self.best_estimator_.fit(X, y)
        self.classes_ = self.best_estimator_.classes_
        return self

    def _staged_mean_score(
        self,
        params: dict[str, Any],
        X: np.ndarray,
        y: np.ndarray,
        stage_scores: list[tuple[dict[str, Any], dict[int, float]]],
    ) -> float:
        """Mean CV score of ``params``, reading it from (or adding to)
        ``stage_scores``: per setting of the non-``n_estimators``
        parameters, the scores of every grid ``n_estimators`` value."""
        others = {key: value for key, value in params.items() if key != "n_estimators"}
        for seen, scores in stage_scores:
            if seen == others:
                return scores[params["n_estimators"]]
        stages = sorted(set(self.param_grid["n_estimators"]))
        model = clone(self.estimator).set_params(**others, n_estimators=stages[-1])
        folds = StratifiedKFold(self.cv, shuffle=True, random_state=self.random_state)
        fold_scores: dict[int, list[float]] = {stage: [] for stage in stages}
        for train_idx, valid_idx in folds.split(y):
            fitted = clone(model).fit(X[train_idx], y[train_idx])
            staged = fitted.staged_predict_proba(X[valid_idx], stages)
            for stage, probabilities in zip(stages, staged):
                fold_scores[stage].append(
                    _score_probabilities(
                        fitted.classes_, probabilities, y[valid_idx], self.scoring
                    )
                )
        scores = {
            stage: float(np.asarray(values).mean())
            for stage, values in fold_scores.items()
        }
        stage_scores.append((others, scores))
        return scores[params["n_estimators"]]

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("best_estimator_")
        return self.best_estimator_.predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("best_estimator_")
        return self.best_estimator_.predict_proba(X)
