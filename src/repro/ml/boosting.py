"""XGBoost-style gradient boosting, reimplemented from the paper it cites
(Chen & Guestrin, KDD 2016).

Second-order (Newton) boosting on the softmax objective: every round fits
one regression tree per class on the gradient/hessian pair, with

* regularised leaf weights ``w = -G / (H + lambda)``,
* structure gain ``1/2 [GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)] - gamma``,
* shrinkage (``learning_rate``), row subsampling (``subsample``) and
  per-tree column subsampling (``colsample_bytree``) — the paper fixes
  both sampling rates to 0.5 to curb overfitting.

The tree builder evaluates all features' candidate splits in one
vectorised pass (sort + cumulative gradient sums), so no histogramming
is needed at this data scale.

Prediction runs on one flat ensemble: every tree's node arrays are
stacked once (at the end of ``fit`` and on load), all rows are routed
through all trees level by level, and a cumulative sum over the rounds
yields the logits after every round.  Round ``s`` of that sum equals the
model fitted with ``n_estimators=s`` bit for bit, which is what
``staged_predict_proba`` exposes and grid search exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y


@dataclass
class _BoostTree:
    """A fitted regression tree stored as flat node lists (preorder, so
    every child's index exceeds its parent's)."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def depth(self) -> int:
        depth = [0] * len(self.feature)
        for node, feature in enumerate(self.feature):
            if feature >= 0:
                depth[self.left[node]] = depth[self.right[node]] = depth[node] + 1
        return max(depth, default=0)


class _FlatEnsemble:
    """Many trees stacked into one set of flat node arrays.

    Tree ``t`` owns the slots ``t * width .. (t + 1) * width - 1``; child
    links are global slot indices, and a leaf (or padding slot) links to
    itself on both sides, so routing every row through every tree is one
    fixed loop over the deepest tree's levels with no per-node Python.
    """

    def __init__(self, trees: list[_BoostTree]):
        width = max((len(tree.feature) for tree in trees), default=1)
        shape = (len(trees), width)
        feature = np.full(shape, -1, dtype=np.intp)
        threshold = np.zeros(shape)
        left = np.zeros(shape, dtype=np.intp)
        right = np.zeros(shape, dtype=np.intp)
        value = np.zeros(shape)
        for t, tree in enumerate(trees):
            n_nodes = len(tree.feature)
            feature[t, :n_nodes] = tree.feature
            threshold[t, :n_nodes] = tree.threshold
            left[t, :n_nodes] = tree.left
            right[t, :n_nodes] = tree.right
            value[t, :n_nodes] = tree.value
        internal = feature >= 0
        slot = np.arange(feature.size).reshape(shape)
        self.roots = slot[:, 0].copy()
        self.feature = feature.ravel()  # -1 at leaves and padding
        self.column = np.where(internal, feature, 0).ravel()
        self.threshold = threshold.ravel()
        self.left = np.where(internal, left + self.roots[:, None], slot).ravel()
        self.right = np.where(internal, right + self.roots[:, None], slot).ravel()
        self.value = value.ravel()
        self.depth = max((tree.depth() for tree in trees), default=0)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """``(rows, trees)`` leaf value each row reaches in each tree.

        A NaN feature fails ``x <= threshold`` and goes right.
        """
        node = np.broadcast_to(self.roots, (X.shape[0], self.roots.size))
        row = np.arange(X.shape[0])[:, None]
        for _ in range(self.depth):
            go_left = X[row, self.column[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]


def _fit_tree(
    X: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    rows: np.ndarray,
    features: np.ndarray,
    max_depth: int,
    reg_lambda: float,
    gamma: float,
    min_child_weight: float,
) -> _BoostTree:
    tree = _BoostTree()
    Xc = X[:, features]
    columns = np.arange(features.size)
    # Depth first, left child first, so nodes are numbered in preorder.
    # An explicit stack, not a recursive closure: the closure would sit
    # in a reference cycle that keeps Xc alive until the cyclic GC runs.
    pending: list[tuple[np.ndarray, int, list[int] | None, int]] = [(rows, 0, None, -1)]
    while pending:
        idx, depth, links, parent = pending.pop()
        node = tree.add_node()
        if links is not None:
            links[parent] = node
        g = grad[idx]
        h = hess[idx]
        g_sum = float(g.sum())
        h_sum = float(h.sum())
        tree.value[node] = -g_sum / (h_sum + reg_lambda)
        if depth >= max_depth or idx.size < 2:
            continue

        Xf = Xc[idx]
        order = np.argsort(Xf, axis=0, kind="stable")
        x_sorted = Xf[order, columns]
        gl = np.cumsum(g[order], axis=0)[:-1]
        hl = np.cumsum(h[order], axis=0)[:-1]
        gr = g_sum - gl
        hr = h_sum - hl

        parent_score = g_sum * g_sum / (h_sum + reg_lambda)
        gain = 0.5 * (
            gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent_score
        ) - gamma
        valid = (
            (x_sorted[:-1] < x_sorted[1:])
            & (hl >= min_child_weight)
            & (hr >= min_child_weight)
        )
        gain[~valid] = -np.inf
        best = int(np.argmax(gain))
        row, col = divmod(best, gain.shape[1])
        if gain[row, col] <= 0.0:
            continue

        threshold = 0.5 * (x_sorted[row, col] + x_sorted[row + 1, col])
        mask = Xf[:, col] <= threshold
        tree.feature[node] = int(features[col])
        tree.threshold[node] = float(threshold)
        pending.append((idx[~mask], depth + 1, tree.right, node))
        pending.append((idx[mask], depth + 1, tree.left, node))
    return tree


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class GradientBoostingClassifier(BaseEstimator):
    """Multiclass Newton gradient boosting with regularised trees.

    Parameters follow the XGBoost naming used in the paper's grid search
    (Section 4.2): ``learning_rate``, ``n_estimators``, ``max_depth``,
    ``subsample``, ``colsample_bytree``, plus ``reg_lambda``/``gamma``/
    ``min_child_weight`` regularisers.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        subsample: float = 1.0,
        colsample_bytree: float = 1.0,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_child_weight: float = 1e-3,
        random_state: int | None = None,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.colsample_bytree = colsample_bytree
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.random_state = random_state

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        """Boost ``n_estimators`` rounds of Newton trees on ``(X, y)``."""
        X, y = check_X_y(X, y)
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        k = self.classes_.size
        if k < 2:
            raise ValueError("need at least two classes")
        n, f = X.shape
        rng = np.random.default_rng(self.random_state)
        onehot = np.eye(k)[y_enc]

        # Binary problems boost a single logit; multiclass boosts k logits.
        self._n_outputs = 1 if k == 2 else k
        logits = np.zeros((n, self._n_outputs))
        self.trees_: list[list[_BoostTree]] = []
        n_rows = max(1, int(round(self.subsample * n)))
        n_cols = max(1, int(round(self.colsample_bytree * f)))

        for _ in range(self.n_estimators):
            if self._n_outputs == 1:
                prob = 1.0 / (1.0 + np.exp(-logits[:, 0]))
                grad_all = (prob - onehot[:, 1])[:, None]
                hess_all = (prob * (1.0 - prob))[:, None]
            else:
                prob = _softmax(logits)
                grad_all = prob - onehot
                hess_all = prob * (1.0 - prob)
            round_trees: list[_BoostTree] = []
            rows = (
                rng.choice(n, size=n_rows, replace=False)
                if n_rows < n
                else np.arange(n)
            )
            for out_idx in range(self._n_outputs):
                cols = (
                    rng.choice(f, size=n_cols, replace=False)
                    if n_cols < f
                    else np.arange(f)
                )
                tree = _fit_tree(
                    X,
                    np.ascontiguousarray(grad_all[:, out_idx]),
                    np.ascontiguousarray(hess_all[:, out_idx]),
                    rows,
                    cols,
                    self.max_depth,
                    self.reg_lambda,
                    self.gamma,
                    self.min_child_weight,
                )
                round_trees.append(tree)
            logits += self.learning_rate * _FlatEnsemble(round_trees).leaf_values(X)
            self.trees_.append(round_trees)
        self.n_features_ = f
        self._compile()
        return self

    def _compile(self) -> None:
        """Stack every fitted tree into the flat ensemble prediction
        routes through; called at the end of :meth:`fit` and on load."""
        self._ensemble = _FlatEnsemble(
            [tree for round_trees in self.trees_ for tree in round_trees]
        )

    def _staged_logits(self, X: np.ndarray) -> np.ndarray:
        """``(rows, rounds + 1, outputs)`` logits after each round.

        A cumulative sum over a zero-led array adds the rounds one by one
        in fit order, so stage ``s`` equals the logits of the same model
        fitted with ``n_estimators=s``, bit for bit.
        """
        rounds = len(self.trees_)
        steps = np.zeros((X.shape[0], rounds + 1, self._n_outputs))
        steps[:, 1:] = self.learning_rate * self._ensemble.leaf_values(X).reshape(
            X.shape[0], rounds, self._n_outputs
        )
        return np.cumsum(steps, axis=1)

    def _probabilities(self, logits: np.ndarray) -> np.ndarray:
        if self._n_outputs == 1:
            p1 = 1.0 / (1.0 + np.exp(-logits[:, 0]))
            return np.column_stack([1.0 - p1, p1])
        return _softmax(np.ascontiguousarray(logits))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Softmax (or sigmoid) probabilities from the boosted logits."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        return self._probabilities(self._staged_logits(X)[:, -1])

    def staged_predict_proba(self, X: np.ndarray, stages: Iterable[int]) -> list[np.ndarray]:
        """Probabilities after each of ``stages`` boosting rounds, from one
        pass over the trees.

        Stage ``s`` equals ``predict_proba`` of the model refitted with
        ``n_estimators=s`` and the same ``random_state``.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        rounds = len(self.trees_)
        stages = list(stages)
        for stage in stages:
            if not 0 <= stage <= rounds:
                raise ValueError(f"stage {stage} outside 0..{rounds}")
        logits = self._staged_logits(X)
        return [self._probabilities(logits[:, stage]) for stage in stages]

    @property
    def feature_importances_(self) -> np.ndarray:
        """Split-frequency importances (the "weight" importance XGBoost
        reports by default, used for the Figure 10 case study)."""
        self._check_fitted()
        feature = self._ensemble.feature
        importances = np.bincount(
            feature[feature >= 0], minlength=self.n_features_
        ).astype(np.float64)
        total = importances.sum()
        return importances / total if total > 0 else importances
