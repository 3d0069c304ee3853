"""Classification metrics used across experiments."""

from __future__ import annotations

import numpy as np


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correct predictions."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    if y_true.size == 0:
        raise ValueError("cannot score empty arrays")
    return float(np.mean(y_true == y_pred))


def error_rate(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 - accuracy; the quantity tabulated throughout the paper."""
    return 1.0 - accuracy_score(y_true, y_pred)


def _class_columns(
    classes: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Column of each label in sorted ``classes``, and a mask of the
    labels actually found there (the columns of the others are junk)."""
    column = np.searchsorted(classes, labels)
    known = column < classes.size
    known[known] = classes[column[known]] == labels[known]
    return column, known


def log_loss(
    y_true: np.ndarray,
    probabilities: np.ndarray,
    classes: np.ndarray | None = None,
    epsilon: float = 1e-12,
) -> float:
    """Cross-entropy of predicted class probabilities (Equation 5).

    ``probabilities`` has one column per class in sorted ``classes``
    order (defaults to the sorted unique labels of ``y_true``).  A label
    outside ``classes`` (e.g. a class absent from a CV training fold) is
    charged probability 0, clipped to ``epsilon``.
    """
    y_true = np.asarray(y_true)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if classes is None:
        classes = np.unique(y_true)
    classes = np.asarray(classes)
    if probabilities.shape != (y_true.size, classes.size):
        raise ValueError(
            f"probabilities shape {probabilities.shape} does not match "
            f"{y_true.size} samples x {classes.size} classes"
        )
    column, known = _class_columns(classes, y_true)
    picked = np.zeros(y_true.size)
    picked[known] = probabilities[np.flatnonzero(known), column[known]]
    return float(-np.mean(np.log(np.clip(picked, epsilon, 1.0))))


def confusion_matrix(
    y_true: np.ndarray, y_pred: np.ndarray, classes: np.ndarray | None = None
) -> np.ndarray:
    """Counts matrix ``C[i, j]`` = samples of class ``i`` predicted ``j``.

    ``classes`` (sorted; defaults to the sorted union of both label
    arrays) fixes the rows and columns.  A sample whose true or
    predicted label is outside ``classes`` is not counted, as with
    sklearn's ``labels=``.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if classes is None:
        classes = np.unique(np.concatenate([y_true, y_pred]))
    classes = np.asarray(classes)
    k = classes.size
    ti, true_known = _class_columns(classes, y_true)
    pi, pred_known = _class_columns(classes, y_pred)
    counted = true_known & pred_known
    out = np.zeros((k, k), dtype=np.int64)
    np.add.at(out, (ti[counted], pi[counted]), 1)
    return out


def f1_macro(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Unweighted mean of per-class F1 scores (absent-class F1 is 0)."""
    cm = confusion_matrix(y_true, y_pred)
    tp = np.diag(cm).astype(np.float64)
    predicted = cm.sum(axis=0).astype(np.float64)
    actual = cm.sum(axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(predicted > 0, tp / predicted, 0.0)
        recall = np.where(actual > 0, tp / actual, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / denom, 0.0)
    return float(f1.mean())
