"""Scalers, metrics, oversampling and estimator base utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeClassifier,
    LabelEncoder,
    MinMaxScaler,
    RandomOverSampler,
    StandardScaler,
    accuracy_score,
    clone,
    confusion_matrix,
    error_rate,
    f1_macro,
    log_loss,
)


class TestMinMaxScaler:
    def test_unit_range(self, rng):
        X = rng.normal(5, 3, size=(30, 4))
        scaled = MinMaxScaler().fit_transform(X)
        assert np.allclose(scaled.min(axis=0), 0.0)
        assert np.allclose(scaled.max(axis=0), 1.0)

    def test_constant_feature_maps_to_zero(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        scaled = MinMaxScaler().fit_transform(X)
        assert np.allclose(scaled[:, 0], 0.0)

    def test_test_data_uses_train_range(self):
        scaler = MinMaxScaler().fit(np.array([[0.0], [10.0]]))
        assert scaler.transform(np.array([[5.0]]))[0, 0] == pytest.approx(0.5)
        assert scaler.transform(np.array([[20.0]]))[0, 0] == pytest.approx(2.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.ones((2, 2)))


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        X = rng.normal(5, 3, size=(100, 3))
        scaled = StandardScaler().fit_transform(X)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_centered_only(self):
        X = np.full((5, 1), 3.0)
        scaled = StandardScaler().fit_transform(X)
        assert np.allclose(scaled, 0.0)


class TestLabelEncoder:
    def test_roundtrip(self):
        y = np.array(["b", "a", "c", "a"])
        enc = LabelEncoder()
        codes = enc.fit_transform(y)
        assert codes.tolist() == [1, 0, 2, 0]
        assert np.array_equal(enc.inverse_transform(codes), y)

    def test_unseen_label_raises(self):
        enc = LabelEncoder().fit(np.array([1, 2]))
        with pytest.raises(ValueError):
            enc.transform(np.array([3]))


class TestMetrics:
    def test_accuracy_and_error_complement(self):
        y = np.array([0, 1, 1, 0])
        p = np.array([0, 1, 0, 0])
        assert accuracy_score(y, p) == 0.75
        assert error_rate(y, p) == pytest.approx(0.25)

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy_score(np.array([]), np.array([]))

    def test_log_loss_perfect_is_zero(self):
        y = np.array([0, 1])
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert log_loss(y, probs) == pytest.approx(0.0, abs=1e-9)

    def test_log_loss_uniform(self):
        y = np.array([0, 1, 2])
        probs = np.full((3, 3), 1 / 3)
        assert log_loss(y, probs) == pytest.approx(np.log(3))

    def test_log_loss_clips_zeros(self):
        y = np.array([0])
        probs = np.array([[0.0, 1.0]])
        assert np.isfinite(log_loss(y, probs, classes=np.array([0, 1])))

    def test_log_loss_label_between_classes_is_charged_epsilon(self):
        # Label 1 is not a column; it must not borrow class 2's column.
        y = np.array([0, 1, 2])
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.3, 0.7]])
        expected = -np.mean(np.log([0.9, 1e-12, 0.7]))
        assert log_loss(y, probs, classes=np.array([0, 2])) == expected

    def test_log_loss_label_past_last_class_is_charged_epsilon(self):
        y = np.array([0, 3])
        probs = np.array([[0.6, 0.4], [0.5, 0.5]])
        expected = -np.mean(np.log([0.6, 1e-3]))
        assert log_loss(y, probs, classes=np.array([0, 2]), epsilon=1e-3) == expected

    def test_log_loss_shape_mismatch(self):
        with pytest.raises(ValueError):
            log_loss(np.array([0, 1]), np.ones((2, 3)), classes=np.array([0, 1]))

    def test_confusion_matrix(self):
        y = np.array([0, 0, 1, 1, 2])
        p = np.array([0, 1, 1, 1, 0])
        cm = confusion_matrix(y, p)
        assert cm.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 0]]
        assert cm.sum() == 5

    def test_confusion_matrix_skips_label_between_classes(self):
        # True label 1 is not a row; it must not be filed under class 2.
        cm = confusion_matrix([0, 1, 2], [0, 0, 2], classes=[0, 2])
        assert cm.tolist() == [[1, 0], [0, 1]]

    def test_confusion_matrix_skips_label_past_last_class(self):
        cm = confusion_matrix([0, 3], [0, 0], classes=[0, 2])
        assert cm.tolist() == [[1, 0], [0, 0]]

    def test_f1_macro_perfect(self):
        y = np.array([0, 1, 2, 0])
        assert f1_macro(y, y) == 1.0

    def test_f1_macro_worst(self):
        y = np.array([0, 0, 1, 1])
        p = np.array([1, 1, 0, 0])
        assert f1_macro(y, p) == 0.0


class TestRandomOverSampler:
    def test_balances_classes(self):
        X = np.arange(24).reshape(12, 2)
        y = np.array([0] * 9 + [1] * 3)
        Xo, yo = RandomOverSampler(0).fit_resample(X, y)
        _, counts = np.unique(yo, return_counts=True)
        assert counts.tolist() == [9, 9]

    def test_already_balanced_untouched(self):
        X = np.arange(8).reshape(4, 2)
        y = np.array([0, 0, 1, 1])
        Xo, yo = RandomOverSampler(0).fit_resample(X, y)
        assert np.array_equal(Xo, X)
        assert np.array_equal(yo, y)

    def test_duplicates_come_from_minority(self):
        X = np.arange(12).reshape(6, 2)
        y = np.array([0] * 5 + [1])
        Xo, yo = RandomOverSampler(0).fit_resample(X, y)
        extra = Xo[6:]
        assert np.all(extra == X[5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            RandomOverSampler().fit_resample(np.ones((3, 2)), np.ones(4))

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_property_all_classes_equal(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 4, size=30)
        if np.unique(y).size < 2:
            return
        X = rng.normal(size=(30, 3))
        _, yo = RandomOverSampler(seed).fit_resample(X, y)
        _, counts = np.unique(yo, return_counts=True)
        assert len(set(counts)) == 1


class TestBaseEstimator:
    def test_get_set_params(self):
        tree = DecisionTreeClassifier(max_depth=5)
        params = tree.get_params()
        assert params["max_depth"] == 5
        tree.set_params(max_depth=3)
        assert tree.max_depth == 3

    def test_set_invalid_param(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().set_params(bogus=1)

    def test_clone_unfitted_copy(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        copy = clone(tree)
        assert copy.max_depth == 2
        with pytest.raises(RuntimeError):
            copy.predict(X)

    def test_repr_contains_params(self):
        assert "max_depth=7" in repr(DecisionTreeClassifier(max_depth=7))
