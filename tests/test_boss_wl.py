"""BOSS ensemble and WL graph-kernel classifier tests."""

import hashlib
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.boss import (
    BOSSEnsembleClassifier,
    _SFA,
    boss_distance,
)
from repro.core.graph_kernel import (
    WLVisibilityKernelClassifier,
    wl_color_histogram,
    wl_kernel_value,
)
from repro.data.archive import load_archive_dataset
from repro.graph import Graph
from repro.graph.fast import CSRGraph, visibility_graphs
from repro.graph.visibility import horizontal_visibility_graph, visibility_graph


class TestSFA:
    def test_words_in_range(self, rng):
        windows = rng.normal(size=(40, 32))
        sfa = _SFA(word_length=6, alphabet_size=4, mean_norm=True).fit(windows)
        words = sfa.transform_words(windows)
        assert words.shape == (40,)
        assert words.min() >= 0
        assert words.max() < 4**6

    def test_offset_invariance_with_mean_norm(self, rng):
        windows = rng.normal(size=(10, 32))
        sfa = _SFA(word_length=6, alphabet_size=4, mean_norm=True).fit(windows)
        shifted = windows + 100.0
        assert np.array_equal(
            sfa.transform_words(windows), sfa.transform_words(shifted)
        )

    def test_breakpoints_shape(self, rng):
        sfa = _SFA(word_length=8, alphabet_size=5, mean_norm=True)
        sfa.fit(rng.normal(size=(30, 40)))
        assert sfa.breakpoints_.shape == (4, 8)


class TestBossDistance:
    def test_identical_bags_zero(self):
        from collections import Counter

        bag = Counter({1: 3, 2: 1})
        assert boss_distance(bag, bag) == 0.0

    def test_asymmetry(self):
        from collections import Counter

        a = Counter({1: 2})
        b = Counter({1: 2, 2: 5})
        assert boss_distance(a, b) == 0.0  # only a's words count
        assert boss_distance(b, a) == 25.0


class TestBOSSEnsemble:
    def test_separates_texture_classes(self, tiny_series_dataset):
        X_tr, y_tr, X_te, y_te = tiny_series_dataset
        clf = BOSSEnsembleClassifier().fit(X_tr, y_tr)
        assert clf.score(X_te, y_te) > 0.75

    def test_ensemble_members_selected(self, tiny_series_dataset):
        X_tr, y_tr, _, _ = tiny_series_dataset
        clf = BOSSEnsembleClassifier().fit(X_tr, y_tr)
        assert 1 <= len(clf.members_) <= 4

    def test_probabilities_are_vote_fractions(self, tiny_series_dataset):
        X_tr, y_tr, X_te, _ = tiny_series_dataset
        clf = BOSSEnsembleClassifier().fit(X_tr, y_tr)
        probs = clf.predict_proba(X_te)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_shift_invariance_beats_alignment_noise(self, rng):
        # Same waveform circularly shifted per sample: histograms barely move.
        t = np.linspace(0, 1, 64, endpoint=False)

        def sample(label):
            base = np.sin(2 * np.pi * (3 if label == 0 else 7) * t)
            return np.roll(base, int(rng.integers(0, 64))) + rng.normal(0, 0.1, 64)

        X_tr = np.stack([sample(i % 2) for i in range(20)])
        y_tr = np.arange(20) % 2
        X_te = np.stack([sample(i % 2) for i in range(10)])
        y_te = np.arange(10) % 2
        clf = BOSSEnsembleClassifier().fit(X_tr, y_tr)
        assert clf.score(X_te, y_te) >= 0.8


class TestWLColorHistogram:
    def test_zero_iterations_is_degree_histogram(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        histogram = wl_color_histogram(star, n_iterations=0)
        assert sum(histogram.values()) == 4

    def test_refinement_distinguishes_nonisomorphic(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        h_path = wl_color_histogram(path, n_iterations=2)
        h_star = wl_color_histogram(star, n_iterations=2)
        assert h_path != h_star

    def test_isomorphic_graphs_same_histogram(self):
        a = Graph(4, [(0, 1), (1, 2), (2, 3)])
        b = Graph(4, [(3, 2), (2, 1), (1, 0)])  # same path, reversed labels
        assert wl_color_histogram(a, 2) == wl_color_histogram(b, 2)

    def test_kernel_value_symmetric_nonnegative(self):
        a = wl_color_histogram(Graph(4, [(0, 1), (1, 2), (2, 3)]), 2)
        b = wl_color_histogram(Graph(4, [(0, 1), (0, 2), (0, 3)]), 2)
        assert wl_kernel_value(a, b) == wl_kernel_value(b, a)
        assert wl_kernel_value(a, b) >= 0
        assert wl_kernel_value(a, a) > 0


def set_walk_wl_histogram(graph: Graph, n_iterations: int, degree_buckets: int = 8) -> Counter:
    """WL feature map by walking the adjacency sets of a set
    :class:`Graph` vertex by vertex: the oracle the CSR refinement of
    :func:`wl_color_histogram` must reproduce colour for colour."""
    n = graph.n_vertices
    degrees = graph.degrees()
    max_degree = max(int(degrees.max()), 1) if n else 1
    labels = [
        f"d{min(int(d) * degree_buckets // (max_degree + 1), degree_buckets - 1)}"
        for d in degrees
    ]
    histogram: Counter = Counter(labels)
    palette: dict[str, str] = {}
    for _ in range(n_iterations):
        new_labels = []
        for u in range(n):
            neighborhood = sorted(labels[v] for v in graph.adjacency(u))
            new_labels.append(f"{labels[u]}|{','.join(neighborhood)}")
        for signature in new_labels:
            if signature not in palette:
                palette[signature] = f"c{zlib.crc32(signature.encode()):08x}"
        labels = [palette[s] for s in new_labels]
        histogram.update(labels)
    return histogram


_lengths = st.integers(0, 120)
wl_series = st.one_of(
    # Random walks.
    st.tuples(st.integers(0, 2**32 - 1), _lengths).map(
        lambda a: np.cumsum(np.random.default_rng(a[0]).standard_normal(a[1]))
    ),
    # Tie-heavy series.
    st.lists(st.integers(0, 3), max_size=120).map(lambda xs: np.asarray(xs, dtype=np.float64)),
    # Constant series.
    _lengths.map(np.zeros),
    # The tiny sizes.
    st.lists(st.floats(-10, 10, allow_nan=False), max_size=3).map(np.asarray),
)


class TestWLOnCSR:
    @settings(max_examples=120, deadline=None)
    @given(series=wl_series, n_iterations=st.integers(0, 3))
    def test_csr_refinement_equals_set_walk(self, series, n_iterations):
        vg, hvg = visibility_graphs(series)
        for csr, reference in (
            (vg, visibility_graph(series)),
            (hvg, horizontal_visibility_graph(series)),
        ):
            assert CSRGraph.from_graph(reference) == csr
            expected = set_walk_wl_histogram(reference, n_iterations)
            assert wl_color_histogram(csr, n_iterations) == expected
            # A set Graph is accepted and converted at entry.
            assert wl_color_histogram(reference, n_iterations) == expected


#: SHA-256 of ``predict_proba`` (little-endian float64) on the BeetleFly
#: test split, after fitting on its training split plus the same series
#: rounded to one decimal (tie-heavy), recorded from the set-graph
#: implementation that refined over adjacency sets.
GOLDEN_WL_PROBA = {
    "default": "abfd2032aa98d2caa2ff2ba9a661131bd212bd3757342a1cf236830d301124ff",
    "three-rounds-single-scale": "4e833ae17da599f2563b2f63c89ffc03798759781eb8df3e7cc6db119d5f504b",
    "degrees-only-vg": "bb8c918578dc987df2f2f873350267963bf51aacecae1070a1b335728b025313",
}
_WL_PARAMS = {
    "default": {},
    "three-rounds-single-scale": {"n_iterations": 3, "multiscale": False},
    "degrees-only-vg": {"n_iterations": 0, "use_hvg": False},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WL_PROBA))
def test_wl_predict_proba_digest(name):
    split = load_archive_dataset("BeetleFly")
    X_train = np.concatenate([split.train.X, np.round(split.train.X, 1)])
    y_train = np.concatenate([split.train.y, split.train.y])
    model = WLVisibilityKernelClassifier(**_WL_PARAMS[name]).fit(X_train, y_train)
    proba = np.ascontiguousarray(model.predict_proba(split.test.X), dtype="<f8")
    assert proba.shape == (split.test.X.shape[0], 2)
    assert hashlib.sha256(proba.tobytes()).hexdigest() == GOLDEN_WL_PROBA[name]


class TestWLClassifier:
    def test_separates_texture_classes(self, tiny_series_dataset):
        X_tr, y_tr, X_te, y_te = tiny_series_dataset
        clf = WLVisibilityKernelClassifier().fit(X_tr, y_tr)
        assert clf.score(X_te, y_te) > 0.7

    def test_kernel_matrix_psd_diagonal(self, tiny_series_dataset):
        X_tr, y_tr, _, _ = tiny_series_dataset
        clf = WLVisibilityKernelClassifier().fit(X_tr[:6], y_tr[:6])
        K = clf.kernel_matrix(X_tr[:6])
        assert np.allclose(K, K.T)
        eigenvalues = np.linalg.eigvalsh(K)
        assert eigenvalues.min() > -1e-6  # PSD up to numerics

    def test_uniscale_variant(self, tiny_series_dataset):
        X_tr, y_tr, X_te, y_te = tiny_series_dataset
        clf = WLVisibilityKernelClassifier(multiscale=False, use_hvg=False)
        clf.fit(X_tr, y_tr)
        assert clf.score(X_te, y_te) > 0.5

    def test_probabilities_valid(self, tiny_series_dataset):
        X_tr, y_tr, X_te, _ = tiny_series_dataset
        clf = WLVisibilityKernelClassifier(n_iterations=1).fit(X_tr, y_tr)
        probs = clf.predict_proba(X_te)
        assert np.allclose(probs.sum(axis=1), 1.0)
