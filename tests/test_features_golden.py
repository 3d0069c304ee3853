"""Golden feature digests: extraction output pinned bit for bit.

SHA-256 over the feature names and the little-endian float64 matrix of
``FeatureExtractor(config).transform`` for every Table 2 column (A-G) and
the extended feature set, on a fixed archive slice: six BeetleFly
training series plus the same six rounded to one decimal (tie-heavy
inputs, the adversarial regime for visibility tie-breaking).

A change of any digest means feature values changed.  That must come
with a bump of ``FEATURE_CACHE_VERSION`` (cached features would be
stale) and new digests; a performance change must leave them alone.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import HEURISTIC_COLUMNS, FeatureConfig
from repro.core.features import FeatureExtractor
from repro.data.archive import load_archive_dataset

GOLDEN = {
    "A": "18ad4b172b1e0858bdfae49a4d1cf96afec81010b9514869c1a9a039a34072fc",
    "B": "0f763126a0aeb9a860368717bb20036f3fec048710a8b17ba07a96eaf8677cf4",
    "C": "e3e2cd5bc213dae26784388fa3f8ec31e3224f76cef2222a97d6559b5a97637a",
    "D": "7616446bd49da2d5183a32ac3ed1618a60ee01cb8ba64d76df77b9e96abf0b8e",
    "E": "ac07ac8ba31c01302de6aeb12a5bbc0c41db56e55fef136f1b66819d8e546280",
    "F": "b1fc5409cfd5d6bc33b113fb1538882eff65f017ae6165db421ed9474ead9f40",
    "G": "5ade54761f09c4d134a5c531cf1702c816513ce33845162bbfa87b276da5793a",
    "extended": "45f8f6be3eadd835ed11c0dd278a6275ce1088773b6f203c646118e3b40e617f",
}

CONFIGS = {**HEURISTIC_COLUMNS, "extended": FeatureConfig(features="extended")}


@pytest.fixture(scope="module")
def archive_slice() -> np.ndarray:
    X = load_archive_dataset("BeetleFly").train.X[:6]
    return np.concatenate([X, np.round(X, 1)])


def feature_digest(extractor: FeatureExtractor, X: np.ndarray) -> str:
    matrix = extractor.transform(X)
    digest = hashlib.sha256()
    digest.update("\n".join(extractor.feature_names_).encode())
    digest.update(np.ascontiguousarray(matrix, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_cache_version_unchanged():
    from repro.core.batch import FEATURE_CACHE_VERSION

    assert FEATURE_CACHE_VERSION == 2


@pytest.mark.parametrize("column", sorted(GOLDEN))
def test_feature_digest(archive_slice, column):
    assert archive_slice.shape == (12, 128)
    assert feature_digest(FeatureExtractor(CONFIGS[column]), archive_slice) == GOLDEN[column]
