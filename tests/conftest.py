"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.serve import create_async_server


@contextlib.contextmanager
def _running_server(store, pipeline=None, **options):
    """An asyncio inference server on an ephemeral port for the ``with``
    body; ``pipeline`` is attached before the loop starts, as the CLI
    does."""
    server = create_async_server(store, port=0, **options)
    if pipeline is not None:
        server.state.attach_pipeline(pipeline)
    server.start_background()
    try:
        yield server
    finally:
        server.close()


@pytest.fixture(scope="session")
def serve():
    """``with serve(store, **options) as server:`` starts and stops one
    server; its port is ``server.server_address[1]``."""
    return _running_server


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def blobs(rng) -> tuple[np.ndarray, np.ndarray]:
    """A small, easily separable 3-class feature dataset."""
    n_per_class = 30
    X = np.concatenate(
        [rng.normal(center, 0.6, size=(n_per_class, 6)) for center in (0.0, 3.0, 6.0)]
    )
    y = np.repeat([0, 1, 2], n_per_class)
    order = rng.permutation(y.size)
    return X[order], y[order]


@pytest.fixture
def binary_blobs(rng) -> tuple[np.ndarray, np.ndarray]:
    """A small separable binary feature dataset."""
    X = np.concatenate(
        [rng.normal(center, 0.7, size=(40, 4)) for center in (0.0, 3.0)]
    )
    y = np.repeat([0, 1], 40)
    order = rng.permutation(y.size)
    return X[order], y[order]


@pytest.fixture
def tiny_series_dataset(rng) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A small 2-class time-series problem (smooth vs rough texture)."""
    t = np.linspace(0, 1, 64, endpoint=False)

    def sample(label: int) -> np.ndarray:
        base = np.sin(2 * np.pi * 3 * t + rng.uniform(0, 2 * np.pi))
        if label == 1:
            base = base + 0.6 * np.sin(2 * np.pi * 17 * t + rng.uniform(0, 2 * np.pi))
        return base + rng.normal(0, 0.15, size=t.size)

    X_train = np.stack([sample(i % 2) for i in range(24)])
    y_train = np.arange(24) % 2
    X_test = np.stack([sample(i % 2) for i in range(16)])
    y_test = np.arange(16) % 2
    return X_train, y_train, X_test, y_test
