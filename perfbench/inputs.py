"""Inputs of the benchmark: the served models and the seeded series.

Every series comes from the archive generators (:mod:`repro.data.archive`):
the class recipes of one dataset, sampled with a generator seeded from
``--seed``, so the same seed sends the same series and the server sees
only the generated values.

The two served models are ``mvg:G`` classifiers tuned with the default
grid: ``classify`` on the FordA surrogate (length 128) and ``stream`` on
series drawn from the same recipes at the stream window length (256).
Fitting takes a few seconds, so the store is kept under
``.perfbench_cache/`` in the checkout, keyed by a hash of the program's
source: any change to ``src/`` refits.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"

DATASET = "FordA"
CLASSIFY_LENGTH = 128
STREAM_WINDOW = 256
#: Training series per class for the window-length stream model.
STREAM_TRAIN_PER_CLASS = 30

#: The Table-2 sweep: mixed lengths (64-128) and class counts (2-6).
SWEEP_DATASETS = ("BeetleFly", "Wine", "ToeSegmentation1", "DistalPhalanxTW", "Strawberry")


def _source_digest() -> str:
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    digest.update(Path(__file__).read_bytes())
    return digest.hexdigest()[:16]


def _class_recipes():
    from repro.data.archive import ARCHIVE_METADATA, build_class_specs

    return build_class_specs(ARCHIVE_METADATA[DATASET])


def _fit(X: np.ndarray, y: np.ndarray):
    from repro.core.pipeline import default_param_grid
    from repro.registry import make

    model = make(
        "mvg:G",
        param_grid=default_param_grid(),
        random_state=0,
        jobs=1,
        feature_cache=False,
    )
    return model.fit(X, y)


def ensure_store() -> Path:
    """The model store for this source tree, fitted on first use."""
    from repro.data.archive import load_archive_dataset
    from repro.data.generators import generate_class_samples
    from repro.serve.store import ModelStore

    store = CACHE / f"store-{_source_digest()}"
    if (store / "manifest.json").is_file():
        return store
    CACHE.mkdir(exist_ok=True)
    building = CACHE / f"building-{os.getpid()}"
    shutil.rmtree(building, ignore_errors=True)
    target = ModelStore(building)
    split = load_archive_dataset(DATASET)
    target.save(_fit(split.train.X, split.train.y), "classify", metadata={"spec": "mvg:G"})
    rng = np.random.default_rng(20181)
    recipes = _class_recipes()
    X = np.concatenate(
        [generate_class_samples(r, STREAM_TRAIN_PER_CLASS, STREAM_WINDOW, rng) for r in recipes]
    )
    y = np.repeat(np.arange(len(recipes)), STREAM_TRAIN_PER_CLASS)
    target.save(_fit(X, y), "stream", metadata={"spec": "mvg:G"})
    target.close_ledger()
    for old in CACHE.glob("store-*"):
        shutil.rmtree(old, ignore_errors=True)
    os.replace(building, store)
    return store


def load_model(store: Path, name: str):
    """The stored model, set up for offline prediction in this process."""
    from repro.serve.store import ModelStore

    model = ModelStore(store).load(name)
    model.set_params(n_jobs=1, feature_cache=False)
    return model


def classify_series(seed: int, stream: int, count: int) -> np.ndarray:
    """``count`` fresh length-128 series; their classes take turns."""
    from repro.data.generators import generate_class_samples

    rng = np.random.default_rng([seed, stream])
    recipes = _class_recipes()
    return np.stack([
        generate_class_samples(recipes[i % len(recipes)], 1, CLASSIFY_LENGTH, rng)[0]
        for i in range(count)
    ])


def stream_points(seed: int, session: int, count: int) -> np.ndarray:
    """The first ``count`` points of one session: back-to-back
    window-length series whose classes take turns, so every seed feeds
    the same class mix and only the series themselves change."""
    from repro.data.generators import generate_class_samples

    rng = np.random.default_rng([seed, 1000 + session])
    recipes = _class_recipes()
    segments = -(-count // STREAM_WINDOW)
    pieces = [
        generate_class_samples(recipes[(session + k) % len(recipes)], 1, STREAM_WINDOW, rng)[0]
        for k in range(segments)
    ]
    return np.concatenate(pieces)[:count]
