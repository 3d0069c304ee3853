"""Golden digests of fitted boosters: grid search pinned bit for bit.

SHA-256 over the canonical JSON (``model_to_dict``, sorted keys) of a
seeded ``mvg:G`` pipeline — full MVG features, random oversampling and
the sweep grid searched by stratified 3-fold CV on cross entropy — fitted
on the train split of one binary and one 6-class archive dataset.  The
digest covers every tree's node order, split features, thresholds and
leaf values, the winning grid point and the scaler/extractor settings.

A performance change to the booster or the grid search (staged scoring,
flat prediction, node-builder rewrites) must leave these digests alone,
and the test error must equal the committed Table 2 column G cell.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api.config import RunConfig
from repro.core.config import heuristic_config
from repro.core.pipeline import MVGClassifier
from repro.data.archive import load_archive_dataset
from repro.experiments.harness import active_param_grid
from repro.ml.metrics import error_rate
from repro.ml.persistence import model_to_dict

GOLDEN = {
    "BeetleFly": "3e69c5a8e8e96e36522669e9683468e71256856fe37f96e471699334706fa482",
    "DistalPhalanxTW": "af187ca0e217f0b30dfce7423c18bf3da97a1675a3fde1e51b5c60a137cd7cdb",
}


def fit_mvg_g(name: str) -> tuple[MVGClassifier, float]:
    split = load_archive_dataset(name)
    model = MVGClassifier(
        config=heuristic_config("G"),
        param_grid=active_param_grid(split.train.n_classes, RunConfig()),
        random_state=0,
        n_jobs=1,
        feature_cache=False,
    )
    model.fit(split.train.X, split.train.y)
    return model, error_rate(split.test.y, model.predict(split.test.X))


def model_digest(model: MVGClassifier) -> str:
    blob = json.dumps(model_to_dict(model), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def table2_column_g(name: str) -> float:
    table = json.loads((Path(__file__).parents[1] / "results" / "table2.json").read_text())
    return table["errors"]["G"][table["datasets"].index(name)]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fitted_booster_digest(name):
    model, error = fit_mvg_g(name)
    assert model_digest(model) == GOLDEN[name]
    assert error == table2_column_g(name)
