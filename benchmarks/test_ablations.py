"""Ablation benchmarks for the design choices DESIGN.md calls out.

On a fixed small panel of datasets (one per archetype), these measure:

* **tau ablation** — τ ∈ {0, 15, 31}: the paper claims τ is an
  optimisation trick, not a tuned parameter (accuracy should barely
  move; feature count and runtime should);
* **motif-size ablation** — size ≤ 3 vs ≤ 4 motif groups (the 4-motif
  distributions are the bulk of both signal and cost);
* **feature-set ablation** — "all" vs the Section-6 "extended" features;
* **representation ablation** — MVG features vs the WL graph-kernel
  classifier (the Section-5 alternative).

Results land in ``results/ablations.txt``.
"""

import numpy as np
import pytest
from _bench_utils import emit, pick

from repro.core.config import FeatureConfig
from repro.core.features import FeatureExtractor
from repro.core.graph_kernel import WLVisibilityKernelClassifier
from repro.data.archive import load_archive_dataset
from repro.experiments.reporting import format_table
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.metrics import error_rate

#: Everything in benchmarks/ is a macro/micro benchmark.
pytestmark = pytest.mark.bench

PANEL = pick(("BeetleFly", "ECG5000", "SmallKitchenAppliances", "ShapeletSim"), ("BeetleFly",))


def _evaluate_config(config: FeatureConfig, names=PANEL) -> tuple[float, int]:
    """Mean error over the panel and feature count for one config."""
    errors = []
    n_features = 0
    for name in names:
        split = load_archive_dataset(name)
        extractor = FeatureExtractor(config)
        train = extractor.transform(split.train.X)
        test = extractor.transform(split.test.X)
        n_features = train.shape[1]
        model = GradientBoostingClassifier(
            n_estimators=40, subsample=0.5, colsample_bytree=0.5, random_state=0
        )
        model.fit(train, split.train.y)
        errors.append(error_rate(split.test.y, model.predict(test)))
    return float(np.mean(errors)), n_features


def test_tau_ablation(benchmark, artifact_dir):
    rows = []

    def run():
        rows.clear()
        for tau in (0, 15, 31):
            error, n_features = _evaluate_config(FeatureConfig(tau=tau))
            rows.append([f"tau={tau}", error, n_features])
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["Setting", "mean error", "n_features"], rows, title="Ablation: tau threshold"
    )
    emit(artifact_dir, "ablation_tau", text)
    # The paper's claim: tau is not a sensitive parameter.
    errors = [row[1] for row in rows]
    assert max(errors) - min(errors) < 0.25


def test_feature_set_ablation(benchmark, artifact_dir):
    rows = []

    def run():
        rows.clear()
        for features in ("mpds", "all", "extended"):
            error, n_features = _evaluate_config(FeatureConfig(features=features))
            rows.append([features, error, n_features])
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["Feature set", "mean error", "n_features"],
        rows,
        title="Ablation: MPDs vs all vs extended (Section-6) features",
    )
    emit(artifact_dir, "ablation_features", text)


def test_wl_kernel_vs_mvg(benchmark, artifact_dir):
    rows = []

    def run():
        rows.clear()
        for name in PANEL:
            split = load_archive_dataset(name)
            wl = WLVisibilityKernelClassifier(n_iterations=2)
            wl.fit(split.train.X, split.train.y)
            wl_error = error_rate(split.test.y, wl.predict(split.test.X))
            mvg_error, _ = _evaluate_config(FeatureConfig(), names=(name,))
            rows.append([name, mvg_error, wl_error])
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["Dataset", "MVG error", "WL-kernel error"],
        rows,
        title="Ablation: statistical MVG features vs WL graph kernel (Section 5)",
    )
    emit(artifact_dir, "ablation_wl_kernel", text)


@pytest.mark.parametrize("scales", ["uvg", "amvg", "mvg"])
def test_scale_ablation_feature_extraction_cost(benchmark, scales):
    """Per-series extraction cost of each scale setting (the runtime side
    of the Figure-5 accuracy comparison)."""
    from repro.core.features import extract_feature_vector

    series = np.random.default_rng(0).normal(size=256)
    config = FeatureConfig(scales=scales)
    vector, _ = benchmark(extract_feature_vector, series, config)
    assert vector.size > 0
