"""Regenerates Figures 6 and 7 (critical-difference diagrams).

Cached under ``results/fig6.json`` / ``results/fig7.json``.
"""

import pytest
from _bench_utils import emit

from repro.experiments.cd_diagrams import (
    FIG6_METHODS,
    FIG7_METHODS,
    render_cd,
    run_fig6,
    run_fig7,
)

#: Everything in benchmarks/ is a macro/micro benchmark.
pytestmark = pytest.mark.bench


def test_figure6_classifier_families(benchmark, artifact_dir):
    payload = benchmark.pedantic(run_fig6, rounds=1, iterations=1)
    text = render_cd(payload, FIG6_METHODS, "Figure 6: classifier families on MVG features")
    assert "CD =" in text
    emit(artifact_dir, "fig6", text)


def test_figure7_stacking(benchmark, artifact_dir):
    payload = benchmark.pedantic(run_fig7, rounds=1, iterations=1)
    text = render_cd(payload, FIG7_METHODS, "Figure 7: stacked generalization")
    assert "CD =" in text
    emit(artifact_dir, "fig7", text)
