"""Regenerates the data series behind Figures 2, 3, 4, 5, 8 and 9.

Figures 3-5 reuse the Table 2 cache; Figures 8-9 reuse the Table 3
cache.  Each rendered figure is written to ``results/figN.txt``.
"""

import pytest
from _bench_utils import emit

from repro.experiments.figures import (

    render_figure2,
    render_figure8,
    render_figure9,
    render_scatter_figure,
)

#: Everything in benchmarks/ is a macro/micro benchmark.
pytestmark = pytest.mark.bench


def test_figure2_motif_distributions(benchmark, artifact_dir):
    text = benchmark.pedantic(render_figure2, args=("ArrowHead",), rounds=1, iterations=1)
    assert "connected 4-motifs" in text
    emit(artifact_dir, "fig2", text)


@pytest.mark.parametrize("figure", ["fig3", "fig4", "fig5"])
def test_scatter_figures(benchmark, figure, artifact_dir):
    text = benchmark.pedantic(
        render_scatter_figure, args=(figure,), rounds=1, iterations=1
    )
    assert "wins:" in text
    emit(artifact_dir, figure, text)


def test_figure8_mvg_vs_baselines(benchmark, artifact_dir):
    text = benchmark.pedantic(render_figure8, rounds=1, iterations=1)
    assert "MVG" in text
    emit(artifact_dir, "fig8", text)


def test_figure9_runtime(benchmark, artifact_dir):
    text = benchmark.pedantic(render_figure9, rounds=1, iterations=1)
    assert "speedup" in text
    emit(artifact_dir, "fig9", text)
