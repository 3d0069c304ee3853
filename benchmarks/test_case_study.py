"""Regenerates the Figure 10 case study (FordA feature importances)."""

from _bench_utils import emit, pick

from repro.experiments.case_study import render_case_study, run_case_study
import pytest

#: Everything in benchmarks/ is a macro/micro benchmark.
pytestmark = pytest.mark.bench


def test_figure10_case_study(benchmark, artifact_dir):
    result = benchmark.pedantic(
        run_case_study, kwargs={"dataset": pick("FordA", "BeetleFly"), "top_n": 10}, rounds=1, iterations=1
    )
    assert len(result["top_features"]) == 10
    text = render_case_study(result)
    emit(artifact_dir, "fig10", text)
    benchmark.extra_info["test_error"] = round(result["error"], 3)
