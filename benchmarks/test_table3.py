"""Regenerates Table 3 (accuracy + runtime vs the five baselines).

Cached under ``results/table3.json``; rendered to ``results/table3.txt``.
"""

import numpy as np
from _bench_utils import emit

from repro.experiments.table3 import METHODS, render_table3, run_table3
import pytest

#: Everything in benchmarks/ is a macro/micro benchmark.
pytestmark = pytest.mark.bench


def test_table3(benchmark, artifact_dir):
    payload = benchmark.pedantic(run_table3, rounds=1, iterations=1)
    assert set(payload["errors"]) == set(METHODS)
    text = render_table3(payload)
    emit(artifact_dir, "table3", text)
    mvg_total = float(np.sum(payload["mvg_fe"]) + np.sum(payload["mvg_clf"]))
    fs_total = float(np.sum(payload["fs_runtime"]))
    benchmark.extra_info["mvg_total_seconds"] = round(mvg_total, 1)
    benchmark.extra_info["fs_total_seconds"] = round(fs_total, 1)
