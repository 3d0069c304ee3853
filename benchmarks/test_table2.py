"""Regenerates Table 2 (heuristic validation A-G vs 1NN baselines).

The first invocation runs the full sweep and caches it under
``results/table2.json``; later invocations reuse the cache, so the
benchmark time then measures rendering only.  The rendered table is
written to ``results/table2.txt`` and echoed to stdout.
"""

from _bench_utils import emit

from repro.experiments.table2 import METHODS, render_table2, run_table2
import pytest

#: Everything in benchmarks/ is a macro/micro benchmark.
pytestmark = pytest.mark.bench


def test_table2(benchmark, artifact_dir):
    payload = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    assert set(payload["errors"]) == set(METHODS)
    n = len(payload["datasets"])
    assert all(len(v) == n for v in payload["errors"].values())
    text = render_table2(payload)
    emit(artifact_dir, "table2", text)
    benchmark.extra_info["n_datasets"] = n
