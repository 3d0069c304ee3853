"""Benchmark configuration.

Benches default to the full 39-dataset archive; set ``REPRO_DATASETS`` or
``REPRO_MAX_DATASETS`` to restrict.  Sweep results are cached as JSON in
``REPRO_RESULTS_DIR`` (default ``./results``) and reused on subsequent
invocations, so only the first run pays the full sweep cost.

Rendered artifacts go to a per-session temporary directory unless
``pytest --record-results`` asks for the results directory.
"""

import pytest

from repro.experiments.harness import results_dir


@pytest.fixture(scope="session")
def artifact_dir(request, tmp_path_factory):
    """The directory every benchmark artifact of this session lands in."""
    if request.config.getoption("record_results"):
        path = results_dir()
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path_factory.mktemp("bench-artifacts")
