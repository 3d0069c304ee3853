"""Repository-wide pytest options.

Declared at the root so they parse whichever of ``tests/`` and
``benchmarks/`` a run collects.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--record-results",
        action="store_true",
        default=False,
        help="write benchmark artifacts (BENCH_*.json, rendered *.txt) into the "
        "results directory (REPRO_RESULTS_DIR, default ./results) instead of a "
        "per-session temporary directory",
    )
