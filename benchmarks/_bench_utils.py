"""Shared helpers for benchmark modules: artifact emission + smoke mode.

Artifacts (``BENCH_*.json``, rendered ``*.txt`` tables) go to the
``artifact_dir`` fixture: a per-session temporary directory by default, so
a test run never rewrites the committed ``results/``.  Recording into
the results directory takes ``pytest --record-results`` (declared in
the repository's root ``conftest.py``).  Sweep caches the harness reads
(``results/table2.json`` and friends) are unaffected.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by the CI ``bench-smoke``
job) runs every benchmark end to end with tiny sizes and **no timing
assertions** — the point is that benchmark code cannot rot silently,
not that a shared CI runner can reproduce the headline numbers.  Size
knobs go through :func:`pick`; speedup floors are guarded with
``if not SMOKE``.  The sweep-driven benchmarks (table2/table3/figures)
are sized externally through ``REPRO_DATASETS``/``REPRO_MAX_DATASETS``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

#: True when benchmarks should run tiny and skip timing assertions.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")


def pick(full, smoke):
    """``full`` normally, ``smoke`` under ``REPRO_BENCH_SMOKE=1``."""
    return smoke if SMOKE else full


def emit(directory: Path, name: str, text: str) -> None:
    """Write a rendered artifact to ``<directory>/<name>.txt`` (and echo it).

    ``directory`` is the ``artifact_dir`` fixture.  The file is the
    durable record; the echo goes through the current (possibly
    captured) stdout, so it surfaces with ``pytest -s`` or ``-rP``.
    Pytest's default fd-level capture swallows even ``sys.__stdout__``
    writes, which is why the file is authoritative.
    """
    path = Path(directory) / f"{name}.txt"
    path.write_text(text + "\n")
    sys.stdout.write(f"\n===== {name} =====\n{text}\n")
    sys.stdout.flush()


def merge_json(directory: Path, name: str, payload: dict) -> None:
    """Fold ``payload``'s sections into ``<directory>/<name>.json`` and
    emit the result (the tests of one module write disjoint keys, in
    either order)."""
    path = Path(directory) / f"{name}.json"
    merged: dict = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            merged = {}
    merged.update(payload)
    rendered = json.dumps(merged, indent=1, sort_keys=True)
    path.write_text(rendered + "\n")
    emit(directory, name, rendered)


def install_reference_builders(monkeypatch) -> None:
    """Swap the reference builders of :mod:`repro.graph.visibility`
    (their set graphs converted to CSR) in for the three builder
    bindings feature extraction looks up on :mod:`repro.graph.fast`.

    This is how a benchmark times extraction on the seed's builders;
    ``monkeypatch.undo()`` restores the fast builders.
    """
    import repro.graph.fast as fast_module
    from repro.graph.fast import CSRGraph
    from repro.graph.visibility import horizontal_visibility_graph, visibility_graph

    def vg(series):
        return CSRGraph.from_graph(visibility_graph(series))

    def hvg(series):
        return CSRGraph.from_graph(horizontal_visibility_graph(series))

    monkeypatch.setattr(fast_module, "fast_visibility_graph_csr", vg)
    monkeypatch.setattr(fast_module, "fast_horizontal_visibility_graph_csr", hvg)
    monkeypatch.setattr(fast_module, "visibility_graphs", lambda series: (vg(series), hvg(series)))
