"""Headline fast-path benchmark: builder and sweep speedups, recorded as
``BENCH_fastpath.json``.

Two measurements back the fast-path subsystem's acceptance criteria:

* **builders** — HVG+VG construction at n=2048: the reference builders
  (``visibility_graph`` divide-and-conquer + the stack HVG, building
  adjacency-set ``Graph`` objects) against the array-backed fast
  builders of :mod:`repro.graph.fast` (shared Cartesian-tree pass,
  vectorized sweeps, CSR assembly).  Timings are min-of-interleaved-
  rounds so CPU-frequency drift hits both sides equally.
* **sweep** — a table2-style end-to-end extraction sweep (two passes
  over the same train/test split, exactly what a ``table2`` run followed
  by a figure harness does): seed-equivalent serial extraction (the
  reference builders plus the pre-vectorization motif loops, re-enabled
  by forcing the motif fallback path — proven count-identical by the
  motif parity tests) vs :class:`~repro.core.batch.BatchFeatureExtractor`
  with ``n_jobs=4`` and the on-disk feature cache.  The speedup against
  today's (already vectorized) serial extractor is recorded alongside
  for transparency.

Run with ``pytest benchmarks/test_fastpath.py -m bench``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from _bench_utils import SMOKE, emit, install_reference_builders, pick

from repro.core.batch import BatchFeatureExtractor
from repro.core.config import HEURISTIC_COLUMNS
from repro.core.features import FeatureExtractor, feature_mask
from repro.graph.fast import visibility_graphs
from repro.graph.visibility import (
    horizontal_visibility_graph,
    visibility_graph,
    visibility_graph_naive,
)

pytestmark = pytest.mark.bench

#: Acceptance floors (ISSUE 1): builders >= 3x at n=2048, sweep >= 2x.
BUILDER_SPEEDUP_FLOOR = 3.0
SWEEP_SPEEDUP_FLOOR = 2.0

#: Smoke mode shrinks the workloads and skips the floor asserts.
BUILDER_N = pick(2048, 96)
SWEEP_SHAPE = pick((24, 256), (4, 64))
TIMING_ROUNDS = pick(7, 1)


def _best_of(fn, rounds: int, inner: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _interleaved(fns: dict, rounds: int = TIMING_ROUNDS, inner: int = 3) -> dict[str, float]:
    """Min-of-rounds timing with the candidates interleaved per round, so
    machine noise and frequency scaling average out fairly."""
    for fn in fns.values():  # warm-up
        fn()
    best = {name: float("inf") for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            best[name] = min(best[name], (time.perf_counter() - t0) / inner)
    return best


def test_fastpath_builders_and_sweep(monkeypatch, artifact_dir):
    payload: dict = {"n": BUILDER_N, "floors": {
        "builders": BUILDER_SPEEDUP_FLOOR, "sweep": SWEEP_SPEEDUP_FLOOR,
    }}

    # --- builders at n=2048 --------------------------------------------
    series = np.random.default_rng(7).normal(size=BUILDER_N)
    timings = _interleaved(
        {
            "seed_vg_dc": lambda: visibility_graph(series),
            "seed_hvg": lambda: horizontal_visibility_graph(series),
            "fast_combined_csr": lambda: visibility_graphs(series),
        }
    )
    # The naive O(n^2) seed builder is far slower; one round suffices.
    timings["seed_vg_naive"] = _best_of(
        lambda: visibility_graph_naive(series), rounds=2, inner=1
    )
    seed_seconds = timings["seed_vg_dc"] + timings["seed_hvg"]
    builder_speedup = seed_seconds / timings["fast_combined_csr"]
    payload["builders"] = {
        "timings_ms": {k: round(v * 1e3, 3) for k, v in timings.items()},
        "seed_hvg_plus_vg_ms": round(seed_seconds * 1e3, 3),
        "speedup_vs_dc_plus_stack": round(builder_speedup, 2),
        "speedup_vs_naive_plus_stack": round(
            (timings["seed_vg_naive"] + timings["seed_hvg"])
            / timings["fast_combined_csr"],
            2,
        ),
    }

    # --- table2-style sweep --------------------------------------------
    # Two extraction passes over one split (column G features), as a
    # table2 run followed by any figure harness performs.  The cache
    # directory starts cold.
    rng = np.random.default_rng(11)
    X_train = rng.normal(size=SWEEP_SHAPE)
    X_test = rng.normal(size=SWEEP_SHAPE)
    config = HEURISTIC_COLUMNS["G"]

    import repro.graph.motifs as motifs_module

    reference = FeatureExtractor(config)
    # Seed-equivalent pass: reference builders (swapped in for the
    # repro.graph.fast builder bindings) + the original per-edge motif
    # loops (the vectorized-path guard forced off).
    install_reference_builders(monkeypatch)
    monkeypatch.setattr(motifs_module, "_MAX_VECTOR_WEDGES", -1)
    t0 = time.perf_counter()
    for _ in range(2):
        ref_train = reference.transform(X_train)
        ref_test = reference.transform(X_test)
    seed_sweep = time.perf_counter() - t0
    monkeypatch.undo()

    # Today's serial extractor (vectorized motifs, fast builders), for
    # the single-pass speedup line.
    t0 = time.perf_counter()
    serial_now_train = FeatureExtractor(config).transform(X_train)
    serial_now = time.perf_counter() - t0
    assert np.array_equal(ref_train, serial_now_train)

    cache_dir = artifact_dir / "BENCH_fastpath_cache"
    for stale in cache_dir.glob("*") if cache_dir.is_dir() else ():
        stale.unlink()
    batch = BatchFeatureExtractor(config, n_jobs=4, cache_dir=cache_dir)
    t0 = time.perf_counter()
    for _ in range(2):
        fast_train = batch.transform(X_train)
        fast_test = batch.transform(X_test)
    fast_sweep = time.perf_counter() - t0

    assert np.array_equal(ref_train, fast_train)
    assert np.array_equal(ref_test, fast_test)
    sweep_speedup = seed_sweep / fast_sweep
    payload["sweep"] = {
        "n_series": int(X_train.shape[0] + X_test.shape[0]),
        "series_length": int(X_train.shape[1]),
        "passes": 2,
        "n_jobs": 4,
        "seed_equivalent_serial_seconds": round(seed_sweep, 3),
        "batch_cached_seconds": round(fast_sweep, 3),
        "speedup": round(sweep_speedup, 2),
        "serial_now_single_pass_seconds": round(serial_now, 3),
        "serial_speedup_vs_seed_single_pass": round(
            (seed_sweep / 2) / serial_now, 2
        ),
        "second_pass_cache_hits": batch.last_cache_hits_,
    }

    # Column-slicing still works on batched output (the table2 pattern).
    mask = feature_mask(batch.feature_names_, HEURISTIC_COLUMNS["A"])
    assert mask.sum() > 0

    path = artifact_dir / "BENCH_fastpath.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    emit(artifact_dir, "BENCH_fastpath", json.dumps(payload, indent=1, sort_keys=True))

    if not SMOKE:
        assert builder_speedup >= BUILDER_SPEEDUP_FLOOR, payload["builders"]
        assert sweep_speedup >= SWEEP_SPEEDUP_FLOOR, payload["sweep"]
