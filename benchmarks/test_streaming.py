"""Streaming benchmark: incremental sliding-window maintenance vs
per-tick rebuild, recorded as ``BENCH_streaming.json``.

The workload is the streaming acceptance scenario: a sliding window of
``n = 1024`` points advancing one point per tick (stride 1) over a
random-walk stream, classifying every tick.  Two levels:

* **graph maintenance** (the headline, floor asserted): per tick,
  produce the window's VG + HVG as CSR graphs.  *Incremental* pushes
  the new point into a :class:`~repro.graph.incremental.SlidingGraphWindow`
  (one pivot-sweep + O(degree) bookkeeping) and re-renders only the
  touched CSR rows; *rebuild* calls the batch builder
  :func:`~repro.graph.fast.visibility_graphs` on the window — the
  fast path PR 1 built, so the floor is against the strongest baseline,
  not the reference builders.  On one CPU only an asymptotic saving
  like this survives (no core fan-out to hide behind).
* **feature pipeline** (floor asserted since the metric layer went
  dual-mode): per-tick feature vectors via
  :class:`~repro.core.streaming.StreamingFeatureExtractor` vs batch
  :func:`~repro.core.features.extract_feature_vector`.  Motifs, k-core,
  assortativity and the degree statistics are now delta-maintained
  :class:`~repro.graph.incremental_metrics.MetricState` banks fed by
  the sliding graphs' edge-delta stream, so the whole tick — not just
  graph building — is incremental; the recorded phase split (graph
  maintenance vs metric update) shows where the remaining time goes.

Run with ``pytest benchmarks/test_streaming.py -m bench``.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest
from _bench_utils import SMOKE, merge_json, pick

from repro.core.config import FeatureConfig
from repro.core.features import extract_feature_vector
from repro.core.streaming import StreamingFeatureExtractor
from repro.graph.fast import visibility_graphs
from repro.graph.incremental import SlidingGraphWindow

pytestmark = pytest.mark.bench

#: Acceptance floor (ISSUE 5): incremental graph maintenance must be at
#: least this much faster than a per-tick rebuild at n=1024, stride 1.
STREAMING_SPEEDUP_FLOOR = 3.0

#: Acceptance floor (ISSUE 9): the end-to-end feature tick — graph
#: maintenance + delta-maintained metrics — must be at least this much
#: faster than batch extraction at n=1024, stride 1.
FEATURE_SPEEDUP_FLOOR = 5.0

WINDOW = pick(1024, 64)
TICKS = pick(256, 16)
ROUNDS = pick(5, 1)


def _random_walk(n: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=n))


def _per_tick(fn, stream: np.ndarray, warm_ticks: int, ticks: int, rounds: int) -> float:
    """Best-of-rounds mean per-tick seconds; ``fn(t)`` handles tick t."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for t in range(warm_ticks, warm_ticks + ticks):
            fn(t)
        best = min(best, (time.perf_counter() - t0) / ticks)
    return best


def _session_heap_bytes(window: int, ticks: int) -> int:
    """Python heap (tracemalloc) held by one ``mvg:G`` extractor fed a
    random walk to a full window plus ``ticks`` ticks."""
    stream = _random_walk(window + ticks, seed=0)
    tracemalloc.start()
    try:
        extractor = StreamingFeatureExtractor(window, FeatureConfig())
        for x in stream:
            extractor.push(x)
            if extractor.filled:
                extractor.features()
        heap, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return heap


def _session_fill_ms(window: int, ticks: int, rounds: int) -> float:
    """Best-of-``rounds`` milliseconds to create one ``mvg:G`` extractor,
    fill its window from a random walk and run its first ``ticks + 1``
    feature ticks: the set-up cost of a new stream session, including
    the creation of its first phase slots."""
    stream = _random_walk(window + ticks, seed=3)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        extractor = StreamingFeatureExtractor(window, FeatureConfig())
        for x in stream[:window]:
            extractor.push(x)
        extractor.features()
        for x in stream[window:]:
            extractor.push(x)
            extractor.features()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def test_streaming_graph_maintenance_vs_rebuild(artifact_dir):
    stream = _random_walk(WINDOW + (ROUNDS + 1) * TICKS)

    # Incremental: one sliding pair, warmed over the first window, then
    # one push + two CSR materialisations per tick.
    sliding = SlidingGraphWindow(("vg", "hvg"), window=WINDOW)
    for x in stream[:WINDOW]:
        sliding.push(x)
    sliding.csr("vg"), sliding.csr("hvg")
    cursor = [WINDOW]

    def incremental_tick(_t: int) -> None:
        sliding.push(stream[cursor[0]])
        cursor[0] += 1
        sliding.csr("vg")
        sliding.csr("hvg")

    incremental = _per_tick(incremental_tick, stream, 0, TICKS, ROUNDS)
    # Sanity: after all those ticks the maintained graphs still equal a
    # fresh batch build of the same window.
    lo = cursor[0] - WINDOW
    assert sliding.csr("vg") == visibility_graphs(stream[lo : cursor[0]])[0]

    def rebuild_tick(t: int) -> None:
        visibility_graphs(stream[t - WINDOW + 1 : t + 1])

    rebuild = _per_tick(rebuild_tick, stream, WINDOW, TICKS, ROUNDS)

    speedup = rebuild / incremental
    payload = {
        "window": WINDOW,
        "stride": 1,
        "ticks": TICKS,
        "rounds_best_of": ROUNDS,
        "floor": STREAMING_SPEEDUP_FLOOR,
        "smoke": SMOKE,
        "graph_maintenance": {
            "incremental_ms_per_tick": round(incremental * 1e3, 4),
            "rebuild_ms_per_tick": round(rebuild * 1e3, 4),
            "speedup": round(speedup, 2),
        },
    }
    merge_json(artifact_dir, "BENCH_streaming", payload)
    if not SMOKE:
        assert speedup >= STREAMING_SPEEDUP_FLOOR, payload["graph_maintenance"]


def test_streaming_feature_pipeline(artifact_dir):
    config = FeatureConfig()
    window = pick(1024, 64)
    ticks = pick(64, 4)

    extractor = StreamingFeatureExtractor(window, config)
    # Scale i keeps 2^i phase slots; every slot has been warmed once
    # after max-block ticks, which is when steady state begins.
    warm = max(state.block for state in extractor._scales)
    stream = _random_walk(window + warm + 2 * ticks, seed=11)
    for x in stream[:window]:
        extractor.push(x)
    cursor = [window]
    for _ in range(warm):
        extractor.features()
        extractor.push(stream[cursor[0]])
        cursor[0] += 1
    extractor.features()

    phase_totals = {"graph": 0.0, "metrics": 0.0}
    phase_ticks = [0]

    def stream_tick(_t: int) -> None:
        extractor.push(stream[cursor[0]])
        cursor[0] += 1
        extractor.features()
        for phase, seconds in extractor.last_phase_seconds_.items():
            phase_totals[phase] += seconds
        phase_ticks[0] += 1

    streaming = _per_tick(stream_tick, stream, 0, ticks, 1)
    last_stream_vector = extractor.features()

    def batch_tick(t: int) -> None:
        extract_feature_vector(stream[t - window + 1 : t + 1], config)

    batch = _per_tick(batch_tick, stream, window, ticks, 1)
    expected, _ = extract_feature_vector(stream[cursor[0] - window : cursor[0]], config)
    assert np.array_equal(last_stream_vector, expected)

    speedup = batch / streaming
    section = {
        "window": window,
        "ticks": ticks,
        "streaming_ms_per_tick": round(streaming * 1e3, 3),
        "batch_ms_per_tick": round(batch * 1e3, 3),
        "speedup": round(speedup, 2),
        "floor": FEATURE_SPEEDUP_FLOOR,
        "phase_graph_ms_per_tick": round(
            phase_totals["graph"] / phase_ticks[0] * 1e3, 4
        ),
        "phase_metrics_ms_per_tick": round(
            phase_totals["metrics"] / phase_ticks[0] * 1e3, 4
        ),
        # Bytes per session at the serving tier's window 256, every phase
        # slot warm (32 ticks) in full runs.
        "mvg_session_heap_bytes": _session_heap_bytes(256, pick(400, 16)),
        # Creating, filling and running one window-256 session for 8
        # ticks (recorded only; no floor).
        "mvg_session_fill_ms": round(
            _session_fill_ms(pick(256, 64), pick(8, 2), pick(3, 1)), 3
        ),
    }
    # Schema guard runs in smoke mode too: CI catches a renamed or
    # dropped field without paying for the full-size measurement.
    for field in (
        "speedup",
        "floor",
        "phase_graph_ms_per_tick",
        "phase_metrics_ms_per_tick",
        "mvg_session_fill_ms",
    ):
        assert field in section and isinstance(section[field], float)
    assert isinstance(section["mvg_session_heap_bytes"], int)
    merge_json(artifact_dir, "BENCH_streaming", {"feature_pipeline": section})
    if not SMOKE:
        assert speedup >= FEATURE_SPEEDUP_FLOOR, section
