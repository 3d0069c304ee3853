"""Session-scale benchmark for the streaming tier, recorded as
``BENCH_sessions.json``.

The question PR 10's slab/DRR rebuild answers: how many concurrent
stream sessions does one CPU sustain, and what does a tick cost at that
scale?  Two legs:

* **1k sustained** (floors asserted): 1 000 live sessions driven
  through the real :class:`~repro.serve.stream.StreamScheduler` path —
  slab-backed rings, per-session queues, deficit-round-robin chunks.
  Records steady-state throughput (ticks/second), the sessions-per-CPU
  it implies at a 1 tick/s/session feed rate, and p95 single-tick
  round-trip latency probed while the fleet is registered.
* **10k memory-bounded**: 10 000 sessions created, warmed, half of
  them churned (close + recreate).  The assertion is about *growth*:
  after churn the slab row count must not rise (recycled rows carry the
  replacement sessions) and every row is back in the free lists at the
  end.  Peak RSS is recorded for the capacity-planning table in
  ``docs/operations.md``.

The driving model is 1NN-ED on the generic ring path: the benchmark
measures the streaming *tier* (rings, scheduling, locking), not
feature-extraction arithmetic — MVG tick cost is covered by
``BENCH_streaming.json``, and slab bit-identity by the test suite.

Run with ``pytest benchmarks/test_sessions.py -m bench``.
"""

from __future__ import annotations

import resource
import time

import numpy as np
import pytest
from _bench_utils import SMOKE, merge_json, pick

from repro.baselines.nn import NearestNeighborEuclidean
from repro.core.slab import SlabPool
from repro.serve import InferenceEngine, StreamScheduler, StreamSession

pytestmark = pytest.mark.bench

#: Acceptance floor (ISSUE 10): one CPU must sustain at least this many
#: sessions, each fed one point per second, with headroom left over.
SESSIONS_PER_CPU_FLOOR = 1000

#: Acceptance floor (ISSUE 10): p95 single-tick round-trip (submit to
#: future resolution through the DRR worker) with the full fleet
#: registered must stay bounded.
P95_TICK_MS_CEILING = 50.0

WINDOW = 32
TARGET_TICK_HZ = 1.0


def _engine(window: int) -> InferenceEngine:
    rng = np.random.default_rng(5)
    model = NearestNeighborEuclidean().fit(
        rng.normal(size=(8, window)), np.repeat([0, 1], 4)
    )
    return InferenceEngine(model, name="1nn-ed")


def _drain(futures, timeout: float = 600.0) -> None:
    for future in futures:
        future.result(timeout=timeout)


def _probe_p95_ms(scheduler, sessions, probes: int, rng) -> dict[str, float]:
    """Single-point appends against an otherwise idle fleet: the tick
    latency a well-behaved client sees while N sessions are live."""
    latencies = []
    for index in rng.choice(len(sessions), size=probes, replace=True):
        t0 = time.perf_counter()
        scheduler.submit_append(sessions[index], [0.5]).result(timeout=60.0)
        latencies.append((time.perf_counter() - t0) * 1e3)
    return {
        "p50_ms": round(float(np.percentile(latencies, 50)), 3),
        "p95_ms": round(float(np.percentile(latencies, 95)), 3),
        "max_ms": round(float(np.max(latencies)), 3),
    }


def test_sessions_1k_sustained_throughput_and_latency(artifact_dir):
    n_sessions = pick(1000, 32)
    ticks_per_round = pick(16, 4)
    rounds = pick(4, 1)
    rng = np.random.default_rng(2)

    pool = SlabPool()
    engine = _engine(WINDOW)
    scheduler = StreamScheduler()
    try:
        t0 = time.perf_counter()
        sessions = [
            StreamSession(f"s{i}", engine, window=WINDOW, stride=1, slab=pool)
            for i in range(n_sessions)
        ]
        create_seconds = time.perf_counter() - t0

        # Warm every ring to its window so each steady-state point ticks.
        _drain(
            [
                scheduler.submit_append(session, [float(i % 7)] * WINDOW)
                for i, session in enumerate(sessions)
            ]
        )

        t0 = time.perf_counter()
        for _ in range(rounds):
            _drain(
                [
                    scheduler.submit_append(session, [0.25] * ticks_per_round)
                    for session in sessions
                ]
            )
        steady_seconds = time.perf_counter() - t0
        total_ticks = n_sessions * ticks_per_round * rounds
        ticks_per_second = total_ticks / steady_seconds
        sessions_per_cpu = ticks_per_second / TARGET_TICK_HZ

        probe = _probe_p95_ms(scheduler, sessions, probes=pick(64, 8), rng=rng)

        section = {
            "sessions": n_sessions,
            "window": WINDOW,
            "model": "1nn-ed",
            "create_seconds": round(create_seconds, 3),
            "steady_ticks": total_ticks,
            "steady_seconds": round(steady_seconds, 3),
            "ticks_per_second": round(ticks_per_second, 1),
            "target_tick_hz": TARGET_TICK_HZ,
            "sessions_per_cpu": round(sessions_per_cpu, 1),
            "sessions_per_cpu_floor": SESSIONS_PER_CPU_FLOOR,
            "tick_latency": probe,
            "p95_tick_ms_ceiling": P95_TICK_MS_CEILING,
            "scheduler": scheduler.stats(),
            "slab": pool.stats(),
        }
        # Schema guard runs in smoke mode too: CI catches renamed or
        # dropped fields without paying for the full-size measurement.
        assert isinstance(section["sessions_per_cpu"], float)
        assert {"p50_ms", "p95_ms", "max_ms"} <= section["tick_latency"].keys()
        assert section["slab"]["rows_in_use"] == n_sessions
        for session in sessions:
            session.close()
        assert pool.stats()["rows_in_use"] == 0
        merge_json(artifact_dir, "BENCH_sessions", {"sustained_1k": section})
        if not SMOKE:
            assert sessions_per_cpu >= SESSIONS_PER_CPU_FLOOR, section
            assert probe["p95_ms"] <= P95_TICK_MS_CEILING, section
    finally:
        scheduler.close()
        engine.close()


def test_sessions_10k_memory_bounded_churn(artifact_dir):
    n_sessions = pick(10_000, 64)
    rng = np.random.default_rng(3)

    pool = SlabPool()
    engine = _engine(WINDOW)
    scheduler = StreamScheduler()
    try:
        rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        sessions = [
            StreamSession(f"s{i}", engine, window=WINDOW, stride=1, slab=pool)
            for i in range(n_sessions)
        ]
        # Warm plus a few steady ticks each — enough to touch every ring.
        _drain(
            [
                scheduler.submit_append(session, [0.5] * (WINDOW + 4))
                for session in sessions
            ]
        )
        rows_after_fleet = pool.stats()["rows_total"]

        # Churn half the fleet: closed sessions hand their rows back and
        # the replacements must reuse them — rows_total may not grow.
        churn = n_sessions // 2
        for session in sessions[:churn]:
            session.close()
            scheduler.purge_session(session.id, "benchmark churn")
        replacements = [
            StreamSession(f"r{i}", engine, window=WINDOW, stride=1, slab=pool)
            for i in range(churn)
        ]
        _drain(
            [
                scheduler.submit_append(session, [0.75] * WINDOW)
                for session in replacements
            ]
        )
        rows_after_churn = pool.stats()["rows_total"]
        live = sessions[churn:] + replacements

        probe = _probe_p95_ms(scheduler, live, probes=pick(64, 8), rng=rng)
        rss_after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        section = {
            "sessions": n_sessions,
            "window": WINDOW,
            "model": "1nn-ed",
            "churned": churn,
            "slab_rows_after_fleet": rows_after_fleet,
            "slab_rows_after_churn": rows_after_churn,
            "slab_bytes_total": pool.stats()["bytes_total"],
            "tick_latency": probe,
            "ru_maxrss_before_kb": rss_before_kb,
            "ru_maxrss_after_kb": rss_after_kb,
            "ru_maxrss_delta_kb": rss_after_kb - rss_before_kb,
        }
        # The memory-bound claim, asserted in smoke mode too: session
        # churn recycles slab rows instead of growing the pool, and
        # closing everything returns every row.
        assert rows_after_churn == rows_after_fleet, section
        for session in live:
            session.close()
        assert pool.stats()["rows_in_use"] == 0
        merge_json(artifact_dir, "BENCH_sessions", {"memory_bounded_10k": section})
    finally:
        scheduler.close()
        engine.close()
