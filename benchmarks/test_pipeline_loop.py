"""Closed-loop pipeline benchmark: how long the system takes to heal.

Measures the three legs of the continuous-learning loop on a live
serving state (threaded stack, hot reload polling, pipeline attached):

* **detect** — drift-regime points start streaming → the detector
  triggers (a function of the drift/test-window knobs, reported for
  context, not asserted);
* **trigger → publish** — the detector fires → a retrained,
  SHA-256-verified new version lands in the model store (fit + publish
  + verify on the bounded executor);
* **publish → live** — the version exists → a newly created stream
  session serves it (the ``StoreWatcher`` hot-load leg; bounded by the
  poll interval plus one engine swap).

Recorded as ``BENCH_pipeline.json``; under
``REPRO_BENCH_SMOKE=1`` everything runs tiny with no latency
assertions.  Run with ``pytest benchmarks/test_pipeline_loop.py -m bench``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from _bench_utils import SMOKE, emit, pick

from repro.baselines.nn import NearestNeighborEuclidean
from repro.pipeline import (
    DriftConfig,
    PipelineConfig,
    PipelineController,
    RetrainConfig,
)
from repro.serve.http import build_server_state
from repro.serve.store import ModelStore

pytestmark = pytest.mark.bench

WINDOW = 64
RELOAD_INTERVAL = 0.2
ROUNDS = pick(5, 1)

#: Acceptance ceilings (single shared CPU, tiny NN model): the loop
#: must close in seconds, not minutes — trigger→publish is a fit of a
#: 64-sample NN plus an atomic store write, and publish→live is one
#: watcher poll plus an engine swap.
TRIGGER_TO_PUBLISH_CEILING = 10.0
PUBLISH_TO_LIVE_CEILING = 10 * RELOAD_INTERVAL + 2.0


def _seed_store(root) -> ModelStore:
    rng = np.random.default_rng(0)
    X = np.concatenate(
        [
            rng.normal(0.0, 0.3, size=(12, WINDOW)),
            rng.normal(4.0, 0.3, size=(12, WINDOW)),
        ]
    )
    model = NearestNeighborEuclidean().fit(X, np.repeat([0, 1], 12))
    store = ModelStore(root)
    store.save(model, "nn", metadata={"spec": "1nn-ed"})
    return store


def _pipeline_config() -> PipelineConfig:
    return PipelineConfig(
        drift=DriftConfig(
            reference_window=8, test_window=4, smoothing_span=2,
            threshold=0.5, consecutive=2,
        ),
        retrain=RetrainConfig(
            min_windows=8, max_windows=256, max_attempts=2,
            backoff_base_seconds=0.01, seed=0,
        ),
        cooldown_seconds=0.0,
    )


def _wait(predicate, timeout: float = 60.0, interval: float = 0.005) -> float:
    """Busy-wait for ``predicate``; returns the wall seconds it took."""
    started = time.perf_counter()
    deadline = started + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return time.perf_counter() - started
        time.sleep(interval)
    raise AssertionError(f"condition not reached within {timeout}s")


def _one_round(tmp_path, round_index: int) -> dict:
    rng = np.random.default_rng(round_index)
    store = _seed_store(tmp_path / f"store-{round_index}")
    state = build_server_state(
        store,
        default_model="nn",
        reload_interval_seconds=RELOAD_INTERVAL,
    )
    controller = PipelineController(store, _pipeline_config())
    state.attach_pipeline(controller)
    try:
        session = state.create_stream_session(None, None, WINDOW)
        # Warm the detector on the reference regime.
        session.append(rng.normal(0.0, 0.3, size=WINDOW + 20).tolist())

        def model_status():
            return controller.status()["models"]["nn"]

        # Stream the drifted regime until the detector fires.
        drift_started = time.perf_counter()
        while not model_status()["triggers"]:
            session.append(rng.normal(4.0, 0.3, size=16).tolist())
        detect_seconds = time.perf_counter() - drift_started
        trigger_to_publish = _wait(
            lambda: model_status()["retrains"]["succeeded"] >= 1
        )
        publish_to_live = _wait(
            lambda: state.create_stream_session(None, None, WINDOW).version >= 2,
            interval=0.01,
        )
        status = model_status()
        return {
            "detect_seconds": round(detect_seconds, 4),
            "trigger_to_publish_seconds": round(trigger_to_publish, 4),
            "publish_to_live_seconds": round(publish_to_live, 4),
            "trigger_to_live_seconds": round(
                trigger_to_publish + publish_to_live, 4
            ),
            "publish_verify_seconds": status["last_publish_seconds"],
            "published_version": status["last_published_version"],
        }
    finally:
        state.close()


def test_pipeline_trigger_to_live_latency(tmp_path, artifact_dir):
    rounds = [_one_round(tmp_path, i) for i in range(ROUNDS)]

    def stats(key: str) -> dict:
        values = sorted(r[key] for r in rounds)
        return {
            "best": values[0],
            "p50": values[len(values) // 2],
            "worst": values[-1],
        }

    payload = {
        "rounds": ROUNDS,
        "window": WINDOW,
        "reload_interval_seconds": RELOAD_INTERVAL,
        "ceilings": {
            "trigger_to_publish_seconds": TRIGGER_TO_PUBLISH_CEILING,
            "publish_to_live_seconds": PUBLISH_TO_LIVE_CEILING,
        },
        "detect_seconds": stats("detect_seconds"),
        "trigger_to_publish_seconds": stats("trigger_to_publish_seconds"),
        "publish_to_live_seconds": stats("publish_to_live_seconds"),
        "trigger_to_live_seconds": stats("trigger_to_live_seconds"),
        "per_round": rounds,
    }

    path = artifact_dir / "BENCH_pipeline.json"
    rendered = json.dumps(payload, indent=1, sort_keys=True)
    path.write_text(rendered + "\n")
    emit(artifact_dir, "BENCH_pipeline", rendered)

    # Every round really closed the loop on a freshly published version.
    assert all(r["published_version"] == 2 for r in rounds)
    if not SMOKE:
        checks = payload["trigger_to_publish_seconds"]["p50"]
        assert checks <= TRIGGER_TO_PUBLISH_CEILING, payload
        assert (
            payload["publish_to_live_seconds"]["p50"] <= PUBLISH_TO_LIVE_CEILING
        ), payload
