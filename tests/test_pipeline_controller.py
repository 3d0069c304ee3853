"""Pipeline controller: the per-model state machine, its gates
(cooldown, disable, trainability), the operator surface, and the full
closed loop over a live server — drift in the stream triggers a
retrain whose published version the watcher hot-loads while in-flight
classify traffic keeps getting 200s.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.baselines.nn import NearestNeighborEuclidean
from repro.pipeline import (
    ACCUMULATING,
    IDLE,
    DriftConfig,
    PipelineConfig,
    PipelineController,
    RetrainConfig,
)
from repro.serve.store import ModelNotFoundError, ModelStore

WINDOW = 16


def _fast_config(**overrides):
    defaults = dict(
        drift=DriftConfig(
            reference_window=4, test_window=2, smoothing_span=1,
            threshold=0.5, consecutive=2,
        ),
        retrain=RetrainConfig(
            min_windows=4, max_windows=64, max_attempts=2,
            backoff_base_seconds=0.01, seed=0,
        ),
        cooldown_seconds=0.0,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def _seed_store(tmp_path):
    """A store holding an ``nn`` model separating low from high means."""
    rng = np.random.default_rng(0)
    X = np.concatenate(
        [
            rng.normal(0.0, 0.3, size=(12, WINDOW)),
            rng.normal(4.0, 0.3, size=(12, WINDOW)),
        ]
    )
    y = np.repeat([0, 1], 12)
    model = NearestNeighborEuclidean().fit(X, y)
    store = ModelStore(tmp_path / "store")
    store.save(model, "nn", metadata={"spec": "1nn-ed"})
    return store


def _tick(controller, label, n=1, version=1):
    rng = np.random.default_rng(100 + label)
    for _ in range(n):
        window = rng.normal(4.0 * label, 0.3, size=WINDOW)
        controller.observe_tick("nn", version, window, label, {str(label): 0.9})


def _wait(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestControllerStateMachine:
    def test_first_tick_leaves_idle(self, tmp_path):
        store = _seed_store(tmp_path)
        controller = PipelineController(store, _fast_config())
        try:
            assert controller.status()["models"] == {}
            _tick(controller, 0, n=1)
            model = controller.status()["models"]["nn"]
            assert model["state"] == ACCUMULATING
            assert model["ticks"] == 1
            assert model["accumulated_windows"] == 1
        finally:
            controller.close()

    def test_drift_trigger_retrains_and_publishes(self, tmp_path):
        store = _seed_store(tmp_path)
        controller = PipelineController(store, _fast_config())
        try:
            _tick(controller, 0, n=6)  # reference + test fill
            _tick(controller, 1, n=4)  # regime change -> trigger
            assert controller.status()["models"]["nn"]["triggers"] == 1
            assert _wait(
                lambda: controller.status()["models"]["nn"]["retrains"]["succeeded"]
                == 1
            )
            model = controller.status()["models"]["nn"]
            assert model["retrains"] == {"fired": 1, "succeeded": 1, "failed": 0}
            assert model["versions_published"] == 1
            assert model["last_published_version"] == 2
            assert model["state"] == ACCUMULATING
            assert model["last_publish_seconds"] > 0.0
        finally:
            controller.close()
        # The published version is real, hash-verified, and retrained
        # on the drifted (self-labeled) traffic.
        record = store.record("nn")
        assert record.version == 2
        assert record.metadata["retrained"] is True
        assert record.metadata["trigger"] == "drift"
        reloaded = store.load("nn", 2)
        high = np.full((1, WINDOW), 4.0)
        assert list(reloaded.predict(high)) == [1]

    def test_cooldown_debounces_the_next_trigger(self, tmp_path):
        store = _seed_store(tmp_path)
        controller = PipelineController(store, _fast_config(cooldown_seconds=60.0))
        try:
            _tick(controller, 0, n=6)
            _tick(controller, 1, n=4)
            assert _wait(
                lambda: controller.status()["models"]["nn"]["retrains"]["succeeded"]
                == 1
            )
            # Drive a second drift cycle: re-warm on label 1, flip to 0.
            _tick(controller, 1, n=6)
            _tick(controller, 0, n=4)
            model = controller.status()["models"]["nn"]
            assert model["triggers"] == 2
            assert model["retrains"]["fired"] == 1  # second one skipped
            assert "cooling down" in model["last_skip_reason"]
            assert model["cooldown_remaining_seconds"] > 0
        finally:
            controller.close()

    def test_disable_gates_triggering_not_observation(self, tmp_path):
        store = _seed_store(tmp_path)
        controller = PipelineController(store, _fast_config())
        try:
            controller.disable()
            assert controller.enabled is False
            _tick(controller, 0, n=6)
            _tick(controller, 1, n=4)
            model = controller.status()["models"]["nn"]
            assert model["triggers"] == 1  # detector still watched
            assert model["retrains"]["fired"] == 0
            assert model["last_skip_reason"] == "pipeline disabled"
            controller.enable()
            # force_retrain bypasses nothing here — the bank is hot, so
            # a fresh trigger-equivalent goes through now.
            outcome = controller.force_retrain("nn")
            assert outcome == {"nn": "submitted"}
            assert _wait(
                lambda: controller.status()["models"]["nn"]["retrains"]["succeeded"]
                == 1
            )
        finally:
            controller.close()

    def test_undertrained_bank_records_skip_reason(self, tmp_path):
        store = _seed_store(tmp_path)
        controller = PipelineController(
            store,
            _fast_config(
                retrain=RetrainConfig(
                    min_windows=1000, max_windows=1000, backoff_base_seconds=0.01
                )
            ),
        )
        try:
            _tick(controller, 0, n=6)
            _tick(controller, 1, n=4)
            model = controller.status()["models"]["nn"]
            assert model["triggers"] == 1
            assert model["retrains"]["fired"] == 0
            assert "not trainable" in model["last_skip_reason"]
        finally:
            controller.close()

    def test_force_retrain_unknown_model_raises(self, tmp_path):
        store = _seed_store(tmp_path)
        controller = PipelineController(store, _fast_config())
        try:
            with pytest.raises(ModelNotFoundError):
                controller.force_retrain("ghost")
        finally:
            controller.close()

    def test_force_retrain_known_but_cold_model_is_skipped(self, tmp_path):
        store = _seed_store(tmp_path)
        controller = PipelineController(store, _fast_config())
        try:
            outcome = controller.force_retrain("nn")
            assert outcome["nn"].startswith("skipped: not trainable")
            # The loop now exists (IDLE) even though no stream touched it.
            assert controller.status()["models"]["nn"]["state"] == IDLE
        finally:
            controller.close()

    def test_observe_tick_never_raises(self, tmp_path):
        store = _seed_store(tmp_path)
        controller = PipelineController(store, _fast_config())
        try:
            controller.observe_tick("nn", 1, "not-a-window", "a", None)
            controller.observe_tick("nn", 1, np.zeros(WINDOW), "a", None)
        finally:
            controller.close()

    def test_close_is_idempotent_and_stops_ticks(self, tmp_path):
        store = _seed_store(tmp_path)
        controller = PipelineController(store, _fast_config())
        controller.close()
        controller.close()
        _tick(controller, 0, n=3)
        assert controller.status()["models"] == {}

    def test_metrics_lines_cover_the_families(self, tmp_path):
        store = _seed_store(tmp_path)
        controller = PipelineController(store, _fast_config())
        try:
            _tick(controller, 0, n=6)
            _tick(controller, 1, n=4)
            assert _wait(
                lambda: controller.status()["models"]["nn"]["retrains"]["succeeded"]
                == 1
            )
            text = "\n".join(controller.metrics_lines())
        finally:
            controller.close()
        assert "repro_pipeline_enabled 1" in text
        assert 'repro_pipeline_ticks_total{model="nn"} 10' in text
        assert 'repro_pipeline_triggers_total{model="nn"} 1' in text
        assert (
            'repro_pipeline_retrains_total{model="nn",outcome="succeeded"} 1' in text
        )
        assert 'repro_pipeline_versions_published_total{model="nn"} 1' in text
        assert 'repro_pipeline_state{model="nn",state="accumulating"} 1' in text
        assert 'repro_pipeline_state{model="nn",state="retraining"} 0' in text
        assert 'repro_pipeline_last_publish_seconds{model="nn"}' in text


# -- the closed loop over a live server -----------------------------------


def _post(port, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=30
    ) as response:
        body = response.read()
    try:
        return json.loads(body)
    except ValueError:
        return body.decode()


@pytest.fixture
def live(tmp_path, serve):
    """A serving stack with the pipeline attached and fast hot reload."""
    store = _seed_store(tmp_path)
    config = _fast_config(
        drift=DriftConfig(
            reference_window=8, test_window=4, smoothing_span=2,
            threshold=0.5, consecutive=2,
        ),
        retrain=RetrainConfig(
            min_windows=8, max_windows=64, max_attempts=2,
            backoff_base_seconds=0.01, seed=0,
        ),
        cooldown_seconds=0.5,
    )
    with serve(
        store,
        pipeline=PipelineController(store, config),
        default_model="nn",
        reload_interval_seconds=0.2,
    ) as server:
        yield {"port": server.server_address[1], "state": server.state, "store": store}


class TestClosedLoop:
    def test_drift_to_hot_reload_with_live_traffic(self, live):
        """The whole loop, with the retrain-vs-hot-reload race applied:
        classify traffic runs non-stop while the new version publishes
        and the watcher swaps engines — every response must be a 200,
        in-flight requests drain on the old engine, and the next
        created session serves the new version.
        """
        port = live["port"]
        rng = np.random.default_rng(1)

        # Background classify hammer: low-mean windows the old model
        # knows; any non-200 (or socket error) is recorded.
        failures = []
        successes = [0]
        stop = threading.Event()
        series = rng.normal(0.0, 0.3, size=WINDOW).tolist()

        def hammer():
            while not stop.is_set():
                try:
                    status, payload = _post(port, "/v1/classify", {"series": series})
                    if status != 200 or payload["label"] != 0:
                        failures.append((status, payload))
                    else:
                        successes[0] += 1
                except Exception as exc:  # noqa: BLE001 — recorded, asserted below
                    failures.append(repr(exc))
        threads = [threading.Thread(target=hammer, daemon=True) for _ in range(2)]
        for t in threads:
            t.start()

        try:
            _, created = _post(port, "/v1/stream", {"op": "create", "window": WINDOW})
            assert created["version"] == 1
            sid = created["session"]

            # Warm the detector on the reference regime, then drift.
            low = rng.normal(0.0, 0.3, size=WINDOW + 20).tolist()
            _post(port, "/v1/stream", {"op": "append", "session": sid, "points": low})
            deadline = time.monotonic() + 60
            retrained = False
            while time.monotonic() < deadline and not retrained:
                high = rng.normal(4.0, 0.3, size=24).tolist()
                _post(
                    port, "/v1/stream",
                    {"op": "append", "session": sid, "points": high},
                )
                status = _get(port, "/v1/pipeline")
                model = status["models"].get("nn", {})
                retrained = model.get("retrains", {}).get("succeeded", 0) >= 1
            assert retrained, f"no retrain within 60s: {_get(port, '/v1/pipeline')}"

            # The watcher hot-loads version 2 within a tick or two.
            assert _wait(
                lambda: _post(
                    port, "/v1/stream", {"op": "create", "window": WINDOW}
                )[1]["version"] == 2,
                timeout=10.0,
                interval=0.1,
            ), "watcher never served version 2"
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)

        # The race assertion: publish + engine swap dropped nothing.
        assert not failures, failures[:5]
        assert successes[0] > 0

        # Observability agrees end to end.
        status = _get(port, "/v1/pipeline")
        model = status["models"]["nn"]
        assert model["versions_published"] >= 1
        assert model["last_published_version"] >= 2
        health = _get(port, "/healthz")
        assert health["pipeline"] is True
        assert health["hot_reload"]["errors"] == 0
        metrics = _get(port, "/metrics")
        assert 'repro_pipeline_retrains_total{model="nn",outcome="succeeded"}' in metrics
        assert "repro_serve_watcher_errors_total 0" in metrics
        assert live["store"].record("nn").version >= 2
