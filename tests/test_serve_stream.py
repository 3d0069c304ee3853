"""Streaming sessions: StreamSession semantics, the /v1/stream endpoint
over HTTP, hot-reload interaction (clean 409, not a 500) and
the shared feature LRU."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.baselines.nn import NearestNeighborEuclidean
from repro.core.pipeline import MVGClassifier
from repro.serve import (
    InferenceEngine,
    ModelRetiredError,
    ModelStore,
    SessionClosedError,
    StreamSession,
)


@pytest.fixture(scope="module")
def mvg_setup():
    rng = np.random.default_rng(4242)
    t = np.linspace(0, 1, 64, endpoint=False)

    def sample(label):
        base = np.sin(2 * np.pi * 3 * t + rng.uniform(0, 2 * np.pi))
        if label:
            base = base + 0.6 * np.sin(2 * np.pi * 17 * t + rng.uniform(0, 2 * np.pi))
        return base + rng.normal(0, 0.15, t.size)

    X_train = np.stack([sample(i % 2) for i in range(20)])
    y_train = np.arange(20) % 2
    model = MVGClassifier(random_state=0, feature_cache=False).fit(X_train, y_train)
    stream = np.concatenate([sample(0), sample(1)])
    return model, stream


def _post(port, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/stream",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def _error(port, payload):
    with pytest.raises(urllib.error.HTTPError) as info:
        _post(port, payload)
    return info.value.code, json.loads(info.value.read())["error"]


class TestStreamSession:
    def test_labels_match_offline_predict_per_window(self, mvg_setup):
        model, stream = mvg_setup
        with InferenceEngine(model, name="m") as engine:
            session = StreamSession("s", engine, window=64, stride=16)
            outcome = session.append(stream[:100].tolist())
            offsets = [tick["offset"] for tick in outcome["results"]]
            assert offsets == [64, 80, 96]
            for tick in outcome["results"]:
                window = stream[tick["offset"] - 64 : tick["offset"]]
                assert tick["label"] == model.predict(window[None, :])[0]

    def test_warmup_emits_nothing(self, mvg_setup):
        model, stream = mvg_setup
        with InferenceEngine(model, name="m") as engine:
            session = StreamSession("s", engine, window=64)
            outcome = session.append(stream[:63].tolist())
            assert outcome == {"results": [], "received": 63, "filled": False}

    def test_generic_model_streams_via_plain_classify(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(8, 16))
        y = np.repeat([0, 1], 4)
        nn = NearestNeighborEuclidean().fit(X, y)
        stream = rng.normal(size=40)
        with InferenceEngine(nn, name="nn") as engine:
            session = StreamSession("s", engine, window=16, stride=8)
            outcome = session.append(stream.tolist())
            assert [t["offset"] for t in outcome["results"]] == [16, 24, 32, 40]
            for tick in outcome["results"]:
                window = stream[tick["offset"] - 16 : tick["offset"]]
                assert tick["label"] == nn.predict(window[None, :])[0]

    def test_closed_session_refuses_appends(self, mvg_setup):
        model, stream = mvg_setup
        with InferenceEngine(model, name="m") as engine:
            session = StreamSession("s", engine, window=64)
            session.close()
            with pytest.raises(SessionClosedError):
                session.append(stream[:4].tolist())

    def test_liveness_hook_failure_propagates(self, mvg_setup):
        model, stream = mvg_setup

        def dead():
            raise ModelRetiredError("retired")

        with InferenceEngine(model, name="m") as engine:
            session = StreamSession("s", engine, window=64, liveness=dead)
            with pytest.raises(ModelRetiredError):
                session.append(stream[:4].tolist())

    def test_validation(self, mvg_setup):
        model, _ = mvg_setup
        with InferenceEngine(model, name="m") as engine:
            with pytest.raises(ValueError, match="window"):
                StreamSession("s", engine, window=2)
            with pytest.raises(ValueError, match="stride"):
                StreamSession("s", engine, window=64, stride=0)
            session = StreamSession("s", engine, window=64)
            with pytest.raises(ValueError, match="points"):
                session.append([])
            with pytest.raises(ValueError, match="points"):
                session.append("nope")
            with pytest.raises(ValueError, match="NaN"):
                session.append([1.0, float("nan")])
            with pytest.raises(ValueError, match="one-dimensional"):
                session.append([[1.0, 2.0]])

    def test_stream_ticks_share_engine_lru(self, mvg_setup):
        """A window classified offline is a cache hit for the stream."""
        model, stream = mvg_setup
        with InferenceEngine(model, name="m") as engine:
            engine.classify(stream[:64])
            assert engine.cache_misses_ == 1
            session = StreamSession("s", engine, window=64)
            outcome = session.append(stream[:64].tolist())
            assert [t["offset"] for t in outcome["results"]] == [64]
            assert engine.cache_hits_ == 1  # the stream tick hit
            assert engine.cache_misses_ == 1


@pytest.fixture(scope="module")
def served(mvg_setup, tmp_path_factory, serve):
    """One server with an MVG and a generic model."""
    model, stream = mvg_setup
    store = ModelStore(tmp_path_factory.mktemp("store"))
    store.save(model, "mvg")
    rng = np.random.default_rng(1)
    nn = NearestNeighborEuclidean().fit(rng.normal(size=(8, 16)), np.repeat([0, 1], 4))
    store.save(nn, "nn")
    with serve(store, default_model="mvg") as server:
        yield {
            "port": server.server_address[1],
            "model": model,
            "stream": stream,
            "state": server.state,
        }


class TestStreamEndpoint:
    def test_create_append_close_round_trip(self, served):
        port, model, stream = served["port"], served["model"], served["stream"]
        _, created = _post(port, {"op": "create", "window": 64, "stride": 32})
        assert created["created"] and created["model"] == "mvg"
        sid = created["session"]
        _, first = _post(
            port, {"op": "append", "session": sid, "points": stream[:40].tolist()}
        )
        assert first["results"] == [] and not first["filled"]
        _, second = _post(
            port, {"op": "append", "session": sid, "points": stream[40:100].tolist()}
        )
        assert second["filled"]
        assert [t["offset"] for t in second["results"]] == [64, 96]
        for tick in second["results"]:
            window = stream[tick["offset"] - 64 : tick["offset"]]
            assert tick["label"] == model.predict(window[None, :])[0]
        _, status = _post(port, {"op": "status", "session": sid})
        assert status["ticks"] == 2
        _, closed = _post(port, {"op": "close", "session": sid})
        assert closed["closed"]
        code, _ = _error(port, {"op": "append", "session": sid, "points": [1.0]})
        assert code == 404  # closed sessions leave the registry

    def test_wrong_window_is_400_at_create(self, served):
        code, message = _error(served["port"], {"op": "create", "window": 48})
        assert code == 400
        assert "features" in message

    def test_bad_requests(self, served):
        port = served["port"]
        assert _error(port, {"op": "create"})[0] == 400  # window missing
        assert _error(port, {"op": "create", "window": "x"})[0] == 400
        assert _error(port, {"op": "create", "window": 64, "stride": 0})[0] == 400
        assert _error(port, {"op": "nope"})[0] == 400
        assert _error(port, {"op": "append", "session": "missing", "points": [1.0]})[0] == 404
        assert _error(port, {"op": "append", "session": 7, "points": [1.0]})[0] == 400
        assert _error(port, {"op": "status", "session": "missing"})[0] == 404

    def test_stream_of_generic_model(self, served):
        port = served["port"]
        rng = np.random.default_rng(3)
        points = rng.normal(size=20).tolist()
        _, created = _post(port, {"op": "create", "model": "nn", "window": 16})
        _, outcome = _post(
            port, {"op": "append", "session": created["session"], "points": points}
        )
        assert [t["offset"] for t in outcome["results"]] == list(range(16, 21))
        _post(port, {"op": "close", "session": created["session"]})

    def test_create_sweeps_idle_sessions_without_watcher(self, served):
        # The watcher is disabled on this server; create must still
        # expire idle sessions before enforcing the limit, or abandoned
        # sessions would pin it forever.
        state = served["state"]
        _post(served["port"], {"op": "create", "window": 64})
        old_ttl, old_max = state.stream_session_ttl_seconds, state.max_stream_sessions
        state.stream_session_ttl_seconds = 0.0
        state.max_stream_sessions = len(state._sessions)
        try:
            _, second = _post(served["port"], {"op": "create", "window": 64})
            assert second["created"]
        finally:
            state.stream_session_ttl_seconds = old_ttl
            state.max_stream_sessions = old_max
            _post(served["port"], {"op": "close", "session": second["session"]})

    def test_session_limit_is_429(self, served):
        state = served["state"]
        old = state.max_stream_sessions
        state.max_stream_sessions = len(state._sessions)
        try:
            code, message = _error(served["port"], {"op": "create", "window": 64})
            assert code == 429
            assert "stream sessions" in message
        finally:
            state.max_stream_sessions = old


class TestHotReloadInteraction:
    """Satellite: a model version evicted mid-session fails the next
    tick with a clean 409, never a 500 from a retired engine."""

    @pytest.fixture
    def reload_served(self, tmp_path, serve):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, 16))
        y = np.repeat([0, 1], 4)
        nn = NearestNeighborEuclidean().fit(X, y)
        store = ModelStore(tmp_path / "store")
        store.save(nn, "m")
        with serve(store, drain_grace_seconds=0.0) as server:
            yield {
                "port": server.server_address[1],
                "store": store,
                "state": server.state,
                "nn": nn,
            }

    def test_evicted_version_409s_next_tick(self, reload_served):
        setup = reload_served
        port = setup["port"]
        rng = np.random.default_rng(0)
        _, created = _post(port, {"op": "create", "window": 16})
        sid = created["session"]
        _, outcome = _post(
            port, {"op": "append", "session": sid, "points": rng.normal(size=16).tolist()}
        )
        assert len(outcome["results"]) == 1

        # Publish v2 and delete v1: the session's pinned version is
        # evicted on the next reload tick.
        setup["store"].save(setup["nn"], "m")
        setup["store"].delete("m", 1)
        summary = setup["state"].reload_tick()
        assert ("m", 1) in summary["evicted"]

        code, message = _error(
            port, {"op": "append", "session": sid, "points": [0.5]}
        )
        assert code == 409
        assert "retired" in message and "recreate" in message

        # A fresh session lands on the surviving version and works.
        _, recreated = _post(port, {"op": "create", "window": 16})
        assert recreated["version"] == 2
        _, outcome = _post(
            port,
            {
                "op": "append",
                "session": recreated["session"],
                "points": rng.normal(size=16).tolist(),
            },
        )
        assert len(outcome["results"]) == 1

    def test_idle_sessions_swept_by_reload_tick(self, reload_served):
        setup = reload_served
        _, created = _post(setup["port"], {"op": "create", "window": 16})
        state = setup["state"]
        state.stream_session_ttl_seconds = 0.0
        try:
            summary = state.reload_tick()
        finally:
            state.stream_session_ttl_seconds = 900.0
        assert summary["sessions_expired"] >= 1
        code, _ = _error(
            setup["port"],
            {"op": "append", "session": created["session"], "points": [1.0]},
        )
        assert code == 404
