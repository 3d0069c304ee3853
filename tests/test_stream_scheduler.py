"""DRR stream scheduling: backpressure (429 + Retry-After before
buffering, retry succeeds after drain), fairness under one hot client,
appends racing session close, and the per-session lag gauge."""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.baselines.nn import NearestNeighborEuclidean
from repro.serve import (
    BackpressureError,
    InferenceEngine,
    ModelStore,
    SessionClosedError,
    StreamScheduler,
    StreamSession,
)


class GatedModel:
    """A generic model whose predict blocks until the gate opens —
    makes queue depths deterministic in scheduler tests."""

    def __init__(self, gate: threading.Event | None = None, delay: float = 0.0):
        self.gate = gate
        self.delay = delay
        self.started = threading.Event()

    def predict(self, X):
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=30), "test gate never opened"
        if self.delay:
            time.sleep(self.delay)
        return np.zeros(len(X), dtype=int)


def _session(engine, sid="s", window=4, stride=1):
    return StreamSession(sid, engine, window=window, stride=stride)


class TestSchedulerBackpressure:
    def test_reject_then_retry_after_drain(self):
        gate = threading.Event()
        engine = InferenceEngine(GatedModel(gate), name="slow")
        scheduler = StreamScheduler(quantum=8, max_session_buffer=16)
        try:
            session = _session(engine)
            first = scheduler.submit_append(session, [0.5] * 16)
            # The queue is at capacity and the worker is gated: the next
            # append is rejected before buffering anything.
            with pytest.raises(BackpressureError) as info:
                scheduler.submit_append(session, [0.5] * 8)
            assert info.value.lag == 16
            assert 1 <= info.value.retry_after <= 60
            assert scheduler.stats()["rejections"] == 1
            assert scheduler.session_lag()[session.id] == 16
            gate.set()
            outcome = first.result(timeout=30)
            assert outcome["received"] == 16
            assert scheduler.session_lag()[session.id] == 0  # drained
            retry = scheduler.submit_append(session, [0.5] * 8)
            assert retry.result(timeout=30)["received"] == 24
        finally:
            gate.set()
            scheduler.close()
            engine.close()

    def test_append_ordering_is_preserved_per_session(self):
        engine = InferenceEngine(GatedModel(), name="fast")
        scheduler = StreamScheduler(quantum=4, max_session_buffer=1 << 16)
        try:
            session = _session(engine)
            futures = [
                scheduler.submit_append(session, [float(i)] * 10) for i in range(5)
            ]
            outcomes = [f.result(timeout=30) for f in futures]
            assert [o["received"] for o in outcomes] == [10, 20, 30, 40, 50]
            # Every post-warmup point ticks exactly once, across chunks.
            offsets = [t["offset"] for o in outcomes for t in o["results"]]
            assert offsets == list(range(4, 51))
        finally:
            scheduler.close()
            engine.close()


class TestSchedulerFairness:
    def test_hot_session_does_not_starve_light_one(self):
        engine = InferenceEngine(GatedModel(delay=0.002), name="slow")
        scheduler = StreamScheduler(quantum=8, max_session_buffer=1 << 20)
        try:
            hot = _session(engine, "hot")
            light = _session(engine, "light")
            hot_futures = [
                scheduler.submit_append(hot, [0.1] * 100) for _ in range(6)
            ]
            light_future = scheduler.submit_append(light, [0.2] * 5)
            # The light session's 5 points ride the next DRR rotation
            # (~a quantum of hot ticks away), far ahead of the hot
            # session's 600-tick backlog.
            assert light_future.result(timeout=30)["received"] == 5
            assert not hot_futures[-1].done(), (
                "the firehose session finished before the light session "
                "was served: scheduling is FIFO, not fair"
            )
            assert all(
                f.result(timeout=60)["received"] == 100 * (i + 1)
                for i, f in enumerate(hot_futures)
            )
        finally:
            scheduler.close()
            engine.close()


class TestAppendRacingClose:
    def test_queued_appends_fail_with_409_not_a_hang(self):
        gate = threading.Event()
        model = GatedModel(gate)
        engine = InferenceEngine(model, name="slow")
        scheduler = StreamScheduler(quantum=8, max_session_buffer=1 << 16)
        try:
            # Pin the worker inside a decoy session's chunk so the
            # target session's appends are provably still queued when
            # close + purge race in.
            decoy = _session(engine, "decoy")
            decoy_future = scheduler.submit_append(decoy, [0.9] * 8)
            assert model.started.wait(timeout=30)
            session = _session(engine, "target")
            queued = [scheduler.submit_append(session, [0.5] * 8) for _ in range(2)]
            closed = session.close()
            assert closed["closed"] is True
            scheduler.purge_session(session.id, "session closed")
            gate.set()
            # Both queued appends must fail cleanly rather than hang or
            # classify into a closed session.
            for future in queued:
                with pytest.raises(SessionClosedError):
                    future.result(timeout=30)
            assert scheduler.session_lag().get(session.id) is None
            # A late append on the closed session also 409s, via the worker.
            late = scheduler.submit_append(session, [0.5] * 4)
            with pytest.raises(SessionClosedError):
                late.result(timeout=30)
            assert decoy_future.result(timeout=30)["received"] == 8
        finally:
            gate.set()
            scheduler.close()
            engine.close()


@pytest.fixture(scope="module")
def served(tmp_path_factory, serve):
    """A server with a tiny per-session stream buffer."""
    store = ModelStore(tmp_path_factory.mktemp("store-backpressure"))
    rng = np.random.default_rng(7)
    nn = NearestNeighborEuclidean().fit(rng.normal(size=(8, 16)), np.repeat([0, 1], 4))
    store.save(nn, "nn")
    with serve(store, default_model="nn", stream_buffer_points=64) as server:
        yield {"port": server.server_address[1], "state": server.state}


def _post(port, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/stream",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def _scrape(port):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics") as response:
        return response.read().decode()


class TestBackpressureOverHttp:
    def test_429_with_retry_after_then_retry_succeeds(self, served):
        port = served["port"]
        _, created = _post(port, {"op": "create", "window": 16})
        sid = created["session"]
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(port, {"op": "append", "session": sid, "points": [0.5] * 65})
        assert info.value.code == 429
        assert int(info.value.headers["Retry-After"]) >= 1
        body = json.loads(info.value.read())
        assert body["retry_after_seconds"] >= 1
        assert "retry" in body["error"]
        # A retry that fits the (drained) queue succeeds.
        status, outcome = _post(
            port, {"op": "append", "session": sid, "points": [0.5] * 32}
        )
        assert status == 200 and outcome["received"] == 32
        assert "repro_serve_stream_backpressure_total 1" in _scrape(port)
        _post(port, {"op": "close", "session": sid})

    def test_lag_gauge_per_session_and_gone_after_eviction(self, served):
        port = served["port"]
        _, created = _post(port, {"op": "create", "window": 16})
        sid = created["session"]
        _post(port, {"op": "append", "session": sid, "points": [0.5] * 32})
        series = f'repro_serve_stream_lag{{session="{sid}"}}'
        scrape = _scrape(port)
        assert f"{series} 0" in scrape  # drained: lag back to zero
        _post(port, {"op": "close", "session": sid})
        assert series not in _scrape(port)  # evicted: series gone
        assert "repro_serve_stream_buffered_points 0" in _scrape(port)
