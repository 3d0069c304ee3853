"""The asyncio front end's own behavior: HTTP/1.1 framing it alone
parses (malformed request lines, keep-alive reuse), concurrency on one
event loop, bind failures, hot reload and shutdown.

Endpoint semantics (routing, validation, error bodies, body reads)
are covered over the same server in ``test_serve_http.py``.
"""

import json
import socket
import threading
import urllib.request

import numpy as np
import pytest

from repro.baselines.nn import NearestNeighborEuclidean
from repro.core.pipeline import MVGClassifier
from repro.serve import ModelStore, create_async_server


@pytest.fixture(scope="module")
def served(tmp_path_factory, serve):
    rng = np.random.default_rng(98765)
    t = np.linspace(0, 1, 64, endpoint=False)

    def sample(label):
        base = np.sin(2 * np.pi * 3 * t + rng.uniform(0, 2 * np.pi))
        if label:
            base = base + 0.6 * np.sin(2 * np.pi * 17 * t + rng.uniform(0, 2 * np.pi))
        return base + rng.normal(0, 0.15, t.size)

    X_train = np.stack([sample(i % 2) for i in range(20)])
    y_train = np.arange(20) % 2
    X_test = np.stack([sample(i % 2) for i in range(10)])

    mvg = MVGClassifier(random_state=0, feature_cache=False).fit(X_train, y_train)
    store = ModelStore(tmp_path_factory.mktemp("store"))
    store.save(mvg, "mvg", metadata={"dataset": "synthetic"})

    with serve(store, default_model="mvg", max_wait_ms=2.0) as server:
        yield {
            "port": server.server_address[1],
            "store": store,
            "mvg": mvg,
            "X_test": X_test,
        }


def _post(port, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def _read_response(sock):
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            break
        buf += chunk
    head, _, body = buf.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        body += chunk
    return status, headers, body[:length]


class TestProtocol:
    def test_keep_alive_reuses_connection(self, served):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", served["port"])
        try:
            body = json.dumps({"series": served["X_test"][0].tolist()})
            for _ in range(3):
                connection.request("POST", "/v1/classify", body=body)
                response = connection.getresponse()
                assert response.status == 200
                json.loads(response.read())
        finally:
            connection.close()

    def test_foreground_run_raises_on_bind_failure(self, served):
        occupied = served["port"]
        server = create_async_server(served["store"].root, port=occupied)
        with pytest.raises(OSError):
            server.run()

    def test_malformed_request_line_is_400(self, served):
        with socket.create_connection(("127.0.0.1", served["port"]), timeout=30) as sock:
            sock.sendall(b"COMPLETE GARBAGE\r\n\r\n")
            status, _, _ = _read_response(sock)
        assert status == 400

    def test_concurrent_clients(self, served):
        offline = list(served["mvg"].predict(served["X_test"]))
        errors = []

        def client(i):
            try:
                _, payload = _post(
                    served["port"],
                    "/v1/classify",
                    {"series": served["X_test"][i % 10].tolist()},
                )
                assert payload["label"] == offline[i % 10]
            except Exception as exc:  # pragma: no cover — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestHotReload:
    def test_new_version_served_after_reload_tick(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 16))
        y = np.repeat([0, 1], 4)
        nn = NearestNeighborEuclidean().fit(X, y)
        store = ModelStore(tmp_path / "store")
        store.save(nn, "m")
        server = create_async_server(store, port=0, max_wait_ms=1.0)
        _, port = server.start_background()
        try:
            _, payload = _post(port, "/v1/classify", {"series": X[0].tolist()})
            assert payload["version"] == 1
            store.save(nn, "m")  # v2
            server.state.reload_tick()
            _, payload = _post(port, "/v1/classify", {"series": X[0].tolist()})
            assert payload["version"] == 2
        finally:
            server.close()

    def test_close_is_idempotent(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(8, 16))
        y = np.repeat([0, 1], 4)
        store = ModelStore(tmp_path / "store")
        store.save(NearestNeighborEuclidean().fit(X, y), "m")
        server = create_async_server(store, port=0)
        server.start_background()
        server.close()
        server.close()
