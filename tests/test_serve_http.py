"""HTTP serving tier: endpoints, schemas and error handling.

The module-scoped server holds two stored models (an MVG pipeline and a
1-NN baseline) so model selection, defaults and 4xx paths are all
exercised against a live asyncio server on an ephemeral port.
"""

import json
import re
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.baselines.nn import NearestNeighborEuclidean
from repro.core.pipeline import MVGClassifier
from repro.serve import ModelStore


@pytest.fixture(scope="module")
def served(tmp_path_factory, serve):
    rng = np.random.default_rng(54321)
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
    nn = NearestNeighborEuclidean().fit(X_train, y_train)

    store = ModelStore(tmp_path_factory.mktemp("store"))
    store.save(mvg, "mvg", metadata={"dataset": "synthetic"})
    store.save(nn, "nn")

    with serve(store, default_model="mvg") as server:
        yield {
            "port": server.server_address[1],
            "store": store,
            "mvg": mvg,
            "nn": nn,
            "X_test": X_test,
        }


def _get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        return response.status, json.loads(response.read())


def _post(port, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def _error(call):
    with pytest.raises(urllib.error.HTTPError) as info:
        call()
    body = json.loads(info.value.read())
    return info.value.code, body["error"]


def _read_response(sock):
    """One HTTP response off a raw socket: (status, headers, body)."""
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


def _raw_request(port, raw, shutdown=False):
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(raw)
        if shutdown:
            sock.shutdown(socket.SHUT_WR)
        return _read_response(sock)


class TestHealthz:
    def test_ok(self, served):
        status, payload = _get(served["port"], "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["models_stored"] == 2
        assert payload["uptime_seconds"] >= 0


class TestClassify:
    def test_matches_offline_predict(self, served):
        offline = served["mvg"].predict(served["X_test"])
        for series, expected in zip(served["X_test"], offline):
            status, payload = _post(
                served["port"], "/v1/classify", {"series": series.tolist()}
            )
            assert status == 200
            assert payload["label"] == expected
            assert payload["model"] == "mvg"
            assert payload["version"] == 1
            assert payload["latency_ms"] >= 0
            assert abs(sum(payload["scores"].values()) - 1.0) < 1e-9

    def test_model_selection(self, served):
        offline = served["nn"].predict(served["X_test"][:1])[0]
        _, payload = _post(
            served["port"],
            "/v1/classify",
            {"series": served["X_test"][0].tolist(), "model": "nn"},
        )
        assert payload["model"] == "nn"
        assert payload["label"] == offline

    def test_version_pinning(self, served):
        _, payload = _post(
            served["port"],
            "/v1/classify",
            {"series": served["X_test"][0].tolist(), "model": "mvg", "version": "v1"},
        )
        assert payload["version"] == 1

    def test_missing_series_is_400(self, served):
        code, message = _error(
            lambda: _post(served["port"], "/v1/classify", {"model": "mvg"})
        )
        assert code == 400
        assert "series" in message

    def test_malformed_series_is_400(self, served):
        code, _ = _error(
            lambda: _post(served["port"], "/v1/classify", {"series": [1.0, None, 2.0]})
        )
        assert code == 400

    def test_wrong_length_series_is_400(self, served):
        code, message = _error(
            lambda: _post(
                served["port"],
                "/v1/classify",
                {"series": served["X_test"][0][:32].tolist()},
            )
        )
        assert code == 400
        assert "length" in message

    def test_unknown_model_is_404(self, served):
        code, message = _error(
            lambda: _post(
                served["port"],
                "/v1/classify",
                {"series": served["X_test"][0].tolist(), "model": "ghost"},
            )
        )
        assert code == 404
        assert "ghost" in message

    def test_non_string_model_is_400(self, served):
        code, message = _error(
            lambda: _post(
                served["port"],
                "/v1/classify",
                {"series": served["X_test"][0].tolist(), "model": {"name": "mvg"}},
            )
        )
        assert code == 400
        assert "model" in message

    def test_non_scalar_version_is_400(self, served):
        code, message = _error(
            lambda: _post(
                served["port"],
                "/v1/classify",
                {"series": served["X_test"][0].tolist(), "version": [1]},
            )
        )
        assert code == 400
        assert "version" in message

    def test_unknown_version_is_404(self, served):
        code, _ = _error(
            lambda: _post(
                served["port"],
                "/v1/classify",
                {"series": served["X_test"][0].tolist(), "model": "mvg", "version": 99},
            )
        )
        assert code == 404

    def test_invalid_json_is_400(self, served):
        request = urllib.request.Request(
            f"http://127.0.0.1:{served['port']}/v1/classify",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        code, _ = _error(lambda: urllib.request.urlopen(request))
        assert code == 400

    def test_empty_body_is_400(self, served):
        request = urllib.request.Request(
            f"http://127.0.0.1:{served['port']}/v1/classify", data=b""
        )
        code, _ = _error(lambda: urllib.request.urlopen(request))
        assert code == 400


class TestBatch:
    def test_batch_endpoint(self, served):
        offline = list(served["mvg"].predict(served["X_test"]))
        status, payload = _post(
            served["port"],
            "/v1/batch",
            {"series": [s.tolist() for s in served["X_test"]]},
        )
        assert status == 200
        assert payload["count"] == len(offline)
        assert [r["label"] for r in payload["results"]] == offline

    def test_batch_needs_array_of_arrays(self, served):
        code, _ = _error(
            lambda: _post(served["port"], "/v1/batch", {"series": []})
        )
        assert code == 400


class TestModelsEndpoint:
    def test_lists_store(self, served):
        status, payload = _get(served["port"], "/v1/models")
        assert status == 200
        names = {(m["name"], m["version"]) for m in payload["models"]}
        assert names == {("mvg", 1), ("nn", 1)}
        for entry in payload["models"]:
            assert len(entry["sha256"]) == 64


class TestKeepAlive:
    def test_consumed_body_keeps_connection_alive(self, served):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", served["port"])
        try:
            body = json.dumps({"series": served["X_test"][0].tolist()})
            for _ in range(2):  # second request reuses the socket
                connection.request("POST", "/v1/classify", body=body)
                response = connection.getresponse()
                assert response.status == 200
                payload = json.loads(response.read())
            assert payload["model"] == "mvg"
        finally:
            connection.close()

    def test_error_with_body_drains_and_keeps_connection_alive(self, served):
        # A 405 used to leave the request body in the socket and force a
        # connection close; the body is now drained before routing, so
        # the keep-alive connection stays usable for the next request.
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", served["port"])
        try:
            connection.request("POST", "/v1/models", body='{"junk": 1}')
            response = connection.getresponse()
            assert response.status == 405
            assert response.getheader("Connection") != "close"
            response.read()
            connection.request(
                "POST",
                "/v1/classify",
                body=json.dumps({"series": served["X_test"][0].tolist()}),
            )
            response = connection.getresponse()
            assert response.status == 200
            json.loads(response.read())
        finally:
            connection.close()

    @pytest.mark.parametrize("length", ["banana", "1_0", "+7"])
    def test_invalid_content_length_closes_connection(self, served, length):
        # Only 1*DIGIT is a length: anything else leaves the body size
        # unknown, so the byte stream cannot carry another keep-alive
        # request.  ("1_0" and "+7" are lengths to Python's int().)
        status, headers, body = _raw_request(
            served["port"],
            b"POST /v1/classify HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + length.encode() + b"\r\n\r\n0123456789",
        )
        assert status == 400
        assert headers.get("connection") == "close"
        assert "Content-Length" in json.loads(body)["error"]

    def test_conflicting_content_lengths_close_connection(self, served):
        # Two differing lengths make the body boundary ambiguous
        # (RFC 9112 section 6.3): 400 and close, never "last one wins".
        status, headers, body = _raw_request(
            served["port"],
            b"POST /v1/classify HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 5\r\nContent-Length: 10\r\n\r\n0123456789",
        )
        assert status == 400
        assert headers.get("connection") == "close"
        assert "Content-Length" in json.loads(body)["error"]

    def test_type_error_payload_is_400_not_500(self, served):
        code, _ = _error(
            lambda: _post(served["port"], "/v1/classify", {"series": {"0": 1.0}})
        )
        assert code == 400


class TestRouting:
    def test_unknown_route_is_404(self, served):
        code, _ = _error(lambda: _get(served["port"], "/nope"))
        assert code == 404

    def test_wrong_method_is_405(self, served):
        code, message = _error(lambda: _get(served["port"], "/v1/classify"))
        assert code == 405
        assert "GET" in message

    def test_post_to_get_route_is_405(self, served):
        code, _ = _error(lambda: _post(served["port"], "/healthz", {}))
        assert code == 405


class TestConcurrentClients:
    def test_parallel_requests_all_answered(self, served):
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

        threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestCorruptStore:
    def test_tampered_blob_is_500(self, tmp_path, serve):
        from repro.baselines.nn import NearestNeighborEuclidean

        rng = np.random.default_rng(0)
        X = rng.normal(size=(8, 16))
        y = np.repeat([0, 1], 4)
        store = ModelStore(tmp_path / "store")
        record = store.save(NearestNeighborEuclidean().fit(X, y), "nn")
        blob = store.root / "blobs" / "nn" / f"v{record.version}.json"
        blob.write_bytes(blob.read_bytes()[:-5] + b"]]]]]")

        with serve(store) as server:
            code, message = _error(
                lambda: _post(
                    server.server_address[1],
                    "/v1/classify",
                    {"series": X[0].tolist()},
                )
            )
        assert code == 500
        assert "hash mismatch" in message


class TestBodyReads:
    """Short-read robustness: dribbling and truncating clients."""

    def test_dribbling_client_gets_200(self, served):
        # A slow client delivering the body in small chunks must not be
        # mistaken for malformed JSON (regression: single rfile.read()).
        body = json.dumps({"series": served["X_test"][0].tolist()}).encode()
        head = (
            f"POST /v1/classify HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        with socket.create_connection(("127.0.0.1", served["port"]), timeout=30) as sock:
            sock.sendall(head)
            for i in range(0, len(body), 97):
                sock.sendall(body[i : i + 97])
                time.sleep(0.002)
            status, _, response = _read_response(sock)
        assert status == 200
        assert "label" in json.loads(response)

    def test_chunked_transfer_encoding_rejected(self, served):
        # Same contract as the asyncio front end: chunked framing must
        # not be misparsed as the next keep-alive request.
        status, headers, body = _raw_request(
            served["port"],
            b"POST /v1/classify HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n",
        )
        assert status == 501
        assert "Transfer-Encoding" in json.loads(body)["error"]
        assert headers.get("connection") == "close"

    def test_truncated_body_is_distinct_400(self, served):
        # A client that announces more bytes than it sends gets a 400
        # naming the truncation, not a bogus "malformed JSON".
        body = json.dumps({"series": served["X_test"][0].tolist()}).encode()
        head = (
            f"POST /v1/classify HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body) + 50}\r\n\r\n"
        ).encode()
        status, headers, response = _raw_request(
            served["port"], head + body, shutdown=True
        )
        assert status == 400
        message = json.loads(response)["error"]
        assert "truncated" in message
        assert str(len(body)) in message  # names how much actually arrived
        assert headers.get("connection") == "close"


class TestNonFiniteJson:
    """NaN/Infinity tokens are rejected at parse time with a 400."""

    def _post_raw(self, port, path, raw):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=raw,
            headers={"Content-Type": "application/json"},
        )
        return _error(lambda: urllib.request.urlopen(request))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_classify_rejects_nonfinite(self, served, token):
        code, message = self._post_raw(
            served["port"],
            "/v1/classify",
            f'{{"series": [1.0, {token}, 2.0, 3.0]}}'.encode(),
        )
        assert code == 400
        assert "non-finite" in message

    def test_batch_rejects_nonfinite(self, served):
        code, message = self._post_raw(
            served["port"],
            "/v1/batch",
            b'{"series": [[1.0, NaN, 2.0, 3.0]]}',
        )
        assert code == 400
        assert "non-finite" in message


class TestMetricsEndpoint:
    def _scrape(self, port):
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            return response.read().decode()

    def test_scrape_format(self, served):
        _post(served["port"], "/v1/classify", {"series": served["X_test"][0].tolist()})
        text = self._scrape(served["port"])

        assert "# TYPE repro_serve_requests_total counter" in text
        match = re.search(
            r'^repro_serve_requests_total\{route="/v1/classify",method="POST",'
            r'status="200"\} (\d+)$',
            text,
            re.M,
        )
        assert match and int(match.group(1)) >= 1

        # Latency histogram is internally consistent: +Inf bucket == count.
        inf = re.search(
            r'^repro_serve_request_seconds_bucket\{route="/v1/classify",'
            r'le="\+Inf"\} (\d+)$',
            text,
            re.M,
        )
        count = re.search(
            r'^repro_serve_request_seconds_count\{route="/v1/classify"\} (\d+)$',
            text,
            re.M,
        )
        assert inf and count and inf.group(1) == count.group(1)
        assert int(count.group(1)) >= 1

        # Engine/batcher families are pulled in at scrape time.
        assert re.search(
            r'^repro_serve_feature_cache_hit_ratio\{model="mvg",version="1"\} ',
            text,
            re.M,
        )
        assert re.search(
            r'^repro_serve_batch_size_bucket\{model="mvg",version="1",le="\+Inf"\} ',
            text,
            re.M,
        )
        # Exactly one family header even with several loaded engines.
        assert text.count("# TYPE repro_serve_batch_size histogram") == 1

    def test_client_disconnect_mid_classify_is_499(self, served, serve, classify_gate):
        # The client resets its connection while its request is held in
        # the engine: the response is never delivered, so the scrape
        # must count a 499, not the route's 200.
        body = json.dumps({"series": served["X_test"][0].tolist()}).encode()
        request = (
            b"POST /v1/classify HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        with serve(served["store"], default_model="nn") as server:
            port = server.server_address[1]
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            sock.sendall(request)
            assert classify_gate.entered.wait(timeout=30)
            # SO_LINGER 0: close() sends a reset instead of a FIN.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            time.sleep(0.1)
            classify_gate.release()
            line = re.compile(
                r'^repro_serve_requests_total\{route="/v1/classify",method="POST",'
                r'status="(\d+)"\} (\d+)$',
                re.M,
            )
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                counts = dict(line.findall(self._scrape(port)))
                if counts:
                    break
                time.sleep(0.05)
        assert counts == {"499": "1"}

    def test_unknown_routes_share_one_metrics_label(self, served):
        _error(lambda: _get(served["port"], "/scanner/probe/xyz"))
        text = self._scrape(served["port"])
        assert 'route="other"' in text
        assert "scanner" not in text


class TestEmptyStore:
    def test_classify_against_empty_store_is_404(self, tmp_path, serve):
        with serve(ModelStore(tmp_path / "empty")) as server:
            code, message = _error(
                lambda: _post(
                    server.server_address[1], "/v1/classify", {"series": [1, 2, 3, 4]}
                )
            )
        assert code == 404
        assert "empty" in message


class TestHotReload:
    """Store watcher semantics: eviction on delete, pickup of new
    versions, stale-catalog refresh before a 404."""

    @pytest.fixture
    def reload_setup(self, tmp_path, serve):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(8, 16))
        y = np.repeat([0, 1], 4)
        nn = NearestNeighborEuclidean().fit(X, y)
        store = ModelStore(tmp_path / "store")
        store.save(nn, "m")
        with serve(store, drain_grace_seconds=0.0) as server:
            yield {
                "port": server.server_address[1],
                "store": store,
                "server": server,
                "X": X,
                "nn": nn,
            }

    def _classify(self, setup, **extra):
        _, payload = _post(
            setup["port"], "/v1/classify", {"series": setup["X"][0].tolist(), **extra}
        )
        return payload

    def test_stale_latest_after_delete_serves_survivor(self, reload_setup):
        # Pin v1 so the catalog snapshot is warm (latest=2 cached) but
        # the v2 pair is never loaded; deleting v2 then asking for
        # "latest" must trigger the forced refresh, not a stale answer
        # or 404.
        setup = reload_setup
        setup["store"].save(setup["nn"], "m")  # v2
        assert self._classify(setup, version=1)["version"] == 1
        setup["store"].delete("m", 2)
        assert self._classify(setup)["version"] == 1

    def test_reload_tick_evicts_deleted_version(self, reload_setup):
        setup = reload_setup
        state = setup["server"].state
        setup["store"].save(setup["nn"], "m")  # v2
        assert self._classify(setup)["version"] == 2
        setup["store"].delete("m", 2)

        summary = state.reload_tick()
        assert ("m", 2) in summary["evicted"]

        # The stale pair no longer serves; the survivor answers latest.
        assert self._classify(setup)["version"] == 1
        code, _ = _error(
            lambda: _post(
                setup["port"],
                "/v1/classify",
                {"series": setup["X"][0].tolist(), "version": 2},
            )
        )
        assert code == 404

        # With the grace already elapsed (0.0) the next tick closes the
        # retired pair for good.
        state.reload_tick()
        health = state.health()
        loaded = {(e["model"], e["version"]) for e in health["engines_loaded"]}
        assert ("m", 2) not in loaded
        assert health["engines_retired"] == 0

    def test_new_version_picked_up_within_one_watcher_tick(self, tmp_path, serve):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(8, 16))
        y = np.repeat([0, 1], 4)
        nn = NearestNeighborEuclidean().fit(X, y)
        store = ModelStore(tmp_path / "store")
        store.save(nn, "m")
        with serve(store, reload_interval_seconds=0.05) as server:
            port = server.server_address[1]
            _, payload = _post(port, "/v1/classify", {"series": X[0].tolist()})
            assert payload["version"] == 1

            store.save(nn, "m")  # publish v2
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                _, payload = _post(port, "/v1/classify", {"series": X[0].tolist()})
                if payload["version"] == 2:
                    break
                time.sleep(0.02)
            assert payload["version"] == 2

            # The watcher warm-loaded the new pair, not just the catalog.
            loaded = {
                (e["model"], e["version"])
                for e in server.state.health()["engines_loaded"]
            }
            assert ("m", 2) in loaded

    def test_concurrent_classify_during_reload(self, tmp_path, serve):
        # Clients hammer /v1/classify while versions are published and
        # deleted underneath them: every request succeeds, answered by
        # whichever version was live (old ones drain, never 500).
        rng = np.random.default_rng(13)
        X = rng.normal(size=(8, 16))
        y = np.repeat([0, 1], 4)
        nn = NearestNeighborEuclidean().fit(X, y)
        store = ModelStore(tmp_path / "store")
        store.save(nn, "m")
        stop = threading.Event()
        versions_seen: set[int] = set()
        errors: list[Exception] = []
        lock = threading.Lock()

        def client(port):
            while not stop.is_set():
                try:
                    _, payload = _post(
                        port, "/v1/classify", {"series": X[0].tolist()}
                    )
                    with lock:
                        versions_seen.add(payload["version"])
                except Exception as exc:  # pragma: no cover — surfaced below
                    errors.append(exc)
                    return

        with serve(
            store,
            reload_interval_seconds=0.05,
            drain_grace_seconds=0.2,
        ) as server:
            port = server.server_address[1]
            clients = [threading.Thread(target=client, args=(port,)) for _ in range(4)]
            try:
                for c in clients:
                    c.start()
                time.sleep(0.2)
                store.save(nn, "m")  # v2 appears mid-traffic
                time.sleep(0.3)
                store.delete("m", 1)  # v1 retired while possibly in flight
                time.sleep(0.3)
            finally:
                stop.set()
                for c in clients:
                    c.join(timeout=10)
            assert not errors, errors
            assert versions_seen >= {1, 2}
            # After the dust settles, latest (v2) answers.
            _, payload = _post(port, "/v1/classify", {"series": X[0].tolist()})
            assert payload["version"] == 2
