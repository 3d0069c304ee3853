"""The HTTP front end: an asyncio event-loop server for the inference engine.

``python -m repro serve`` serves every endpoint of
:mod:`repro.serve.http` from a single selector event loop.  The
connection layer is a raw :class:`asyncio.Protocol` — no streams, no
task per connection, no task per request: ``data_received`` parses
straight out of the connection buffer, immediate responses are written
from the same callback, and classification results come back from the
:class:`~repro.serve.engine.MicroBatcher` worker through a
:class:`_LoopNotifier` that coalesces a whole batch of completions into
one loop wakeup.  The listener thread never blocks on classification
and spends no cycles on scheduler hand-offs, so a single CPU stays on
request parsing and extraction work.

Routing, validation, error mapping, metrics and hot-reload state live
in :class:`~repro.serve.http.ServerState` and
:func:`~repro.serve.http.route_request`; this module only frames
HTTP/1.1 requests and responses.

Usage::

    from repro.serve.aio import create_async_server

    server = create_async_server("models/", port=0)
    host, port = server.start_background()   # own loop in a thread
    ...
    server.close()

or blocking (the CLI path, SIGINT/SIGTERM trigger a clean shutdown)::

    create_async_server("models/", port=8765).run()
"""

from __future__ import annotations

import asyncio
import signal
import threading
from collections import deque
from http.client import responses as _REASON_PHRASES
from time import perf_counter
from typing import Any, Callable

from repro.serve.engine import warn_max_wait_ms_ignored
from repro.serve.http import (
    REQUEST_TIMEOUT_SECONDS,
    ApiError,
    PendingResponse,
    Response,
    ServerState,
    build_server_state,
    metrics_route_label,
    normalize_path,
    parse_content_length,
    response_for_exception,
    route_request,
    truncated_body_error,
)
from repro.serve.store import ModelStore

#: Upper bound on the request line + headers block.
MAX_HEADER_BYTES = 64 * 1024

_SERVER_TOKEN = "repro-serve-aio/1.1"


def _render_response_bytes(response: Response, keep_alive: bool) -> bytes:
    reason = _REASON_PHRASES.get(response.status, "")
    head = (
        f"HTTP/1.1 {response.status} {reason}\r\n"
        f"Server: {_SERVER_TOKEN}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(response.body)}\r\n"
    )
    for name, value in response.headers:
        head += f"{name}: {value}\r\n"
    if not keep_alive:
        head += "Connection: close\r\n"
    return head.encode("latin-1") + b"\r\n" + response.body


def _parse_head(head: bytes) -> tuple[str, str, str, dict[str, str]]:
    """``(method, target, http_version, headers)`` from a raw header block."""
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ")
    except (UnicodeDecodeError, ValueError):
        raise ApiError(400, "malformed HTTP request line", close=True) from None
    if not version.startswith("HTTP/"):
        raise ApiError(400, f"malformed HTTP version {version!r}", close=True)
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ApiError(400, f"malformed header line {line!r}", close=True)
        name = name.strip().lower()
        value = value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            # RFC 9112 §6.3: differing lengths leave the body boundary
            # ambiguous, so the framing is invalid.
            raise ApiError(
                400,
                f"conflicting Content-Length headers {headers[name]!r} and {value!r}",
                close=True,
            )
        headers[name] = value
    return method, target, version, headers


class _LoopNotifier:
    """Run callbacks on the loop from worker threads, with coalesced
    wakeups.

    ``loop.call_soon_threadsafe`` writes to the loop's self-pipe on
    every call — one syscall and one epoll wakeup per completed future.
    The batcher worker completes a whole batch back to back; this
    notifier queues the callbacks and wakes the loop once per burst.
    """

    _GUARDED_BY = {"_queue": "_lock", "_wake_scheduled": "_lock"}

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._lock = threading.Lock()
        self._queue: deque = deque()
        self._wake_scheduled = False

    def post(self, callback: Callable[..., None], *args: Any) -> None:
        with self._lock:
            self._queue.append((callback, args))
            wake = not self._wake_scheduled
            self._wake_scheduled = True
        if wake:
            try:
                self._loop.call_soon_threadsafe(self._drain)
            except RuntimeError:
                pass  # loop shut down; nothing left to deliver to

    def _drain(self) -> None:
        # Loop-side lock acquisition is deliberate: the critical section
        # is two pointer moves, and the only other holders (post()) are
        # equally brief — never long enough to stall the loop.
        with self._lock:  # repro: allow[async-blocking] micro critical section
            burst = list(self._queue)
            self._queue.clear()
            self._wake_scheduled = False
        for callback, args in burst:
            callback(*args)


class _ConnectionProtocol(asyncio.Protocol):
    """One HTTP/1.1 connection on the event loop.

    State machine per request: accumulate the head (bounded by
    ``MAX_HEADER_BYTES``), then the Content-Length body, then dispatch
    through the shared router.  Immediate responses are written from
    the parsing callback; deferred classifications park the connection
    (reading paused — one request in flight per connection, which is
    exactly HTTP/1.1 request/response) until the batcher's futures
    complete and the :class:`_LoopNotifier` delivers the results.
    """

    def __init__(self, server: "AsyncInferenceServer"):
        self.server = server
        self.state = server.state
        self.transport: asyncio.Transport | None = None
        self._buffer = bytearray()
        self._closing = False
        # per-request parse state
        self._head: tuple[str, str, str, dict[str, str]] | None = None
        self._need = 0
        self._t0 = 0.0
        # deferred-response state (loop thread only)
        self._in_flight = False
        self._request_done = False
        self._timeout_handle: asyncio.TimerHandle | None = None

    # -- transport callbacks ----------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def connection_lost(self, exc: Exception | None) -> None:
        self._closing = True
        self._cancel_timeout()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if not self._in_flight:
            self._advance()

    def eof_received(self) -> bool:
        # Client half-closed. Mid-body: the distinct truncation 400.
        # Mid-head: 400 for a started-but-never-finished request.
        if self._in_flight:
            return True  # keep the transport open to deliver the response
        if self._head is not None:
            self._respond_error(
                truncated_body_error(self._need, len(self._buffer)),
                self._head[0],
                normalize_path(self._head[1]),
            )
        elif self._buffer:
            self._t0 = perf_counter()
            self._respond_error(
                ApiError(400, "incomplete HTTP request head", close=True)
            )
        return False  # let the transport close

    # -- parsing ------------------------------------------------------------
    def _advance(self) -> None:
        """Consume as many complete requests from the buffer as possible."""
        while not self._closing and not self._in_flight:
            if self._head is None:
                index = self._buffer.find(b"\r\n\r\n")
                if index < 0:
                    if len(self._buffer) > MAX_HEADER_BYTES:
                        self._t0 = perf_counter()
                        self._respond_error(
                            ApiError(
                                431,
                                f"request head exceeds {MAX_HEADER_BYTES} bytes",
                                close=True,
                            )
                        )
                    return
                head = bytes(self._buffer[: index + 4])
                del self._buffer[: index + 4]
                self._t0 = perf_counter()
                try:
                    self._head = _parse_head(head)
                except ApiError as exc:
                    self._respond_error(exc)
                    return
                try:
                    length = parse_content_length(
                        self._head[3].get("content-length"),
                        self._head[3].get("transfer-encoding"),
                    )
                except ApiError as exc:
                    self._respond_error(
                        exc, self._head[0], normalize_path(self._head[1])
                    )
                    return
                self._need = length or 0
            if len(self._buffer) < self._need:
                return  # body still arriving
            body: bytes | None
            headers = self._head[3]
            if "content-length" in headers:
                body = bytes(self._buffer[: self._need])
                del self._buffer[: self._need]
            else:
                body = None
            self._dispatch(body)

    def _dispatch(self, body: bytes | None) -> None:
        method, target, version, headers = self._head  # type: ignore[misc]
        self._head = None
        self._need = 0
        path = normalize_path(target)
        keep_alive = (
            version == "HTTP/1.1" and headers.get("connection", "").lower() != "close"
        )
        try:
            result = route_request(self.state, method, path, body)
        except Exception as exc:  # noqa: BLE001 — mapped to a JSON error
            self._finish(method, path, response_for_exception(exc), keep_alive)
            return
        if isinstance(result, Response):
            self._finish(method, path, result, keep_alive)
            return
        self._await_pending(result, method, path, keep_alive)

    # -- deferred classification --------------------------------------------
    def _await_pending(
        self, pending: PendingResponse, method: str, path: str, keep_alive: bool
    ) -> None:
        self._in_flight = True
        self._request_done = False
        if self.transport is not None:
            # One request in flight per connection: anything the client
            # pipelines meanwhile stays in the kernel buffer.
            self.transport.pause_reading()
        self._timeout_handle = self.server.loop.call_later(
            REQUEST_TIMEOUT_SECONDS, self._on_timeout, method, path, keep_alive
        )
        futures = pending.futures
        results: list[Any] = [None] * len(futures)
        lock = threading.Lock()
        remaining = [len(futures)]
        first_exc: list[BaseException | None] = [None]

        def on_done(index: int, done: Any) -> None:
            # Worker-thread side: record, and notify the loop once the
            # whole request's futures have completed.
            with lock:
                try:
                    results[index] = done.result()
                except BaseException as exc:  # noqa: BLE001 — relayed to client
                    if first_exc[0] is None:
                        first_exc[0] = exc
                remaining[0] -= 1
                last = remaining[0] == 0
            if last:
                self.server.notifier.post(
                    self._complete, pending, results, first_exc[0],
                    method, path, keep_alive,
                )

        for index, future in enumerate(futures):
            future.add_done_callback(
                lambda done, index=index: on_done(index, done)
            )

    def _complete(
        self,
        pending: PendingResponse,
        results: list[Any],
        exc: BaseException | None,
        method: str,
        path: str,
        keep_alive: bool,
    ) -> None:
        if self._request_done:
            return  # timed out (or connection died) before completion
        self._request_done = True
        self._cancel_timeout()
        if exc is not None:
            response = response_for_exception(exc)
        else:
            try:
                response = pending.build(results)
            except Exception as build_exc:  # noqa: BLE001 — last-resort 500
                response = response_for_exception(build_exc)
        self._in_flight = False
        self._finish(method, path, response, keep_alive)
        if not self._closing and self.transport is not None:
            self.transport.resume_reading()
            if self._buffer:
                self._advance()

    def _on_timeout(self, method: str, path: str, keep_alive: bool) -> None:
        if self._request_done:
            return
        self._request_done = True
        self._timeout_handle = None
        self._in_flight = False
        self._finish(
            method,
            path,
            response_for_exception(
                TimeoutError(f"no result within {REQUEST_TIMEOUT_SECONDS}s")
            ),
            keep_alive=False,  # late results must not corrupt the stream
        )

    def _cancel_timeout(self) -> None:
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
            self._timeout_handle = None

    # -- responses ----------------------------------------------------------
    def _finish(
        self, method: str, path: str, response: Response, keep_alive: bool
    ) -> None:
        keep_alive = keep_alive and not response.close
        elapsed = perf_counter() - self._t0
        delivered = self._write(response, keep_alive)
        self.state.metrics.observe_request(
            metrics_route_label(path),
            method or "?",
            # 499 "client closed request": the connection was gone
            # before the response could go out.
            response.status if delivered else 499,
            elapsed,
        )

    def _respond_error(
        self, exc: ApiError, method: str = "?", path: str = "other"
    ) -> None:
        """A protocol-level error outside normal routing (bad head,
        truncated body): answer, record it, and close."""
        self._head = None
        self._need = 0
        response = response_for_exception(exc)
        self.state.metrics.observe_request(
            metrics_route_label(path) if path != "other" else "other",
            method,
            response.status,
            perf_counter() - self._t0 if self._t0 else 0.0,
        )
        self._write(response, keep_alive=False)

    def _write(self, response: Response, keep_alive: bool) -> bool:
        """Send ``response``; ``False`` when the client is already gone."""
        transport = self.transport
        if self._closing or transport is None or transport.is_closing():
            return False
        transport.write(_render_response_bytes(response, keep_alive))
        if transport.is_closing():  # the write hit a reset connection
            self._closing = True
            return False
        if not keep_alive:
            self._closing = True
            transport.close()
        return True


class AsyncInferenceServer:
    """The asyncio front end over a shared :class:`ServerState`.

    Owns its event loop.  :meth:`run` blocks the calling thread (the
    CLI path; installs SIGINT/SIGTERM handlers when on the main
    thread); :meth:`start_background` runs the same loop on a daemon
    thread and returns the bound address — the form tests and
    benchmarks use.
    """

    def __init__(self, state: ServerState, host: str = "127.0.0.1", port: int = 8765):
        self.state = state
        self.host = host
        self.port = port
        self.server_address: tuple[str, int] = (host, port)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.notifier: _LoopNotifier | None = None
        self._stopping: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._background = False

    # -- lifecycle ---------------------------------------------------------
    async def _serve(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.notifier = _LoopNotifier(self.loop)
        self._stopping = asyncio.Event()
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self.loop.add_signal_handler(signum, self._stopping.set)
                except (NotImplementedError, ValueError):
                    break  # platform without signal support in the loop
        try:
            server = await self.loop.create_server(
                lambda: _ConnectionProtocol(self),
                self.host,
                self.port,
                backlog=128,
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            raise
        self.server_address = server.sockets[0].getsockname()[:2]
        self._started.set()
        async with server:
            await self._stopping.wait()
        # `async with` closed the listener; open connections die with
        # the loop, after which run()'s finally drains the engine pools.

    def run(self) -> None:
        """Serve until SIGINT/SIGTERM (or :meth:`shutdown`), then close."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:
            pass
        except OSError:
            # Under start_background a bind failure is surfaced to the
            # caller via _startup_error, and re-raising here would dump
            # a second traceback from the daemon thread; a foreground
            # run() must still raise it.
            if not (self._background and self._startup_error is not None):
                raise
        finally:
            self.state.close()

    def start_background(self) -> tuple[str, int]:
        """Run the loop on a daemon thread; returns the bound address."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._background = True
        self._thread = threading.Thread(
            target=self.run, name="repro-serve-aio", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("asyncio server failed to start within 30s")
        if self._startup_error is not None:
            self._thread.join(timeout=10.0)
            raise OSError(
                f"cannot bind {self.host}:{self.port}: {self._startup_error}"
            )
        return self.server_address

    def wait(self) -> None:
        """Block until the serving loop exits.

        Joins in short slices so a KeyboardInterrupt still lands in the
        calling (main) thread — the CLI parks here after
        :meth:`start_background`.
        """
        thread = self._thread
        if thread is None:
            return
        while thread.is_alive():
            thread.join(timeout=0.5)

    def shutdown(self) -> None:
        """Ask the loop to stop accepting and wind down (thread-safe)."""
        loop, stopping = self.loop, self._stopping
        if loop is not None and stopping is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stopping.set)
            except RuntimeError:
                pass  # loop already closed between the check and the call

    def close(self) -> None:
        """Stop the server and release engine pools (idempotent)."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        else:
            self.state.close()

    def __enter__(self) -> "AsyncInferenceServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def create_async_server(
    store: ModelStore | str,
    host: str = "127.0.0.1",
    port: int = 8765,
    default_model: str | None = None,
    max_batch_size: int = 32,
    max_wait_ms: float | None = None,
    feature_cache_size: int = 1024,
    jobs: int | None = None,
    reload_interval_seconds: float = 0.0,
    drain_grace_seconds: float | None = None,
    max_stream_sessions: int = 64,
    stream_buffer_points: int | None = None,
) -> AsyncInferenceServer:
    """An :class:`AsyncInferenceServer` over a fresh shared state
    (``port=0`` picks a free port, bound address in
    ``server.server_address`` once started).  The remaining knobs are
    :func:`~repro.serve.http.build_server_state`'s; ``max_wait_ms`` is
    deprecated and ignored, and passing it warns."""
    from repro.serve.stream import DEFAULT_MAX_SESSION_BUFFER

    if max_wait_ms is not None:
        warn_max_wait_ms_ignored()

    state = build_server_state(
        store,
        default_model=default_model,
        max_batch_size=max_batch_size,
        feature_cache_size=feature_cache_size,
        jobs=jobs,
        reload_interval_seconds=reload_interval_seconds,
        drain_grace_seconds=drain_grace_seconds,
        max_stream_sessions=max_stream_sessions,
        stream_buffer_points=(
            DEFAULT_MAX_SESSION_BUFFER
            if stream_buffer_points is None
            else stream_buffer_points
        ),
    )
    return AsyncInferenceServer(state, host, port)
