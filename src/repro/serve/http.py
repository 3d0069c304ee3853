"""HTTP serving core: routing, validation and shared server state.

The asyncio front end (:mod:`repro.serve.aio`) owns the sockets; this
module owns everything above them.  :func:`route_request` maps
``(method, path, body)`` onto the :class:`ServerState`, returning
either a finished :class:`Response` or a :class:`PendingResponse`
whose :class:`~concurrent.futures.Future`\\ s resolve inside the
:class:`~repro.serve.engine.MicroBatcher` worker and which the event
loop completes without blocking.

``POST /v1/classify``
    ``{"series": [..], "model": "name"?, "version": "latest"?}`` →
    ``{"model", "version", "label", "scores", "latency_ms"}``.
``POST /v1/batch``
    ``{"series": [[..], ..]}`` (same optional model selector) →
    ``{"results": [{"label", "scores"}, ..], "count"}``.
``POST /v1/stream``
    Streaming sessions (:mod:`repro.serve.stream`): ``op: "create"``
    (``window``, ``stride``, optional model selector) → a session id;
    ``op: "append"`` (``session``, ``points``) → one label per stride
    once the window fills, features maintained incrementally, sessions
    scheduled deficit-round-robin with bounded per-session queues (a
    full queue 429s with ``Retry-After``); ``op: "status"`` /
    ``op: "close"``.
``GET /v1/pipeline`` / ``POST /v1/pipeline``
    The continuous pipeline (:mod:`repro.pipeline`), when one is
    attached (``python -m repro pipeline``): status of every model's
    drift→retrain loop, and control ops ``enable`` / ``disable`` /
    ``force-retrain``; 404 when the server runs without a controller.
``GET /v1/models``
    The store manifest: every stored version with hash and metadata.
``GET /v1/runs``
    Newest rows of the store's run ledger (:mod:`repro.ledger`) —
    publish rows link back to the drift row that triggered them via
    ``parent_id``; 503 when the store has no usable ledger.
``GET /healthz``
    Liveness plus engine/batcher counters.
``GET /metrics``
    Prometheus text exposition: per-route request counts and latency
    histograms, per-model batch-size distribution and feature-cache
    hit ratio (:mod:`repro.serve.metrics`).

Errors are JSON: 400 for malformed payloads (with distinct messages
for truncated bodies and non-finite JSON numbers), 404 for unknown
models/routes, 405 for wrong methods, 413 for oversized bodies and 500
(with the exception class named) for genuine server faults.

Hot model reload: a :class:`StoreWatcher` thread polls the store every
``reload_interval_seconds``, refreshes the catalog snapshot (so
``latest`` re-resolves within one tick of a publish), atomically swaps
in ``(engine, batcher)`` pairs for new versions and retires pairs whose
version was deleted — in-flight requests keep their reference and
finish on the old model before the pair is closed after a drain grace.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.slab import SlabPool
from repro.serve.engine import (
    ClassifyResult,
    InferenceEngine,
    MicroBatcher,
    warn_max_wait_ms_ignored,
)
from repro.serve.metrics import (
    ServingMetrics,
    render_family,
    render_histogram_from_counts,
)
from repro.serve.store import ModelNotFoundError, ModelStore, ModelStoreError
from repro.serve.stream import (
    DEFAULT_MAX_SESSION_BUFFER,
    DEFAULT_STREAM_QUANTUM,
    BackpressureError,
    ModelRetiredError,
    SessionClosedError,
    StreamScheduler,
    StreamSession,
    UnknownSessionError,
)

#: Largest accepted request body (a 1M-point float series in JSON).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Largest accepted ``/v1/batch`` request.
MAX_BATCH_SERIES = 1024

#: How long a request may wait on its in-flight classification futures.
REQUEST_TIMEOUT_SECONDS = 60.0

#: Batch-size histogram buckets for /metrics.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class ApiError(Exception):
    """An error with a deliberate HTTP status.

    ``close=True`` marks protocol-level failures (truncated body, bad
    Content-Length) after which the connection byte stream can no
    longer be trusted for keep-alive.
    """

    def __init__(self, status: int, message: str, close: bool = False):
        super().__init__(message)
        self.status = status
        self.close = close


@dataclass
class Response:
    """A finished HTTP response, front-end independent.

    ``headers`` carries extra response headers (e.g. ``Retry-After`` on
    a 429) as name/value pairs, rendered verbatim after the standard
    Content-Type/Content-Length block.
    """

    status: int
    body: bytes
    content_type: str = "application/json"
    close: bool = False
    headers: tuple[tuple[str, str], ...] = ()


@dataclass
class PendingResponse:
    """Engine work in flight: futures plus the final payload builder.

    The front end attaches done-callbacks and, once every future
    completes, calls ``build`` with the ordered list of
    ``(label, scores)`` results.
    """

    futures: list[Any]
    build: Callable[[list[ClassifyResult]], Response]


def json_response(
    status: int,
    payload: dict[str, Any],
    close: bool = False,
    headers: tuple[tuple[str, str], ...] = (),
) -> Response:
    return Response(status, json.dumps(payload).encode(), "application/json", close, headers)


def response_for_exception(exc: BaseException) -> Response:
    """The JSON error response a request-handling exception maps to."""
    if isinstance(exc, ApiError):
        return json_response(exc.status, {"error": str(exc)}, close=exc.close)
    if isinstance(exc, ModelNotFoundError):
        return json_response(404, {"error": str(exc)})
    if isinstance(exc, UnknownSessionError):
        return json_response(404, {"error": str(exc)})
    if isinstance(exc, BackpressureError):
        # The session's point queue is full: shed load now, try again
        # once the worker has drained some of the backlog.  Retry-After
        # is the drain-rate estimate from the scheduler, as a header
        # (for off-the-shelf clients) and in the body (for ours).
        return json_response(
            429,
            {
                "error": str(exc),
                "retry_after_seconds": exc.retry_after,
                "lag": exc.lag,
            },
            headers=(("Retry-After", str(exc.retry_after)),),
        )
    if isinstance(exc, (ModelRetiredError, SessionClosedError)):
        # The session (or the model version it pinned) is gone: a
        # deliberate conflict the client resolves by recreating the
        # session — never a 500 from a retired engine.
        return json_response(409, {"error": str(exc)})
    if isinstance(exc, ModelStoreError):
        # Corrupt manifest / failed integrity check: a server-side
        # data problem, not a bad request.
        return json_response(500, {"error": str(exc)})
    if isinstance(exc, TimeoutError):
        return json_response(504, {"error": f"classification timed out: {exc}"})
    if isinstance(exc, ValueError):
        return json_response(400, {"error": str(exc)})
    return json_response(
        500, {"error": f"internal server error ({type(exc).__name__}: {exc})"}
    )


# -- request-body plumbing -----------------------------------------------------


def parse_content_length(
    header: str | None, transfer_encoding: str | None = None
) -> int | None:
    """Validated Content-Length (``None`` when the header is absent).

    Only ``1*DIGIT`` is a length (RFC 9110 §8.6): ``int()`` would also
    take ``"+7"`` or ``"1_0"``, which another parser on the path may
    frame differently.  Raises with ``close=True``: after a rejected
    length the byte stream cannot carry keep-alive requests.

    A ``Transfer-Encoding`` (chunked) request is rejected outright:
    treating it as body-less would leave the chunk framing in the
    socket to be misparsed as the next keep-alive request.
    """
    if transfer_encoding:
        raise ApiError(
            501,
            f"Transfer-Encoding {transfer_encoding.strip()!r} is not supported; "
            "send the body with Content-Length",
            close=True,
        )
    if header is None:
        return None
    try:
        if not (header.isascii() and header.isdigit()):
            raise ValueError
        length = int(header)  # also ValueError past int()'s digit limit
    except ValueError:
        raise ApiError(
            400, f"invalid Content-Length header {header!r}", close=True
        ) from None
    if length > MAX_BODY_BYTES:
        raise ApiError(413, f"request body exceeds {MAX_BODY_BYTES} bytes", close=True)
    return length


def truncated_body_error(announced: int, received: int) -> ApiError:
    """The distinct 400 for a body that ended before Content-Length."""
    return ApiError(
        400,
        f"truncated request body: Content-Length announced {announced} bytes, "
        f"only {received} arrived before EOF",
        close=True,
    )


def _reject_nonfinite(token: str) -> float:
    # json.loads would happily produce float("nan")/float("inf") for the
    # (non-standard) NaN/Infinity tokens; those poison the feature-LRU
    # key and would re-emit invalid JSON in "scores".
    raise ApiError(
        400,
        f"non-finite number {token} in request body; series values must be finite",
    )


def parse_json_body(raw: bytes | None) -> dict[str, Any]:
    """Decode a request body into a JSON object, rejecting NaN/Infinity."""
    if not raw:
        raise ApiError(400, "request body required")
    try:
        payload = json.loads(raw, parse_constant=_reject_nonfinite)
    except ApiError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ApiError(400, f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ApiError(400, "request body must be a JSON object")
    return payload


def normalize_path(raw: str) -> str:
    """Strip query string and trailing slashes from a request target."""
    return raw.split("?", 1)[0].rstrip("/") or "/"


# -- shared server state -------------------------------------------------------


class ServerState:
    """Shared state behind the HTTP front end.

    Owns the store, lazily constructs one ``(engine, batcher)`` pair per
    loaded model version, resolves which model a request addresses,
    carries the :class:`~repro.serve.metrics.ServingMetrics` and (when
    enabled) the hot-reload :class:`StoreWatcher`.
    """

    # Every mutable map the loop thread, batcher workers and watcher
    # share, with the lock that guards it (enforced by `repro check`
    # lock-discipline).  _watcher and _pipeline are deliberately absent:
    # both are set once during single-threaded startup and only cleared
    # by close().
    _GUARDED_BY = {
        "_loaded": "_lock",
        "_retired": "_lock",
        "_catalog": "_lock",
        "_catalog_read_at": "_lock",
        "_resolution_memo": "_lock",
        "_sessions": "_lock",
        "_stream_scheduler": "_lock",
        "_stream_ticks_closed": "_lock",
    }

    def __init__(
        self,
        store: ModelStore,
        default_model: str | None = None,
        max_batch_size: int = 32,
        feature_cache_size: int = 1024,
        jobs: int | None = None,
        drain_grace_seconds: float = 1.0,
        max_stream_sessions: int = 64,
        stream_session_ttl_seconds: float = 900.0,
        stream_quantum: int = DEFAULT_STREAM_QUANTUM,
        stream_buffer_points: int = DEFAULT_MAX_SESSION_BUFFER,
    ):
        self.store = store
        self.default_model = default_model
        self.max_batch_size = max_batch_size
        self.feature_cache_size = feature_cache_size
        self.jobs = jobs
        self.started_at = time.time()
        #: Retired pairs drain at least this long before being closed,
        #: so a request that resolved the pair moments before eviction
        #: still submits successfully.
        self.drain_grace_seconds = float(drain_grace_seconds)
        self._lock = threading.Lock()
        self._loaded: dict[tuple[str, int], tuple[InferenceEngine, MicroBatcher]] = {}
        self._retired: list[
            tuple[float, tuple[str, int], tuple[InferenceEngine, MicroBatcher]]
        ] = []
        self._watcher: StoreWatcher | None = None
        self._pipeline: Any | None = None
        #: How long the manifest snapshot below may serve the hot path
        #: before a fresh read notices new versions.
        self.catalog_ttl_seconds = 1.0
        self._catalog: dict | None = None
        self._catalog_read_at = 0.0
        #: Lock-free hot path: ``(requested, version) -> pair`` memo of
        #: full resolutions, rebuilt whenever the catalog snapshot
        #: changes or a pair is evicted (GIL-atomic dict reads; the
        #: slow path below re-validates under the lock).
        self._resolution_memo: dict[tuple[Any, Any], tuple[InferenceEngine, MicroBatcher]] = {}
        #: Streaming sessions: id -> live StreamSession.  All session
        #: work runs on one shared worker thread (per-session ordering
        #: for free, and the asyncio front end never extracts on the
        #: loop), scheduled deficit-round-robin across sessions with a
        #: bounded per-session point queue (429 + Retry-After on
        #: overflow).
        self.max_stream_sessions = int(max_stream_sessions)
        self.stream_session_ttl_seconds = float(stream_session_ttl_seconds)
        self.stream_quantum = int(stream_quantum)
        self.stream_buffer_points = int(stream_buffer_points)
        #: Slab pool backing every session's numeric ring state; shared
        #: so session churn recycles rows instead of reallocating.
        self.stream_slab = SlabPool()
        self._sessions: dict[str, StreamSession] = {}
        self._stream_scheduler: StreamScheduler | None = None
        self._stream_ticks_closed = 0
        self.metrics = ServingMetrics()
        self.metrics.registry.add_collector(self._collect_runtime_metrics)
        self.metrics.registry.add_collector(self._collect_ledger_metrics)

    # -- model resolution --------------------------------------------------
    def _catalog_snapshot(self, refresh: bool = False) -> dict:
        """The store catalog, re-read from disk at most once per TTL.

        Every classify request resolves its model name/version here;
        without the snapshot each request would re-read and re-parse
        ``manifest.json``.
        """
        now = time.monotonic()
        with self._lock:
            if (
                refresh
                or self._catalog is None
                or now - self._catalog_read_at > self.catalog_ttl_seconds
            ):
                self._catalog = self.store.catalog()
                self._catalog_read_at = now
                self._resolution_memo = {}
            return self._catalog

    def _resolve_name(self, requested: str | None, catalog: dict) -> str:
        if requested:
            return requested
        if self.default_model:
            return self.default_model
        names = sorted(catalog)
        if len(names) == 1:
            return names[0]
        if not names:
            raise ModelNotFoundError(
                f"model store {self.store.root} is empty; save one with "
                "`python -m repro fit ... --store DIR --name NAME`"
            )
        raise ApiError(
            400,
            f"multiple models in store ({', '.join(names)}); "
            'pick one with "model" in the request body',
        )

    def _resolve(self, requested: str | None, version: str | int | None) -> tuple[str, int]:
        selector = ModelStore.parse_selector(version if version is not None else "latest")
        catalog = self._catalog_snapshot()
        for attempt in range(2):
            name = self._resolve_name(requested, catalog)
            entry = catalog.get(name)
            if entry is not None:
                resolved = entry["latest"] if selector is None else selector
                if resolved in entry["versions"]:
                    return name, resolved
            if attempt == 0:
                # Maybe saved moments ago — one forced re-read before 404.
                catalog = self._catalog_snapshot(refresh=True)
        if entry is None:
            known = ", ".join(sorted(catalog)) or "<store is empty>"
            raise ModelNotFoundError(
                f"no model named {name!r} in store {self.store.root} (known: {known})"
            )
        raise ModelNotFoundError(
            f"model {name!r} has no version {selector} "
            f"(available: {sorted(entry['versions'])})"
        )

    def _pair_for(self, name: str, version: int) -> tuple[InferenceEngine, MicroBatcher]:
        key = (name, version)
        with self._lock:
            pair = self._loaded.get(key)
            if pair is None:
                model = self.store.load(name, version)
                if self.jobs is not None and hasattr(model, "set_params"):
                    try:
                        if "n_jobs" in model.get_params():
                            model.set_params(n_jobs=self.jobs)
                    except TypeError:
                        pass
                engine = InferenceEngine(
                    model,
                    name=name,
                    version=version,
                    feature_cache_size=self.feature_cache_size,
                )
                batcher = MicroBatcher(engine, max_batch_size=self.max_batch_size)
                pair = (engine, batcher)
                self._loaded[key] = pair
        return pair

    def engine_for(
        self, requested: str | None, version: str | int | None
    ) -> tuple[InferenceEngine, MicroBatcher]:
        if requested is not None and not isinstance(requested, str):
            raise ApiError(400, '"model" must be a string')
        if version is not None and not isinstance(version, (str, int)):
            raise ApiError(400, '"version" must be a string or integer')
        # Hot path: an identical request already resolved against the
        # current (still-fresh) catalog snapshot — no locks taken.
        # Lock-free by design: float/dict reads are GIL-atomic, a stale
        # memo hit is re-validated under the lock before publication,
        # and a miss just falls through to the locked slow path.
        if time.monotonic() - self._catalog_read_at <= self.catalog_ttl_seconds:  # repro: allow[lock-discipline] lock-free hot path
            memo = self._resolution_memo.get((requested, version))
            if memo is not None:
                return memo
        last: ModelNotFoundError | None = None
        for _ in range(2):
            name, resolved = self._resolve(requested, version)
            try:
                pair = self._pair_for(name, resolved)
                with self._lock:
                    # Publish to the lock-free memo only while the pair
                    # is still the live one — otherwise a concurrent
                    # eviction (which cleared the memo) could be undone
                    # by this late write, re-exposing a retired pair.
                    if self._loaded.get((name, resolved)) is pair:
                        self._resolution_memo[(requested, version)] = pair
                return pair
            except ModelNotFoundError as exc:
                # The cached catalog promised a version the store no
                # longer has (deleted moments ago): evict the stale
                # pair, force a catalog refresh, and re-resolve once —
                # a surviving version answers instead of a stale 404.
                last = exc
                self._evict_pair((name, resolved))
                self._catalog_snapshot(refresh=True)
        assert last is not None
        raise last

    # -- hot reload --------------------------------------------------------
    def _evict_pair(self, key: tuple[str, int]) -> None:
        """Atomically remove ``key`` from the serving set; the pair keeps
        draining until :meth:`reload_tick` closes it after the grace."""
        with self._lock:
            pair = self._loaded.pop(key, None)
            if pair is not None:
                self._retired.append((time.monotonic(), key, pair))
                self._resolution_memo = {}

    def reload_tick(self) -> dict[str, Any]:
        """One hot-reload reconciliation pass (the watcher's tick body).

        * refreshes the catalog snapshot, so ``latest`` re-resolves
          against new/deleted versions immediately;
        * evicts loaded pairs whose version left the store — new
          requests can no longer reach them, in-flight requests keep
          their reference and finish on the old model;
        * closes retired pairs whose drain grace has passed;
        * warm-loads the new latest version of any model that already
          has an engine loaded, so the first request after a publish
          skips the model-load latency.
        """
        catalog = self._catalog_snapshot(refresh=True)
        now = time.monotonic()
        evicted: list[tuple[str, int]] = []
        with self._lock:
            for key in list(self._loaded):
                name, version = key
                entry = catalog.get(name)
                if entry is None or version not in entry["versions"]:
                    self._retired.append((now, key, self._loaded.pop(key)))
                    self._resolution_memo = {}
                    evicted.append(key)
            loaded = set(self._loaded)
            due, keep = [], []
            for item in self._retired:
                (due if now - item[0] >= self.drain_grace_seconds else keep).append(item)
            self._retired[:] = keep
        for _, _, (engine, batcher) in due:
            batcher.close()
            engine.close()
        warmed: list[tuple[str, int]] = []
        for name in sorted({name for name, _ in loaded}):
            entry = catalog.get(name)
            if entry and (name, entry["latest"]) not in loaded:
                try:
                    self._pair_for(name, entry["latest"])
                    warmed.append((name, entry["latest"]))
                except Exception:  # noqa: BLE001 — the next request surfaces it
                    pass
        return {
            "evicted": evicted,
            "closed": len(due),
            "warmed": warmed,
            "sessions_expired": self._sweep_stream_sessions(),
        }

    def start_watcher(self, interval_seconds: float) -> "StoreWatcher":
        """Start polling the store for hot reload (idempotent)."""
        if self._watcher is None:
            self._watcher = StoreWatcher(self, interval_seconds)
            self._watcher.start()
        return self._watcher

    @property
    def watcher(self) -> "StoreWatcher | None":
        return self._watcher

    # -- continuous pipeline -----------------------------------------------
    def attach_pipeline(self, controller: Any) -> None:
        """Wire a :class:`repro.pipeline.PipelineController` in.

        Called once during single-threaded startup (like
        :meth:`start_watcher`): stream ticks start feeding the
        controller's drift detectors, ``/v1/pipeline`` starts
        answering, and the ``repro_pipeline_*`` families join the
        ``/metrics`` scrape.
        """
        if self._pipeline is not None:
            raise RuntimeError("a pipeline controller is already attached")
        self._pipeline = controller
        self.metrics.registry.add_collector(controller.metrics_lines)

    @property
    def pipeline(self) -> Any | None:
        return self._pipeline

    # -- streaming sessions ------------------------------------------------
    def stream_scheduler(self) -> StreamScheduler:
        """The DRR scheduler all stream session work runs on (lazy).

        One worker thread, fair across sessions: see
        :class:`~repro.serve.stream.StreamScheduler`.  Safe from any
        thread.
        """
        with self._lock:
            if self._stream_scheduler is None:
                self._stream_scheduler = StreamScheduler(
                    quantum=self.stream_quantum,
                    max_session_buffer=self.stream_buffer_points,
                )
            return self._stream_scheduler

    def _scheduler_if_running(self) -> StreamScheduler | None:
        """The scheduler, or ``None`` when no stream op ever started it.

        Safe from any thread.
        """
        with self._lock:
            return self._stream_scheduler

    def ensure_version_live(self, name: str, version: int) -> None:
        """Raise :class:`ModelRetiredError` when ``(name, version)`` has
        been evicted from the serving set (hot reload)."""
        with self._lock:
            if (name, version) in self._loaded:
                return
        raise ModelRetiredError(
            f"model {name!r} v{version} was retired from the serving set "
            "(hot reload); recreate the stream session"
        )

    def create_stream_session(
        self,
        requested: str | None,
        version: str | int | None,
        window: Any,
        stride: Any = 1,
    ) -> StreamSession:
        """Resolve the model, validate the window and register a session.

        The window's feature layout is checked against the model's
        fitted width *here* — a wrong window length 400s at create time
        instead of failing every append.
        """
        engine, _ = self.engine_for(requested, version)
        pipeline = self._pipeline
        observer = None
        if pipeline is not None:
            observer = (
                lambda win, label, scores: pipeline.observe_tick(
                    engine.name, engine.version, win, label, scores
                )
            )
        # Validate the window's feature layout *before* building the
        # session, so a bad window never acquires slab rows.
        expected = engine.expected_features
        if expected is not None and isinstance(window, int) and not isinstance(window, bool):
            from repro.core.streaming import check_window_layout

            try:
                check_window_layout(
                    window,
                    engine.feature_config,
                    expected,
                    f"model {engine.name!r} v{engine.version}",
                )
            except ValueError as exc:
                raise ApiError(400, str(exc)) from None
        try:
            session = StreamSession(
                uuid.uuid4().hex[:16],
                engine,
                window,
                stride,
                liveness=lambda: self.ensure_version_live(
                    engine.name, engine.version
                ),
                observer=observer,
                phase_observer=self.metrics.observe_stream_phases,
                slab=self.stream_slab,
            )
        except ValueError as exc:
            raise ApiError(400, str(exc)) from None
        # Expire idle sessions first, so abandoned ones cannot pin the
        # limit forever when the hot-reload watcher (whose tick also
        # sweeps) is disabled.
        self._sweep_stream_sessions()
        with self._lock:
            admitted = len(self._sessions) < self.max_stream_sessions
            if admitted:
                self._sessions[session.id] = session
        if not admitted:
            session.close()  # return its slab rows before rejecting
            raise ApiError(
                429,
                f"too many active stream sessions "
                f"(limit {self.max_stream_sessions}); close one first",
            )
        return session

    def stream_session(self, session_id: Any) -> StreamSession:
        if not isinstance(session_id, str):
            raise ApiError(400, '"session" must be a string id')
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(f"no stream session {session_id!r}")
        return session

    def close_stream_session(self, session_id: Any) -> dict[str, Any]:
        session = self.stream_session(session_id)
        # Close *before* unregistering: close() waits out any in-flight
        # append chunk (and blocks future ones), so ticks_ is final when
        # it is folded into the counter — ticks can neither be dropped
        # nor double-counted, and the live-sum/closed-sum handover
        # happens under one lock acquisition (no transient counter dip).
        final = session.close()
        # Appends still queued behind the close fail with a 409 rather
        # than classifying into a closed session.
        scheduler = self._scheduler_if_running()
        if scheduler is not None:
            scheduler.purge_session(
                session.id,
                f"stream session {session.id} closed with points still "
                "queued; the buffered appends were dropped",
            )
        with self._lock:
            if self._sessions.pop(session_id, None) is not None:
                self._stream_ticks_closed += session.ticks_
        return final

    def _sweep_stream_sessions(self) -> int:
        """Drop sessions idle past the TTL (housekeeping on the watcher
        tick and before admitting a new session)."""
        deadline = time.monotonic() - self.stream_session_ttl_seconds
        with self._lock:
            expired = [
                session
                for session in self._sessions.values()
                if session.last_activity_ < deadline
            ]
        swept = 0
        scheduler = self._scheduler_if_running() if expired else None
        for session in expired:
            if session.last_activity_ >= deadline:
                continue  # an append revived it since the snapshot
            session.close()
            if scheduler is not None:
                scheduler.purge_session(
                    session.id,
                    f"stream session {session.id} expired idle and was evicted",
                )
            with self._lock:
                if self._sessions.pop(session.id, None) is not None:
                    self._stream_ticks_closed += session.ticks_
                    swept += 1
        return swept

    # -- introspection -----------------------------------------------------
    def health(self) -> dict[str, Any]:
        watcher = self._watcher
        with self._lock:
            loaded = [
                {"model": name, "version": version, **engine.stats(), **batcher.stats()}
                for (name, version), (engine, batcher) in self._loaded.items()
            ]
            retired = len(self._retired)
            sessions = len(self._sessions)
            stream_ticks = self._stream_ticks_closed + sum(
                s.ticks_ for s in self._sessions.values()
            )
        scheduler = self._scheduler_if_running()
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "store": str(self.store.root),
            "models_stored": len(self.store.names()),
            "engines_loaded": loaded,
            "engines_retired": retired,
            "stream_sessions": sessions,
            "stream_ticks": stream_ticks,
            "stream_scheduler": scheduler.stats() if scheduler else None,
            "stream_slab": self.stream_slab.stats(),
            "hot_reload": {
                "enabled": watcher is not None,
                "interval_seconds": watcher.interval_seconds if watcher else None,
                "ticks": watcher.ticks_ if watcher else 0,
                "errors": watcher.errors_ if watcher else 0,
                "last_error": watcher.last_error_ if watcher else None,
            },
            "pipeline": self._pipeline is not None,
        }

    def render_metrics(self) -> str:
        """The ``GET /metrics`` scrape payload."""
        return self.metrics.render()

    def _collect_runtime_metrics(self) -> list[str]:
        """Engine/batcher families pulled at scrape time (no hot-path cost)."""
        with self._lock:
            pairs = dict(self._loaded)
        served, hits, misses, ratios, entries, coalesced, batches = (
            [] for _ in range(7)
        )
        lines: list[str] = []
        batch_lines: list[str] = []
        for (name, version), (engine, batcher) in sorted(pairs.items()):
            labels = {"model": name, "version": version}
            stats = engine.stats()
            h, m = stats["feature_cache_hits"], stats["feature_cache_misses"]
            served.append(("", labels, stats["requests_served"]))
            hits.append(("", labels, h))
            misses.append(("", labels, m))
            ratios.append(("", labels, h / (h + m) if h + m else 0.0))
            entries.append(("", labels, stats["feature_cache_entries"]))
            coalesced.append(("", labels, stats["requests_coalesced"]))
            batches.append(("", labels, batcher.batches_dispatched_))
            batch_lines.extend(
                render_histogram_from_counts(
                    "repro_serve_batch_size",
                    "Requests per dispatched micro-batch.",
                    dict(batcher.batch_size_counts_),
                    labels,
                    BATCH_SIZE_BUCKETS,
                )[2:]  # family header emitted once below
            )
        lines.extend(
            render_family(
                "repro_serve_engine_requests_total",
                "counter",
                "Series classified per loaded engine.",
                served,
            )
        )
        lines.extend(
            render_family(
                "repro_serve_feature_cache_hits_total",
                "counter",
                "Per-series feature LRU hits.",
                hits,
            )
        )
        lines.extend(
            render_family(
                "repro_serve_feature_cache_misses_total",
                "counter",
                "Per-series feature LRU misses (extractions paid).",
                misses,
            )
        )
        lines.extend(
            render_family(
                "repro_serve_feature_cache_hit_ratio",
                "gauge",
                "Feature LRU hits / lookups since engine load.",
                ratios,
            )
        )
        lines.extend(
            render_family(
                "repro_serve_feature_cache_entries",
                "gauge",
                "Series currently held in the feature LRU.",
                entries,
            )
        )
        lines.extend(
            render_family(
                "repro_serve_requests_coalesced_total",
                "counter",
                "Duplicate in-flight series served by one extraction.",
                coalesced,
            )
        )
        lines.extend(
            render_family(
                "repro_serve_batches_dispatched_total",
                "counter",
                "Micro-batches dispatched to the engine.",
                batches,
            )
        )
        lines.append("# HELP repro_serve_batch_size Requests per dispatched micro-batch.")
        lines.append("# TYPE repro_serve_batch_size histogram")
        lines.extend(batch_lines)
        lines.extend(
            render_family(
                "repro_serve_engines_loaded",
                "gauge",
                "Model versions with a live (engine, batcher) pair.",
                [("", {}, len(pairs))],
            )
        )
        with self._lock:
            n_sessions = len(self._sessions)
            ticks = self._stream_ticks_closed + sum(
                s.ticks_ for s in self._sessions.values()
            )
        lines.extend(
            render_family(
                "repro_serve_stream_sessions",
                "gauge",
                "Live streaming sessions.",
                [("", {}, n_sessions)],
            )
        )
        lines.extend(
            render_family(
                "repro_serve_stream_ticks_total",
                "counter",
                "Sliding-window labels emitted across all stream sessions.",
                [("", {}, ticks)],
            )
        )
        scheduler = self._scheduler_if_running()
        lag_samples = []
        backpressure = 0
        buffered = 0
        if scheduler is not None:
            lag_samples = [
                ("", {"session": sid}, lag)
                for sid, lag in sorted(scheduler.session_lag().items())
            ]
            sched_stats = scheduler.stats()
            backpressure = sched_stats["rejections"]
            buffered = sched_stats["points_buffered"]
        lines.extend(
            render_family(
                "repro_serve_stream_lag",
                "gauge",
                "Buffered (queued, unprocessed) points per stream session.",
                lag_samples,
            )
        )
        lines.extend(
            render_family(
                "repro_serve_stream_buffered_points",
                "gauge",
                "Buffered points across all stream sessions.",
                [("", {}, buffered)],
            )
        )
        lines.extend(
            render_family(
                "repro_serve_stream_backpressure_total",
                "counter",
                "Appends rejected with 429 because a session's queue was full.",
                [("", {}, backpressure)],
            )
        )
        slab = self.stream_slab.stats()
        lines.extend(
            render_family(
                "repro_serve_slab_rows",
                "gauge",
                "Slab rows preallocated for stream session state.",
                [("", {}, slab["rows_total"])],
            )
        )
        lines.extend(
            render_family(
                "repro_serve_slab_rows_in_use",
                "gauge",
                "Slab rows currently owned by live stream sessions.",
                [("", {}, slab["rows_in_use"])],
            )
        )
        lines.extend(
            render_family(
                "repro_serve_slab_bytes",
                "gauge",
                "Bytes preallocated across all slab blocks.",
                [("", {}, slab["bytes_total"])],
            )
        )
        watcher = self._watcher
        if watcher is not None:
            lines.extend(
                render_family(
                    "repro_serve_watcher_ticks_total",
                    "counter",
                    "Hot-reload watcher poll ticks.",
                    [("", {}, watcher.ticks_)],
                )
            )
            lines.extend(
                render_family(
                    "repro_serve_watcher_errors_total",
                    "counter",
                    "Watcher poll/reload passes that raised (watcher kept ticking).",
                    [("", {}, watcher.errors_)],
                )
            )
        return lines

    def _collect_ledger_metrics(self) -> list[str]:
        """``repro_ledger_*`` families from the store's run ledger.

        A store without a ledger (or one that degraded to ``None``)
        reports ``repro_ledger_available 0`` and nothing else — scrapes
        must never fail because bookkeeping did.
        """
        ledger = self.store.ledger
        lines = render_family(
            "repro_ledger_available",
            "gauge",
            "Whether the store's run ledger opened (1) or degraded (0).",
            [("", {}, 1 if ledger is not None else 0)],
        )
        if ledger is None:
            return lines
        counters = ledger.counters()
        try:
            rows = ledger.row_count()
        except Exception:
            rows = None
        lines.extend(
            render_family(
                "repro_ledger_records_total",
                "counter",
                "Rows this server process wrote to the run ledger.",
                [("", {}, counters["records"])],
            )
        )
        lines.extend(
            render_family(
                "repro_ledger_errors_total",
                "counter",
                "Ledger writes that degraded to a warning.",
                [("", {}, counters["errors"])],
            )
        )
        if rows is not None:
            lines.extend(
                render_family(
                    "repro_ledger_rows",
                    "gauge",
                    "Total rows currently in the run ledger.",
                    [("", {}, rows)],
                )
            )
        return lines

    def close(self) -> None:
        """Stop the watcher, pipeline, stream scheduler and every engine
        pool, including retired pairs still draining."""
        if self._watcher is not None:
            self._watcher.stop()
            self._watcher = None
        if self._pipeline is not None:
            pipeline, self._pipeline = self._pipeline, None
            pipeline.close()
        with self._lock:
            pairs = list(self._loaded.values())
            pairs.extend(pair for _, _, pair in self._retired)
            self._loaded.clear()
            self._retired.clear()
            self._resolution_memo = {}
            sessions = list(self._sessions.values())
            self._sessions.clear()
            scheduler, self._stream_scheduler = self._stream_scheduler, None
        for session in sessions:
            session.close()
            if scheduler is not None:
                scheduler.purge_session(
                    session.id, f"stream session {session.id} closed at shutdown"
                )
        if scheduler is not None:
            scheduler.close()
        for engine, batcher in pairs:
            batcher.close()
            engine.close()
        self.store.close_ledger()


class StoreWatcher:
    """Background store poller driving hot model reload.

    Every ``interval_seconds`` it runs :meth:`ServerState.reload_tick`:
    new versions are picked up (and the latest warm-loaded) within one
    tick, deleted versions are evicted and their engines closed once
    drained.  A store hiccup (partial write, transient IO error) skips
    the tick and retries on the next one.
    """

    def __init__(self, state: ServerState, interval_seconds: float = 1.0):
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be > 0, got {interval_seconds}"
            )
        self.state = state
        self.interval_seconds = float(interval_seconds)
        self.ticks_ = 0
        #: Ticks whose reload pass raised (bad version, torn manifest,
        #: transient IO).  The watcher keeps ticking regardless; the
        #: count and the last error surface in /healthz and /metrics
        #: (``repro_serve_watcher_errors_total``) so a store that is
        #: *persistently* failing does not fail silently.
        self.errors_ = 0
        self.last_error_: str | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-watcher", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            try:
                self.state.reload_tick()
            except Exception as exc:  # noqa: BLE001 — transient store glitch; next tick retries
                self.errors_ += 1
                self.last_error_ = f"{type(exc).__name__}: {exc}"
            self.ticks_ += 1


# -- routing -------------------------------------------------------------------


def _route_classify(state: ServerState, body: bytes | None) -> PendingResponse:
    payload = parse_json_body(body)
    if "series" not in payload:
        raise ApiError(400, 'request body needs a "series" array')
    engine, batcher = state.engine_for(payload.get("model"), payload.get("version"))
    t0 = time.perf_counter()
    try:
        future = batcher.submit(payload["series"])
    except RuntimeError:
        # Pair retired between lookup and submit (hot-reload edge); the
        # re-resolve lands on the replacement.
        engine, batcher = state.engine_for(payload.get("model"), payload.get("version"))
        future = batcher.submit(payload["series"])

    def build(results: list[ClassifyResult]) -> Response:
        label, scores = results[0]
        return json_response(
            200,
            {
                "model": engine.name,
                "version": engine.version,
                "label": label,
                "scores": scores,
                "latency_ms": round((time.perf_counter() - t0) * 1e3, 3),
            },
        )

    return PendingResponse([future], build)


def _route_batch(state: ServerState, body: bytes | None) -> PendingResponse:
    payload = parse_json_body(body)
    series_list = payload.get("series")
    if not isinstance(series_list, list) or not series_list:
        raise ApiError(400, 'request body needs a non-empty "series" array of arrays')
    if len(series_list) > MAX_BATCH_SERIES:
        raise ApiError(413, f"at most {MAX_BATCH_SERIES} series per batch request")
    engine, batcher = state.engine_for(payload.get("model"), payload.get("version"))
    t0 = time.perf_counter()
    try:
        futures = [batcher.submit(series) for series in series_list]
    except RuntimeError:
        engine, batcher = state.engine_for(payload.get("model"), payload.get("version"))
        futures = [batcher.submit(series) for series in series_list]

    def build(results: list[ClassifyResult]) -> Response:
        return json_response(
            200,
            {
                "model": engine.name,
                "version": engine.version,
                "count": len(results),
                "results": [
                    {"label": label, "scores": scores} for label, scores in results
                ],
                "latency_ms": round((time.perf_counter() - t0) * 1e3, 3),
            },
        )

    return PendingResponse(futures, build)


def _route_stream(state: ServerState, body: bytes | None) -> Response | PendingResponse:
    """One endpoint, four ops (``op`` field): ``create`` a session,
    ``append`` points (labels stream back, one per stride once the
    window fills), ``status``, ``close``.

    Every op runs on the stream scheduler's single worker while the
    event loop parks the connection on the op's future.  One worker for *all* ops means
    no two ops ever contend for a session lock, but scheduling across
    sessions is deficit-round-robin: appends queue per session (bounded
    — an over-full queue 429s here with ``Retry-After`` *before*
    buffering anything) and the worker serves the active sessions a
    quantum of points at a time, while create/status/close run between
    chunks ahead of data work.  The shared 60s deadline bounds each
    *wait* (a 504 to the client), not the work already queued — size
    the per-session buffer so a full queue drains within it.
    """
    payload = parse_json_body(body)
    op = payload.get("op", "append")

    if op == "append":
        session = state.stream_session(payload.get("session"))
        points = payload.get("points")
        t0 = time.perf_counter()
        # Raises BackpressureError (429 + Retry-After) on a full queue,
        # ValueError (400) on malformed points — both before queueing.
        future = state.stream_scheduler().submit_append(session, points)

        def build(results: list[Any]) -> Response:
            outcome = results[0]
            return json_response(
                200,
                {
                    "session": session.id,
                    "model": session.model,
                    "version": session.version,
                    "window": session.window,
                    "stride": session.stride,
                    "received": outcome["received"],
                    "filled": outcome["filled"],
                    "results": outcome["results"],
                    "latency_ms": round((time.perf_counter() - t0) * 1e3, 3),
                },
            )

        return PendingResponse([future], build)

    if op == "create":
        def run() -> Response:
            session = state.create_stream_session(
                payload.get("model"),
                payload.get("version"),
                payload.get("window"),
                payload.get("stride", 1),
            )
            return json_response(200, {"created": True, **session.describe()})
    elif op == "status":
        def run() -> Response:
            return json_response(
                200, state.stream_session(payload.get("session")).describe()
            )
    elif op == "close":
        def run() -> Response:
            return json_response(200, state.close_stream_session(payload.get("session")))
    else:
        raise ApiError(
            400, f"unknown stream op {op!r} (expected create/append/status/close)"
        )

    future = state.stream_scheduler().submit(run)
    return PendingResponse([future], lambda results: results[0])


def _require_pipeline(state: ServerState) -> Any:
    pipeline = state.pipeline
    if pipeline is None:
        raise ApiError(
            404,
            "no continuous pipeline attached; start the server with "
            "`python -m repro pipeline --store DIR`",
        )
    return pipeline


def _route_pipeline_status(state: ServerState, body: bytes | None) -> Response:
    return json_response(200, _require_pipeline(state).status())


def _route_pipeline_control(state: ServerState, body: bytes | None) -> Response:
    """``{"op": "enable" | "disable" | "force-retrain", "model"?: str}``.

    ``force-retrain`` only *submits* (the handler runs on the asyncio
    front end's loop thread and must not block on a fit); callers poll
    ``GET /v1/pipeline`` for the outcome.
    """
    pipeline = _require_pipeline(state)
    payload = parse_json_body(body)
    op = payload.get("op")
    if op == "enable":
        pipeline.enable()
        return json_response(200, {"op": op, "enabled": True})
    if op == "disable":
        pipeline.disable()
        return json_response(200, {"op": op, "enabled": False})
    if op == "force-retrain":
        model = payload.get("model")
        if model is not None and not isinstance(model, str):
            raise ApiError(400, '"model" must be a string')
        # An unknown model raises ModelNotFoundError → 404 via
        # response_for_exception, same as every other route.
        outcome = pipeline.force_retrain(model)
        return json_response(200, {"op": op, "models": outcome})
    raise ApiError(
        400,
        f"unknown pipeline op {op!r} (expected enable/disable/force-retrain)",
    )


def _route_models(state: ServerState, body: bytes | None) -> Response:
    records = state.store.list_models()
    return json_response(
        200,
        {
            "store": str(state.store.root),
            "models": [{"name": r.name, **r.to_json()} for r in records],
        },
    )


def _route_runs(state: ServerState, body: bytes | None) -> Response:
    """Read-only view of the store ledger's newest rows.

    Publish rows carry ``parent_id`` pointing at the drift row that
    triggered the retrain, so clients can walk a served model version
    back to its provenance without shell access to ``repro db``.
    """
    ledger = state.store.ledger
    if ledger is None:
        raise ApiError(
            503, f"run ledger unavailable for store {state.store.root}"
        )
    from repro.ledger import LedgerError

    try:
        rows = ledger.query().order_by("id", descending=True).limit(100).all()
    except LedgerError as exc:
        raise ApiError(503, f"run ledger unreadable: {exc}") from None
    return json_response(
        200,
        {
            "store": str(state.store.root),
            "count": len(rows),
            "runs": [row.to_json() for row in rows],
        },
    )


def _route_health(state: ServerState, body: bytes | None) -> Response:
    return json_response(200, state.health())


def _route_metrics(state: ServerState, body: bytes | None) -> Response:
    return Response(200, state.render_metrics().encode(), ServingMetrics.CONTENT_TYPE)


ROUTES: dict[tuple[str, str], Callable[[ServerState, bytes | None], Any]] = {
    ("POST", "/v1/classify"): _route_classify,
    ("POST", "/v1/batch"): _route_batch,
    ("POST", "/v1/stream"): _route_stream,
    ("GET", "/v1/pipeline"): _route_pipeline_status,
    ("POST", "/v1/pipeline"): _route_pipeline_control,
    ("GET", "/v1/models"): _route_models,
    ("GET", "/v1/runs"): _route_runs,
    ("GET", "/healthz"): _route_health,
    ("GET", "/metrics"): _route_metrics,
}

#: Route paths — also the closed label set for per-route metrics (an
#: unknown path is labelled "other" so scanners cannot explode series
#: cardinality).
KNOWN_PATHS = frozenset(path for _, path in ROUTES)


def metrics_route_label(path: str) -> str:
    return path if path in KNOWN_PATHS else "other"


def route_request(
    state: ServerState, method: str, path: str, body: bytes | None
) -> Response | PendingResponse:
    """Dispatch one parsed request (``path`` already normalized).

    Raises :class:`ApiError` (and the store/engine exception types) —
    front ends funnel those through :func:`response_for_exception`.
    """
    handler = ROUTES.get((method, path))
    if handler is None:
        if path in KNOWN_PATHS:
            raise ApiError(405, f"method {method} not allowed for {path}")
        raise ApiError(404, f"no such endpoint: {path}")
    return handler(state, body)


def build_server_state(
    store: ModelStore | str,
    default_model: str | None = None,
    max_batch_size: int = 32,
    max_wait_ms: float | None = None,
    feature_cache_size: int = 1024,
    jobs: int | None = None,
    reload_interval_seconds: float = 0.0,
    drain_grace_seconds: float | None = None,
    max_stream_sessions: int = 64,
    stream_buffer_points: int = DEFAULT_MAX_SESSION_BUFFER,
) -> ServerState:
    """The shared state :func:`~repro.serve.aio.create_async_server` builds on.

    ``reload_interval_seconds > 0`` starts the hot-reload watcher
    (``drain_grace_seconds`` defaults to one watcher interval, floored
    at one second).  ``max_stream_sessions`` caps concurrent stream
    sessions (429 at create); ``stream_buffer_points`` caps each
    session's queued-but-unprocessed points (429 + ``Retry-After`` on
    append).  ``max_wait_ms`` is deprecated and ignored (the
    micro-batcher has no linger window); passing it warns.
    """
    if max_wait_ms is not None:
        warn_max_wait_ms_ignored()
    if not isinstance(store, ModelStore):
        store = ModelStore(store)
    if drain_grace_seconds is None:
        drain_grace_seconds = max(1.0, reload_interval_seconds)
    state = ServerState(
        store,
        default_model=default_model,
        max_batch_size=max_batch_size,
        feature_cache_size=feature_cache_size,
        jobs=jobs,
        drain_grace_seconds=drain_grace_seconds,
        max_stream_sessions=max_stream_sessions,
        stream_buffer_points=stream_buffer_points,
    )
    if reload_interval_seconds > 0:
        state.start_watcher(reload_interval_seconds)
    return state
