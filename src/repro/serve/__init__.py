"""repro.serve — online model serving.

The serving tier that turns offline ``fit``/``predict`` artifacts into
a long-lived classification service:

* :class:`~repro.serve.store.ModelStore` — named, versioned, hash-
  verified persistence of fitted models (JSON blobs + manifest);
* :class:`~repro.serve.engine.InferenceEngine` /
  :class:`~repro.serve.engine.MicroBatcher` — per-series feature LRU
  and coalescing of concurrent requests into batched extraction;
* :func:`~repro.serve.aio.create_async_server` — the asyncio HTTP
  front end behind ``python -m repro serve``, over the routing/state
  layer in :mod:`repro.serve.http` (hot model reload via
  :class:`~repro.serve.http.StoreWatcher`, Prometheus-style
  ``GET /metrics`` via :mod:`repro.serve.metrics`).

Quickstart::

    from repro.serve import ModelStore, InferenceEngine, MicroBatcher

    store = ModelStore("models/")
    store.save(fitted_clf, "beetlefly")
    engine = InferenceEngine(store.load("beetlefly"), name="beetlefly")
    with MicroBatcher(engine) as batcher:
        label, scores = batcher.classify(series)
"""

from repro.serve.aio import AsyncInferenceServer, create_async_server
from repro.serve.engine import ClassifyResult, InferenceEngine, MicroBatcher
from repro.serve.http import ServerState, StoreWatcher
from repro.serve.metrics import ServingMetrics
from repro.serve.store import (
    IntegrityError,
    ModelNotFoundError,
    ModelRecord,
    ModelStore,
    ModelStoreError,
)
from repro.serve.stream import (
    BackpressureError,
    ModelRetiredError,
    SessionClosedError,
    StreamError,
    StreamScheduler,
    StreamSession,
    UnknownSessionError,
)

__all__ = [
    "ClassifyResult",
    "InferenceEngine",
    "MicroBatcher",
    "AsyncInferenceServer",
    "ServerState",
    "StoreWatcher",
    "ServingMetrics",
    "create_async_server",
    "IntegrityError",
    "ModelNotFoundError",
    "ModelRecord",
    "ModelStore",
    "ModelStoreError",
    "StreamSession",
    "StreamScheduler",
    "StreamError",
    "UnknownSessionError",
    "SessionClosedError",
    "ModelRetiredError",
    "BackpressureError",
]
