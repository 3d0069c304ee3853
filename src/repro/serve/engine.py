"""Online inference: per-series feature LRU + request micro-batching.

:class:`InferenceEngine` wraps one loaded model behind a
``classify(series) -> (label, scores)`` API.  For MVG classifiers the
expensive step is feature extraction, so the engine keeps an in-memory
LRU of extracted feature vectors keyed by
:func:`repro.core.batch.series_cache_key` — the *same* key the on-disk
feature cache uses, so a vector computed by an offline sweep and one
computed online can never disagree about identity — and predicts from
features via :meth:`MVGClassifier.predict_from_features`.  Other
estimators (baselines, pipelines) are served through their ordinary
batch ``predict``.

:class:`MicroBatcher` sits in front of an engine and coalesces
concurrent single-series requests into one batched ``classify_batch``
call.  It is a greedy drain with no timer: the worker sleeps until a
request is queued, then takes everything waiting (up to
``max_batch_size``) at once.  Batches form exactly when they can help —
requests queue up while the worker is busy with the previous batch —
and a request that arrives to an idle worker starts at once.  Each
batch pays one feature-extraction pass, which is the lever
:class:`~repro.core.batch.BatchFeatureExtractor` optimises.  Callers
wait on a :class:`~concurrent.futures.Future` per request, so slow
extraction never stalls the accept loop.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Sequence

import numpy as np

from repro.core.batch import series_cache_key
from repro.core.config import FeatureConfig
from repro.core.pipeline import MVGClassifier

#: ``classify`` results: ``(label, {class_label: probability})``.
ClassifyResult = tuple[Any, dict[str, float]]


def _as_series(series: Any) -> np.ndarray:
    """Validate one request payload as a 1-D float series."""
    try:
        array = np.asarray(series, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        # Uniform client-error type: numpy raises TypeError for some
        # malformed payloads (dicts, mixed objects), ValueError for
        # others — callers map ValueError to HTTP 400.
        raise ValueError(f"series is not a numeric array: {exc}") from None
    if array.ndim != 1 or array.size < 4:
        raise ValueError(
            f"series must be one-dimensional with at least 4 points, "
            f"got shape {array.shape}"
        )
    if not np.all(np.isfinite(array)):
        raise ValueError("series contains NaN or infinite values")
    return np.ascontiguousarray(array)


def _scores_from_proba(classes: np.ndarray, proba: np.ndarray) -> dict[str, float]:
    return {str(label): float(p) for label, p in zip(classes, proba)}


def _plain_label(label: Any) -> Any:
    """A JSON-serialisable form of a (possibly numpy) class label."""
    return label.item() if hasattr(label, "item") else label


class InferenceEngine:
    """Serve ``classify`` requests from one fitted model.

    Parameters
    ----------
    model:
        A fitted estimator (``predict``; ``predict_proba`` when scores
        are wanted).  :class:`MVGClassifier` gets the cached-feature
        fast path.
    name, version:
        Identity echoed into responses and stats.
    feature_cache_size:
        Entries kept in the in-memory per-series feature LRU
        (0 disables it).  Only used on the MVG fast path.

    Thread safety
    -------------
    All public methods are safe to call from any thread: the feature
    LRU, the extractor handle, and the request counters live under one
    internal ``_lock`` (see ``_GUARDED_BY``).  :meth:`classify_batch`
    and :meth:`classify_stream` hold that lock for the whole call —
    cache lookups, feature extraction and model predict — so
    classifications on one engine run one at a time; input validation
    is the only work done outside it.  One engine is typically shared
    by a :class:`MicroBatcher` and the stream scheduler worker.
    :meth:`close` is idempotent and relies on the same lock: it waits
    for an in-flight batch to finish before tearing down the
    extraction pool.
    """

    # Shared mutable state and the lock that guards it — enforced by
    # `repro check` (lock-discipline).  The extractor is included: its
    # worker pool must never be torn down under an in-flight classify.
    _GUARDED_BY = {
        "_lru": "_lock",
        "_extractor": "_lock",
        "cache_hits_": "_lock",
        "cache_misses_": "_lock",
        "coalesced_": "_lock",
        "requests_served_": "_lock",
    }

    def __init__(
        self,
        model: Any,
        name: str = "model",
        version: int = 1,
        feature_cache_size: int = 1024,
    ):
        if not hasattr(model, "predict"):
            raise TypeError(f"{type(model).__name__} has no predict method")
        self.model = model
        self.name = name
        self.version = version
        self.feature_cache_size = int(feature_cache_size)
        self._lru: OrderedDict[str, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self.cache_hits_ = 0
        self.cache_misses_ = 0
        self.coalesced_ = 0
        self.requests_served_ = 0
        self._is_mvg = isinstance(model, MVGClassifier)
        if self._is_mvg:
            from repro.core.batch import BatchFeatureExtractor

            self._config = model.config or FeatureConfig()
            # The engine's own extractor, not the model's: the on-disk
            # feature cache is off (the LRU above is the serving cache —
            # persisting one .npy per unique *client-sent* series would
            # grow without bound), and the worker pool stays alive
            # across micro-batches instead of respawning per call.
            self._extractor = BatchFeatureExtractor(
                self._config, n_jobs=model.n_jobs, cache=False, keep_pool=True
            )
            # Feature layout width the fitted booster expects; series of
            # another length extract a different number of multiscale
            # features and must be rejected, not silently misdecoded.
            names = getattr(model, "feature_names_", None)
            self._expected_features = len(names) if names else None

    @property
    def is_mvg(self) -> bool:
        """Whether the model gets the cached-feature MVG fast path."""
        return self._is_mvg

    @property
    def feature_config(self) -> FeatureConfig | None:
        """The MVG feature configuration (``None`` for generic models)."""
        return self._config if self._is_mvg else None

    @property
    def expected_features(self) -> int | None:
        """Feature-layout width the fitted model expects (MVG only)."""
        return self._expected_features if self._is_mvg else None

    def close(self) -> None:
        """Release engine resources (the persistent extraction pool).

        Takes the engine lock so the pool is never terminated under an
        in-flight ``classify_batch`` mid-extraction; close waits for the
        current batch instead.
        """
        if self._is_mvg:
            with self._lock:
                self._extractor.close()

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- public API --------------------------------------------------------
    def classify(self, series: Any) -> ClassifyResult:
        """``(label, scores)`` for one series."""
        return self.classify_batch([series])[0]

    def classify_batch(self, batch: Sequence[Any]) -> list[ClassifyResult]:
        """Classify many series in one pass (features extracted together)."""
        arrays = [_as_series(s) for s in batch]
        with self._lock:
            self.requests_served_ += len(arrays)
            if self._is_mvg:
                results = self._classify_mvg(arrays)
            else:
                results = self._classify_generic(arrays)
        return results

    def classify_stream(self, series: Any, compute_features=None) -> ClassifyResult:
        """``(label, scores)`` for one sliding-window tick of a stream.

        Shares the per-series feature LRU with ordinary ``classify``
        traffic — the window is keyed by the same
        :func:`~repro.core.batch.series_cache_key`, so a window an
        offline client already classified is a cache hit for the stream
        and vice versa.  On a miss, ``compute_features`` (typically
        :meth:`repro.core.streaming.StreamingFeatureExtractor.features`,
        which maintains the window's graphs incrementally) supplies the
        vector instead of a batch extraction.

        Generic (non-MVG) models, or a missing ``compute_features``,
        fall back to :meth:`classify` on the window.
        """
        if not self._is_mvg or compute_features is None:
            return self.classify(series)
        array = _as_series(series)
        key = series_cache_key(array, self._config)
        with self._lock:
            self.requests_served_ += 1
            vector = self._cache_get(key)
            if vector is None:
                self.cache_misses_ += 1
                vector = np.asarray(compute_features(), dtype=np.float64)
                if (
                    self._expected_features is not None
                    and vector.size != self._expected_features
                ):
                    raise ValueError(
                        f"stream window of length {array.size} produces "
                        f"{vector.size} features, but model {self.name!r} was "
                        f"fitted on a layout of {self._expected_features}"
                    )
                self._cache_put(key, vector)
            else:
                self.cache_hits_ += 1
            return self._results_from_features(np.stack([vector]))[0]

    def stats(self) -> dict[str, Any]:
        """Counters for ``/healthz`` and the serving benchmark.

        Deliberately lock-free: the counters are plain ints mutated
        under the engine lock, and a health probe must never block
        behind an in-flight extraction.  Values may lag by one batch.
        """
        return {  # repro: allow[lock-discipline] lock-free stats snapshot
            "model": self.name,
            "version": self.version,
            "requests_served": self.requests_served_,
            "feature_cache_hits": self.cache_hits_,
            "feature_cache_misses": self.cache_misses_,
            "requests_coalesced": self.coalesced_,
            "feature_cache_entries": len(self._lru),
        }

    # -- MVG fast path -----------------------------------------------------
    def _cache_get(self, key: str) -> np.ndarray | None:  # guarded-by: _lock
        if self.feature_cache_size <= 0:
            return None
        vector = self._lru.get(key)
        if vector is not None:
            self._lru.move_to_end(key)
        return vector

    def _cache_put(self, key: str, vector: np.ndarray) -> None:  # guarded-by: _lock
        if self.feature_cache_size <= 0:
            return
        self._lru[key] = vector
        self._lru.move_to_end(key)
        while len(self._lru) > self.feature_cache_size:
            self._lru.popitem(last=False)

    def _classify_mvg(self, arrays: list[np.ndarray]) -> list[ClassifyResult]:  # guarded-by: _lock
        keys = [series_cache_key(a, self._config) for a in arrays]
        vectors: list[np.ndarray | None] = [self._cache_get(k) for k in keys]
        self.cache_hits_ += sum(v is not None for v in vectors)

        # Coalesce misses by cache key — concurrent requests for the
        # same series (the hot case a micro-batch collects) pay one
        # extraction — then extract one representative per key, grouped
        # by length (series in one matrix must share a length).
        pending: dict[str, list[int]] = {}
        for i, vector in enumerate(vectors):
            if vector is None:
                pending.setdefault(keys[i], []).append(i)
        self.cache_misses_ += len(pending)
        self.coalesced_ += sum(len(ix) - 1 for ix in pending.values())
        by_length: dict[int, list[int]] = {}
        for indices in pending.values():
            by_length.setdefault(arrays[indices[0]].size, []).append(indices[0])
        for length, reps in by_length.items():
            matrix = self._extractor.transform(np.stack([arrays[i] for i in reps]))
            if (
                self._expected_features is not None
                and matrix.shape[1] != self._expected_features
            ):
                raise ValueError(
                    f"series of length {length} produce {matrix.shape[1]} "
                    f"features, but model {self.name!r} was fitted on a layout "
                    f"of {self._expected_features}; send series of the "
                    "training length"
                )
            for rep, row in zip(reps, matrix):
                self._cache_put(keys[rep], row)
                for i in pending[keys[rep]]:
                    vectors[i] = row

        return self._results_from_features(np.stack(vectors))

    def _results_from_features(self, features: np.ndarray) -> list[ClassifyResult]:
        labels = self.model.predict_from_features(features)
        if hasattr(self.model, "predict_proba_from_features"):
            probas = self.model.predict_proba_from_features(features)
            classes = self.model.classes_
            return [
                (_plain_label(label), _scores_from_proba(classes, proba))
                for label, proba in zip(labels, probas)
            ]
        return [(_plain_label(label), {str(label): 1.0}) for label in labels]

    # -- generic path ------------------------------------------------------
    def _classify_generic(self, arrays: list[np.ndarray]) -> list[ClassifyResult]:
        results: list[ClassifyResult | None] = [None] * len(arrays)
        by_length: dict[int, list[int]] = {}
        for i, array in enumerate(arrays):
            by_length.setdefault(array.size, []).append(i)
        for indices in by_length.values():
            matrix = np.stack([arrays[i] for i in indices])
            labels = self.model.predict(matrix)
            if hasattr(self.model, "predict_proba") and hasattr(self.model, "classes_"):
                probas = self.model.predict_proba(matrix)
                for i, label, proba in zip(indices, labels, probas):
                    results[i] = (
                        _plain_label(label),
                        _scores_from_proba(self.model.classes_, proba),
                    )
            else:
                for i, label in zip(indices, labels):
                    results[i] = (_plain_label(label), {str(label): 1.0})
        return results  # type: ignore[return-value]


def warn_max_wait_ms_ignored() -> None:
    """The one deprecation warning for the retired linger window,
    attributed to whoever called the function that calls this."""
    warnings.warn(
        "max_wait_ms is deprecated and ignored: the micro-batcher takes "
        "whatever is queued without waiting on a timer",
        DeprecationWarning,
        stacklevel=3,
    )


class MicroBatcher:
    """Coalesce concurrent ``classify`` requests into engine batches.

    Parameters
    ----------
    engine:
        The :class:`InferenceEngine` handling the batched calls.
    max_batch_size:
        Upper bound on requests per engine call; bounds the memory one
        batch holds.
    max_wait_ms:
        Deprecated and ignored: the worker no longer lingers for
        companions.  Passing it emits a :class:`DeprecationWarning`.

    The worker never waits on a timer.  It sleeps until the queue is
    non-empty and then dispatches up to ``max_batch_size`` queued
    requests as one batch, so a lone request pays no added latency and
    a burst that arrives while a batch is running becomes the next
    batch.

    Thread safety
    -------------
    :meth:`submit` / :meth:`classify` are safe from any thread; the
    request queue and accept counters are guarded by ``_mutex`` with a
    condition variable waking the single dispatch worker.  Results
    come back through per-request futures, so callers never block each
    other.  The dispatch-side counters (``batches_dispatched_``,
    ``largest_batch_``, ``batch_size_counts_``) are written only by
    the worker thread and read without the mutex by ``stats()`` —
    reads may trail by one batch, which /metrics tolerates.
    :meth:`close` rejects new submissions, lets the worker drain what
    is already queued, and joins it; it is idempotent.
    """

    # Client-facing shared state under the mutex.  The dispatch
    # counters (batches_dispatched_, largest_batch_, batch_size_counts_)
    # are deliberately absent: only the worker thread writes them.
    _GUARDED_BY = {
        "_queue": "_mutex",
        "_closed": "_mutex",
        "requests_accepted_": "_mutex",
    }

    def __init__(
        self,
        engine: InferenceEngine,
        max_batch_size: int = 32,
        max_wait_ms: float | None = None,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_ms is not None:
            warn_max_wait_ms_ignored()
        self.engine = engine
        self.max_batch_size = int(max_batch_size)
        self._queue: list[tuple[Any, Future]] = []
        self._mutex = threading.Lock()
        self._wakeup = threading.Condition(self._mutex)
        self._closed = False
        self.batches_dispatched_ = 0
        self.requests_accepted_ = 0
        self.largest_batch_ = 0
        #: ``{batch_size: times_dispatched}`` — the raw material for the
        #: /metrics batch-size histogram, tallied here so the hot path
        #: pays one dict update instead of a bucket scan.
        self.batch_size_counts_: dict[int, int] = {}
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._worker.start()

    # -- client side -------------------------------------------------------
    def submit(self, series: Any) -> "Future[ClassifyResult]":
        """Enqueue one series; the future resolves to ``(label, scores)``."""
        future: Future = Future()
        with self._mutex:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._queue.append((series, future))
            self.requests_accepted_ += 1
            self._wakeup.notify()
        return future

    def classify(self, series: Any, timeout: float | None = 30.0) -> ClassifyResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(series).result(timeout=timeout)

    def close(self) -> None:
        """Stop the worker; queued requests still complete, new ones fail."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify()
        self._worker.join(timeout=10.0)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- worker side -------------------------------------------------------
    def _take_batch(self) -> list[tuple[Any, Future]]:
        """Block until work exists, then take what is queued (no timer).

        Empty only once the batcher is closed and drained.
        """
        with self._mutex:
            while not self._queue and not self._closed:
                self._wakeup.wait()
            batch = self._queue[: self.max_batch_size]
            del self._queue[: self.max_batch_size]
            return batch

    def _run(self) -> None:
        while True:
            batch = self._take_batch()
            if not batch:
                return
            self.batches_dispatched_ += 1
            self.largest_batch_ = max(self.largest_batch_, len(batch))
            self.batch_size_counts_[len(batch)] = (
                self.batch_size_counts_.get(len(batch), 0) + 1
            )
            series_list = [series for series, _ in batch]
            try:
                results = self.engine.classify_batch(series_list)
            except Exception:
                # One malformed series must not fail its batch-mates:
                # retry each request individually so only the bad ones
                # carry the exception.
                for series, future in batch:
                    try:
                        future.set_result(self.engine.classify(series))
                    except Exception as exc:  # noqa: BLE001 — relayed to caller
                        future.set_exception(exc)
                continue
            for (_, future), result in zip(batch, results):
                future.set_result(result)

    def stats(self) -> dict[str, Any]:
        """Dispatch counters (batch sizes are the micro-batching win).

        ``mean_batch_size`` is taken from the dispatched batch sizes,
        not from requests accepted: requests still queued belong to no
        batch yet.
        """
        with self._mutex:
            accepted = self.requests_accepted_
        counts = dict(self.batch_size_counts_)
        batches = sum(counts.values())
        requests = sum(size * n for size, n in counts.items())
        return {
            "requests_accepted": accepted,
            "batches_dispatched": batches,
            "largest_batch": self.largest_batch_,
            "mean_batch_size": round(requests / batches, 3) if batches else 0.0,
            "max_batch_size": self.max_batch_size,
            # Deprecated field, fixed at 0 (there is no linger) until the
            # deprecated max_wait_ms names are removed.
            "max_wait_ms": 0,
        }
