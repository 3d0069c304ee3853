"""Batched MVG feature extraction: worker fan-out + on-disk caching.

:class:`BatchFeatureExtractor` is the sweep-facing front end of the
feature pipeline.  It produces matrices bit-for-bit identical to
:class:`repro.core.features.FeatureExtractor` (property-tested) while
adding the two levers that dominate sweep wall-clock:

* **multiprocessing fan-out** — ``n_jobs`` worker processes split the
  per-series extraction (the embarrassingly parallel part of every
  sweep); row order is deterministic regardless of worker scheduling
  because results are collected with an order-preserving ``Pool.map``;
* **an on-disk feature cache** — each extracted vector is persisted
  under ``REPRO_RESULTS_DIR`` (``feature_cache/`` subdirectory) keyed by
  the SHA-1 of the raw series bytes plus the full
  :class:`~repro.core.config.FeatureConfig`, so re-sweeps (table2,
  table3 and the figure harnesses all re-extract the same splits) pay
  the extraction cost once per (series, config) ever.

Cache files are written atomically (temp file + ``os.replace``) so
concurrent sweeps can share a cache directory; unreadable or truncated
entries are treated as misses.  Set ``cache=False`` to bypass the disk
entirely (the property tests compare both paths).
"""

from __future__ import annotations

import hashlib
import json
import threading
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from repro.core.config import FeatureConfig
from repro.core.features import extract_feature_vector, feature_layout_width
from repro.ioutil import atomic_write_bytes, atomic_write_npy

#: Subdirectory of ``REPRO_RESULTS_DIR`` holding cached feature vectors.
CACHE_SUBDIR = "feature_cache"

#: Version component of every cache key.  Bump whenever the *semantics*
#: of feature extraction change (new formulas, changed normalisation,
#: reordered columns) so stale vectors from older code can never be
#: served; layout-preserving refactors don't need a bump.
FEATURE_CACHE_VERSION = 2  # v2: exact-integer assortativity, dense-matvec eigencentrality

# Worker-side state, set once per worker by the pool initializer so the
# config is not re-pickled with every task.
_WORKER_CONFIG: FeatureConfig | None = None


def _init_worker(config: FeatureConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config


def _extract_one(series: np.ndarray) -> tuple[np.ndarray, list[str]]:
    return extract_feature_vector(series, _WORKER_CONFIG)


def env_positive_int(name: str) -> int | None:
    """Back-compat alias of :func:`repro.api.config.env_positive_int`.

    The implementation moved to the config module — the single place
    allowed to read ``os.environ`` under the ``env-mutation`` rule of
    :mod:`repro.analysis`.  Imported lazily: :mod:`repro.api` pulls in
    the registry, which imports this module.
    """
    from repro.api.config import env_positive_int as _env_positive_int

    return _env_positive_int(name)


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Effective worker count: explicit argument, else ``REPRO_JOBS``, else 1.

    The env read goes through the :meth:`RunConfig.from_env
    <repro.api.config.RunConfig.from_env>` deprecation machinery, so
    relying on ``REPRO_JOBS`` here warns once per process exactly like
    every other deprecated knob.
    """
    if n_jobs is None:
        from repro.api.config import env_jobs_fallback

        return env_jobs_fallback() or 1
    if n_jobs != int(n_jobs) or n_jobs <= 0:
        raise ValueError(f"n_jobs must be a positive integer, got {n_jobs!r}")
    return int(n_jobs)


def _config_token(config: FeatureConfig) -> str:
    """Stable identity string of a config (all fields, fixed order),
    prefixed with the cache schema version."""
    return (
        f"v{FEATURE_CACHE_VERSION};scales={config.scales};"
        f"graphs={config.graphs};features={config.features};tau={config.tau}"
    )


def series_cache_key(series: np.ndarray, config: FeatureConfig) -> str:
    """SHA-1 cache key of one series under one config.

    Hashes the raw float64 bytes (so numerically equal but
    differently-typed inputs normalise to the same key) together with
    the config token and the series length.
    """
    digest = hashlib.sha1()
    digest.update(_config_token(config).encode())
    digest.update(f";n={series.size};".encode())
    digest.update(np.ascontiguousarray(series, dtype=np.float64).tobytes())
    return digest.hexdigest()


class BatchFeatureExtractor:
    """Drop-in batched replacement for
    :class:`~repro.core.features.FeatureExtractor`.

    Parameters
    ----------
    config:
        Feature configuration (default :class:`FeatureConfig()`).
    n_jobs:
        Worker processes for cache misses.  ``None`` defers to the
        ``REPRO_JOBS`` environment knob (default 1 = in-process serial,
        no pool is spawned).
    cache:
        Whether to read/write the on-disk feature cache.
    cache_dir:
        Cache directory override; defaults to
        ``REPRO_RESULTS_DIR/feature_cache``.
    keep_pool:
        Keep the worker pool alive between ``transform`` calls.  Sweeps
        extract in a few huge calls, so they amortise the pool spawn
        naturally; a long-lived inference server extracts in many small
        micro-batches, where respawning workers per call would cost more
        than the extraction itself.  Call :meth:`close` (or use the
        extractor as a context manager) to release the workers.

    ``transform`` output is bit-for-bit identical to the serial
    extractor for every ``(n_jobs, cache)`` combination; only wall-clock
    changes.
    """

    _GUARDED_BY = {"_pool": "_pool_lock"}

    def __init__(
        self,
        config: FeatureConfig | None = None,
        n_jobs: int | None = None,
        cache: bool = True,
        cache_dir: str | Path | None = None,
        keep_pool: bool = False,
    ):
        self.config = config or FeatureConfig()
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.cache = cache
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.keep_pool = keep_pool
        # Serialises lazy pool spawn against close(): two concurrent
        # transforms must never double-spawn, and close() must never
        # observe a half-assigned pool.
        self._pool_lock = threading.Lock()
        self._pool: Pool | None = None
        self.feature_names_: list[str] | None = None
        #: Cache statistics of the most recent ``transform`` call.
        self.last_cache_hits_ = 0
        self.last_cache_misses_ = 0

    # The live pool (and its unpicklable lock) never travel through
    # pickling (workers) or the deep copies pipeline cloning performs;
    # copies re-spawn on demand.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_pool"] = None
        del state["_pool_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pool_lock = threading.Lock()

    def close(self) -> None:
        """Release a persistent worker pool (no-op without one)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "BatchFeatureExtractor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cache plumbing ---------------------------------------------------
    def cache_dir(self) -> Path:
        """The active cache directory (created on demand)."""
        if self._cache_dir is not None:
            path = self._cache_dir
        else:
            from repro.experiments.harness import results_dir

            path = results_dir() / CACHE_SUBDIR
        path.mkdir(parents=True, exist_ok=True)
        return path

    def _layout_path(self, directory: Path, length: int) -> Path:
        token = hashlib.sha1(
            f"{_config_token(self.config)};n={length}".encode()
        ).hexdigest()[:16]
        return directory / f"layout_{token}.json"

    def _load_layout(self, directory: Path, length: int) -> list[str] | None:
        path = self._layout_path(directory, length)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        names = payload.get("feature_names")
        if not isinstance(names, list):
            return None
        return [str(name) for name in names]

    def _store_layout(self, directory: Path, length: int, names: list[str]) -> None:
        payload = {
            "config": _config_token(self.config),
            "series_length": length,
            "feature_names": names,
        }
        atomic_write_bytes(
            self._layout_path(directory, length),
            json.dumps(payload, indent=1).encode(),
        )

    @staticmethod
    def _load_vector(path: Path) -> np.ndarray | None:
        try:
            vector = np.load(path, allow_pickle=False)
        except (OSError, ValueError):
            return None
        if vector.ndim != 1 or vector.dtype != np.float64:
            return None
        return vector

    # -- extraction -------------------------------------------------------
    def transform(self, X: np.ndarray) -> np.ndarray:
        """``(n_samples, n_features)`` MVG feature matrix of ``X``.

        Rows are returned in input order.  Cached rows are loaded from
        disk; the remainder is extracted serially (``n_jobs == 1``) or by
        a worker pool, then persisted.
        """
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2:
            raise ValueError(f"X must be 1- or 2-dimensional, got shape {X.shape}")
        n_samples, length = X.shape

        rows: list[np.ndarray | None] = [None] * n_samples
        names: list[str] | None = None
        miss_indices = list(range(n_samples))

        directory: Path | None = None
        keys: list[str] | None = None
        if self.cache:
            directory = self.cache_dir()
            names = self._load_layout(directory, length)
            if names is not None:
                keys = [series_cache_key(row, self.config) for row in X]
                miss_indices = []
                for i, key in enumerate(keys):
                    vector = self._load_vector(directory / f"{key}.npy")
                    if vector is not None and vector.size == len(names):
                        rows[i] = vector
                    else:
                        miss_indices.append(i)

        self.last_cache_hits_ = n_samples - len(miss_indices)
        self.last_cache_misses_ = len(miss_indices)

        if miss_indices:
            extracted = self._extract_batch([X[i] for i in miss_indices])
            for i, (vector, row_names) in zip(miss_indices, extracted, strict=True):
                if names is None:
                    names = row_names
                elif names != row_names:
                    raise ValueError("inconsistent feature layout across series")
                rows[i] = vector
            if self.cache and directory is not None:
                assert names is not None
                self._store_layout(directory, length, names)
                if keys is None:
                    keys = [series_cache_key(row, self.config) for row in X]
                for i in miss_indices:
                    atomic_write_npy(directory / f"{keys[i]}.npy", rows[i])

        self.feature_names_ = names
        return np.stack(rows)

    def _extract_batch(
        self, series_list: list[np.ndarray]
    ) -> list[tuple[np.ndarray, list[str]]]:
        n_jobs = min(self.n_jobs, len(series_list))
        if n_jobs <= 1:
            return [extract_feature_vector(s, self.config) for s in series_list]
        chunksize = max(1, len(series_list) // (n_jobs * 4))
        if self.keep_pool:
            with self._pool_lock:
                if self._pool is None:
                    self._pool = Pool(
                        self.n_jobs, initializer=_init_worker, initargs=(self.config,)
                    )
                pool = self._pool
            # map() runs outside the lock: extraction can take seconds
            # and close() must stay callable (it terminates the workers,
            # which surfaces here as a pool error, not a deadlock).
            return pool.map(_extract_one, series_list, chunksize=chunksize)
        with Pool(n_jobs, initializer=_init_worker, initargs=(self.config,)) as pool:
            return pool.map(_extract_one, series_list, chunksize=chunksize)

    def n_features(self, series_length: int) -> int:
        """Number of features produced for series of ``series_length``."""
        return feature_layout_width(series_length, self.config)


