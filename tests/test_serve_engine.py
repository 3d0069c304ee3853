"""InferenceEngine + MicroBatcher: parity with offline predict, caching,
coalescing and failure isolation."""

import threading
import warnings

import numpy as np
import pytest

from repro.core.pipeline import MVGClassifier
from repro.serve import ModelStore, create_async_server
from repro.serve.engine import InferenceEngine, MicroBatcher
from repro.serve.http import build_server_state


@pytest.fixture(scope="module")
def mvg_setup():
    """One fitted MVG model + its train/test series, fitted once."""
    rng = np.random.default_rng(12345)
    t = np.linspace(0, 1, 64, endpoint=False)

    def sample(label):
        base = np.sin(2 * np.pi * 3 * t + rng.uniform(0, 2 * np.pi))
        if label:
            base = base + 0.6 * np.sin(2 * np.pi * 17 * t + rng.uniform(0, 2 * np.pi))
        return base + rng.normal(0, 0.15, t.size)

    X_train = np.stack([sample(i % 2) for i in range(20)])
    y_train = np.arange(20) % 2
    X_test = np.stack([sample(i % 2) for i in range(12)])
    model = MVGClassifier(random_state=0, feature_cache=False).fit(X_train, y_train)
    return model, X_test


@pytest.fixture
def engine(mvg_setup):
    model, _ = mvg_setup
    with InferenceEngine(model, name="mvg-test") as eng:
        yield eng


class TestInferenceEngine:
    def test_classify_matches_offline_predict(self, mvg_setup, engine):
        model, X_test = mvg_setup
        offline = model.predict(X_test)
        for series, expected in zip(X_test, offline):
            label, scores = engine.classify(series)
            assert label == expected
            assert scores[str(expected)] == max(scores.values())

    def test_scores_are_probabilities(self, mvg_setup, engine):
        model, X_test = mvg_setup
        _, scores = engine.classify(X_test[0])
        assert set(scores) == {str(c) for c in model.classes_}
        assert abs(sum(scores.values()) - 1.0) < 1e-9

    def test_batch_matches_single(self, mvg_setup, engine):
        _, X_test = mvg_setup
        batched = engine.classify_batch(list(X_test[:6]))
        singles = [engine.classify(s) for s in X_test[:6]]
        assert [b[0] for b in batched] == [s[0] for s in singles]

    def test_lru_hits_on_repeat(self, mvg_setup):
        model, X_test = mvg_setup
        with InferenceEngine(model) as engine:
            engine.classify(X_test[0])
            assert engine.stats()["feature_cache_misses"] == 1
            engine.classify(X_test[0])
            stats = engine.stats()
            assert stats["feature_cache_hits"] == 1
            assert stats["feature_cache_misses"] == 1

    def test_duplicates_in_one_batch_coalesce(self, mvg_setup):
        model, X_test = mvg_setup
        with InferenceEngine(model) as engine:
            results = engine.classify_batch([X_test[0]] * 5 + [X_test[1]])
            stats = engine.stats()
            assert stats["feature_cache_misses"] == 2  # unique extractions
            assert stats["requests_coalesced"] == 4
            assert len({r[0] for r in results[:5]}) == 1

    def test_lru_bounded(self, mvg_setup):
        model, X_test = mvg_setup
        with InferenceEngine(model, feature_cache_size=3) as engine:
            for series in X_test[:5]:
                engine.classify(series)
            assert engine.stats()["feature_cache_entries"] == 3

    def test_lru_disabled(self, mvg_setup):
        model, X_test = mvg_setup
        with InferenceEngine(model, feature_cache_size=0) as engine:
            engine.classify(X_test[0])
            engine.classify(X_test[0])
            stats = engine.stats()
            assert stats["feature_cache_hits"] == 0
            assert stats["feature_cache_entries"] == 0

    def test_wrong_length_series_rejected(self, mvg_setup, engine):
        # A different series length changes the multiscale feature
        # layout; decoding it with the fitted booster would be garbage.
        _, X_test = mvg_setup
        with pytest.raises(ValueError, match="training length"):
            engine.classify(X_test[0][:48])

    def test_wrong_length_does_not_fail_batchmates(
        self, mvg_setup, engine, classify_gate
    ):
        _, X_test = mvg_setup
        with MicroBatcher(engine, max_batch_size=8) as batcher:
            _hold_first_batch(batcher, classify_gate, X_test[2])
            good = batcher.submit(X_test[0])
            bad = batcher.submit(X_test[1][:48])
            classify_gate.release()
            assert good.result(timeout=60)[0] is not None
            with pytest.raises(ValueError):
                bad.result(timeout=60)
            assert batcher.stats()["largest_batch"] == 2

    @pytest.mark.parametrize(
        "bad", [[[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0], [1.0, np.nan, 2.0, 3.0], []]
    )
    def test_invalid_series_rejected(self, engine, bad):
        with pytest.raises(ValueError):
            engine.classify(bad)

    def test_engine_never_writes_the_disk_feature_cache(self, mvg_setup, tmp_path):
        # Client-sent series must not be persisted one .npy each — the
        # in-memory LRU is the serving cache (unbounded disk growth
        # otherwise, even for models saved with feature_cache=True).
        model, X_test = mvg_setup
        model.set_params(feature_cache=True, cache_dir=str(tmp_path / "fc"))
        try:
            with InferenceEngine(model) as engine:
                assert engine._extractor.cache is False
                engine.classify(X_test[0])
            assert not (tmp_path / "fc").exists()
        finally:
            model.set_params(feature_cache=False, cache_dir=None)

    def test_generic_estimator_path(self, mvg_setup):
        from repro.baselines.nn import NearestNeighborEuclidean

        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 32))
        y = np.repeat([0, 1], 5)
        model = NearestNeighborEuclidean().fit(X, y)
        with InferenceEngine(model) as engine:
            offline = model.predict(X)
            assert [engine.classify(s)[0] for s in X] == list(offline)

    def test_model_without_predict_rejected(self):
        with pytest.raises(TypeError, match="predict"):
            InferenceEngine(object())


class TestFeatureLRUOrder:
    """Eviction order of the per-series feature LRU under interleaved
    stream-tick and classify traffic — both paths must touch the same
    recency list, so the least *recently used* window is evicted
    regardless of which path used it."""

    @staticmethod
    def _key(engine, series):
        from repro.core.batch import series_cache_key

        return series_cache_key(
            np.ascontiguousarray(np.asarray(series, dtype=np.float64)),
            engine.feature_config,
        )

    def test_classify_then_stream_hit_refreshes_recency(self, mvg_setup):
        from repro.core.streaming import StreamingFeatureExtractor

        model, X_test = mvg_setup
        a, b, c, d = X_test[:4]
        with InferenceEngine(model, feature_cache_size=2) as engine:
            extractor = StreamingFeatureExtractor(64, engine.feature_config)
            extractor.push_many(a)

            engine.classify(a)  # LRU: [a]
            engine.classify(b)  # LRU: [a, b]
            # A stream tick over window == a must HIT and refresh a.
            engine.classify_stream(extractor.window_values(), extractor.features)
            assert engine.cache_hits_ == 1
            assert list(engine._lru) == [self._key(engine, b), self._key(engine, a)]

            engine.classify(c)  # evicts b (a was refreshed by the stream)
            keys = list(engine._lru)
            assert keys == [self._key(engine, a), self._key(engine, c)]
            assert self._key(engine, b) not in keys

    def test_stream_miss_inserts_and_evicts_in_order(self, mvg_setup):
        from repro.core.streaming import StreamingFeatureExtractor

        model, X_test = mvg_setup
        a, b, c = X_test[:3]
        with InferenceEngine(model, feature_cache_size=2) as engine:
            engine.classify(a)
            engine.classify(b)  # LRU: [a, b]

            extractor = StreamingFeatureExtractor(64, engine.feature_config)
            extractor.push_many(c)
            # Stream miss inserts c, evicting the least recent (a).
            engine.classify_stream(extractor.window_values(), extractor.features)
            assert engine.cache_misses_ == 3
            keys = list(engine._lru)
            assert keys == [self._key(engine, b), self._key(engine, c)]

            # And the classify path now hits the stream-inserted entry.
            engine.classify(c)
            assert engine.cache_hits_ == 1

    def test_stream_and_classify_agree_on_vectors(self, mvg_setup):
        """The vector a stream tick caches equals the batch-extracted
        one — classify hits it and returns identical scores."""
        from repro.core.streaming import StreamingFeatureExtractor

        model, X_test = mvg_setup
        series = X_test[0]
        with InferenceEngine(model) as engine:
            extractor = StreamingFeatureExtractor(64, engine.feature_config)
            extractor.push_many(series)
            stream_result = engine.classify_stream(
                extractor.window_values(), extractor.features
            )
            classify_result = engine.classify(series)
            assert engine.cache_hits_ == 1  # classify hit the stream's entry
            assert stream_result == classify_result

    def test_stream_tick_counts_in_stats(self, mvg_setup):
        from repro.core.streaming import StreamingFeatureExtractor

        model, X_test = mvg_setup
        with InferenceEngine(model) as engine:
            extractor = StreamingFeatureExtractor(64, engine.feature_config)
            extractor.push_many(X_test[0])
            engine.classify_stream(extractor.window_values(), extractor.features)
            stats = engine.stats()
            assert stats["requests_served"] == 1
            assert stats["feature_cache_misses"] == 1
            assert stats["feature_cache_entries"] == 1

    def test_layout_mismatch_is_value_error(self, mvg_setup):
        model, _ = mvg_setup
        with InferenceEngine(model) as engine:
            bad_vector = np.zeros(3)
            with pytest.raises(ValueError, match="layout"):
                engine.classify_stream(
                    np.linspace(0.0, 1.0, 64), lambda: bad_vector
                )


def _hold_first_batch(batcher, gate, series):
    """Dispatch one request and hold it inside the engine, so everything
    submitted next queues up behind it as the following batch."""
    first = batcher.submit(series)
    assert gate.entered.wait(timeout=60)
    return first


class TestMicroBatcher:
    def test_results_match_engine(self, mvg_setup, engine):
        model, X_test = mvg_setup
        offline = model.predict(X_test)
        with MicroBatcher(engine, max_batch_size=4) as batcher:
            futures = [batcher.submit(s) for s in X_test]
            labels = [f.result(timeout=60)[0] for f in futures]
        assert labels == list(offline)

    def test_coalesces_a_burst(self, mvg_setup, engine, classify_gate):
        # Requests that arrive while a batch is in the engine become the
        # next batch, whole: no timer decides how many wait together.
        model, X_test = mvg_setup
        burst = 8
        with MicroBatcher(engine, max_batch_size=16) as batcher:
            first = _hold_first_batch(batcher, classify_gate, X_test[0])
            futures = [batcher.submit(X_test[1 + i]) for i in range(burst)]
            classify_gate.release()
            labels = [f.result(timeout=60)[0] for f in [first, *futures]]
            stats = batcher.stats()
        assert stats["requests_accepted"] == burst + 1
        assert stats["batches_dispatched"] == 2
        assert stats["largest_batch"] == burst
        assert labels == list(model.predict(X_test[: burst + 1]))

    def test_burst_is_capped_at_max_batch_size(self, mvg_setup, engine, classify_gate):
        _, X_test = mvg_setup
        with MicroBatcher(engine, max_batch_size=3) as batcher:
            first = _hold_first_batch(batcher, classify_gate, X_test[0])
            futures = [batcher.submit(X_test[1 + i]) for i in range(7)]
            classify_gate.release()
            for future in [first, *futures]:
                future.result(timeout=60)
            stats = batcher.stats()
        # 1 held, then the 7 queued drain as 3 + 3 + 1.
        assert stats["batches_dispatched"] == 4
        assert stats["largest_batch"] == 3

    def test_mean_batch_size_excludes_queued_requests(
        self, mvg_setup, engine, classify_gate
    ):
        _, X_test = mvg_setup
        queued = 5
        with MicroBatcher(engine, max_batch_size=16) as batcher:
            first = _hold_first_batch(batcher, classify_gate, X_test[0])
            futures = [batcher.submit(X_test[1 + i]) for i in range(queued)]
            held = batcher.stats()
            classify_gate.release()
            for future in [first, *futures]:
                future.result(timeout=60)
            drained = batcher.stats()
        assert held["requests_accepted"] == queued + 1
        assert held["batches_dispatched"] == 1
        assert held["mean_batch_size"] == 1.0
        assert drained["batches_dispatched"] == 2
        assert drained["mean_batch_size"] == (queued + 1) / 2

    def test_one_bad_series_does_not_fail_batchmates(
        self, mvg_setup, engine, classify_gate
    ):
        _, X_test = mvg_setup
        with MicroBatcher(engine, max_batch_size=8) as batcher:
            _hold_first_batch(batcher, classify_gate, X_test[2])
            good = batcher.submit(X_test[0])
            bad = batcher.submit([1.0, np.nan, 2.0, 3.0])
            good2 = batcher.submit(X_test[1])
            classify_gate.release()
            assert good.result(timeout=60)[0] is not None
            assert good2.result(timeout=60)[0] is not None
            with pytest.raises(ValueError):
                bad.result(timeout=60)
            assert batcher.stats()["largest_batch"] == 3

    def test_submit_after_close_raises(self, engine):
        batcher = MicroBatcher(engine)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit([1.0, 2.0, 3.0, 4.0])

    def test_close_is_idempotent(self, engine):
        batcher = MicroBatcher(engine)
        batcher.close()
        batcher.close()

    def test_queued_requests_complete_on_close(self, mvg_setup, engine):
        _, X_test = mvg_setup
        batcher = MicroBatcher(engine, max_batch_size=2)
        futures = [batcher.submit(s) for s in X_test[:6]]
        batcher.close()
        assert all(f.result(timeout=60)[0] is not None for f in futures)

    def test_invalid_parameters(self, engine):
        with pytest.raises(ValueError):
            MicroBatcher(engine, max_batch_size=0)

    def test_max_wait_ms_is_deprecated_and_ignored(self, engine, tmp_path):
        with pytest.warns(DeprecationWarning, match="max_wait_ms is deprecated"):
            batcher = MicroBatcher(engine, max_wait_ms=250)
        with batcher:
            assert batcher.stats()["max_wait_ms"] == 0
        store = ModelStore(tmp_path / "store")
        with pytest.warns(DeprecationWarning, match="max_wait_ms is deprecated"):
            build_server_state(store, max_wait_ms=5.0).close()
        with pytest.warns(DeprecationWarning, match="max_wait_ms is deprecated"):
            create_async_server(store, port=0, max_wait_ms=5.0).close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            MicroBatcher(engine).close()
            create_async_server(store, port=0).close()

    def test_concurrent_clients(self, mvg_setup, engine):
        model, X_test = mvg_setup
        offline = list(model.predict(X_test))
        errors: list[Exception] = []

        def client(indices):
            try:
                with_batcher = [batcher.classify(X_test[i])[0] for i in indices]
                assert with_batcher == [offline[i] for i in indices]
            except Exception as exc:  # pragma: no cover — surfaced below
                errors.append(exc)

        with MicroBatcher(engine, max_batch_size=8) as batcher:
            threads = [
                threading.Thread(target=client, args=([i, (i + 3) % 12, (i + 7) % 12],))
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
