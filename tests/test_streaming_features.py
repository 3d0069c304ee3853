"""StreamingFeatureExtractor == batch extraction, bit for bit.

Every tick's vector must equal
:func:`repro.core.features.extract_feature_vector` on the same window —
including configs whose coarse scales cannot ride the PAA alignment and
fall back to full builds, and adversarial tie/rounded values.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FeatureConfig, HEURISTIC_COLUMNS
from repro.core.features import extract_feature_vector
from repro.core.streaming import (
    _LOAD_MIN_POINTS,
    StreamingFeatureExtractor,
    feature_layout_width,
    scale_plan,
)
from repro.graph.incremental import SlidingGraphWindow


def _assert_stream_matches_batch(stream, window, config, stride=1):
    extractor = StreamingFeatureExtractor(window, config)
    ticks = 0
    for t, x in enumerate(stream):
        extractor.push(x)
        if not extractor.filled or (t + 1 - window) % stride:
            continue
        vector = extractor.features()
        expected, names = extract_feature_vector(
            np.asarray(stream[t + 1 - window : t + 1]), config
        )
        assert extractor.feature_names_ == names
        assert np.array_equal(vector, expected), (window, t)
        ticks += 1
    assert ticks > 0
    return extractor


def _count_loads(monkeypatch) -> list[int]:
    """Record the length of every :meth:`SlidingGraphWindow.load`."""
    loads: list[int] = []
    original = SlidingGraphWindow.load

    def load(self, values):
        loads.append(len(values))
        original(self, values)

    monkeypatch.setattr(SlidingGraphWindow, "load", load)
    return loads


class TestBitIdentity:
    @pytest.mark.parametrize("column", ["A", "C", "E", "F", "G"])
    def test_heuristic_columns_power_of_two_window(self, column):
        rng = np.random.default_rng(hash(column) % 1000)
        config = HEURISTIC_COLUMNS[column]
        stream = np.round(rng.normal(size=96), 1)
        _assert_stream_matches_batch(stream, 64, config)

    def test_mixed_alignment_window(self):
        # 96 = 2^5 * 3: scales 48 and 24 stream, nothing falls back.
        rng = np.random.default_rng(1)
        stream = np.round(rng.normal(size=140), 1)
        extractor = _assert_stream_matches_batch(stream, 96, HEURISTIC_COLUMNS["G"])
        assert extractor.full_builds_ == 0

    def test_non_streamable_scale_falls_back(self):
        # 66 -> scale lengths 33, 16; 66 % 16 != 0 (generalised PAA), so
        # the last scale rebuilds per tick while the others stream.
        rng = np.random.default_rng(2)
        stream = np.round(rng.normal(size=100), 1)
        extractor = _assert_stream_matches_batch(stream, 66, HEURISTIC_COLUMNS["G"])
        assert extractor.full_builds_ > 0
        assert extractor.incremental_ticks_ > 0

    def test_window_256_every_phase_slot(self):
        # The served mvg:G shape: five scales, 1 + 2 + 4 + 8 + 16 = 31
        # phase slots.  300 compared ticks carry the eviction front past
        # every vertex each slot held when it filled, so each k-core
        # witness is broken and re-certified at least once.
        rng = np.random.default_rng(5)
        stream = np.round(np.cumsum(rng.normal(size=256 + 299)), 1)
        extractor = _assert_stream_matches_batch(stream, 256, HEURISTIC_COLUMNS["G"])
        assert sum(len(state.slots) for state in extractor._scales) == 31
        assert extractor.full_builds_ == 0

    @pytest.mark.parametrize("window", [48, 96])
    def test_slots_on_both_sides_of_the_load_crossover(self, window, monkeypatch):
        # 48 -> slots of 48 and 24 points, 96 -> 96, 48 and 24: the long
        # slots fill by one batch load, the 24-point ones by pushes.
        loads = _count_loads(monkeypatch)
        rng = np.random.default_rng(window)
        stream = np.round(np.cumsum(rng.normal(size=window + 40)), 1)
        extractor = _assert_stream_matches_batch(stream, window, HEURISTIC_COLUMNS["G"])
        scales = extractor._scales
        long_slots = [s.length for s in scales if s.length >= _LOAD_MIN_POINTS for _ in s.slots]
        assert sorted(loads) == sorted(long_slots)
        assert any(s.length < _LOAD_MIN_POINTS for s in scales)

    def test_slot_a_window_behind_reloads(self, monkeypatch):
        # A stride longer than the window leaves every slot a whole window
        # behind at its next use: it is reset and loaded again.
        loads = _count_loads(monkeypatch)
        rng = np.random.default_rng(6)
        stream = np.round(rng.normal(size=64 + 4 * 70), 1)
        _assert_stream_matches_batch(stream, 64, HEURISTIC_COLUMNS["G"], stride=70)
        assert loads.count(64) == 5 and loads.count(32) == 5

    def test_extended_features(self):
        rng = np.random.default_rng(3)
        stream = np.round(rng.normal(size=80), 1)
        _assert_stream_matches_batch(
            stream, 64, FeatureConfig(features="extended")
        )

    def test_stride_and_gaps(self):
        # Labels every 5 points: phase slots advance by several blocks
        # between uses and must catch up exactly.
        rng = np.random.default_rng(4)
        stream = np.round(rng.normal(size=160), 1)
        _assert_stream_matches_batch(stream, 64, HEURISTIC_COLUMNS["G"], stride=5)

    @given(
        st.lists(st.integers(0, 6), min_size=80, max_size=120),
        st.sampled_from([48, 64]),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_tie_heavy(self, values, window):
        stream = np.asarray(values, dtype=np.float64)
        config = HEURISTIC_COLUMNS["G"]
        extractor = StreamingFeatureExtractor(window, config)
        for t, x in enumerate(stream):
            extractor.push(x)
            if not extractor.filled or t % 7:
                continue
            expected, _ = extract_feature_vector(stream[t + 1 - window : t + 1], config)
            assert np.array_equal(extractor.features(), expected)


class TestPlanAndLayout:
    def test_scale_plan_mirrors_multiscale(self):
        from repro.core.multiscale import multiscale_representation

        for window in (16, 17, 64, 100, 129):
            config = FeatureConfig()
            probe = np.linspace(0.0, 1.0, window)
            lengths = [len(s) for s in multiscale_representation(probe, config.tau)]
            assert [length for _, length in scale_plan(window, config)] == lengths

    def test_scale_plan_respects_selection(self):
        assert scale_plan(64, FeatureConfig(scales="uvg")) == [(0, 64)]
        assert scale_plan(64, FeatureConfig(scales="amvg")) == [(1, 32), (2, 16)]
        with pytest.raises(ValueError, match="no scales"):
            scale_plan(16, FeatureConfig(scales="amvg", tau=15))

    def test_feature_layout_width_matches_extraction(self):
        for window in (32, 64, 100):
            for config in (
                FeatureConfig(),
                FeatureConfig(features="mpds", scales="uvg", graphs="hvg"),
                FeatureConfig(features="extended"),
            ):
                vector, _ = extract_feature_vector(
                    np.linspace(0.0, 1.0, window), config
                )
                assert feature_layout_width(window, config) == vector.size


@pytest.mark.parametrize("column", sorted(HEURISTIC_COLUMNS))
def test_feature_layout_width_is_the_extracted_width(column):
    """The serving tier rejects a series by this arithmetic width before
    extracting it, so it must never disagree with extraction."""
    config = HEURISTIC_COLUMNS[column]
    for n in range(4, 301):
        series = np.sin(np.arange(n) / 3.0)
        try:
            width = feature_layout_width(n, config)
        except ValueError:
            with pytest.raises(ValueError):
                extract_feature_vector(series, config)
            continue
        vector, names = extract_feature_vector(series, config)
        assert width == vector.size == len(names), n


class TestApi:
    def test_push_many_and_window_values(self):
        extractor = StreamingFeatureExtractor(8)
        extractor.push_many(np.arange(10.0))
        assert extractor.count == 10
        assert extractor.filled
        assert np.array_equal(extractor.window_values(), np.arange(2.0, 10.0))

    def test_unfilled_window_raises(self):
        extractor = StreamingFeatureExtractor(8)
        extractor.push(1.0)
        with pytest.raises(ValueError, match="not filled"):
            extractor.features()
        with pytest.raises(ValueError, match="not filled"):
            extractor.window_values()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="window"):
            StreamingFeatureExtractor(3)
        extractor = StreamingFeatureExtractor(8)
        with pytest.raises(ValueError, match="finite"):
            extractor.push(float("inf"))

    def test_long_stream_stays_bounded(self):
        # Ring compaction plus per-scale slot windows: memory does not
        # grow with stream length, and identity holds late.
        rng = np.random.default_rng(8)
        config = HEURISTIC_COLUMNS["E"]
        extractor = StreamingFeatureExtractor(32, config)
        stream = rng.normal(size=1500)
        for x in stream:
            extractor.push(x)
        expected, _ = extract_feature_vector(stream[-32:], config)
        assert np.array_equal(extractor.features(), expected)
        assert extractor._ring._buf.size == 64

    def test_window_256_session_heap_budget(self):
        # One mvg:G session at window 256 with every phase slot warm. The
        # motif banks keep adjacency sets and per-vertex triangle counts
        # only (codegrees and edge triangles are read off the sets), so
        # the Python heap reads ~3.6 MB; a per-pair table would double it.
        stream = np.cumsum(np.random.default_rng(0).standard_normal(256 + 400))
        tracemalloc.start()
        try:
            extractor = StreamingFeatureExtractor(256, FeatureConfig())
            for x in stream:
                extractor.push(x)
                if extractor.filled:
                    extractor.features()
            heap, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert heap <= 5_000_000, heap

    def test_cache_key_parity_with_batch(self):
        # The streaming window hashes to the same cache identity the
        # batch extractor uses — the serving LRU contract.
        from repro.core.batch import series_cache_key

        config = FeatureConfig()
        extractor = StreamingFeatureExtractor(16, config)
        stream = np.random.default_rng(9).normal(size=40)
        for x in stream:
            extractor.push(x)
        assert series_cache_key(
            extractor.window_values(), config
        ) == series_cache_key(np.ascontiguousarray(stream[-16:]), config)
