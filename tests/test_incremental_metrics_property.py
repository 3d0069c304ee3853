"""Property tests pinning delta-maintained metrics to the batch layer.

The contract of :mod:`repro.graph.incremental_metrics` is *value
identity on every prefix and every window*: after any sequence of
pushes (and evictions), each metric bank's value equals the batch
function applied to the current window graph — integers exactly, and
derived floats bit for bit (asserted with ``==``, never ``approx``),
because both paths share one final reduction.  The adversarial float
regimes of the graph-identity suite (tie-heavy, constant/monotone,
PAA block means) are reused: once the graphs agree, the metrics must
too, and these series exercise the densest/most degenerate windows.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.extended_metrics import extended_graph_statistics
from repro.graph.fast import (
    fast_horizontal_visibility_graph_csr,
    fast_visibility_graph_csr,
)
from repro.graph.incremental import SlidingGraphWindow, SlidingVisibilityGraph
from repro.graph.incremental_metrics import (
    GraphDelta,
    IncrementalMetricBank,
    KCoreState,
    MotifState,
)
from repro.graph.adjacency import Graph
from repro.graph.metrics import assortativity_coefficient, degeneracy, graph_statistics
from repro.graph.motifs import count_motifs, count_motifs_bruteforce

KINDS = ("vg", "hvg")

float_series = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=1,
    max_size=60,
).map(np.asarray)

tie_series = st.lists(st.integers(0, 3), min_size=1, max_size=60).map(
    lambda xs: np.asarray(xs, dtype=np.float64)
)

# PAA-mean-like values: averages of rounded normals produce the
# borderline sightlines where float anchoring matters.
paa_series = (
    st.lists(st.integers(-20, 20), min_size=2, max_size=120)
    .map(lambda xs: np.asarray(xs, dtype=np.float64) / 10.0)
    .map(lambda a: a[: 2 * (a.size // 2)].reshape(-1, 2).mean(axis=1))
    .filter(lambda a: a.size >= 1)
)

degenerate_series = st.one_of(
    st.integers(1, 40).map(lambda n: np.zeros(n)),
    st.integers(1, 40).map(lambda n: np.arange(float(n))),
    st.integers(1, 40).map(lambda n: np.arange(float(n))[::-1].copy()),
)

all_series = st.one_of(float_series, tie_series, paa_series, degenerate_series)

windows = st.integers(1, 20)


def make_bank(svg: SlidingVisibilityGraph) -> IncrementalMetricBank:
    return IncrementalMetricBank(svg)


class TestEveryPrefixAndWindow:
    @given(all_series, windows)
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("kind", KINDS)
    def test_statistics_and_motifs_match_batch(self, kind, values, window):
        sliding = SlidingVisibilityGraph(kind, window=window)
        bank = make_bank(sliding)
        for x in values:
            sliding.push(x)
            graph = sliding.graph()
            assert bank.statistics() == graph_statistics(graph)
            assert bank.motifs() == count_motifs(graph)

    @given(all_series)
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("kind", KINDS)
    def test_unbounded_growth_matches_every_prefix(self, kind, values):
        sliding = SlidingVisibilityGraph(kind)
        bank = make_bank(sliding)
        for x in values:
            sliding.push(x)
            graph = sliding.graph()
            assert bank.statistics() == graph_statistics(graph)
            assert bank.motifs() == count_motifs(graph)

    @given(all_series)
    @settings(max_examples=25, deadline=None)
    @pytest.mark.parametrize("kind", KINDS)
    def test_evict_matches_every_suffix(self, kind, values):
        sliding = SlidingVisibilityGraph(kind)
        bank = make_bank(sliding)
        for x in values:
            sliding.push(x)
        while len(sliding):
            sliding.evict()
            graph = sliding.graph()
            assert bank.statistics() == graph_statistics(graph)
            assert bank.motifs() == count_motifs(graph)

    @given(all_series, st.integers(2, 16))
    @settings(max_examples=15, deadline=None)
    @pytest.mark.parametrize("kind", KINDS)
    def test_extended_matches_batch(self, kind, values, window):
        """Extended features bit-identical, including the spectral
        metrics recomputed from the incrementally maintained CSR."""
        sliding = SlidingVisibilityGraph(kind, window=window)
        bank = make_bank(sliding)
        for t, x in enumerate(values):
            sliding.push(x)
            if t % 3 == 0 or t == values.size - 1:
                assert bank.extended() == extended_graph_statistics(sliding.graph())

    @given(all_series, st.integers(2, 9))
    @settings(max_examples=20, deadline=None)
    @pytest.mark.parametrize("kind", KINDS)
    def test_bruteforce_cross_check_on_small_windows(self, kind, values, window):
        """The maintained counts agree with direct subset classification
        — an oracle independent of both counting paths' identities."""
        sliding = SlidingVisibilityGraph(kind, window=window)
        bank = make_bank(sliding)
        for x in values:
            sliding.push(x)
            assert bank.motifs() == count_motifs_bruteforce(sliding.graph())

    @given(tie_series, st.integers(2, 10))
    @settings(max_examples=15, deadline=None)
    def test_clear_resets_the_bank(self, values, window):
        for kind in KINDS:
            sliding = SlidingVisibilityGraph(kind, window=window)
            bank = make_bank(sliding)
            for x in values:
                sliding.push(x)
            sliding.clear()
            for x in values[::-1]:
                sliding.push(x)
                graph = sliding.graph()
                assert bank.statistics() == graph_statistics(graph)
                assert bank.motifs() == count_motifs(graph)


class TestKCoreRepair:
    @given(all_series, st.integers(2, 16))
    @settings(max_examples=25, deadline=None)
    def test_lazy_repair_is_exact_under_drift(self, values, window):
        """value() equals the batch peel — both when queried after every
        push (certificate checks) and once after all pushes (the
        binary-search recompute)."""
        for kind in KINDS:
            eager = SlidingVisibilityGraph(kind, window=window)
            eager_state = KCoreState(eager.csr)
            eager.subscribe(eager_state.apply)
            lazy = SlidingVisibilityGraph(kind, window=window)
            lazy_state = KCoreState(lazy.csr)
            lazy.subscribe(lazy_state.apply)
            for x in values:
                eager.push(x)
                lazy.push(x)
                assert eager_state.value() == degeneracy(eager.graph())
            assert lazy_state.value() == degeneracy(lazy.graph())

    @given(all_series, st.integers(1, 16), st.lists(st.integers(0, 9), max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_irregular_queries_evictions_and_clears(self, values, window, ops):
        """value() stays exact when pushes, explicit evictions and clears
        pile up between queries (op 0 evicts, 1 clears, 2-4 push and
        query, 5-9 push only)."""
        for kind in KINDS:
            sliding = SlidingVisibilityGraph(kind, window=window)
            state = KCoreState(sliding.csr)
            sliding.subscribe(state.apply)
            for step, op in enumerate(ops):
                if op == 0 and len(sliding):
                    sliding.evict()
                elif op == 1:
                    sliding.clear()
                else:
                    sliding.push(values[step % values.size])
                if 2 <= op <= 4:
                    assert state.value() == degeneracy(sliding.graph())
            assert state.value() == degeneracy(sliding.graph())

    def test_single_event_moves_degeneracy_by_at_most_one(self):
        """Degeneracy moves by at most one per vertex event."""
        rng = np.random.default_rng(3)
        series = np.cumsum(rng.standard_normal(160))
        for kind in KINDS:
            sliding = SlidingVisibilityGraph(kind, window=24)
            previous = 0
            for x in series:
                sliding.push(x)
                current = degeneracy(sliding.graph())
                # A push on a full window is two events (evict + push).
                assert abs(current - previous) <= 2
                previous = current


class TestDeltaStream:
    def test_push_emits_add_with_created_edges(self):
        sliding = SlidingVisibilityGraph("hvg", window=4)
        seen: list[GraphDelta] = []
        sliding.subscribe(seen.append)
        for x in (1.0, 3.0, 2.0, 4.0, 0.5):
            sliding.push(x)
        ops = [d.op for d in seen]
        assert ops == ["add", "add", "add", "add", "remove", "add"]
        assert seen[0].neighbors.size == 0  # first point creates no edges
        assert seen[4].vertex == 0  # the eviction drops the oldest point

    def test_load_emits_one_load_carrying_the_graph(self):
        sliding = SlidingVisibilityGraph("hvg", window=4)
        seen: list[GraphDelta] = []
        sliding.subscribe(seen.append)
        sliding.push(5.0)
        sliding.clear()
        values = np.array([1.0, 3.0, 2.0, 4.0])
        graph = fast_horizontal_visibility_graph_csr(values)
        sliding.load(values, graph)
        sliding.push(0.5)
        ops = [d.op for d in seen]
        assert ops == ["add", "clear", "load", "remove", "add"]
        load = seen[2]
        # Global ids keep counting after the clear: the loaded window
        # starts at vertex 1, and the first eviction drops it.
        assert load.vertex == 1 and load.graph is graph
        assert load.neighbors.size == 0
        assert seen[3].vertex == 1
        assert seen[3].neighbors.tolist() == [2]
        assert seen[4].vertex == 5

    def test_motif_state_survives_out_of_order_edge_removal(self):
        """Remove deltas drain the adjacency and triangle tables and every
        running sum cleanly whatever the neighbour order (a K4 torn down
        edge by edge)."""
        state = MotifState()
        state.apply(GraphDelta("add", 0, np.array([], dtype=np.int64)))
        state.apply(GraphDelta("add", 1, np.array([0], dtype=np.int64)))
        state.apply(GraphDelta("add", 2, np.array([0, 1], dtype=np.int64)))
        state.apply(GraphDelta("add", 3, np.array([0, 1, 2], dtype=np.int64)))
        assert state.value().m41 == 1
        state.apply(GraphDelta("remove", 0, np.array([1, 2, 3], dtype=np.int64)))
        counts = state.value()
        assert counts.m41 == 0 and counts.m31 == 1
        state.apply(GraphDelta("remove", 2, np.array([1, 3], dtype=np.int64)))
        state.apply(GraphDelta("remove", 1, np.array([3], dtype=np.int64)))
        state.apply(GraphDelta("remove", 3, np.array([], dtype=np.int64)))
        assert state._adj == {} and state._tri_v == {}
        primitives = dataclasses.asdict(state.primitives())
        assert primitives.pop("n") == 0
        assert set(primitives.values()) == {0}
        assert state.value().m21 == 0


random_walks = st.lists(
    st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1, max_size=60
).map(lambda xs: np.cumsum(xs))

tiny_series = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=0, max_size=3
).map(lambda xs: np.asarray(xs, dtype=np.float64))

load_series = st.one_of(all_series, random_walks, tiny_series)


def _filled(kinds, window, values, *, load, offset, evict):
    """A sliding window with one metric bank per kind, filled with
    ``values`` by one load or by pushes, after ``offset`` pushed points
    (their metrics read once) were evicted one by one or cleared."""
    sliding = SlidingGraphWindow(kinds, window=window)
    banks = {kind: make_bank(svg) for kind, svg in sliding.graphs.items()}
    for x in range(offset):
        sliding.push(float(x % 3))
    for bank in banks.values():
        bank.statistics()
    if evict:
        while len(sliding):
            sliding.evict()
    elif offset:
        sliding.clear()
    if load:
        sliding.load(values)
    else:
        for x in values:
            sliding.push(x)
    return sliding, banks


class TestLoadEqualsReplay:
    """Loading an empty window from one batch build leaves exactly the
    state pushing its points would, and every later event agrees."""

    @given(
        load_series,
        st.integers(0, 5),
        st.integers(0, 6),
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 5), st.floats(-10, 10)), max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    @pytest.mark.parametrize("kinds", [("vg", "hvg"), ("hvg",)])
    def test_load_then_any_events(self, kinds, values, slack, offset, evict, ops):
        window = max(values.size + slack, 1)
        fill = dict(offset=offset, evict=evict)
        replayed, replay_banks = _filled(kinds, window, values, load=False, **fill)
        loaded, load_banks = _filled(kinds, window, values, load=True, **fill)
        for kind in kinds:
            a, b = replayed.graphs[kind], loaded.graphs[kind]
            assert a.csr() == b.csr()
            assert np.array_equal(a.degree_array(), b.degree_array())
            assert list(a._stack) == list(b._stack)
            assert a._rmax == b._rmax
            ma, mb = replay_banks[kind].motif_state, load_banks[kind].motif_state
            assert ma.primitives() == mb.primitives()
            assert ma._adj == mb._adj
            assert ma._tri_v == mb._tri_v
            assert replay_banks[kind].statistics() == load_banks[kind].statistics()
        # The same events afterwards (op 0 evicts, 1 clears, 2-5 push,
        # 5 then reads the metrics) emit the same deltas and keep every
        # metric equal.
        streams: list[list[GraphDelta]] = [[], []]
        for sliding, seen in zip((replayed, loaded), streams):
            for svg in sliding.graphs.values():
                svg.subscribe(seen.append)
        for op, x in ops:
            for sliding in (replayed, loaded):
                if op == 0 and len(sliding):
                    sliding.evict()
                elif op == 1:
                    sliding.clear()
                elif op > 1:
                    sliding.push(x)
            if op == 5:
                for kind in kinds:
                    assert replay_banks[kind].statistics() == load_banks[kind].statistics()
        assert [(d.op, d.vertex, d.neighbors.tolist()) for d in streams[0]] == [
            (d.op, d.vertex, d.neighbors.tolist()) for d in streams[1]
        ]
        for kind in kinds:
            assert replay_banks[kind].statistics() == load_banks[kind].statistics()
            assert replay_banks[kind].motifs() == load_banks[kind].motifs()
            assert replayed.csr(kind) == loaded.csr(kind)

    def test_load_needs_an_empty_window_that_fits(self):
        sliding = SlidingGraphWindow(("vg", "hvg"), window=4)
        with pytest.raises(ValueError, match="window of 4"):
            sliding.load(np.arange(5.0))
        sliding.push(1.0)
        with pytest.raises(ValueError, match="empty window"):
            sliding.load(np.arange(3.0))
        sliding.clear()
        sliding.load(np.arange(4.0))
        assert len(sliding) == 4
        with pytest.raises(ValueError, match="empty window"):
            sliding.load(np.arange(2.0))

    def test_unbounded_window_grows_to_fit_a_load(self):
        values = np.cumsum(np.random.default_rng(2).standard_normal(200))
        loaded = SlidingVisibilityGraph("vg")
        loaded.load(values, fast_visibility_graph_csr(values))
        replayed = SlidingVisibilityGraph("vg")
        for x in values:
            replayed.push(x)
        for x in values[:50]:
            loaded.push(x)
            replayed.push(x)
        assert loaded.csr() == replayed.csr()
        assert np.array_equal(loaded.values(), replayed.values())


def _edge_set(n: int, pairs) -> tuple[int, frozenset]:
    return n, frozenset((min(u, v), max(u, v)) for u, v in pairs)


@st.composite
def gnp_graphs(draw):
    n = draw(st.integers(1, 10))
    p = draw(st.sampled_from((0.2, 0.5, 0.8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    upper = np.argwhere(np.triu(rng.random((n, n)) < p, k=1))
    return _edge_set(n, upper.tolist())


star_graphs = st.integers(2, 12).map(lambda n: _edge_set(n, [(0, v) for v in range(1, n)]))

wheel_graphs = st.integers(4, 12).map(
    lambda n: _edge_set(
        n,
        [(0, v) for v in range(1, n)] + [(v, v % (n - 1) + 1) for v in range(1, n)],
    )
)

complete_graphs = st.integers(4, 6).map(
    lambda n: _edge_set(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
)

target_graphs = st.one_of(gnp_graphs(), star_graphs, wheel_graphs, complete_graphs)


class TestBareMotifState:
    """A :class:`MotifState` driven by hand-made vertex events over graphs
    no visibility window produces: hubs (stars, wheels) and dense common
    neighbourhoods (cliques, dense G(n, p)) load the set-intersection
    sums far more than VG windows do."""

    @given(target_graphs, st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_adds_and_removes_match_batch(self, target, data):
        n, edges = target
        state = MotifState()
        ids: dict[int, int] = {}  # present label -> vertex id (never reused)
        next_id = 0
        absent = list(range(n))
        for _ in range(data.draw(st.integers(1, 3 * n + 4), label="events")):
            if ids and absent:
                add = data.draw(st.booleans(), label="add")
            else:
                add = bool(absent)
            if add:
                label = absent.pop(data.draw(st.integers(0, len(absent) - 1)))
            else:
                label = data.draw(st.sampled_from(sorted(ids)), label="removed")
                vertex = ids.pop(label)
                absent.append(label)
            present = [x for x in ids if (min(label, x), max(label, x)) in edges]
            order = data.draw(st.permutations(present), label="neighbour order")
            if add:
                ids[label] = vertex = next_id
                next_id += 1
            neighbors = np.array([ids[x] for x in order], dtype=np.int64)
            state.apply(GraphDelta("add" if add else "remove", vertex, neighbors))
            position = {label: i for i, label in enumerate(sorted(ids))}
            graph = Graph(
                len(position),
                [(position[u], position[v]) for u, v in edges if {u, v} <= ids.keys()],
            )
            counts = state.value()
            assert counts == count_motifs(graph)
            if len(position) <= 8:
                assert counts == count_motifs_bruteforce(graph)
            assert state.assortativity() == assortativity_coefficient(graph)


class TestStreamingExtractorEndToEnd:
    def test_extended_config_streaming_equals_batch(self):
        from repro.core.config import FeatureConfig
        from repro.core.features import extract_feature_vector
        from repro.core.streaming import StreamingFeatureExtractor

        rng = np.random.default_rng(11)
        series = np.cumsum(rng.standard_normal(96))
        config = FeatureConfig(features="extended")
        window = 64
        extractor = StreamingFeatureExtractor(window, config)
        for t, x in enumerate(series):
            extractor.push(x)
            if extractor.filled:
                streamed = extractor.features()
                batch, _ = extract_feature_vector(
                    series[t + 1 - window : t + 1], config
                )
                np.testing.assert_array_equal(streamed, batch)

    def test_phase_split_accounts_for_the_tick(self):
        from repro.core.streaming import StreamingFeatureExtractor

        extractor = StreamingFeatureExtractor(32)
        extractor.push_many(np.linspace(0.0, 5.0, 40))
        extractor.features()
        phases = extractor.last_phase_seconds_
        assert set(phases) == {"graph", "metrics"}
        assert phases["graph"] >= 0.0 and phases["metrics"] > 0.0
        assert extractor.features_served_ == 1
        extractor.features()
        assert extractor.features_served_ == 2
