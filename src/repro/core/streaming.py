"""Streaming (sliding-window) MVG feature extraction.

:class:`StreamingFeatureExtractor` produces, for every tick of a
sliding window over an unbounded series, the *same* feature vector
:func:`repro.core.features.extract_feature_vector` would produce for
that window (bit-identical; property-tested in
``tests/test_streaming_features.py``) — without rebuilding the window's
visibility graphs from scratch:

* **scale 0** is one :class:`~repro.graph.incremental.SlidingGraphWindow`
  advanced a point at a time;
* **downscaled scales** ride the PAA alignment: at scale ``i`` the
  window is averaged in blocks of ``2^i`` points, and a window whose
  start has the same residue mod ``2^i`` reuses the *same* block means
  shifted by whole blocks.  The extractor therefore keeps a small bank
  of phase slots per scale (``2^i`` of them, allocated lazily); each
  tick exactly one slot per scale advances by one coarse point while
  the rest stay frozen until their phase comes round again.  Scales the
  alignment cannot serve (window not divisible into ``2^i`` blocks, the
  generalised fractional-PAA regime) fall back to a full batch build of
  that scale's graphs — correct, just not incremental.

Graph *construction* and graph *metrics* are both delta-maintained:
each sliding graph feeds its push/evict edge deltas to an
:class:`~repro.graph.incremental_metrics.IncrementalMetricBank` (one
motif accumulator plus a VG k-core state), which folds them into
O(degree)-local accumulators (motif primitives, degree moments, k-core
certificates) and derives the per-tick values through
the *same* final reductions the batch metric functions use.  That
shared derivation is what makes bit-identity a structural property
rather than a numerical accident: equal window graphs give equal
integer accumulators give equal floats.  Scales the PAA alignment
cannot serve keep using the batch metric functions on freshly built
graphs — the same values, just recomputed.

The per-window vector also shares the batch cache identity
(:func:`repro.core.batch.series_cache_key` of the window under the same
config), which is how the serving tier's feature LRU lets streaming and
one-shot classify traffic reuse each other's work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.config import FeatureConfig
from repro.core.features import (
    _build_scale_graphs,
    _fill_graph_rows,
    feature_layout,
    feature_layout_width,
    graph_feature_labels,
    scale_plan,
)
from repro.core.multiscale import paa
from repro.graph.incremental import SlidingGraphWindow
from repro.graph.incremental_metrics import IncrementalMetricBank
from repro.graph.metrics import STAT_KEYS
from repro.graph.motifs import MOTIF_NAMES

__all__ = [
    "SlidingWindowBuffer",
    "StreamingFeatureExtractor",
    "check_window_layout",
    "feature_layout_width",
    "scale_plan",
]


def check_window_layout(
    window: int, config: FeatureConfig, expected: int, model_label: str
) -> None:
    """Raise ``ValueError`` when a ``window``-point stream cannot feed a
    model fitted on ``expected`` features.

    One shared message for the server (mapped to a 400 at session
    create) and the local ``stream`` CLI, so the two surfaces reject
    the same windows with the same wording.
    """
    width = feature_layout_width(window, config)
    if width != expected:
        raise ValueError(
            f"window of {window} points yields {width} features, but "
            f"{model_label} was fitted on a layout of {expected}; use the "
            "training series length"
        )


class SlidingWindowBuffer:
    """The last ``window`` points of a stream, O(1) amortised per push.

    A ``2 * window`` backing array: pushes append until the write head
    hits the end, then the live half slides down once — so the current
    window is always one contiguous slice.  Shared by the feature
    extractor (raw-point ring) and generic stream sessions.

    Parameters
    ----------
    window:
        Window length in points.
    backing:
        Optional preallocated float64 array of at least ``2 * window``
        elements to use as the ring storage (a slab row from
        :class:`repro.core.slab.SlabPool`); ownership stays with the
        caller, who releases it after the buffer is discarded.

    Thread safety: none — the owner serialises access (stream sessions
    hold their session lock around every push/view).
    """

    __slots__ = ("window", "_buf", "_pos", "count")

    def __init__(self, window: int, backing: np.ndarray | None = None):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        if backing is None:
            self._buf = np.empty(2 * self.window, dtype=np.float64)
        else:
            if backing.ndim != 1 or backing.size < 2 * self.window:
                raise ValueError(
                    f"backing must hold at least {2 * self.window} elements, "
                    f"got shape {backing.shape}"
                )
            if backing.dtype != np.float64:
                raise ValueError(f"backing must be float64, got {backing.dtype}")
            self._buf = backing[: 2 * self.window]
        self._pos = 0
        self.count = 0

    @property
    def filled(self) -> bool:
        return self.count >= self.window

    def push(self, value: float) -> None:
        if self._pos == self._buf.size:
            self._buf[: self.window] = self._buf[self.window :]
            self._pos = self.window
        self._buf[self._pos] = value
        self._pos += 1
        self.count += 1

    def view(self) -> np.ndarray:
        """The current window as a zero-copy slice (do not mutate)."""
        if not self.filled:
            raise ValueError(f"window not filled: {self.count}/{self.window} points")
        return self._buf[self._pos - self.window : self._pos]

    def values(self) -> np.ndarray:
        """The current window, oldest first (a copy)."""
        return self.view().copy()


class _PhaseClock:
    """Accumulator splitting a tick's wall clock into phases.

    Metric banks add the time their ``apply`` spends folding deltas (it
    runs *inside* the graph-maintenance pushes); the extractor then
    reassigns that share from the graph phase to the metric phase.
    """

    __slots__ = ("applied",)

    now = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self.applied = 0.0

    def add(self, elapsed: float) -> None:
        self.applied += elapsed


@dataclass
class _ScaleSlot:
    """One phase of one downscaled scale: its sliding graphs, their
    metric banks, plus the global index of the next raw block to fold
    in."""

    graphs: SlidingGraphWindow
    next_start: int
    banks: dict[str, IncrementalMetricBank] = field(default_factory=dict)

    def reset(self, start: int) -> None:
        self.graphs.clear()  # emits "clear" deltas: the banks reset too
        self.next_start = start


@dataclass
class _ScaleState:
    """Per-scale streaming state (``block == 1`` is scale 0)."""

    scale: int
    length: int
    block: int
    streamable: bool
    slots: dict[int, _ScaleSlot] = field(default_factory=dict)


class StreamingFeatureExtractor:
    """Per-tick MVG features of a sliding window over a point stream.

    Parameters
    ----------
    window:
        Window length in raw points (>= 4; the classifier input length).
    config:
        Feature configuration; must match the model the features feed.
    slab:
        Optional :class:`repro.core.slab.SlabPool`.  When given, the
        raw-point ring and every phase slot's graph buffers are slab
        rows acquired from the pool and returned by :meth:`close` —
        the footprint that lets thousands of sessions churn without
        allocator pressure.

    Usage::

        extractor = StreamingFeatureExtractor(window=256)
        for x in stream:
            extractor.push(x)
            if extractor.filled:
                vector = extractor.features()   # == batch extraction

    ``push`` is O(1); all graph maintenance happens inside
    :meth:`features`, which advances each scale's active phase slot by
    the blocks completed since that phase last served a tick (one block
    per tick at stride 1) and re-extracts the metric features.

    Thread safety: none — an extractor belongs to one stream session,
    whose lock serialises every call.  A shared ``slab`` pool must be
    thread-safe (``SlabPool`` is).
    """

    def __init__(
        self, window: int, config: FeatureConfig | None = None, slab=None
    ):
        self.config = config or FeatureConfig()
        if window < 4:
            raise ValueError(f"window must be >= 4, got {window}")
        self.window = int(window)
        self._slab = slab
        self._plan = scale_plan(self.window, self.config)
        self._scales: list[_ScaleState] = []
        for scale, length in self._plan:
            block = self.window // length
            streamable = (
                scale == 0
                or (self.window % length == 0 and block == 1 << scale)
            )
            self._scales.append(_ScaleState(scale, length, block, streamable))
        if slab is None:
            self._ring = SlidingWindowBuffer(self.window)
            self._ring_row = None
        else:
            self._ring_row = slab.acquire(2 * self.window)
            self._ring = SlidingWindowBuffer(self.window, backing=self._ring_row)
        self._phase_clock = _PhaseClock()
        config = self.config
        self.feature_names_ = list(feature_layout(config, len(self._plan)))
        #: ``(scale, graph type, feature)``: the shape of a tick's row.
        self._rows_shape = (
            len(self._plan),
            len(config.graph_types()),
            len(graph_feature_labels(config.include_stats, config.include_extended)),
        )
        #: Introspection: slots advanced incrementally vs full scale
        #: rebuilds (the fallback path) over this extractor's lifetime.
        self.incremental_ticks_ = 0
        self.full_builds_ = 0
        #: Completed :meth:`features` calls (lets callers detect whether
        #: a tick actually extracted or was served from a cache).
        self.features_served_ = 0
        #: Wall-clock split of the last :meth:`features` call:
        #: ``graph`` (window/PAA upkeep + visibility-graph maintenance)
        #: vs ``metrics`` (delta folding + metric value derivation).
        self.last_phase_seconds_: dict[str, float] = {"graph": 0.0, "metrics": 0.0}

    # -- the point stream --------------------------------------------------
    @property
    def count(self) -> int:
        """Points pushed so far."""
        return self._ring.count

    @property
    def filled(self) -> bool:
        """Whether a full window is available."""
        return self._ring.filled

    def push(self, value: float) -> None:
        """Append one point to the stream."""
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"series values must be finite, got {value!r}")
        self._ring.push(value)

    def push_many(self, values) -> None:
        """Append a batch of points."""
        for value in np.asarray(values, dtype=np.float64).ravel():
            self.push(value)

    def window_values(self) -> np.ndarray:
        """The current window, oldest first (a copy)."""
        return self._ring.values()

    def close(self) -> None:
        """Return every slab row to the pool (idempotent).

        Called on session close; the extractor is unusable afterwards.
        A no-op for extractors built without a slab pool.
        """
        if self._slab is None:
            return
        for state in self._scales:
            for slot in state.slots.values():
                slot.graphs.release_buffers()
            state.slots.clear()
        slab, self._slab = self._slab, None
        if self._ring_row is not None:
            slab.release(self._ring_row)
            self._ring_row = None

    # -- feature extraction ------------------------------------------------
    def features(self) -> np.ndarray:
        """The window's feature vector (names in ``feature_names_``).

        Bit-identical to
        ``extract_feature_vector(window_values(), config)[0]``.
        """
        window = self._ring.view()  # raises until the window fills
        start = self._ring.count - self.window
        clock = self._phase_clock
        clock.applied = 0.0
        t0 = clock.now()
        fillers = [
            self._advance_scale(
                state,
                window if state.scale == 0 else paa(window, state.length),
                start,
            )
            for state in self._scales
        ]
        t1 = clock.now()
        rows = np.empty(self._rows_shape, dtype=np.float64)
        for out, fill in zip(rows, fillers):
            fill(out)
        t2 = clock.now()
        # Delta folding ran inside the maintenance pushes; reassign its
        # share so the split reads graph-upkeep vs metric work.
        self.last_phase_seconds_ = {
            "graph": (t1 - t0) - clock.applied,
            "metrics": (t2 - t1) + clock.applied,
        }
        self.features_served_ += 1
        return rows.ravel()

    def _advance_scale(
        self, state: _ScaleState, scaled: np.ndarray, start: int
    ) -> Callable[[np.ndarray], None]:
        """Bring one scale's graphs to the window at ``start`` and return
        the function that writes their features into the scale's rows
        (one row per graph type, in :func:`graph_feature_labels` order).

        Streamable scales advance the phase slot matching the window's
        block alignment; its metric banks fold the resulting edge deltas
        as they happen, so the rows only need final values — no graph
        materialisation, no batch recomputation.  Non-streamable scales
        rebuild the scale's graphs and fall back to the batch metric
        functions (same values, recomputed).
        """
        config = self.config
        graph_types = config.graph_types()
        if not state.streamable:
            self.full_builds_ += 1
            graphs = _build_scale_graphs([np.ascontiguousarray(scaled)], graph_types)

            def fill(out: np.ndarray) -> None:
                for position, kind in enumerate(graph_types):
                    _fill_graph_rows(
                        out[position : position + 1],
                        graphs[kind],
                        horizontal=kind == "hvg",
                        include_stats=config.include_stats,
                        include_extended=config.include_extended,
                    )

            return fill
        block = state.block
        phase = start % block
        slot = state.slots.get(phase)
        if slot is None:
            slot = state.slots[phase] = self._new_slot(state, start)
        if slot.next_start < start or slot.next_start > start + self.window:
            # This phase fell a whole window behind (large stride or a
            # long gap between feature calls): start it over.
            slot.reset(start)
        end = start + self.window
        while slot.next_start <= end - block:
            slot.graphs.push(scaled[(slot.next_start - start) // block])
            slot.next_start += block
        self.incremental_ticks_ += 1
        banks = [slot.banks[kind] for kind in graph_types]

        def fill(out: np.ndarray) -> None:
            for row, bank in zip(out, banks):
                self._fill_bank_row(row, bank)

        return fill

    def _new_slot(self, state: _ScaleState, start: int) -> _ScaleSlot:
        """A phase slot with one metric bank per graph kind, subscribed
        before any point is pushed so the banks see every delta."""
        slot = _ScaleSlot(
            SlidingGraphWindow(
                self.config.graph_types(), window=state.length, allocator=self._slab
            ),
            start,
        )
        for kind, svg in slot.graphs.graphs.items():
            slot.banks[kind] = IncrementalMetricBank(svg, phase_clock=self._phase_clock)
        return slot

    def _fill_bank_row(self, row: np.ndarray, bank: IncrementalMetricBank) -> None:
        """Write one graph's features from its delta-maintained bank into
        ``row`` — the streaming twin of
        :func:`~repro.core.features._fill_graph_rows`."""
        column = len(MOTIF_NAMES)
        row[:column] = bank.motifs().probabilities()
        if self.config.include_stats:
            row[column : column + len(STAT_KEYS)] = tuple(bank.statistics().values())
            column += len(STAT_KEYS)
        if self.config.include_extended:
            row[column:] = tuple(bank.extended().values())
