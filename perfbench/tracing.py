"""Spans recorded from outside the program, and the per-layer figures built on them.

The server launcher (and the sweep child) call :func:`install` before
they serve: it replaces each public function or method in :data:`TARGETS`
with a wrapper that records one span per call — name, thread, start,
end, the span that was open on the same thread when it began, and an
optional tag such as the graph kind.  Wrappers cost one flag test while
tracing is off, so one process can measure untraced and traced phases.

Spans stay in memory and are written out once, when the process ends
(:meth:`Tracer.dump`).  :func:`layer_metrics` turns a dump into the
per-layer metrics of ``perfbench/README.md``; self time is a span's
duration minus the durations of its child spans.

Several functions are bound by name into the modules that call them
(``from repro.graph.motifs import count_motifs`` in ``repro.core.features``),
so each target names the namespace the caller looks the name up in.  A
binding no workload calls would silently measure nothing, which is what
``perfbench/selftest.py`` checks for.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from collections import defaultdict, deque
from time import perf_counter

#: ``(span name, module, attribute path)`` of every wrapped binding.
#: The attribute path is ``func`` for a module-level binding or
#: ``Class.method`` for a method.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("serve.http.route", "repro.serve.aio", "route_request"),
    ("serve.http.parse", "repro.serve.http", "parse_json_body"),
    ("serve.engine.submit", "repro.serve.engine", "MicroBatcher.submit"),
    ("serve.engine.classify_batch", "repro.serve.engine", "InferenceEngine.classify_batch"),
    ("serve.engine.classify_stream", "repro.serve.engine", "InferenceEngine.classify_stream"),
    ("serve.engine.cache_key", "repro.serve.engine", "series_cache_key"),
    ("serve.stream.submit_append", "repro.serve.stream", "StreamScheduler.submit_append"),
    ("serve.stream.append_chunk", "repro.serve.stream", "StreamSession.append_chunk"),
    ("core.batch.transform", "repro.core.batch", "BatchFeatureExtractor.transform"),
    ("core.extract", "repro.core.batch", "extract_feature_vector"),
    ("graph.build", "repro.core.features", "_build_scale_graphs"),
    ("graph.fast.visibility_graphs", "repro.graph.fast", "visibility_graphs"),
    ("graph.motifs", "repro.core.features", "count_motifs"),
    ("graph.stats", "repro.core.features", "graph_statistics"),
    ("graph.kcore", "repro.graph.metrics", "degeneracy"),
    ("core.stream.features", "repro.core.streaming", "StreamingFeatureExtractor.features"),
    ("graph.sliding.push", "repro.graph.incremental", "SlidingVisibilityGraph.push"),
    ("graph.sliding.evict", "repro.graph.incremental", "SlidingVisibilityGraph.evict"),
    ("graph.bank.apply", "repro.graph.incremental_metrics", "IncrementalMetricBank.apply"),
    ("graph.bank.kcore", "repro.graph.incremental_metrics", "KCoreState.value"),
    ("graph.bank.motifs.apply", "repro.graph.incremental_metrics", "MotifState.apply"),
    ("graph.bank.motifs.value", "repro.graph.incremental_metrics", "MotifState.value"),
    ("ml.predict", "repro.core.pipeline", "MVGClassifier.predict_from_features"),
    ("ml.predict_proba", "repro.core.pipeline", "MVGClassifier.predict_proba_from_features"),
    ("ml.fit", "repro.ml.model_selection", "GridSearchCV.fit"),
    ("experiments.evaluate_mvg", "repro.experiments.harness", "evaluate_mvg"),
)

#: Which workloads must record at least one span of each binding
#: (checked by ``perfbench/selftest.py``).
COVERAGE: dict[str, tuple[str, ...]] = {
    "serve.http.route": ("classify_cold", "classify_hot", "stream_mvg"),
    "serve.http.parse": ("classify_cold", "classify_hot", "stream_mvg"),
    "serve.engine.submit": ("classify_cold", "classify_hot"),
    "serve.engine.classify_batch": ("classify_cold", "classify_hot"),
    "serve.engine.classify_stream": ("stream_mvg",),
    "serve.engine.cache_key": ("classify_cold", "classify_hot", "stream_mvg"),
    "serve.stream.submit_append": ("stream_mvg",),
    "serve.stream.append_chunk": ("stream_mvg",),
    "core.batch.transform": ("classify_cold", "table2_sweep"),
    "core.extract": ("classify_cold", "table2_sweep"),
    "graph.build": ("classify_cold", "table2_sweep"),
    "graph.fast.visibility_graphs": ("classify_cold", "table2_sweep"),
    "graph.motifs": ("classify_cold", "table2_sweep"),
    "graph.stats": ("classify_cold", "table2_sweep"),
    "graph.kcore": ("classify_cold", "table2_sweep"),
    "core.stream.features": ("stream_mvg",),
    "graph.sliding.push": ("stream_mvg",),
    "graph.sliding.evict": ("stream_mvg",),
    "graph.bank.apply": ("stream_mvg",),
    "graph.bank.kcore": ("stream_mvg",),
    "graph.bank.motifs.apply": ("stream_mvg",),
    "graph.bank.motifs.value": ("stream_mvg",),
    "ml.predict": ("classify_cold", "classify_hot", "stream_mvg"),
    "ml.predict_proba": ("classify_cold", "classify_hot", "stream_mvg"),
    "ml.fit": ("table2_sweep",),
    "experiments.evaluate_mvg": ("table2_sweep",),
}


class Tracer:
    """In-memory span and event recorder shared by every wrapper.

    ``enabled`` is flipped by the launcher between phases; wrappers
    record nothing while it is false.  Records are appended from many
    threads; ``list.append`` is atomic, and each thread keeps its own
    stack of open spans for parent links.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.events: dict[str, list[float]] = defaultdict(list)
        self.calls: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        #: ``id(graph) -> "vg" | "hvg"`` for graphs built while tracing,
        #: so motif and k-core spans can be split by graph kind.
        self.graph_kinds: dict[int, str] = {}
        #: Submit times waiting for their micro-batch, per engine.
        self.batch_queue: dict[int, deque] = defaultdict(deque)
        #: ``[submit time, points left]`` per stream session, in order.
        self.append_queue: dict[str, deque] = defaultdict(deque)

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def event(self, name: str, value: float) -> None:
        if self.enabled:
            self.events[name].append(value)

    def dump(self, path: str) -> None:
        """Write spans (parents as indices), events and call counts."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            [name, tag, tid, start, end if end is not None else start,
             index.get(id(parent), -1) if parent is not None else -1]
            for name, tag, tid, start, end, parent in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(
                {"spans": rows, "events": dict(self.events), "calls": dict(self.calls)},
                handle,
            )


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _span_wrapper(tracer: Tracer, name: str, binding: str, fn, tag_fn=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.calls[binding] += 1
        stack = tracer.stack()
        record = [
            name,
            tag_fn(tracer, args) if tag_fn is not None else None,
            threading.get_ident(),
            perf_counter(),
            None,
            stack[-1] if stack else None,
        ]
        tracer.spans.append(record)
        stack.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = perf_counter()
            stack.pop()

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every binding in :data:`TARGETS`, plus the bookkeeping
    hooks for queue waits, cache counters and graph kinds."""
    for name, module_name, path in TARGETS:
        owner, attr = _resolve(module_name, path)
        fn = getattr(owner, attr)
        binding = f"{module_name}:{path}"
        tag_fn = _TAGGERS.get(name)
        wrapped = _span_wrapper(tracer, name, binding, fn, tag_fn)
        hook = _HOOKS.get(name)
        if hook is not None:
            wrapped = hook(tracer, wrapped)
        setattr(owner, attr, wrapped)


# -- tags ---------------------------------------------------------------------

def _rows(args) -> int:
    return int(getattr(args[1], "shape", (1,))[0]) if len(args) > 1 else 1


def _graph_kind(tracer: Tracer, args) -> str:
    return tracer.graph_kinds.get(id(args[0]), "unknown")


#: ``tag(tracer, args)`` per span name.
_TAGGERS = {
    "core.batch.transform": lambda tracer, args: _rows(args),
    "ml.predict": lambda tracer, args: _rows(args),
    "ml.predict_proba": lambda tracer, args: _rows(args),
    "serve.engine.classify_batch": lambda tracer, args: len(args[1]),
    "graph.motifs": _graph_kind,
    "graph.kcore": _graph_kind,
    "graph.bank.kcore": lambda tracer, args: args[0]._csr_provider.__self__.kind,
}


# -- hooks: bookkeeping around a wrapped call -------------------------------------

def _hook_build(tracer: Tracer, wrapped):
    def build(*args, **kwargs):
        graphs = wrapped(*args, **kwargs)
        if tracer.enabled:
            if len(tracer.graph_kinds) > 100_000:
                tracer.graph_kinds.clear()
            for kind, graph in graphs.items():
                tracer.graph_kinds[id(graph)] = kind
        return graphs

    return functools.wraps(wrapped)(build)


def _hook_submit(tracer: Tracer, wrapped):
    # Only the event-loop thread submits and only the batcher worker
    # takes, so single deque operations (atomic) suffice.
    def submit(batcher, series):
        # Recorded before the call: the batcher worker may take the
        # request before submit returns.
        queue = tracer.batch_queue[id(batcher.engine)]
        queue.append(perf_counter())
        try:
            return wrapped(batcher, series)
        except BaseException:
            queue.pop()
            raise

    return functools.wraps(wrapped)(submit)


def _engine_counters(engine) -> tuple[int, int, int, int]:
    return (
        engine.cache_hits_,
        engine.cache_misses_,
        engine.coalesced_,
        engine.requests_served_,
    )


def _record_engine(tracer: Tracer, before, after) -> None:
    for key, old, new in zip(("hits", "misses", "coalesced", "requests"), before, after):
        tracer.event(f"engine.{key}", new - old)


def _hook_classify_batch(tracer: Tracer, wrapped):
    def classify_batch(engine, batch):
        if threading.current_thread().name == "repro-serve-batcher":
            started = perf_counter()
            queue = tracer.batch_queue[id(engine)]
            for _ in range(min(len(batch), len(queue))):
                tracer.event("engine.queue_wait", started - queue.popleft())
        before = _engine_counters(engine)
        try:
            return wrapped(engine, batch)
        finally:
            _record_engine(tracer, before, _engine_counters(engine))

    return functools.wraps(wrapped)(classify_batch)


def _hook_classify_stream(tracer: Tracer, wrapped):
    def classify_stream(engine, *args, **kwargs):
        before = _engine_counters(engine)
        try:
            return wrapped(engine, *args, **kwargs)
        finally:
            _record_engine(tracer, before, _engine_counters(engine))

    return functools.wraps(wrapped)(classify_stream)


def _hook_submit_append(tracer: Tracer, wrapped):
    from repro.serve.stream import BackpressureError

    def submit_append(scheduler, session, points):
        queue = tracer.append_queue[session.id]
        entry = [perf_counter(), len(points) if isinstance(points, (list, tuple)) else 0]
        queue.append(entry)
        try:
            future = wrapped(scheduler, session, points)
        except BaseException as exc:
            queue.remove(entry)
            if isinstance(exc, BackpressureError):
                tracer.event("stream.backpressure", 1)
            raise
        tracer.event("stream.buffered_points", scheduler.points_buffered_)
        return future

    return functools.wraps(wrapped)(submit_append)


def _hook_append_chunk(tracer: Tracer, wrapped):
    def append_chunk(session, values):
        queue = tracer.append_queue.get(session.id)
        if queue:
            head = queue[0]
            if head[0] is not None:
                tracer.event("stream.queue_wait", perf_counter() - head[0])
                head[0] = None
            head[1] -= len(values)
            if head[1] <= 0:
                queue.popleft()
        return wrapped(session, values)

    return functools.wraps(wrapped)(append_chunk)


_HOOKS = {
    "graph.build": _hook_build,
    "serve.engine.submit": _hook_submit,
    "serve.engine.classify_batch": _hook_classify_batch,
    "serve.engine.classify_stream": _hook_classify_stream,
    "serve.stream.submit_append": _hook_submit_append,
    "serve.stream.append_chunk": _hook_append_chunk,
}


# -- per-layer figures ----------------------------------------------------------

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("serve.http.route.ms", "ms"),
    ("serve.http.parse.ms", "ms"),
    ("serve.http.outside.ms", "ms"),
    ("serve.http.errors", "count"),
    ("serve.engine.queue_wait.ms", "ms"),
    ("serve.engine.batch_size.mean", "requests"),
    ("serve.engine.classify_batch.self.ms", "ms"),
    ("serve.engine.lru_hit_ratio", "ratio"),
    ("serve.engine.coalesced_ratio", "ratio"),
    ("ml.predict.ms", "ms"),
    ("ml.predict.calls_per_op", "calls/op"),
    ("ml.fit.s", "s"),
    ("core.extract.ms", "ms"),
    ("core.extract.self.ms", "ms"),
    ("core.batch.transform.ms_per_series", "ms/series"),
    ("graph.build.ms", "ms"),
    ("graph.motifs.ms.vg", "ms"),
    ("graph.motifs.ms.hvg", "ms"),
    ("graph.stats.self.ms", "ms"),
    ("graph.kcore.ms.vg", "ms"),
    ("graph.kcore.ms.hvg", "ms"),
    ("serve.stream.queue_wait.ms", "ms"),
    ("serve.stream.append_chunk.self.ms", "ms"),
    ("serve.stream.cache_key.ms", "ms"),
    ("serve.stream.backpressure", "count"),
    ("serve.stream.buffered_points.max", "points"),
    ("core.stream.features.ms", "ms"),
    ("core.stream.features.self.ms", "ms"),
    ("graph.sliding.push.ms", "ms"),
    ("graph.bank.apply.ms", "ms"),
    ("graph.bank.deltas_per_tick", "deltas/tick"),
    ("graph.bank.kcore.ms.vg", "ms"),
    ("graph.bank.kcore.ms.hvg", "ms"),
    ("graph.bank.motifs.ms", "ms"),
    ("experiments.sweep.other.s", "s"),
    ("loadgen.late.ms.p95", "ms"),
    ("loadgen.cpu_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def merge_dumps(dumps: list[dict]) -> dict:
    """One dump from several processes' dumps (parent indices shifted)."""
    spans: list[list] = []
    events: dict[str, list[float]] = defaultdict(list)
    calls: dict[str, int] = defaultdict(int)
    for dump in dumps:
        offset = len(spans)
        spans += [row[:5] + [row[5] + offset if row[5] >= 0 else -1] for row in dump["spans"]]
        for name, values in dump["events"].items():
            events[name] += values
        for binding, count in dump["calls"].items():
            calls[binding] += count
    return {"spans": spans, "events": dict(events), "calls": dict(calls)}


class SpanTotals:
    """Duration, self time and count per ``(span name, tag)``."""

    def __init__(self, dump: dict):
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, tag, tid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.totals: dict[tuple[str, object], list[float]] = defaultdict(
            lambda: [0.0, 0.0, 0]
        )
        for i, (name, tag, tid, start, end, parent) in enumerate(spans):
            if name == "serve.engine.cache_key" and parent >= 0:
                if spans[parent][0] == "serve.engine.classify_stream":
                    tag = "stream"
            entry = self.totals[(name, tag)]
            entry[0] += end - start
            entry[1] += end - start - child[i]
            entry[2] += 1

    def _sum(self, name: str, field: int, tag=...) -> float:
        return sum(
            entry[field]
            for (span, span_tag), entry in self.totals.items()
            if span == name and (tag is ... or span_tag == tag)
        )

    def duration(self, name: str, tag=...) -> float:
        return self._sum(name, 0, tag)

    def self_time(self, name: str, tag=...) -> float:
        return self._sum(name, 1, tag)

    def count(self, name: str, tag=...) -> int:
        return int(self._sum(name, 2, tag))

    def tags(self, name: str) -> list:
        return [tag for (span, tag) in self.totals if span == name]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dump: dict, ops: int, client: dict) -> dict[str, float]:
    """Per-layer metrics of one traced phase.

    ``ops`` counts the operations the client completed while tracing
    was on (classifications, stream labels, or series a sweep
    extracted).  ``client`` carries the load generator's own figures:
    ``server_latency_s`` (summed send-to-response time of traced
    requests), ``http_errors``, ``late_p95_ms``, ``cpu_frac``,
    ``overhead_frac``.
    """
    t = SpanTotals(dump)
    events = dump["events"]
    per_op = 1e3 / ops if ops else 0.0

    def ms(seconds: float) -> float:
        return seconds * per_op

    queue_waits = events.get("engine.queue_wait", [])
    batches = [row for row in dump["spans"] if row[0] == "serve.engine.classify_batch"]
    batch_sizes = [row[1] for row in batches]
    # Server time each request waited on: its route call, its queue
    # wait and its whole batch (every request in a batch waits for all
    # of it), or, for streams, the chunks that carried its points.
    batch_time = sum((row[4] - row[3]) * row[1] for row in batches)
    server_time = (
        t.duration("serve.http.route")
        + sum(queue_waits)
        + batch_time
        + sum(events.get("stream.queue_wait", []))
        + t.duration("serve.stream.append_chunk")
    )
    hits = sum(events.get("engine.hits", []))
    misses = sum(events.get("engine.misses", []))
    transformed = _tag_sum(dump, ("core.batch.transform",))
    ticks = t.count("core.stream.features")
    return {
        "serve.http.route.ms": ms(t.self_time("serve.http.route")),
        "serve.http.parse.ms": ms(t.duration("serve.http.parse")),
        "serve.http.outside.ms": ms(client["server_latency_s"] - server_time),
        "serve.http.errors": float(client["http_errors"]),
        "serve.engine.queue_wait.ms": _mean(queue_waits) * 1e3,
        "serve.engine.batch_size.mean": _mean(batch_sizes),
        "serve.engine.classify_batch.self.ms": ms(t.self_time("serve.engine.classify_batch")),
        "serve.engine.lru_hit_ratio": _ratio(hits, hits + misses),
        "serve.engine.coalesced_ratio": _ratio(
            sum(events.get("engine.coalesced", [])), sum(events.get("engine.requests", []))
        ),
        "ml.predict.ms": ms(t.duration("ml.predict") + t.duration("ml.predict_proba")),
        "ml.predict.calls_per_op": _ratio(
            _tag_sum(dump, ("ml.predict", "ml.predict_proba")), ops
        ),
        "ml.fit.s": t.duration("ml.fit"),
        "core.extract.ms": ms(t.duration("core.extract")),
        "core.extract.self.ms": ms(t.self_time("core.extract")),
        "core.batch.transform.ms_per_series": _ratio(
            t.duration("core.batch.transform") * 1e3, transformed
        ),
        "graph.build.ms": ms(t.duration("graph.build")),
        "graph.motifs.ms.vg": ms(t.duration("graph.motifs", "vg")),
        "graph.motifs.ms.hvg": ms(t.duration("graph.motifs", "hvg")),
        "graph.stats.self.ms": ms(t.self_time("graph.stats")),
        "graph.kcore.ms.vg": ms(t.duration("graph.kcore", "vg")),
        "graph.kcore.ms.hvg": ms(t.duration("graph.kcore", "hvg")),
        "serve.stream.queue_wait.ms": _mean(events.get("stream.queue_wait", [])) * 1e3,
        "serve.stream.append_chunk.self.ms": ms(t.self_time("serve.stream.append_chunk")),
        "serve.stream.cache_key.ms": ms(t.duration("serve.engine.cache_key", "stream")),
        "serve.stream.backpressure": float(len(events.get("stream.backpressure", []))),
        "serve.stream.buffered_points.max": float(max(events.get("stream.buffered_points", [0]))),
        "core.stream.features.ms": ms(t.duration("core.stream.features")),
        "core.stream.features.self.ms": ms(t.self_time("core.stream.features")),
        "graph.sliding.push.ms": ms(
            t.self_time("graph.sliding.push") + t.self_time("graph.sliding.evict")
        ),
        "graph.bank.apply.ms": ms(t.duration("graph.bank.apply")),
        "graph.bank.deltas_per_tick": _ratio(t.count("graph.bank.apply"), ticks),
        "graph.bank.kcore.ms.vg": ms(t.duration("graph.bank.kcore", "vg")),
        "graph.bank.kcore.ms.hvg": ms(t.duration("graph.bank.kcore", "hvg")),
        "graph.bank.motifs.ms": ms(
            t.duration("graph.bank.motifs.apply") + t.duration("graph.bank.motifs.value")
        ),
        "experiments.sweep.other.s": t.self_time("experiments.evaluate_mvg"),
        "loadgen.late.ms.p95": float(client["late_p95_ms"]),
        "loadgen.cpu_frac": float(client["cpu_frac"]),
        "trace.overhead_frac": float(client["overhead_frac"]),
    }


def _tag_sum(dump: dict, names: tuple[str, ...]) -> float:
    return float(sum(row[1] or 0 for row in dump["spans"] if row[0] in names))

