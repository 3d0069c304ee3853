"""Request-level metrics in Prometheus text exposition format.

A dependency-free subset of the Prometheus client model, just enough
for the serving tier's ``GET /metrics`` endpoint: :class:`Counter`,
:class:`Gauge` and :class:`Histogram` families with labels, collected
in a :class:`MetricsRegistry` that renders the ``text/plain;
version=0.0.4`` exposition format scrapers understand.

Two sources feed a scrape:

* metrics updated on the request path (`ServingMetrics` — per-route
  request counts by status and per-route latency histograms), and
* *collector callbacks* registered on the registry, which pull state
  that already lives elsewhere (engine feature-cache counters, batcher
  batch-size distributions) at scrape time instead of double-counting
  it on the hot path.

Counters and histograms take their locks per observation; scrapes
render from a snapshot so a slow scraper never blocks a request.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Iterable, Sequence

#: Default latency buckets (seconds) — sub-millisecond cache hits up to
#: multi-second cold extractions.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
)


def _format_value(value: float) -> str:
    """Prometheus-style number: integral values without a decimal point."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and (math.isnan(value)):
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_labels(labels: dict[str, Any]) -> str:
    """``{a="x",b="y"}`` (or ``""`` for no labels), keys in given order."""
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(val)}"' for key, val in labels.items())
    return "{" + inner + "}"


def render_family(
    name: str,
    kind: str,
    help_text: str,
    samples: Iterable[tuple[str, dict[str, Any], float]],
) -> list[str]:
    """``# HELP``/``# TYPE`` header plus one line per sample.

    ``samples`` is ``(suffix, labels, value)`` — suffix is ``""`` for
    the family itself, ``"_bucket"``/``"_sum"``/``"_count"`` for
    histogram series.
    """
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
    for suffix, labels, value in samples:
        lines.append(f"{name}{suffix}{format_labels(labels)} {_format_value(value)}")
    return lines


def render_histogram_from_counts(
    name: str,
    help_text: str,
    counts: dict[int, int],
    labels: dict[str, Any] | None = None,
    buckets: Sequence[float] = (1, 2, 4, 8, 16, 32, 64),
) -> list[str]:
    """A Prometheus histogram from a ``{observed_int: n_times}`` tally.

    Used for distributions tracked as plain dicts on the hot path
    (batch sizes) and only shaped into buckets at scrape time.
    """
    labels = dict(labels or {})
    total = sum(counts.values())
    running = 0.0
    samples: list[tuple[str, dict[str, Any], float]] = []
    for bound in buckets:
        running = sum(n for value, n in counts.items() if value <= bound)
        samples.append(("_bucket", {**labels, "le": _format_value(bound)}, running))
    samples.append(("_bucket", {**labels, "le": "+Inf"}, total))
    samples.append(("_sum", labels, float(sum(v * n for v, n in counts.items()))))
    samples.append(("_count", labels, total))
    return render_family(name, "histogram", help_text, samples)


class _Metric:
    """Shared labelled-series plumbing for the concrete metric types."""

    kind = "untyped"

    # Inherited by Counter/Gauge/Histogram (the lock-discipline checker
    # merges same-module base-class guard maps into subclasses).
    _GUARDED_BY = {"_series": "_lock"}

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], Any] = {}

    def _key(self, labels: dict[str, Any]) -> tuple[str, ...]:
        if tuple(labels) != self.labelnames:
            raise ValueError(
                f"metric {self.name} takes labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _label_dict(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, key))


class Counter(_Metric):
    """Monotonically increasing count, one series per label combination."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(self._key(labels), 0.0)

    def render(self) -> list[str]:
        with self._lock:
            snapshot = dict(self._series)
        return render_family(
            self.name,
            self.kind,
            self.help_text,
            [("", self._label_dict(key), value) for key, value in sorted(snapshot.items())],
        )


class Gauge(Counter):
    """A value that can go either way (``set`` replaces, ``inc`` adds)."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)


class Histogram(_Metric):
    """Cumulative-bucket histogram with ``_sum`` and ``_count`` series."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(buckets))

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = {
                    "buckets": [0] * len(self.buckets),
                    "sum": 0.0,
                    "count": 0,
                }
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series["buckets"][i] += 1
            series["sum"] += value
            series["count"] += 1

    def render(self) -> list[str]:
        with self._lock:
            snapshot = {
                key: {
                    "buckets": list(series["buckets"]),
                    "sum": series["sum"],
                    "count": series["count"],
                }
                for key, series in self._series.items()
            }
        samples: list[tuple[str, dict[str, Any], float]] = []
        for key, series in sorted(snapshot.items()):
            labels = self._label_dict(key)
            for bound, count in zip(self.buckets, series["buckets"]):
                samples.append(
                    ("_bucket", {**labels, "le": _format_value(bound)}, count)
                )
            samples.append(("_bucket", {**labels, "le": "+Inf"}, series["count"]))
            samples.append(("_sum", labels, series["sum"]))
            samples.append(("_count", labels, series["count"]))
        return render_family(self.name, self.kind, self.help_text, samples)


class MetricsRegistry:
    """Orders metric families and collector callbacks into one scrape."""

    _GUARDED_BY = {"_metrics": "_lock", "_collectors": "_lock"}

    def __init__(self) -> None:
        self._metrics: list[_Metric] = []
        self._collectors: list[Callable[[], list[str]]] = []
        self._lock = threading.Lock()

    def register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if any(m.name == metric.name for m in self._metrics):
                raise ValueError(f"metric {metric.name} already registered")
            self._metrics.append(metric)
        return metric

    def counter(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Counter:
        return self.register(Counter(name, help_text, labelnames))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self.register(Gauge(name, help_text, labelnames))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self.register(Histogram(name, help_text, labelnames, buckets))  # type: ignore[return-value]

    def add_collector(self, collector: Callable[[], list[str]]) -> None:
        """``collector()`` returns extra exposition lines at scrape time."""
        with self._lock:
            self._collectors.append(collector)

    def render(self) -> str:
        """The full scrape payload (trailing newline included)."""
        with self._lock:
            metrics = list(self._metrics)
            collectors = list(self._collectors)
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        for collector in collectors:
            try:
                lines.extend(collector())
            except Exception as exc:  # noqa: BLE001 — a scrape must not 500
                lines.append(f"# collector error: {type(exc).__name__}: {exc}")
        return "\n".join(lines) + "\n"


class ServingMetrics:
    """The serving tier's request-path metric families.

    One instance lives on the shared ``ServerState``; the front end
    records every request into it, including a ``499`` for a client
    that disconnected before its response went out.
    """

    #: Content type the exposition format mandates.
    CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.requests_total = self.registry.counter(
            "repro_serve_requests_total",
            "HTTP requests handled, by route, method and status code.",
            ("route", "method", "status"),
        )
        self.request_latency = self.registry.histogram(
            "repro_serve_request_seconds",
            "Wall time from request read to response write, by route.",
            ("route",),
        )
        self.stream_phase_seconds = self.registry.histogram(
            "repro_serve_stream_phase_seconds",
            "Per-tick stream latency split by phase: graph (window/PAA "
            "upkeep + incremental visibility-graph maintenance), metrics "
            "(delta folding + metric derivation) and classify (feature "
            "lookup + model scoring).",
            ("phase",),
        )

    def observe_request(
        self, route: str, method: str, status: int, seconds: float
    ) -> None:
        self.requests_total.inc(route=route, method=method, status=status)
        self.request_latency.observe(seconds, route=route)

    def observe_stream_phases(self, phases: dict[str, float]) -> None:
        """Record one stream tick's phase split (seconds by phase name)."""
        for phase, seconds in phases.items():
            self.stream_phase_seconds.observe(seconds, phase=phase)

    def render(self) -> str:
        return self.registry.render()
