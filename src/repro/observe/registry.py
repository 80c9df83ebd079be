"""The unified telemetry registry.

One :class:`Telemetry` object owns every observability primitive — named
counters, gauges, per-category histograms, the span recorder, and a raw
request-latency time series for windowed percentiles. The protocol plane
holds at most one optional reference to it (``cloud.telemetry`` /
``fabric.telemetry``); when that reference is ``None`` the hot path pays a
single attribute check and nothing else, which is what keeps the
zero-overhead-when-off contract honest (see the off-path structural
equivalence tests in tests/test_core_fabric.py).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.node import MINUTES_TO_MS
from repro.metrics.timeseries import TimeSeries
from repro.observe.histogram import LogHistogram
from repro.observe.spans import Span, SpanRecorder

__all__ = ["CategoryInstruments", "Telemetry"]


class CategoryInstruments:
    """One traffic category's fabric instruments, names resolved once
    (finding them per wire attempt cost more than recording). Histograms
    are still *created* on first use: the export lists only categories
    that saw traffic."""

    __slots__ = ("_telemetry", "_name", "_keys", "_bytes", "_latency", "_delay")

    def __init__(self, telemetry: "Telemetry", category: str) -> None:
        self._telemetry = telemetry
        self._name = category
        self._keys = tuple(
            f"fabric.{what}.{category}" for what in ("attempts", "lost", "rejected")
        )
        self._bytes: Optional[LogHistogram] = None
        self._latency: Optional[LogHistogram] = None
        self._delay: Optional[LogHistogram] = None

    def record(self, num_bytes: int, latency_minutes: Optional[float]) -> None:
        """One wire attempt: a float latency if delivered, ``None`` if lost."""
        telemetry = self._telemetry
        counters = telemetry.counters
        attempts, lost, _ = self._keys
        counters[attempts] = counters.get(attempts, 0) + 1
        hist = self._bytes
        if hist is None:
            hist = self._bytes = telemetry.histogram(f"bytes.{self._name}")
        hist.record(num_bytes)
        if latency_minutes is None:
            counters[lost] = counters.get(lost, 0) + 1
            return
        hist = self._latency
        if hist is None:
            hist = self._latency = telemetry.histogram(f"latency_ms.{self._name}")
        hist.record(latency_minutes * MINUTES_TO_MS)

    def record_rejection(self) -> None:
        self._telemetry.count(self._keys[2])

    def record_queueing(self, dst: int, delay_minutes: float, backlog: int) -> None:
        """One admitted attempt: its queueing delay and ``dst``'s backlog."""
        telemetry = self._telemetry
        if delay_minutes > 0.0:
            hist = self._delay
            if hist is None:
                hist = self._delay = telemetry.histogram(f"queue_delay_ms.{self._name}")
            hist.record(delay_minutes * MINUTES_TO_MS)
        gauge = telemetry._depth_gauges.get(dst)
        if gauge is None:
            gauge = telemetry._depth_gauges[dst] = f"queue_depth.{dst}"
        telemetry.gauges[gauge] = float(backlog)


class Telemetry:
    """Counters, gauges, histograms, and a span sink behind one handle.

    Histograms are keyed ``latency_ms.<category>`` / ``bytes.<category>``
    and created on demand with fixed log-spaced buckets, so the export
    shape depends only on which categories saw traffic — not on the seed.
    """

    SCHEMA_VERSION = 1

    def __init__(self, max_spans: int = 10_000) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, LogHistogram] = {}
        self.spans = SpanRecorder(max_spans=max_spans)
        self.request_latencies = TimeSeries("request_latency_ms")
        self._instruments: Dict[str, CategoryInstruments] = {}
        self._depth_gauges: Dict[int, str] = {}

    # -- scalar instruments -------------------------------------------------

    def count(self, name: str, delta: int = 1) -> None:
        """Increment counter ``name`` by ``delta``."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = float(value)

    def histogram(self, name: str) -> LogHistogram:
        """Fetch-or-create the histogram named ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = LogHistogram()
            self.histograms[name] = hist
        return hist

    # -- protocol-plane hooks ----------------------------------------------

    def instruments(self, category: str) -> CategoryInstruments:
        """The fabric-instrument handle of ``category`` (one per registry)."""
        if category not in self._instruments:
            self._instruments[category] = CategoryInstruments(self, category)
        return self._instruments[category]

    def record_attempt(
        self, category: str, num_bytes: int, latency_minutes: Optional[float]
    ) -> None:
        """Record one fabric dispatch attempt for ``category`` (a float
        latency is measured in ms; ``None`` is a loss, counted instead)."""
        self.instruments(category).record(num_bytes, latency_minutes)

    def observe_request(self, now: float, latency_ms: float) -> None:
        """Record one completed client request at sim-time ``now``."""
        self.request_latencies.append(now, latency_ms)
        self.histogram("latency_ms.request").record(latency_ms)

    # -- span sink delegates ------------------------------------------------

    def begin_span(self, name: str, start: float, **attrs: object) -> Span:
        return self.spans.open(name, start, attrs)

    def end_span(self, span: Span, end: float, **attrs: object) -> None:
        self.spans.close(span, end, attrs)

    def __repr__(self) -> str:
        return (
            f"Telemetry(counters={len(self.counters)}, "
            f"histograms={len(self.histograms)}, spans={len(self.spans.spans)})"
        )
