"""The unified telemetry registry, and the one handle every seam reports through.

One :class:`Telemetry` object owns every observability primitive — named
counters, gauges, per-category histograms, the span recorder, and a raw
request-latency time series for windowed percentiles. No seam holds it: the
cloud resolves its observers into one :class:`RoleWatch` (``cloud.watch``)
at every attach, and the role seams, the fabric's attempt plan and
the two operation roots all read that; when it is ``None`` the hot path pays
a single attribute check and nothing else, which is what keeps the
zero-overhead-when-off contract honest (see the off-path structural
equivalence tests in tests/test_core_fabric.py).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.fabric import UNWATCHED, CategorySlot
from repro.core.node import MINUTES_TO_MS, RequestOutcome, RequestResult
from repro.metrics.timeseries import TimeSeries
from repro.network.bandwidth import TrafficCategory
from repro.observe.histogram import LogHistogram
from repro.observe.spans import Span, SpanRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.flight import FlightRecorder
    from repro.observe.profile import WorkProfile

__all__ = ["CategoryInstruments", "RoleWatch", "Telemetry"]


def _histogram(histograms: Dict[str, LogHistogram], name: str) -> LogHistogram:
    """Fetch-or-create ``histograms[name]``."""
    hist = histograms.get(name)
    if hist is None:
        hist = histograms[name] = LogHistogram()
    return hist


class CategoryInstruments:
    """One traffic category's journal of wire attempts.

    A category's counters and its three histograms are a left fold over its
    attempts, so an attempt only *appends* — the size to :attr:`sizes`, a
    delivered attempt's latency to :attr:`latencies`, a positive queueing
    delay to :attr:`delays` — or counts a queue rejection in
    :attr:`rejected`, and :meth:`Telemetry.fold` does the arithmetic for a
    whole batch, in arrival order. The fabric appends through the bound
    ``list.append`` handles :attr:`note_size`, :attr:`note_latency` and
    :attr:`note_delay` (no Python frame per attempt; the lists live as long
    as the registry and are emptied in place) and writes :attr:`backlogs`
    and :attr:`rejected` itself; :meth:`record`, :meth:`record_queueing` and
    :meth:`record_rejection` are the method form of the same. Counters and
    histograms are still *created* on first use: the export lists only what
    saw traffic.
    """

    __slots__ = (
        "_telemetry",
        "_name",
        "_keys",
        "sizes",
        "latencies",
        "delays",
        "note_size",
        "note_latency",
        "note_delay",
        "backlogs",
        "rejected",
    )

    def __init__(self, telemetry: "Telemetry", category: str) -> None:
        self._telemetry = telemetry
        self._name = category
        self._keys = tuple(
            f"fabric.{what}.{category}" for what in ("attempts", "lost", "rejected")
        )
        #: Bytes of every attempt since the last fold.
        self.sizes: List[int] = []
        #: Latency in ms of every *delivered* attempt since the last fold
        #: (``len(sizes) - len(latencies)`` attempts were lost).
        self.latencies: List[float] = []
        #: Every positive queueing delay in ms since the last fold.
        self.delays: List[float] = []
        self.note_size: Callable[[int], None] = self.sizes.append
        self.note_latency: Callable[[float], None] = self.latencies.append
        self.note_delay: Callable[[float], None] = self.delays.append
        #: The registry's ``dst -> backlog`` map (:attr:`Telemetry.backlogs`).
        self.backlogs = telemetry.backlogs
        #: Attempts turned away by a full queue since the last fold.
        self.rejected = 0

    def record(self, num_bytes: int, latency_minutes: Optional[float]) -> None:
        """One wire attempt: a float latency if delivered, ``None`` if lost."""
        self.note_size(num_bytes)
        if latency_minutes is not None:
            self.note_latency(latency_minutes * MINUTES_TO_MS)

    def record_rejection(self) -> None:
        self.rejected += 1

    def record_queueing(self, dst: int, delay_minutes: float, backlog: int) -> None:
        """One admitted attempt: its queueing delay and ``dst``'s backlog."""
        if delay_minutes > 0.0:
            self.note_delay(delay_minutes * MINUTES_TO_MS)
        self.backlogs[dst] = backlog

    def fold(self) -> None:
        """Move the journalled attempts into the counters and histograms."""
        telemetry = self._telemetry
        counters, histograms = telemetry._counters, telemetry._histograms
        sizes, latencies = self.sizes, self.latencies
        attempts, lost, rejected = self._keys
        if sizes:
            counters[attempts] = counters.get(attempts, 0) + len(sizes)
            if len(latencies) < len(sizes):
                counters[lost] = counters.get(lost, 0) + len(sizes) - len(latencies)
        if self.rejected:
            counters[rejected] = counters.get(rejected, 0) + self.rejected
            self.rejected = 0
        for what, values in (
            ("bytes", sizes),
            ("latency_ms", latencies),
            ("queue_delay_ms", self.delays),
        ):
            if values:
                _histogram(histograms, f"{what}.{self._name}").record_many(values)
                del values[:]


class Telemetry:
    """Counters, gauges, histograms, and a span sink behind one handle.

    Histograms are keyed ``latency_ms.<category>`` / ``bytes.<category>``
    and created on demand with fixed log-spaced buckets, so the export
    shape depends only on which categories saw traffic — not on the seed.

    The journal's contract
    ----------------------
    What the fabric and the cloud record per wire attempt and per operation
    is *journalled* (appended to lists) and folded into the counters,
    gauges and histograms later, in arrival order:

    * **a read folds** — :attr:`counters`, :attr:`gauges`,
      :attr:`histograms`, :meth:`histogram`, :meth:`gauge` and therefore
      every export fold first, so a reader never sees a stale value;
    * **hold the registry, not the dict it returned** — the dict a property
      returned is live but only as fresh as the last read;
    * **first-use creation** — a fold creates a counter or histogram only
      for a fact that occurred (``fabric.lost.<cat>`` after a loss, no
      histogram for an empty journal);
    * **the fold bound** — the journal is also folded every
      :attr:`FOLD_EVERY` operation roots, so it never holds more than a
      constant number of operations.
    """

    SCHEMA_VERSION = 1
    #: Operation roots (:meth:`observe_root` calls) between two folds.
    FOLD_EVERY = 512

    def __init__(self, max_spans: int = 10_000) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, LogHistogram] = {}
        self.spans = SpanRecorder(max_spans=max_spans)
        self.request_latencies = TimeSeries("request_latency_ms")
        self._instruments: Dict[str, CategoryInstruments] = {}
        #: ``dst -> backlog`` the last admitted attempt left there, since
        #: the last fold: the ``queue_depth.<dst>`` gauges. Registry-wide
        #: because the gauge is last-write-wins *across* categories.
        self.backlogs: Dict[int, int] = {}
        #: Length of :attr:`request_latencies` already in ``latency_ms.request``.
        self._requests_folded = 0
        self._roots = 0

    # -- the fold -------------------------------------------------------------

    def fold(self) -> None:
        """Bring counters, gauges and histograms up to date with the journal."""
        self._roots = 0
        for instruments in self._instruments.values():
            instruments.fold()
        backlogs = self.backlogs
        if backlogs:
            gauges = self._gauges
            for dst, backlog in backlogs.items():
                gauges[f"queue_depth.{dst}"] = float(backlog)
            backlogs.clear()
        series, folded = self.request_latencies, self._requests_folded
        if len(series) > folded:
            _histogram(self._histograms, "latency_ms.request").record_many(
                series.values_from(folded)
            )
            self._requests_folded = len(series)

    @property
    def counters(self) -> Dict[str, int]:
        self.fold()
        return self._counters

    @property
    def gauges(self) -> Dict[str, float]:
        self.fold()
        return self._gauges

    @property
    def histograms(self) -> Dict[str, LogHistogram]:
        self.fold()
        return self._histograms

    # -- scalar instruments -------------------------------------------------

    def count(self, name: str, delta: int = 1) -> None:
        """Increment counter ``name`` by ``delta``."""
        counters = self._counters  # addition commutes with a pending fold
        counters[name] = counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = float(value)

    def histogram(self, name: str) -> LogHistogram:
        """Fetch-or-create the histogram named ``name``."""
        return _histogram(self.histograms, name)

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
        """Record one completed client request at sim-time ``now``: a point
        of :attr:`request_latencies`, whose unfolded tail the next fold
        adds to ``latency_ms.request``."""
        self.request_latencies.append(now, latency_ms)

    def observe_root(
        self, counter: str, now: float = 0.0, latency_ms: Optional[float] = None
    ) -> None:
        """One finished operation root — a request or an update — in one call.

        Counts ``counter``, records the request's ``latency_ms`` at sim-time
        ``now`` when there is one (:meth:`observe_request`), and ticks the
        fold bound.
        """
        counters = self._counters
        counters[counter] = counters.get(counter, 0) + 1
        if latency_ms is not None:  # :meth:`observe_request`'s one append
            self.request_latencies.append(now, latency_ms)
        self._roots += 1
        if self._roots >= self.FOLD_EVERY:
            self.fold()

    # -- span sink delegates ------------------------------------------------

    def begin_span(self, name: str, start: float, **attrs: object) -> Optional[Span]:
        """Open a span, or count a drop and return ``None`` once the
        recorder is saturated (callers then skip :meth:`end_span`)."""
        spans = self.spans
        if spans.saturated:
            spans.begun += 1
            return None
        return spans.open(name, start, attrs)

    def end_span(self, span: Span, end: float, **attrs: object) -> None:
        self.spans.close(span, end, attrs)

    def __repr__(self) -> str:
        return (
            f"Telemetry(counters={len(self.counters)}, "
            f"histograms={len(self.histograms)}, spans={len(self.spans.spans)})"
        )


#: A profile-only event's stand-in while no profile is attached: a C-level
#: callable that ignores its arguments, so the call enters no Python frame.
_IGNORE: Callable[..., object] = {}.get
_NO_ATTRS: Dict[str, object] = {}  # a leg span's closing attributes: none
#: The ``requests.<outcome>`` counter of each outcome value.
_REQUEST_COUNTERS = {
    outcome.value: "requests." + outcome.value for outcome in RequestOutcome
}


class RoleWatch:
    """What every seam reports (``cloud.watch``), resolved per attach.

    Built from the cloud's registry, the one profile it charges and its
    flight recorder. A role seam reports each event with one call —
    :meth:`leg`, :meth:`mark`, :attr:`walk` (a holder walk),
    :attr:`placement` (a store decision's charge) — and never asks which
    observers are there. A leg's span is written after its dispatch as one
    open and close: no seam opens a span while a leg is in flight, so ids,
    parentage and widened ends are those of a span held open across it.
    Past saturation a span is only counted. The fabric's attempt plan takes
    :attr:`slots` (each category's telemetry journal and flight row); the
    cloud's entry points call :attr:`request` / :attr:`update`, which run
    the operation root (window clock, root span, root counters) — or are
    the cloud's own serve and delivery when only a profile is attached.
    """

    __slots__ = ("telemetry", "profile", "flight", "walk", "placement", "slots", "request",
                 "update", "_spans", "_serve", "_apply")

    def __init__(
        self,
        telemetry: Optional[Telemetry],
        profile: Optional["WorkProfile"],
        flight: Optional["FlightRecorder"] = None,
        serve: Optional[Callable[[int, int, float], RequestResult]] = None,
        apply: Optional[Callable[[int, int, float], int]] = None,
    ) -> None:
        self.telemetry = telemetry
        self.profile = profile
        self.flight = flight
        self._spans = None if telemetry is None else telemetry.spans
        self.walk: Callable[[int, int], object] = _IGNORE
        self.placement: Callable[[int], object] = _IGNORE
        if profile is not None:
            self.walk = profile.record_walk
            self.placement = partial(profile.charge, "placement")
        watched = telemetry is not None or flight is not None
        self.slots: Dict[TrafficCategory, CategorySlot] = UNWATCHED
        if watched:
            self.slots = {
                category: CategorySlot(
                    category.value,
                    None if telemetry is None else telemetry.instruments(category.value),
                    None if flight is None else flight.fabric_row(category.value),
                )
                for category in TrafficCategory
            }
        if serve is not None and apply is not None:  # a bare fabric's watch has no roots
            self._serve, self._apply = serve, apply
            self.request: Callable[[int, int, float], RequestResult] = (
                self._request if watched else serve
            )
            self.update: Callable[[int, int, float], int] = self._update if watched else apply

    def leg(
        self, name: str, start: float, end: float, phase: Optional[str] = None,
        units: int = 1, /, **attrs: object,
    ) -> None:
        """One dispatched piece of work: span ``name`` over ``[start, end]``
        with ``attrs``, and ``units`` charged to ``phase`` if it has one."""
        profile = self.profile
        if phase is not None and profile is not None:
            # ``WorkProfile.charge``, in place: one frame per leg, not two.
            profile.counts[phase] += 1
            profile.units[phase] += units
        spans = self._spans
        if spans is not None:
            if spans.saturated:
                spans.begun += 1
            else:
                spans.close(spans.open(name, start, attrs), end, _NO_ATTRS)

    def mark(self, name: str, at: float, kind: str, node: int, counter: str) -> None:
        """``kind`` work at ``node`` shed or deferred at ``at``: a zero-length
        span ``name`` (written as :meth:`leg` would, in place) and ``counter``."""
        telemetry = self.telemetry
        if telemetry is not None:
            counters = telemetry._counters  # ``Telemetry.count``, in place
            counters[counter] = counters.get(counter, 0) + 1
            spans = telemetry.spans
            if spans.saturated:
                spans.begun += 1
            else:
                spans.close(spans.open(name, at, {"kind": kind, "node": node}), at, _NO_ATTRS)

    def _request(self, cache_id: int, doc_id: int, now: float) -> RequestResult:
        flight = self.flight
        if flight is not None and now >= flight.window_end:
            # Roll the recorder's window clock before any protocol work:
            # every dispatch this request triggers happens at ``now``, so
            # it belongs to the window that is open *after* this call.
            flight.advance(now)
        telemetry = self.telemetry
        if telemetry is None:
            result = self._serve(cache_id, doc_id, now)
        else:
            spans = telemetry.spans
            if spans.saturated:  # the root is only counted
                spans.begun += 1
                result = self._serve(cache_id, doc_id, now)
            else:
                root = spans.open("request", now, {"cache": cache_id, "doc": doc_id})
                try:
                    result = self._serve(cache_id, doc_id, now)
                except BaseException:
                    spans.unwind(root, now)
                    raise
                spans.close(
                    root,
                    now + result.latency_ms / MINUTES_TO_MS,
                    {
                        "outcome": result.outcome._value_,
                        "served_by": result.served_by,
                        "latency_ms": result.latency_ms,
                    },
                )
            # ``_value_``: the plain attribute behind the ``value``
            # descriptor, which costs two Python frames per read.
            outcome = result.outcome._value_
            if outcome == "rejected":
                # A rejected request has no service latency — recording its
                # 0.0 would drag every latency percentile toward zero exactly
                # when the cloud is overloaded. Rejections are visible through
                # the requests.rejected counter and the overload statistics.
                telemetry.observe_root("requests.rejected")
            else:
                telemetry.observe_root(_REQUEST_COUNTERS[outcome], now, result.latency_ms)
        if flight is not None:
            flight.observe_request(now, result)
        return result

    def _update(self, doc_id: int, version: int, now: float) -> int:
        flight = self.flight
        if flight is not None:
            if now >= flight.window_end:
                flight.advance(now)
            flight.observe_update(now)
        telemetry = self.telemetry
        if telemetry is None:
            return self._apply(doc_id, version, now)
        spans = telemetry.spans
        root = None if spans.saturated else spans.open("update", now, {"doc": doc_id})
        if root is None:
            spans.begun += 1
        try:
            refreshed = self._apply(doc_id, version, now)
        except BaseException:
            if root is not None:
                spans.unwind(root, now)
            raise
        if root is not None:
            # The root's end is widened to cover the propagation children.
            spans.close(root, now, {"refreshed": refreshed})
        telemetry.observe_root("updates.handled")
        return refreshed
