"""Streaming flight recorder: windowed telemetry at million-request scale.

The telemetry registry accumulates an end-of-run snapshot; the
:class:`FlightRecorder` streams. Attached to a cloud (alongside or instead
of ``Telemetry``), it rolls fixed-width *simulated-time* windows of

* throughput and outcome mix,
* per-category fabric traffic (messages, bytes, lost attempts, latency),
* per-phase work-profile cost deltas (:mod:`repro.observe.profile`),
  including the hottest documents by holder-walk length, and
* overload signals (queue depth, rejection/shed counts) when a controller
  is attached, and the live cache count when an elastic controller is,

and appends each closed window as one JSON line to an on-disk artifact.
Resident state is O(one window): closing a window writes and forgets it.
A recorder built without a path keeps the records in a :class:`FlightLog`
instead; :func:`window_series` derives the sweeps' windowed series from one.

Determinism contract
--------------------
Window records are canonical JSON (sorted keys, compact separators, no
wall-clock content), so two same-seed runs — serial or in a worker pool,
streaming or materialized traces — produce *byte-identical* artifacts.
Every appended line is flushed and fsynced; a crash can tear at most the
line in flight, and :func:`read_flight` tolerates that torn tail.

Clocking
--------
The fabric has no clock, so windows are rolled from the request/update
entry points: the roots that ``cloud.watch`` runs for
``CacheCloud.handle_request``/``handle_update`` call
:meth:`FlightRecorder.advance` before any protocol work once their time
reaches :attr:`FlightRecorder.window_end`. All fabric
dispatches triggered by one handler happen at that handler's timestamp,
so attributing them to the currently open window is exact, and idle gaps
emit explicit zero windows to keep the series aligned with the grid.

Like every observer behind the fabric seam, the recorder is strictly
off-path: attaching changes what is *recorded*, never what the protocols
do (same dispatches, same meter, same RNG draws — pinned by the
structural-equivalence tests in ``tests/test_observe_flight.py``).
"""

from __future__ import annotations

import json
import math
import operator
import os
from array import array
from dataclasses import dataclass, field
from functools import reduce
from typing import (
    TYPE_CHECKING,
    Any,
    BinaryIO,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.metrics.timeseries import CounterWindow
from repro.observe.profile import PHASE_ROLES, PHASES, WorkProfile

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids runtime imports
    from repro.core.cloud import CacheCloud
    from repro.core.node import RequestResult

__all__ = [
    "ArtifactError",
    "FLIGHT_SCHEMA_VERSION",
    "FlightLog",
    "FlightRecorder",
    "FlightSpec",
    "FlightWriter",
    "diff_flights",
    "read_flight",
    "render_flight_html",
    "render_flight_report",
    "sparkline",
    "window_series",
]

#: Version stamp of the JSONL record schema.
FLIGHT_SCHEMA_VERSION = 1

#: Milliseconds of simulated time per simulated minute.
_MINUTES_TO_MS = 60_000.0

#: Seconds of simulated time per simulated minute (throughput rendering).
_MINUTES_TO_S = 60.0


@dataclass(frozen=True)
class FlightSpec:
    """Picklable flight-recorder recipe carried by an ``ExperimentSpec``.

    ``path`` is the artifact to write (``None`` keeps the records in memory,
    as :attr:`FlightRecorder.log`); ``window`` is the window width in
    simulated minutes.
    """

    path: Optional[str] = None
    window: float = 1.0

    def build(self) -> "FlightRecorder":
        """A fresh recorder (its header truncates any existing artifact)."""
        return FlightRecorder(self.path, window=self.window)


class FlightWriter:
    """Append-only JSONL writer with per-line fsync.

    A record is durable once :meth:`append` returns; the first creates the
    artifact (truncating any file at ``path``).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[BinaryIO] = None

    def append(self, record: Mapping[str, object]) -> None:
        """Write one record as a canonical JSON line, flushed and fsynced."""
        line = json.dumps(
            record, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        if self._fh is None:
            self._fh = open(self.path, "wb")
        self._fh.write(line.encode("utf-8") + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()


class FabricRow:
    """One traffic category's wire attempts in the open window, journalled.

    The fabric appends each attempt's size (:attr:`note_size`) and, when it
    was delivered, its latency in ms (:attr:`note_latency`) — bound
    ``array.append`` handles, no Python frame per attempt and no object
    kept per attempt: 16 B each for the open window — and counts a queue
    rejection in :attr:`rejected`. The window's close folds the journal
    into the record's ``[messages, bytes, lost, latency_ms_sum]``
    (:meth:`row`: left-to-right sums, the same additions an attempt-by-
    attempt running total makes) and empties it in place, so the fabric
    keeps the handles for the recorder's whole life.
    """

    __slots__ = ("sizes", "latencies", "rejected", "note_size", "note_latency")

    def __init__(self) -> None:
        self.sizes: array[int] = array("q")
        self.latencies: array[float] = array("d")
        self.rejected = 0
        self.note_size: Callable[[int], None] = self.sizes.append
        self.note_latency: Callable[[float], None] = self.latencies.append

    def row(self) -> List[float]:
        """``[messages, bytes, lost, latency_ms_sum]`` of the journal."""
        sizes, latencies = self.sizes, self.latencies
        return [
            len(sizes),
            reduce(operator.add, sizes, 0),
            len(sizes) - len(latencies),
            reduce(operator.add, latencies, 0.0),
        ]

    def clear(self) -> None:
        del self.sizes[:]
        del self.latencies[:]
        self.rejected = 0


class FlightRecorder:
    """Rolls fixed-width sim-time windows and streams them to disk.

    Owns a :class:`~repro.observe.profile.WorkProfile` for the bound cloud
    to charge, or reads one attached to the cloud on its own (:meth:`follow`),
    so per-phase cost deltas land in the same windows as the traffic.
    Built with ``path=None`` it writes nothing: :attr:`log` holds the
    records instead.
    """

    def __init__(
        self,
        path: Optional[str],
        window: float = 1.0,
        top_docs: int = 5,
    ) -> None:
        if not (window > 0 and math.isfinite(window)):
            raise ValueError(f"window width must be a finite number > 0, got {window}")
        if top_docs < 0:
            raise ValueError(f"top_docs must be >= 0, got {top_docs}")
        self.path = path
        self.window = float(window)
        self.top_docs = top_docs
        self.profile = WorkProfile()
        #: The records so far when the recorder has no path, else ``None``.
        self.log: Optional[FlightLog] = None
        self._writer: Union[FlightWriter, FlightLog]
        if path is not None:
            self._writer = FlightWriter(path)
        else:
            self._writer = self.log = FlightLog()
        self._cloud: Optional["CacheCloud"] = None
        self._header_written = False
        self.finished = False
        self._index = 0
        self._window_start = 0.0
        #: End of the open window: a root at or past it closes windows
        #: (:meth:`advance`), one before it has nothing to roll.
        self.window_end = self.window
        # Window-local accumulators (reset at every window close); the
        # window's request count is the sum of its outcomes.
        self._updates = 0
        self._outcomes: Dict[str, int] = {}
        self._latency_sum = 0.0
        self._latency_max = 0.0
        #: category -> the open window's journalled attempts.
        self._fabric: Dict[str, FabricRow] = {}
        # Baselines for cumulative sources (profile, overload stats).
        self._profile_base = self.profile.snapshot()
        self._overload = CounterWindow(self._overload_counters)

    # ------------------------------------------------------------------
    # Attachment (driven by CacheCloud.attach_flight)
    # ------------------------------------------------------------------
    def bind(self, cloud: "CacheCloud") -> None:
        """Associate with ``cloud`` and write the header record."""
        self._cloud = cloud
        if not self._header_written:
            self._writer.append(
                {
                    "type": "header",
                    "schema": FLIGHT_SCHEMA_VERSION,
                    "window": self.window,
                    "top_docs": self.top_docs,
                    "caches": len(cloud.caches),
                    "roles": PHASE_ROLES,
                }
            )
            self._header_written = True
        self._overload.rebase()

    def follow(self, profile: WorkProfile) -> None:
        """Read ``profile`` from here on (the one the bound cloud charges);
        cost deltas count from its current counters."""
        self.profile = profile
        self._profile_base = profile.snapshot()

    # ------------------------------------------------------------------
    # Recording hooks (cloud entry points + fabric)
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Close every window whose end is at or before ``now``."""
        while now >= self.window_end:
            self._close_window(self.window_end)

    def observe_request(self, now: float, result: "RequestResult") -> None:
        """Count one served client request (windows already advanced)."""
        # ``_value_``: the plain attribute behind the ``value`` descriptor,
        # which costs two Python frames per read.
        outcome = result.outcome._value_
        outcomes = self._outcomes
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if outcome != "rejected":
            # Rejected requests have no service latency; including their
            # 0.0 would drag the window mean down exactly under overload.
            latency = result.latency_ms
            self._latency_sum += latency
            if latency > self._latency_max:
                self._latency_max = latency

    def observe_update(self, now: float) -> None:
        """Count one origin update (windows already advanced)."""
        self._updates += 1

    def fabric_row(self, category: str) -> FabricRow:
        """The open window's journal of ``category``'s attempts: one per
        category for the recorder's whole life."""
        row = self._fabric.get(category)
        if row is None:
            row = self._fabric[category] = FabricRow()
        return row

    def record_attempt(
        self, category: str, num_bytes: int, latency: Optional[float]
    ) -> None:
        """One fabric wire attempt (mirrors ``Telemetry.record_attempt``)."""
        row = self.fabric_row(category)
        row.note_size(num_bytes)
        if latency is not None:
            row.note_latency(latency * _MINUTES_TO_MS)

    def record_rejection(self, category: str) -> None:
        """One wire attempt turned away by a full destination queue."""
        self.fabric_row(category).rejected += 1

    # ------------------------------------------------------------------
    # Window lifecycle
    # ------------------------------------------------------------------
    def _overload_counters(self) -> Dict[str, float]:
        cloud = self._cloud
        if cloud is None or cloud.overload is None:
            return {}
        return cloud.overload.stats.window_counters()

    def _close_window(self, end: float, partial: bool = False) -> None:
        cloud = self._cloud
        requests = sum(self._outcomes.values())
        record: Dict[str, object] = {
            "type": "window",
            "index": self._index,
            "start": self._window_start,
            "end": end,
            "requests": requests,
            "updates": self._updates,
        }
        if partial:
            record["partial"] = True
        if self._outcomes:
            record["outcomes"] = self._outcomes
        if requests and self._outcomes.get("rejected", 0) < requests:
            record["latency_ms"] = [self._latency_sum, self._latency_max]
        fabric = {name: row.row() for name, row in self._fabric.items() if row.sizes}
        if fabric:
            record["fabric"] = fabric
        rejections = {name: row.rejected for name, row in self._fabric.items() if row.rejected}
        if rejections:
            record["queue_rejections"] = rejections
        counts, units = self.profile.snapshot()
        base_counts, base_units = self._profile_base
        cost: Dict[str, List[int]] = {}
        for phase in PHASES:
            delta_count = counts[phase] - base_counts[phase]
            delta_units = units[phase] - base_units[phase]
            if delta_count or delta_units:
                cost[phase] = [delta_count, delta_units]
        self._profile_base = (counts, units)
        if cost:
            record["cost"] = cost
        max_walk, top = self.profile.drain_window(self.top_docs)
        if top:
            record["walk"] = {
                "max": max_walk,
                "top": [[doc_id, walked] for doc_id, walked in top],
            }
        if cloud is not None and cloud.elastic is not None:
            record["cloud_size"] = cloud.elastic.active_count()
        overload = self._overload.delta()
        if overload:
            samples = overload["depth_samples"]
            record["overload"] = {
                "admitted": overload["admitted"],
                "rejected": overload["rejected"],
                "shed": overload["shed"],
                "avg_depth": (
                    overload["depth_sum"] / samples if samples else 0.0
                ),
            }
        self._writer.append(record)
        self._index += 1
        self._window_start = end
        self.window_end = end + self.window
        self._updates = 0
        self._outcomes = {}
        self._latency_sum = 0.0
        self._latency_max = 0.0
        for row in self._fabric.values():
            row.clear()

    def finish(self, now: float) -> None:
        """Close remaining windows, append the summary, close the file."""
        if self.finished:
            return
        self.advance(now)
        if now > self._window_start:
            self._close_window(now, partial=True)
        self._writer.append(
            {
                "type": "summary",
                "end": now,
                "windows": self._index,
                "profile": self.profile.to_dict(),
            }
        )
        self._writer.close()
        self.finished = True


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
class ArtifactError(ValueError):
    """A file this program wrote and reads back is malformed.

    The one error of the artifact readers — flight logs here, result
    archives (``experiments.reporting``), sweep checkpoints
    (``experiments.parallel``). The message names the file; the CLI prints
    it on one line and exits 2.
    """


#: Fields the renderers index without a default, per record type: a reader
#: that lets a record through without them only moves the crash downstream.
_REQUIRED_NUMBERS = {
    "header": ("window",),
    "window": ("index", "start", "end", "requests", "updates"),
}


@dataclass
class FlightLog:
    """A flight recording: parsed from an artifact, or kept in memory.

    :meth:`append` files one record under the header, the windows or the
    summary; :func:`read_flight` feeds it the lines of a file, and a
    recorder without a path uses the log itself as its sink.
    """

    header: Optional[Dict[str, Any]] = None
    windows: List[Dict[str, Any]] = field(default_factory=list)
    summary: Optional[Dict[str, Any]] = None
    #: True when the file ended in an incomplete (torn) line.
    torn_tail: bool = False

    def append(self, record: Dict[str, Any]) -> None:
        """File one record by its ``type`` (other types are skipped)."""
        kind = record.get("type")
        if kind == "header":
            self.header = record
        elif kind == "window":
            self.windows.append(record)
        elif kind == "summary":
            self.summary = record

    def close(self) -> None:
        """Nothing to release: the sink half of the writer interface."""

    @property
    def window_width(self) -> float:
        if self.header is None:
            raise ValueError("flight log has no header")
        return float(self.header["window"])


def read_flight(path: str) -> FlightLog:
    """Parse a flight artifact, tolerating a torn trailing line.

    A complete line that fails to parse is real corruption and raises;
    only the final newline-less fragment (a crash tear) is skipped. A header
    without a finite ``window > 0`` or an integer ``top_docs >= 0`` (the
    window geometry) raises too.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    keep = data.rfind(b"\n") + 1
    log = FlightLog(torn_tail=bool(data) and not data.endswith(b"\n"))
    for lineno, raw in enumerate(data[:keep].splitlines(), start=1):
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except ValueError as exc:
            raise ArtifactError(f"{path}:{lineno}: corrupt flight record") from exc
        if not isinstance(record, dict):
            raise ArtifactError(f"{path}:{lineno}: flight record is not an object")
        kind = record.get("type")
        for name in _REQUIRED_NUMBERS.get(kind, ()):
            value = record.get(name)
            if type(value) not in (int, float) or value != value or abs(value) == math.inf:
                raise ArtifactError(
                    f"{path}:{lineno}: {kind} record needs a finite number "
                    f"{name!r}, got {value!r}"
                )
        if kind == "header":
            top_docs = record.get("top_docs")
            if record["window"] <= 0:
                raise ArtifactError(
                    f"{path}:{lineno}: header record needs a window > 0, "
                    f"got {record['window']!r}"
                )
            if type(top_docs) is not int or top_docs < 0:
                raise ArtifactError(
                    f"{path}:{lineno}: header record needs an integer "
                    f"'top_docs' >= 0, got {top_docs!r}"
                )
        log.append(record)
    return log


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _per_arrival(window: Mapping[str, Any], counter: str) -> float:
    overload = window["overload"]
    return _ratio(overload[counter], overload["admitted"] + overload["rejected"])


def _cloud_hit_rate(window: Mapping[str, Any]) -> float:
    outcomes = window.get("outcomes", {})
    return _ratio(
        outcomes.get("local_hit", 0) + outcomes.get("cloud_hit", 0),
        window["requests"] - outcomes.get("rejected", 0),
    )


#: How :func:`window_series` reads each series off one window record.
_WINDOW_VALUES: Dict[str, Callable[[Mapping[str, Any]], float]] = {
    "avg_queue_depth": lambda window: float(window["overload"]["avg_depth"]),
    "rejection_rate": lambda window: _per_arrival(window, "rejected"),
    "shed_rate": lambda window: _per_arrival(window, "shed"),
    "cloud_hit_rate": _cloud_hit_rate,
    "cloud_size": lambda window: float(window["cloud_size"]),
}


def window_series(
    log: FlightLog, names: Sequence[str]
) -> Dict[str, List[Tuple[float, float]]]:
    """``name -> [(window end, value), ...]`` for each of ``names``.

    * ``avg_queue_depth`` — mean queue depth at message arrivals;
    * ``rejection_rate`` / ``shed_rate`` — client requests turned away /
      cooperative work items shed, per client arrival;
    * ``cloud_hit_rate`` — share of the requests served (not rejected)
      that hit in the cloud, locally or at a peer;
    * ``cloud_size`` — live caches when the window closed.

    A ratio over an empty window is 0.0. The first three need an overload
    controller attached to the recorded cloud, ``cloud_size`` an elastic one.
    """
    return {
        name: [(window["end"], _WINDOW_VALUES[name](window)) for window in log.windows]
        for name in names
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"

#: Characters a sparkline spans at most.
SPARK_WIDTH = 60


def sparkline(values: List[float]) -> str:
    """Render ``values`` as a fixed-height Unicode sparkline.

    Longer series are downsampled by averaging equal chunks so the curve
    always fits in :data:`SPARK_WIDTH` characters.
    """
    if not values:
        return ""
    if len(values) > SPARK_WIDTH:
        chunk = len(values) / SPARK_WIDTH
        downsampled: List[float] = []
        for i in range(SPARK_WIDTH):
            lo = int(i * chunk)
            hi = max(lo + 1, int((i + 1) * chunk))
            segment = values[lo:hi]
            downsampled.append(sum(segment) / len(segment))
        values = downsampled
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return _SPARK_LEVELS[0] * len(values)
    top = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[min(top, int((value - low) / span * top))]
        for value in values
    )


def _window_rps(window: Mapping[str, Any]) -> float:
    """Requests per simulated second within one window."""
    span = float(window["end"]) - float(window["start"])
    if span <= 0:
        return 0.0
    return float(window["requests"]) / (span * _MINUTES_TO_S)


def _total_outcomes(windows: List[Dict[str, Any]]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for window in windows:
        for outcome, count in window.get("outcomes", {}).items():
            totals[outcome] = totals.get(outcome, 0) + int(count)
    return totals


def _total_cost(windows: List[Dict[str, Any]]) -> Dict[str, Tuple[int, int]]:
    totals: Dict[str, Tuple[int, int]] = {}
    for window in windows:
        for phase, pair in window.get("cost", {}).items():
            count, units = totals.get(phase, (0, 0))
            totals[phase] = (count + int(pair[0]), units + int(pair[1]))
    return totals


def _hottest_docs(
    windows: List[Dict[str, Any]], top_k: int
) -> List[Tuple[int, int]]:
    """Merge per-window leader tables into an overall hottest-docs list."""
    best: Dict[int, int] = {}
    for window in windows:
        for doc_id, walked in window.get("walk", {}).get("top", []):
            if int(walked) > best.get(int(doc_id), -1):
                best[int(doc_id)] = int(walked)
    return sorted(best.items(), key=lambda item: (-item[1], item[0]))[:top_k]


def _phase_share(
    cost: Mapping[str, Tuple[int, int]], phase: str
) -> float:
    total = sum(units for _, units in cost.values())
    if not total:
        return 0.0
    return cost.get(phase, (0, 0))[1] / total


def _quarter(windows: List[Dict[str, Any]], last: bool) -> List[Dict[str, Any]]:
    """First or last quarter of the series (at least one window)."""
    if not windows:
        return []
    size = max(1, len(windows) // 4)
    return windows[-size:] if last else windows[:size]


def _full_windows(windows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Windows usable for rate statistics.

    A trailing partial window can be arbitrarily narrow, which turns its
    requests-per-second into noise; rates are computed over full-width
    windows only (falling back to everything when the run was shorter than
    one window).
    """
    full = [w for w in windows if not w.get("partial")]
    return full if full else windows


def render_flight_report(log: FlightLog, top_k: int = 5) -> str:
    """Human-readable dashboard for one flight artifact."""
    lines: List[str] = []
    header = log.header or {}
    windows = log.windows
    lines.append("flight report")
    lines.append(
        "  schema v%s · window %.3g min · %s windows · %s caches at start"
        % (
            header.get("schema", "?"),
            float(header.get("window", 0.0)),
            len(windows),
            header.get("caches", "?"),
        )
    )
    if log.torn_tail:
        lines.append("  note: artifact ends in a torn line (crash tail ignored)")
    if not windows:
        lines.append("  (no windows recorded)")
        return "\n".join(lines)

    rate_windows = _full_windows(windows)
    rps = [_window_rps(w) for w in rate_windows]
    requests = sum(int(w["requests"]) for w in windows)
    updates = sum(int(w["updates"]) for w in windows)
    span = float(windows[-1]["end"]) - float(windows[0]["start"])
    lines.append(
        "  %d requests, %d updates over %.3g sim-minutes" % (requests, updates, span)
    )
    lines.append("")
    lines.append("throughput (requests / sim-second)")
    lines.append("  " + sparkline(rps))
    lines.append(
        "  min %.1f · mean %.1f · max %.1f" % (
            min(rps), sum(rps) / len(rps), max(rps),
        )
    )
    first_q = [_window_rps(w) for w in _quarter(rate_windows, last=False)]
    last_q = [_window_rps(w) for w in _quarter(rate_windows, last=True)]
    if first_q and last_q:
        lines.append(
            "  first-quarter mean %.1f → last-quarter mean %.1f" % (
                sum(first_q) / len(first_q), sum(last_q) / len(last_q),
            )
        )

    outcomes = _total_outcomes(windows)
    if outcomes:
        lines.append("")
        lines.append("outcome mix")
        total = sum(outcomes.values())
        for outcome in sorted(outcomes, key=lambda o: (-outcomes[o], o)):
            count = outcomes[outcome]
            lines.append(
                "  %-32s %10d  %5.1f%%" % (outcome, count, 100.0 * count / total)
            )

    cost = _total_cost(windows)
    if cost:
        lines.append("")
        lines.append("per-phase cost stack (work units)")
        roles = header.get("roles", PHASE_ROLES)
        total_units = sum(units for _, units in cost.values())
        ordered = sorted(cost.items(), key=lambda item: (-item[1][1], item[0]))
        for phase, (count, units) in ordered:
            share = units / total_units if total_units else 0.0
            bar = "█" * int(round(share * 30))
            lines.append(
                "  %-14s %-9s %12d units %6.1f%%  %s"
                % (phase, roles.get(phase, "?"), units, 100.0 * share, bar)
            )
        first_cost = _total_cost(_quarter(windows, last=False))
        last_cost = _total_cost(_quarter(windows, last=True))
        lines.append(
            "  holder_verify share: first-quarter %.1f%% → last-quarter %.1f%%"
            % (
                100.0 * _phase_share(first_cost, "holder_verify"),
                100.0 * _phase_share(last_cost, "holder_verify"),
            )
        )

    hottest = _hottest_docs(windows, top_k)
    if hottest:
        lines.append("")
        lines.append("hottest documents by holder-walk length")
        for doc_id, walked in hottest:
            lines.append("  doc %-10d walked %d holders" % (doc_id, walked))

    overload_windows = [w for w in windows if "overload" in w]
    if overload_windows:
        lines.append("")
        lines.append("overload")
        rejected = sum(float(w["overload"]["rejected"]) for w in overload_windows)
        shed = sum(float(w["overload"]["shed"]) for w in overload_windows)
        depth = [float(w["overload"]["avg_depth"]) for w in overload_windows]
        lines.append(
            "  avg queue depth %.2f (peak window %.2f) · %d rejected · %d shed"
            % (sum(depth) / len(depth), max(depth), int(rejected), int(shed))
        )
    return "\n".join(lines)


def render_flight_html(log: FlightLog, top_k: int = 5) -> str:
    """Minimal self-contained HTML wrapper around the text dashboard.

    Deliberately dependency-free: the windowed table is semantic HTML and
    the curve stays a monospace sparkline, so the artifact renders
    anywhere (CI artifact viewers included).
    """
    from html import escape

    report = escape(render_flight_report(log, top_k=top_k))
    rows: List[str] = []
    for window in log.windows:
        cost = window.get("cost", {})
        verify = cost.get("holder_verify", [0, 0])
        rows.append(
            "<tr><td>%s</td><td>%.3g–%.3g</td><td>%d</td><td>%.1f</td>"
            "<td>%d</td><td>%d</td></tr>"
            % (
                window["index"],
                float(window["start"]),
                float(window["end"]),
                int(window["requests"]),
                _window_rps(window),
                int(verify[0]),
                int(verify[1]),
            )
        )
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        "<title>flight report</title>"
        "<style>body{font-family:monospace}table{border-collapse:collapse}"
        "td,th{border:1px solid #999;padding:2px 8px;text-align:right}"
        "</style></head><body>"
        "<h1>flight report</h1><pre>" + report + "</pre>"
        "<h2>windows</h2><table><tr><th>#</th><th>span (min)</th>"
        "<th>requests</th><th>req/s</th><th>verify walks</th>"
        "<th>holders walked</th></tr>"
        + "".join(rows)
        + "</table></body></html>\n"
    )


# ----------------------------------------------------------------------
# Diffing (the regression gate)
# ----------------------------------------------------------------------
def diff_flights(
    baseline: FlightLog, candidate: FlightLog, tolerance: float = 0.10
) -> Tuple[List[str], bool]:
    """Compare two flight artifacts with thresholded verdicts.

    Returns ``(report_lines, ok)``. The comparison is structural first
    (schema, window geometry, series length), then statistical: per-window
    throughput drift, total outcome-mix shares, and per-phase cost-unit
    shares must each stay within ``tolerance``.
    """
    lines: List[str] = []
    ok = True

    def verdict(passed: bool, text: str) -> None:
        nonlocal ok
        ok = ok and passed
        lines.append(("OK   " if passed else "FAIL ") + text)

    base_header = baseline.header or {}
    cand_header = candidate.header or {}
    verdict(
        base_header.get("schema") == cand_header.get("schema"),
        "schema: %s vs %s"
        % (base_header.get("schema"), cand_header.get("schema")),
    )
    verdict(
        base_header.get("window") == cand_header.get("window"),
        "window width: %s vs %s min"
        % (base_header.get("window"), cand_header.get("window")),
    )
    verdict(
        len(baseline.windows) == len(candidate.windows),
        "window count: %d vs %d"
        % (len(baseline.windows), len(candidate.windows)),
    )
    if not ok:
        return lines, False

    worst_drift = 0.0
    worst_index = -1
    for base_window, cand_window in zip(
        _full_windows(baseline.windows), _full_windows(candidate.windows)
    ):
        base_rps = _window_rps(base_window)
        cand_rps = _window_rps(cand_window)
        scale = max(base_rps, cand_rps)
        if scale <= 0:
            continue
        drift = abs(base_rps - cand_rps) / scale
        if drift > worst_drift:
            worst_drift = drift
            worst_index = int(base_window["index"])
    verdict(
        worst_drift <= tolerance,
        "throughput: worst window drift %.1f%% (window %s, tolerance %.1f%%)"
        % (
            100.0 * worst_drift,
            worst_index if worst_index >= 0 else "-",
            100.0 * tolerance,
        ),
    )

    base_outcomes = _total_outcomes(baseline.windows)
    cand_outcomes = _total_outcomes(candidate.windows)
    base_total = sum(base_outcomes.values())
    cand_total = sum(cand_outcomes.values())
    worst_outcome_drift = 0.0
    worst_outcome = "-"
    for outcome in sorted(set(base_outcomes) | set(cand_outcomes)):
        base_share = base_outcomes.get(outcome, 0) / base_total if base_total else 0.0
        cand_share = cand_outcomes.get(outcome, 0) / cand_total if cand_total else 0.0
        drift = abs(base_share - cand_share)
        if drift > worst_outcome_drift:
            worst_outcome_drift = drift
            worst_outcome = outcome
    verdict(
        worst_outcome_drift <= tolerance,
        "outcome mix: worst share drift %.1f points (%s, tolerance %.1f)"
        % (100.0 * worst_outcome_drift, worst_outcome, 100.0 * tolerance),
    )

    base_cost = _total_cost(baseline.windows)
    cand_cost = _total_cost(candidate.windows)
    worst_cost_drift = 0.0
    worst_phase = "-"
    for phase in sorted(set(base_cost) | set(cand_cost)):
        drift = abs(_phase_share(base_cost, phase) - _phase_share(cand_cost, phase))
        if drift > worst_cost_drift:
            worst_cost_drift = drift
            worst_phase = phase
    verdict(
        worst_cost_drift <= tolerance,
        "cost stack: worst phase-share drift %.1f points (%s, tolerance %.1f)"
        % (100.0 * worst_cost_drift, worst_phase, 100.0 * tolerance),
    )
    return lines, ok
