"""Trace record types and containers.

The simulator is trace-driven (paper §4): each cache receives requests from a
request trace, and the origin server reads from an update trace. A *trace* is
a time-ordered sequence of request records (which cache saw a request for
which document) and update records (the origin invalidated/regenerated a
document).

A record is an immutable tuple of its fields, checked when it is made; a
materialized :class:`Trace` keeps no record objects at all, only one column
per field (DESIGN.md §3.3), and makes each record as it is read.
"""

from __future__ import annotations

from array import array
from itertools import islice, repeat
from math import inf
from operator import eq, lt
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Set,
    Tuple,
    Type,
    TypeVar,
    Union,
    cast,
    overload,
)

if TYPE_CHECKING:
    from typing_extensions import Self


class _RequestFields(NamedTuple):
    time: float
    cache_id: int
    doc_id: int


class _UpdateFields(NamedTuple):
    time: float
    doc_id: int


def _bad_time(time: float) -> ValueError:
    return ValueError(f"time must be finite and >= 0, got {time}")


class RequestRecord(_RequestFields):
    """A client request arriving at an edge cache.

    A record is the tuple ``(time, cache_id, doc_id)``, so records sort into
    trace order naturally (by ``time`` first) and a record equals the plain
    tuple of its fields. Every way of making one — the constructor,
    ``_make``, ``_replace``, copying, unpickling (protocol >= 2, as for any
    slotted class) — runs the same checks.
    """

    __slots__ = ()

    def __new__(cls, time: float, cache_id: int, doc_id: int) -> Self:
        if not 0.0 <= time < inf:  # also false for NaN
            raise _bad_time(time)
        if cache_id < 0:
            raise ValueError(f"cache_id must be >= 0, got {cache_id}")
        if doc_id < 0:
            raise ValueError(f"doc_id must be >= 0, got {doc_id}")
        return tuple.__new__(cls, (time, cache_id, doc_id))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Self:
        return cls(*iterable)

    def _replace(self, **changes: Any) -> Self:
        return type(self)(**{**self._asdict(), **changes})


class UpdateRecord(_UpdateFields):
    """An origin-server update (new version) of a document: ``(time, doc_id)``."""

    __slots__ = ()

    def __new__(cls, time: float, doc_id: int) -> Self:
        if not 0.0 <= time < inf:  # also false for NaN
            raise _bad_time(time)
        if doc_id < 0:
            raise ValueError(f"doc_id must be >= 0, got {doc_id}")
        return tuple.__new__(cls, (time, doc_id))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Self:
        return cls(*iterable)

    def _replace(self, **changes: Any) -> Self:
        return type(self)(**{**self._asdict(), **changes})


TraceRecord = Union[RequestRecord, UpdateRecord]
#: What a :class:`Trace` is built from: records, or bare tuples of their fields.
RequestRow = Tuple[float, int, int]
UpdateRow = Tuple[float, int]
#: A time column, then one id column per remaining field.
Columns = Tuple[Sequence[Any], ...]

_Record = TypeVar("_Record", RequestRecord, UpdateRecord)


class RecordColumns(Sequence[_Record]):
    """A read-only sequence of records stored as columns.

    Times sit in an ``array('d')``; each id field is a plain ``list`` holding
    the very int objects its rows carried (an ``array('q')`` would box a fresh
    int on every read and cost downstream dict lookups their identity fast
    path). Iterating makes each record in C without re-checking it — the
    columns were checked when built. The view compares equal to a list of
    the same records.
    """

    __slots__ = ("_record", "_columns")

    def __init__(self, record: Type[_Record], columns: Columns) -> None:
        self._record = record
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[_Record]:
        return cast(
            "Iterator[_Record]",
            map(tuple.__new__, repeat(self._record), zip(*self._columns)),
        )

    @overload
    def __getitem__(self, index: int) -> _Record: ...

    @overload
    def __getitem__(self, index: slice) -> RecordColumns[_Record]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[_Record, RecordColumns[_Record]]:
        if isinstance(index, slice):
            return RecordColumns(self._record, tuple(column[index] for column in self._columns))
        return self._record(*(column[index] for column in self._columns))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, RecordColumns)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{len(self)} {self._record.__name__}s in columns>"


def _request_columns(rows: Iterable[RequestRow]) -> Columns:
    times: array[float] = array("d")
    cache_ids: List[int] = []
    doc_ids: List[int] = []
    add_time, add_cache, add_doc = times.append, cache_ids.append, doc_ids.append
    for time, cache_id, doc_id in rows:
        add_time(time)
        add_cache(cache_id)
        add_doc(doc_id)
    return times, cache_ids, doc_ids


def _update_columns(rows: Iterable[UpdateRow]) -> Columns:
    times: array[float] = array("d")
    doc_ids: List[int] = []
    add_time, add_doc = times.append, doc_ids.append
    for time, doc_id in rows:
        add_time(time)
        add_doc(doc_id)
    return times, doc_ids


def _checked(record: Type[_Record], columns: Columns) -> RecordColumns[_Record]:
    """``columns`` checked once, as a whole, and put in record order.

    Strictly increasing times that start at >= 0 and end below ``inf`` are
    all finite and >= 0 (a NaN fails some ``<``), and already in order: the
    common case, a generator's own rows, costs one C pass over the times, a
    ``min`` per id column and no sort. Anything else — ties, disorder, a bad
    time — checks every time and sorts whole rows, which is ``sorted()`` of
    the records.
    """
    times, *ids = columns
    for name, column in zip(record.__match_args__[1:], ids):  # the field names
        if column and min(column) < 0:
            raise ValueError(f"{name} must be >= 0, got {min(column)}")
    if not times or (
        0.0 <= times[0]
        and times[-1] < inf
        and all(map(lt, times, islice(times, 1, None)))
    ):
        return RecordColumns(record, columns)
    for time in times:
        if not 0.0 <= time < inf:
            raise _bad_time(time)
    ordered_times, *ordered_ids = zip(*sorted(zip(*columns)))
    ordered: Columns = (array("d", ordered_times), *map(list, ordered_ids))
    return RecordColumns(record, ordered)


class Trace:
    """A materialized, time-sorted trace of requests and updates.

    Most experiments stream records straight from a generator; this container
    exists for tests, for writing traces to disk, and for replaying the exact
    same trace under several configurations (common-random-numbers
    comparisons). It is built from rows — records, or bare field tuples —
    in any order, and stores them as :class:`RecordColumns`.
    """

    def __init__(
        self,
        requests: Iterable[RequestRow] = (),
        updates: Iterable[UpdateRow] = (),
    ) -> None:
        self.requests = _checked(RequestRecord, _request_columns(requests))
        self.updates = _checked(UpdateRecord, _update_columns(updates))

    @property
    def duration(self) -> float:
        """Timestamp of the latest record (0.0 for an empty trace)."""
        last = 0.0
        if self.requests:
            last = max(last, self.requests[-1].time)
        if self.updates:
            last = max(last, self.updates[-1].time)
        return last

    def merged(self) -> Iterator[TraceRecord]:
        """Iterate all records in global time order (:func:`merge_streams`)."""
        return merge_streams(self.requests, self.updates)

    def request_counts_by_doc(self) -> Dict[int, int]:
        """Histogram: doc_id -> number of requests (for workload validation)."""
        counts: Dict[int, int] = {}
        for record in self.requests:
            counts[record.doc_id] = counts.get(record.doc_id, 0) + 1
        return counts

    def update_counts_by_doc(self) -> Dict[int, int]:
        """Histogram: doc_id -> number of updates."""
        counts: Dict[int, int] = {}
        for record in self.updates:
            counts[record.doc_id] = counts.get(record.doc_id, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.requests) + len(self.updates)

    def __repr__(self) -> str:
        return (
            f"Trace(requests={len(self.requests)}, updates={len(self.updates)}, "
            f"duration={self.duration:.2f})"
        )


def merge_streams(
    requests: Iterable[RequestRecord], updates: Iterable[UpdateRecord]
) -> Iterator[TraceRecord]:
    """Merge two individually time-sorted streams into global time order.

    Both inputs may be lazy iterators; the merge is itself lazy, so
    arbitrarily long traces can be replayed in O(1) memory. An update goes
    before a request of the same timestamp, so that a request arriving "at
    the same instant" as an invalidation observes the new version — the
    conservative choice for consistency accounting.
    """
    request_iter = iter(requests)
    request = next(request_iter, None)
    for update in updates:
        while request is not None and request.time < update.time:
            yield request
            request = next(request_iter, None)
        yield update
    if request is not None:
        yield request
        yield from request_iter


class RequestStreamStats:
    """Pass-through request iterator that tallies stream statistics.

    The out-of-core run path never materializes the trace, but results
    still report ``unique_request_docs``; wrapping the lazy request stream
    in this counter preserves the metric at O(distinct documents) resident
    state — bounded by the corpus, never by the request count.
    """

    def __init__(self, requests: Iterable[RequestRecord]) -> None:
        self._requests = requests
        self._doc_ids: Set[int] = set()
        self.records = 0

    def __iter__(self) -> Iterator[RequestRecord]:
        for record in self._requests:
            self._doc_ids.add(record.doc_id)
            self.records += 1
            yield record

    @property
    def unique_docs(self) -> int:
        """Distinct documents seen so far."""
        return len(self._doc_ids)
