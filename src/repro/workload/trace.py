"""Trace record types and containers.

The simulator is trace-driven (paper §4): each cache receives requests from a
request trace, and the origin server reads from an update trace. A *trace* is
a time-ordered sequence of request records (which cache saw a request for
which document) and update records (the origin invalidated/regenerated a
document).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Union


@dataclass(frozen=True, order=True, slots=True)
class RequestRecord:
    """A client request arriving at an edge cache.

    Ordering is by ``time`` first (dataclass order), so records sort into
    trace order naturally.
    """

    time: float
    cache_id: int
    doc_id: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.time < inf:  # also false for NaN
            raise ValueError(f"time must be finite and >= 0, got {self.time}")
        if self.cache_id < 0:
            raise ValueError(f"cache_id must be >= 0, got {self.cache_id}")
        if self.doc_id < 0:
            raise ValueError(f"doc_id must be >= 0, got {self.doc_id}")


@dataclass(frozen=True, order=True, slots=True)
class UpdateRecord:
    """An origin-server update (new version) of a document."""

    time: float
    doc_id: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.time < inf:  # also false for NaN
            raise ValueError(f"time must be finite and >= 0, got {self.time}")
        if self.doc_id < 0:
            raise ValueError(f"doc_id must be >= 0, got {self.doc_id}")


TraceRecord = Union[RequestRecord, UpdateRecord]


class Trace:
    """A materialized, time-sorted trace of requests and updates.

    Most experiments stream records straight from a generator; this container
    exists for tests, for writing traces to disk, and for replaying the exact
    same trace under several configurations (common-random-numbers
    comparisons).
    """

    def __init__(
        self,
        requests: Sequence[RequestRecord] = (),
        updates: Sequence[UpdateRecord] = (),
    ) -> None:
        self.requests: List[RequestRecord] = sorted(requests)
        self.updates: List[UpdateRecord] = sorted(updates)

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
