"""Trace file I/O.

Traces serialize to a simple line-oriented text format so they can be
inspected with standard tools, diffed, and checked into test fixtures:

``R <time> <cache_id> <doc_id>`` for requests,
``U <time> <doc_id>`` for updates, one record per line, in any order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, TextIO, Union

from repro.workload.trace import RequestRecord, Trace, UpdateRecord


class TraceFormatError(ValueError):
    """Raised when a trace file line cannot be parsed."""


def write_trace(trace: Trace, destination: Union[str, Path, TextIO]) -> int:
    """Write ``trace`` to a path or file object; returns the record count.

    Records are written in global time order (updates before requests at
    equal timestamps, matching :meth:`Trace.merged`).
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as fh:
            return _write_records(trace, fh)
    return _write_records(trace, destination)


def _write_records(trace: Trace, fh: TextIO) -> int:
    count = 0
    for record in trace.merged():
        if isinstance(record, UpdateRecord):
            fh.write(f"U {record.time:.6f} {record.doc_id}\n")
        else:
            fh.write(f"R {record.time:.6f} {record.cache_id} {record.doc_id}\n")
        count += 1
    return count


def read_trace(source: Union[str, Path, TextIO]) -> Trace:
    """Parse a trace file written by :func:`write_trace`.

    Blank lines and lines starting with ``#`` are ignored, so fixtures may
    carry comments. A file is decoded (UTF-8) line by line, so bytes that do
    not decode are a malformed line like any other.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return _read_records(fh)
    return _read_records(source)


def _read_records(fh: Iterable[Union[str, bytes]]) -> Trace:
    requests: List[RequestRecord] = []
    updates: List[UpdateRecord] = []
    for lineno, raw in enumerate(fh, start=1):
        try:
            line = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            kind = fields[0]
            if kind == "R":
                if len(fields) != 4:
                    raise TraceFormatError(
                        f"line {lineno}: R record needs 4 fields, got {len(fields)}"
                    )
                requests.append(
                    RequestRecord(
                        time=float(fields[1]),
                        cache_id=int(fields[2]),
                        doc_id=int(fields[3]),
                    )
                )
            elif kind == "U":
                if len(fields) != 3:
                    raise TraceFormatError(
                        f"line {lineno}: U record needs 3 fields, got {len(fields)}"
                    )
                updates.append(
                    UpdateRecord(time=float(fields[1]), doc_id=int(fields[2]))
                )
            else:
                raise TraceFormatError(f"line {lineno}: unknown record kind {kind!r}")
        except ValueError as exc:
            if isinstance(exc, TraceFormatError):
                raise
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
    return Trace(requests=requests, updates=updates)
