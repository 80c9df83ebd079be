"""In-cache document copy."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(init=False)
class CachedDocument:
    """A stored copy of a document at one edge cache.

    The most-instantiated object of a run (one per resident copy per
    cache), so it is slotted: the constructor is written out by hand
    because a slot cannot share its name with a class-level field default.

    Attributes
    ----------
    doc_id:
        Corpus document id.
    size_bytes:
        Body size (what the copy occupies on disk).
    version:
        Version number of the stored copy; compared against the origin's
        version to decide freshness.
    stored_at:
        Simulation time the copy was admitted (for residence-time stats).
    last_access:
        Simulation time of the most recent hit (``stored_at`` until then).
    access_count:
        Number of local hits served by this copy since admission.
    """

    __slots__ = (
        "doc_id",
        "size_bytes",
        "version",
        "stored_at",
        "last_access",
        "access_count",
    )

    doc_id: int
    size_bytes: int
    version: int
    stored_at: float
    last_access: float
    access_count: int

    def __init__(
        self,
        doc_id: int,
        size_bytes: int,
        version: int,
        stored_at: float,
        last_access: float = 0.0,
        access_count: int = 0,
    ) -> None:
        if doc_id < 0:
            raise ValueError(f"doc_id must be >= 0, got {doc_id}")
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be > 0, got {size_bytes}")
        if version < 0:
            raise ValueError(f"version must be >= 0, got {version}")
        self.doc_id = doc_id
        self.size_bytes = size_bytes
        self.version = version
        self.stored_at = stored_at
        self.last_access = stored_at if last_access == 0.0 else last_access
        self.access_count = access_count

    def touch(self, now: float) -> None:
        """Record a hit at time ``now``."""
        self.last_access = now
        self.access_count += 1

    def residence_time(self, now: float) -> float:
        """How long the copy has been resident."""
        return max(0.0, now - self.stored_at)
