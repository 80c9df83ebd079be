"""In-cache document copy."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(init=False)
class CachedDocument:
    """A stored copy of a document at one edge cache.

    The most-instantiated object of a run (one per resident copy per
    cache), so it is slotted, and the constructor validates in its own
    frame rather than a generated ``__init__`` calling ``__post_init__``.

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

    Hit recency is the replacement policy's to keep, hit frequency the
    cache's rate table's; the copy records neither.
    """

    __slots__ = ("doc_id", "size_bytes", "version", "stored_at")

    doc_id: int
    size_bytes: int
    version: int
    stored_at: float

    def __init__(
        self, doc_id: int, size_bytes: int, version: int, stored_at: float
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

    def residence_time(self, now: float) -> float:
        """How long the copy has been resident."""
        return max(0.0, now - self.stored_at)
