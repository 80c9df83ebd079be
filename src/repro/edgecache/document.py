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
    size_bytes:
        Body size (what the copy occupies on disk).
    stored_at:
        Simulation time the copy was admitted (for residence-time stats).

    The doc id is the store's key, the version a slot of its version column
    (:attr:`~repro.edgecache.storage.CacheStorage.versions`). Hit recency is
    the replacement policy's, hit frequency the cache's rate table's.
    """

    __slots__ = ("size_bytes", "stored_at")

    size_bytes: int
    stored_at: float

    def __init__(self, size_bytes: int, stored_at: float) -> None:
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be > 0, got {size_bytes}")
        self.size_bytes = size_bytes
        self.stored_at = stored_at

    def residence_time(self, now: float) -> float:
        """How long the copy has been resident."""
        return max(0.0, now - self.stored_at)
