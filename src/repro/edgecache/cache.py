"""The edge cache node facade.

An :class:`EdgeCache` bundles the storage, statistics, and rate trackers of
one node. It is deliberately cloud-agnostic: the cooperation protocols
(lookup, update fan-out, placement) live in :mod:`repro.core.cloud`, which
orchestrates a set of these nodes. That separation mirrors the paper's
layering — a cache cloud is built *from* ordinary edge caches.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence

from repro.edgecache.stats import AccessFrequencyTracker, CacheStats
from repro.edgecache.storage import CacheStorage, ResidenceOrder


class EdgeCache:
    """One edge cache node.

    Parameters
    ----------
    cache_id:
        Cloud-local identifier (also the node id in the topology).
    capacity_bytes:
        Disk budget; ``None`` for the unlimited-disk experiments. A bounded
        disk evicts least recently used first.
    capability:
        Relative machine power (paper §2.3: "each beacon point is assigned a
        positive real value to indicate its capability"). Used by the
        sub-range determination to give stronger nodes larger load shares.
    holder_epoch:
        One-element counter cell shared by every cache of a cloud. It is
        bumped whenever this cache stops holding documents *without* its
        beacon points being told — a crash or a retirement (every eviction
        is announced) — which is what invalidates, cloud-wide, the
        directory stamps that let a lookup trust its holder list
        (:mod:`repro.core.directory`). A cache outside a cloud gets its own.
    residence_order:
        The cloud's residence order, shared the same way: every cache's
        storage keeps its entry there under its ``cache_id``
        (:class:`~repro.edgecache.storage.CacheStorage`). A cache outside a
        cloud gets its own.
    sizes:
        The corpus's size column, shared by every cache of a cloud; it
        sizes the storage's version column up front
        (:class:`~repro.edgecache.storage.CacheStorage`). A cache outside a
        cloud grows a private one.
    """

    def __init__(
        self,
        cache_id: int,
        capacity_bytes: Optional[int] = None,
        capability: float = 1.0,
        holder_epoch: Optional[List[int]] = None,
        residence_order: Optional[ResidenceOrder] = None,
        sizes: Optional[array[int]] = None,
    ) -> None:
        if cache_id < 0:
            raise ValueError(f"cache_id must be >= 0, got {cache_id}")
        if capability <= 0:
            raise ValueError(f"capability must be > 0, got {capability}")
        self.cache_id = cache_id
        self.capability = capability
        self.storage = CacheStorage(
            capacity_bytes=capacity_bytes,
            residence_order=residence_order,
            order_id=cache_id,
            sizes=sizes,
        )
        self.stats = CacheStats()
        self.frequencies = AccessFrequencyTracker()
        self.alive = True
        self.holder_epoch = holder_epoch if holder_epoch is not None else [0]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def holds(self, doc_id: int) -> bool:
        """Whether a copy (fresh or stale) is resident."""
        return doc_id in self.storage

    def holds_fresh(self, doc_id: int, current_version: int) -> bool:
        """Whether a copy at ``current_version`` (or newer) is resident."""
        return self.storage.version_of(doc_id) >= current_version

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def observe_request(self, doc_id: int, now: float) -> None:
        """Record the arrival of a client request (hit or miss)."""
        self.stats.requests += 1
        self.frequencies.observe(doc_id, now)

    def serve_local(self, doc_id: int, now: float) -> None:
        """Serve a local hit; updates recency/frequency state."""
        self.storage.access(doc_id, now)
        self.stats.local_hits += 1

    def admit(
        self, doc_id: int, size_bytes: int, version: int, now: float
    ) -> Optional[List[int]]:
        """Store a retrieved copy; returns evicted doc ids or ``None``.

        ``None`` means the document did not fit at all; the caller must not
        register this cache as a holder.
        """
        evicted = self.storage.admit(doc_id, size_bytes, version, now)
        if evicted is not None:
            self.stats.stores += 1
        return evicted

    def decline(self) -> None:
        """Record that placement declined to store a retrieved copy."""
        self.stats.placement_rejects += 1

    # ------------------------------------------------------------------
    # Update path
    # ------------------------------------------------------------------
    def apply_update(self, doc_id: int, version: int) -> bool:
        """Apply a pushed update to one copy; ``False`` when none is resident."""
        if not self.storage.refresh_version(doc_id, version):
            return False
        self.stats.updates_applied += 1
        return True

    def drop(self, doc_id: int, now: float) -> bool:
        """Remove a resident copy (invalidation); returns whether it existed."""
        if doc_id not in self.storage:
            return False
        self.storage.remove(doc_id, now)
        return True

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail(self, now: float) -> None:
        """Crash the node: all cached state is lost."""
        self.alive = False
        self.holder_epoch[0] += 1
        for doc_id in list(self.storage):
            self.storage.remove(doc_id, now)

    def recover(self) -> None:
        """Bring the node back with cold storage."""
        self.alive = True

    def retire(self) -> None:
        """Take the node out of service *voluntarily* (elastic scale-in).

        Unlike :meth:`fail`, retirement must not destroy documents: the
        caller (the elastic controller's drain protocol) is responsible for
        handing off or explicitly invalidating every resident copy first,
        and this method enforces that contract.
        """
        if len(self.storage):
            raise ValueError(
                f"cache {self.cache_id} still holds {len(self.storage)} "
                "documents; drain before retiring"
            )
        self.alive = False
        self.holder_epoch[0] += 1

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return (
            f"EdgeCache(id={self.cache_id}, {state}, docs={len(self.storage)}, "
            f"hit_rate={self.stats.local_hit_rate:.3f})"
        )


def apply_to_holders(
    caches: Sequence[EdgeCache], holders: Iterable[int], doc_id: int, version: int
) -> int:
    """:meth:`EdgeCache.apply_update` at each of ``holders`` (ids into
    ``caches``, whose columns cover ``doc_id``); returns how many held a copy.

    Every update delivery ends here: one frame for all its holders, a version
    slot written per holder. That equals applying holder by holder because an
    update never changes a copy's size.
    """
    applied = 0
    for holder in holders:
        cache = caches[holder]
        versions = cache.storage.versions
        if versions[doc_id] >= 0:
            versions[doc_id] = version
            cache.stats.updates_applied += 1
            applied += 1
    return applied
