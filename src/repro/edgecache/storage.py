"""Byte-budgeted document store.

Drives a :class:`~repro.edgecache.replacement.ReplacementPolicy` to keep the
resident set within a byte capacity, and maintains the residence-time
statistics that feed the utility function's disk-space-contention (DsCC)
component: "the disk-space contention at the cache determines the time
duration for which the document can be expected to reside in the cache
before it is replaced" (paper §3.1).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.edgecache.document import CachedDocument
from repro.edgecache.replacement import LRUPolicy, NoReplacement, ReplacementPolicy

#: How many recent evictions contribute to the residence-time estimate.
RESIDENCE_SAMPLE_WINDOW = 64

#: A store's residence key while its ``residence_mean`` is ``None``
#: (uncontended): below every finite residence, so it sorts first.
UNCONTENDED = float("-inf")

#: ``(residence key, order id)`` of every store sharing it, ascending.
ResidenceOrder = List[Tuple[float, int]]


def residence_key(residence_mean: Optional[float]) -> float:
    """A store's key in a residence order: ``residence_mean``, or
    :data:`UNCONTENDED` while that is ``None``."""
    return UNCONTENDED if residence_mean is None else residence_mean


class CacheStorage:
    """Document store with optional byte capacity.

    Parameters
    ----------
    capacity_bytes:
        Disk budget; ``None`` means unlimited (Figures 7-8 run the caches
        with unlimited disk).
    policy:
        Replacement policy; defaults to LRU, matching the paper. A store
        without a budget never asks for a victim, so it keeps no
        replacement order: ``policy`` is then
        :class:`~repro.edgecache.replacement.NoReplacement`, whatever was
        passed.
    residence_order, order_id:
        A sorted list shared by the stores of one cloud, in which this
        store keeps the one entry ``(residence_key, order_id)``
        (:func:`residence_key`). A store outside a cloud gets its own.
    """

    #: The stored copy for a doc id, or ``None``. Bound directly to the
    #: backing dict's C-implemented ``get`` in ``__init__``: this is the
    #: single most-called accessor in the simulator (every freshness check
    #: and holder verification goes through it), and the binding removes a
    #: Python frame per call. ``_docs`` is mutated in place, never rebound,
    #: so the binding stays valid for the store's lifetime.
    get: Callable[[int], Optional[CachedDocument]]

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        policy: Optional[ReplacementPolicy] = None,
        residence_order: Optional[ResidenceOrder] = None,
        order_id: int = 0,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be > 0 or None, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        if capacity_bytes is None:
            policy = NoReplacement()
        self.policy: ReplacementPolicy = policy if policy is not None else LRUPolicy()
        self._docs: Dict[int, CachedDocument] = {}
        self.get = self._docs.get
        self._used = 0
        self.evictions = 0
        self._residence_samples: Deque[float] = deque(maxlen=RESIDENCE_SAMPLE_WINDOW)
        #: Expected residence time of a *new* admission, in simulated minutes
        #: (the DsCC input): the mean of ``_residence_samples``, the natural
        #: empirical proxy for "how long a new copy can be expected to reside
        #: before it is replaced". ``None`` means "effectively unbounded" —
        #: the store is unlimited, or no eviction has happened yet.
        #: Recomputed at each eviction, the only place it changes, which
        #: is also where this store moves its entry in ``residence_order``.
        self.residence_mean: Optional[float] = None
        #: ``residence_mean`` as a sortable key (:func:`residence_key`).
        self.residence_key = UNCONTENDED
        #: The residence order this store keeps its entry
        #: ``(residence_key, order_id)`` in: a store decision finds the
        #: least residence among a document's holders by walking it from
        #: the front beside the holders
        #: (:meth:`repro.core.node.CacheNode._placement_inputs`).
        self.residence_order: ResidenceOrder = (
            residence_order if residence_order is not None else []
        )
        self.order_id = order_id
        insort(self.residence_order, (UNCONTENDED, order_id))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes currently resident."""
        return self._used

    @property
    def unlimited(self) -> bool:
        """Whether the store has no byte budget."""
        return self.capacity_bytes is None

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._docs

    def __iter__(self) -> Iterator[int]:
        return iter(self._docs)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def admit(
        self, doc_id: int, size_bytes: int, version: int, now: float
    ) -> Optional[List[int]]:
        """Store a new document copy, evicting as needed.

        Returns the list of evicted doc ids on success, or ``None`` when the
        document cannot be admitted (larger than the whole disk). Re-admitting
        a resident document replaces the copy in place (version refresh).
        """
        if doc_id in self._docs:
            self.refresh_version(doc_id, version, size_bytes=size_bytes, now=now)
            return []
        if self.capacity_bytes is not None and size_bytes > self.capacity_bytes:
            return None
        evicted = self._make_room(size_bytes, now)
        self._docs[doc_id] = CachedDocument(
            doc_id=doc_id, size_bytes=size_bytes, version=version, stored_at=now
        )
        self._used += size_bytes
        self.policy.on_insert(doc_id, size_bytes, now)
        return evicted

    def access(self, doc_id: int, now: float) -> CachedDocument:
        """Record a hit; raises KeyError when absent."""
        doc = self._docs[doc_id]
        self.policy.on_access(doc_id, now)
        return doc

    def refresh_version(
        self,
        doc_id: int,
        version: int,
        size_bytes: Optional[int] = None,
        now: float = 0.0,
    ) -> bool:
        """Apply a pushed update to a resident copy (version bump, size change).

        Returns ``False``, having changed nothing, when no copy is resident.
        """
        doc = self.get(doc_id)
        if doc is None:
            return False
        doc.version = version
        if size_bytes is not None and size_bytes != doc.size_bytes:
            delta = size_bytes - doc.size_bytes
            if self.capacity_bytes is not None and self._used + delta > self.capacity_bytes:
                # The grown document no longer fits alongside the rest; make
                # room, but never evict the document being refreshed.
                self._used += delta
                doc.size_bytes = size_bytes
                self._shrink_to_capacity(now, protect=doc_id)
                return True
            self._used += delta
            doc.size_bytes = size_bytes
        return True

    def remove(self, doc_id: int, now: float, count_as_eviction: bool = False) -> None:
        """Explicitly drop a copy; raises KeyError when absent."""
        doc = self._docs.pop(doc_id)
        self._used -= doc.size_bytes
        self.policy.on_remove(doc_id)
        if count_as_eviction:
            self.evictions += 1
            samples = self._residence_samples
            samples.append(doc.residence_time(now))
            if self.capacity_bytes is not None:
                order = self.residence_order
                order_id = self.order_id
                del order[bisect_left(order, (self.residence_key, order_id))]
                # A mean is never None: it is its own key.
                mean = self.residence_mean = self.residence_key = sum(samples) / len(samples)
                insort(order, (mean, order_id))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _make_room(self, incoming_bytes: int, now: float) -> List[int]:
        evicted: List[int] = []
        if self.capacity_bytes is None:
            return evicted
        while self._used + incoming_bytes > self.capacity_bytes:
            victim = self.policy.choose_victim()
            if victim is None:
                raise RuntimeError(
                    "storage accounting desync: over budget with empty policy"
                )
            self.remove(victim, now, count_as_eviction=True)
            evicted.append(victim)
        return evicted

    def _shrink_to_capacity(self, now: float, protect: int) -> None:
        if self.capacity_bytes is None:
            return
        while self._used > self.capacity_bytes and len(self._docs) > 1:
            victim = self.policy.choose_victim()
            if victim is None or victim == protect:
                # Can't evict the protected doc; tolerate transient overshoot.
                break
            self.remove(victim, now, count_as_eviction=True)

    def __repr__(self) -> str:
        cap = "inf" if self.capacity_bytes is None else str(self.capacity_bytes)
        return (
            f"CacheStorage(docs={len(self._docs)}, used={self._used}B, "
            f"capacity={cap}B, evictions={self.evictions})"
        )
