"""Byte-budgeted document store.

Drives a :class:`~repro.edgecache.replacement.ReplacementPolicy` to keep the
resident set within a byte capacity, and maintains the residence-time
statistics that feed the utility function's disk-space-contention (DsCC)
component: "the disk-space contention at the cache determines the time
duration for which the document can be expected to reside in the cache
before it is replaced" (paper §3.1).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.edgecache.replacement import LRUPolicy, NoReplacement, ReplacementPolicy

#: How many recent evictions contribute to the residence-time estimate.
RESIDENCE_SAMPLE_WINDOW = 64

#: A store's residence key while its ``residence_mean`` is ``None``
#: (uncontended): below every finite residence, so it sorts first.
UNCONTENDED = float("-inf")

#: ``(residence key, order id)`` of every store sharing it, ascending.
ResidenceOrder = List[Tuple[float, int]]

#: A version slot with no copy resident (versions start at 0).
NO_COPY = -1
_EMPTY_SLOT = array("i", [NO_COPY])


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
    documents:
        Corpus size, to which :attr:`versions` is sized; a store built
        without one grows the column on admit.
    """

    #: The version column: each doc id's resident copy's version, or
    #: :data:`NO_COPY`. :meth:`admit` sets a slot, :meth:`remove` clears it,
    #: an update writes it (:func:`repro.edgecache.cache.apply_to_holders`)
    #: and every freshness check reads it. A resident copy is this slot plus
    #: its entries in ``_sizes`` and ``_stored_at``.
    versions: array[int]

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        policy: Optional[ReplacementPolicy] = None,
        residence_order: Optional[ResidenceOrder] = None,
        order_id: int = 0,
        documents: int = 0,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be > 0 or None, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        if capacity_bytes is None:
            policy = NoReplacement()
        self.policy: ReplacementPolicy = policy if policy is not None else LRUPolicy()
        #: Each resident copy's body size (what it occupies on disk), in
        #: admission order: ``len``, ``in`` and iteration read this dict.
        self._sizes: Dict[int, int] = {}
        #: Each resident copy's admission time, for its residence sample.
        self._stored_at: Dict[int, float] = {}
        self.versions = _EMPTY_SLOT * documents
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
        return len(self._sizes)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._sizes

    def __iter__(self) -> Iterator[int]:
        return iter(self._sizes)

    def size_of(self, doc_id: int) -> int:
        """A resident copy's size in bytes; raises KeyError when absent."""
        return self._sizes[doc_id]

    def version_of(self, doc_id: int) -> int:
        """The resident copy's version, or :data:`NO_COPY`."""
        return self.versions[doc_id] if 0 <= doc_id < len(self.versions) else NO_COPY

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def admit(
        self, doc_id: int, size_bytes: int, version: int, now: float
    ) -> Optional[List[int]]:
        """Store a new document copy, evicting as needed.

        Returns the list of evicted doc ids on success, or ``None`` when the
        document cannot be admitted (larger than the whole disk). Re-admitting
        a resident document overwrites its version in place; a document's
        size never changes, so a re-admission at another size is refused.
        """
        if doc_id < 0 or version < 0:
            raise ValueError(f"doc_id and version must be >= 0, got {doc_id}, {version}")
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be > 0, got {size_bytes}")
        resident = self._sizes.get(doc_id)
        if resident is not None:
            if size_bytes != resident:
                raise ValueError(f"doc {doc_id} is resident at {resident} B")
            self.versions[doc_id] = version
            return []
        if self.capacity_bytes is not None and size_bytes > self.capacity_bytes:
            return None
        evicted = self._make_room(size_bytes, now)
        self._sizes[doc_id] = size_bytes
        self._stored_at[doc_id] = now
        versions = self.versions
        if doc_id >= len(versions):
            versions.extend(_EMPTY_SLOT * max(doc_id + 1 - len(versions), len(versions)))
        versions[doc_id] = version
        self._used += size_bytes
        self.policy.on_insert(doc_id, size_bytes, now)
        return evicted

    def access(self, doc_id: int, now: float) -> None:
        """Record a hit; raises KeyError when absent."""
        if doc_id not in self._sizes:
            raise KeyError(doc_id)
        self.policy.on_access(doc_id, now)

    def refresh_version(self, doc_id: int, version: int) -> bool:
        """Write a resident copy's version slot; ``False`` if none is resident."""
        if self.version_of(doc_id) == NO_COPY:
            return False
        self.versions[doc_id] = version
        return True

    def remove(self, doc_id: int, now: float, count_as_eviction: bool = False) -> None:
        """Explicitly drop a copy; raises KeyError when absent."""
        self._used -= self._sizes.pop(doc_id)
        stored_at = self._stored_at.pop(doc_id)
        self.versions[doc_id] = NO_COPY
        self.policy.on_remove(doc_id)
        if count_as_eviction:
            self.evictions += 1
            samples = self._residence_samples
            samples.append(max(0.0, now - stored_at))
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

    def __repr__(self) -> str:
        cap = "inf" if self.capacity_bytes is None else str(self.capacity_bytes)
        return (
            f"CacheStorage(docs={len(self._sizes)}, used={self._used}B, "
            f"capacity={cap}B, evictions={self.evictions})"
        )
