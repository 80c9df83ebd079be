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
from itertools import compress, count
from typing import Deque, Iterator, List, Optional, Tuple

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
#: A size slot of a document a private size column has not seen yet.
_UNKNOWN_SIZE = array("i", [0])
#: ``NO_COPY.__lt__``: true of a version slot that holds a copy.
_HOLDS = NO_COPY.__lt__


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
    sizes:
        Every document's size in bytes, indexed by doc id: the corpus's
        size column, which the stores of one cloud share and never write.
        Its length sizes :attr:`versions`. A store built without one grows
        a private column on admit, learning each document's size from its
        first admission.
    """

    #: The version column: each doc id's resident copy's version, or
    #: :data:`NO_COPY`. :meth:`admit` sets a slot, :meth:`remove` clears it,
    #: an update writes it (:func:`repro.edgecache.cache.apply_to_holders`)
    #: and every freshness check reads it. A resident copy is this slot: its
    #: size is its document's entry in :attr:`sizes`, and its admission time
    #: (which only an eviction reads) is kept by the replacement order, so a
    #: store without a budget keeps nothing else per copy.
    versions: array[int]
    #: The size column (see ``sizes`` above); ``0`` marks a document a
    #: private column has not seen.
    sizes: array[int]

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        policy: Optional[ReplacementPolicy] = None,
        residence_order: Optional[ResidenceOrder] = None,
        order_id: int = 0,
        sizes: Optional[array[int]] = None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be > 0 or None, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        if capacity_bytes is None:
            policy = NoReplacement()
        self.policy: ReplacementPolicy = policy if policy is not None else LRUPolicy()
        self.sizes = sizes if sizes is not None else array("i")
        self.versions = _EMPTY_SLOT * len(self.sizes)
        #: Resident copies: the number of slots of ``versions`` that hold one.
        self._count = 0
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
        return self._count

    def __contains__(self, doc_id: int) -> bool:
        try:
            return doc_id >= 0 and self.versions[doc_id] >= 0
        except IndexError:  # past the column: never admitted
            return False

    def __iter__(self) -> Iterator[int]:
        """Resident doc ids, ascending (a scan of the version column)."""
        return compress(count(), map(_HOLDS, self.versions))

    def size_of(self, doc_id: int) -> int:
        """A resident copy's size in bytes; raises KeyError when absent."""
        if doc_id not in self:
            raise KeyError(doc_id)
        return self.sizes[doc_id]

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
        a resident document overwrites its version in place. A document's
        size never changes, so a copy at a size other than the one
        :attr:`sizes` holds for it is refused.
        """
        if doc_id < 0 or version < 0:
            raise ValueError(f"doc_id and version must be >= 0, got {doc_id}, {version}")
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be > 0, got {size_bytes}")
        sizes = self.sizes
        versions = self.versions
        if doc_id >= len(versions):
            grow = max(doc_id + 1 - len(versions), len(versions))
            versions.extend(_EMPTY_SLOT * grow)
            if len(sizes) < len(versions):
                sizes.extend(_UNKNOWN_SIZE * (len(versions) - len(sizes)))
        known = sizes[doc_id]
        if known != size_bytes:
            if known:
                raise ValueError(f"doc {doc_id} is {known} B, not {size_bytes} B")
            sizes[doc_id] = size_bytes
        if versions[doc_id] >= 0:
            versions[doc_id] = version
            return []
        if self.capacity_bytes is not None and size_bytes > self.capacity_bytes:
            return None
        evicted = self._make_room(size_bytes, now)
        versions[doc_id] = version
        self._count += 1
        self._used += size_bytes
        self.policy.on_insert(doc_id, size_bytes, now)
        return evicted

    def access(self, doc_id: int, now: float) -> None:
        """Record a hit; raises KeyError when absent."""
        try:
            if doc_id < 0 or self.versions[doc_id] < 0:
                raise KeyError(doc_id)
        except IndexError:
            raise KeyError(doc_id) from None
        self.policy.on_access(doc_id, now)

    def refresh_version(self, doc_id: int, version: int) -> bool:
        """Write a resident copy's version slot; ``False`` if none is resident."""
        if self.version_of(doc_id) == NO_COPY:
            return False
        self.versions[doc_id] = version
        return True

    def remove(self, doc_id: int, now: float, count_as_eviction: bool = False) -> None:
        """Explicitly drop a copy; raises KeyError when absent."""
        versions = self.versions
        try:
            if doc_id < 0 or versions[doc_id] < 0:
                raise KeyError(doc_id)
        except IndexError:
            raise KeyError(doc_id) from None
        versions[doc_id] = NO_COPY
        self._count -= 1
        self._used -= self.sizes[doc_id]
        stored_at = self.policy.on_remove(doc_id)
        if count_as_eviction:
            self.evictions += 1
            if self.capacity_bytes is not None:
                samples = self._residence_samples
                samples.append(max(0.0, now - stored_at))
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
            f"CacheStorage(docs={self._count}, used={self._used}B, "
            f"capacity={cap}B, evictions={self.evictions})"
        )
