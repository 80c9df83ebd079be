"""Cache replacement policies.

The paper's limited-disk experiment (Figure 9) uses LRU. The survey it cites
(Podlipnig & Böszörményi [9]) catalogues frequency-, recency-, and
cost-aware families; we implement one representative of each so replacement
can be ablated independently of placement:

* :class:`LRUPolicy` — recency (the paper's choice).
* :class:`LFUPolicy` — frequency (in-cache LFU with tie-break by recency).
* :class:`FIFOPolicy` — admission order.
* :class:`GDSFPolicy` — GreedyDual-Size-Frequency, the canonical cost/size
  aware policy (Cao & Irani [3] lineage).

A policy tracks metadata only; the byte accounting lives in
:class:`~repro.edgecache.storage.CacheStorage`, which asks the policy for
victims until the new document fits. The policy also keeps each copy's
admission time, which :meth:`~ReplacementPolicy.on_remove` hands back for
the store's residence sample: an order is the one per-copy map a bounded
store has. A store with no byte budget never asks for a victim, so it binds
:class:`NoReplacement` and keeps no order at all.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple


class ReplacementPolicy(ABC):
    """Victim-selection strategy for a byte-budgeted cache."""

    @abstractmethod
    def on_insert(self, doc_id: int, size_bytes: int, now: float) -> None:
        """Register a newly admitted document."""

    @abstractmethod
    def on_access(self, doc_id: int, now: float) -> None:
        """Register a hit on a resident document."""

    @abstractmethod
    def on_remove(self, doc_id: int) -> float:
        """Forget a document (eviction or explicit removal); returns the
        ``now`` it was inserted at."""

    @abstractmethod
    def choose_victim(self) -> Optional[int]:
        """Doc id to evict next, or ``None`` when the policy tracks nothing."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of tracked documents."""

    @abstractmethod
    def __contains__(self, doc_id: int) -> bool:
        """Whether the policy tracks ``doc_id``."""


class NoReplacement(ReplacementPolicy):
    """Tracks nothing: the policy of a store that never evicts.

    :class:`~repro.edgecache.storage.CacheStorage` binds this when it has
    no byte budget, whichever policy it was handed — nobody would ever read
    the order, and keeping one costs an entry per resident copy plus a
    reorder per local hit. Nor does it keep admission times: only an
    eviction samples one, so :meth:`on_remove` returns ``0.0``, which no
    store reads.
    """

    def on_insert(self, doc_id: int, size_bytes: int, now: float) -> None:
        pass

    def on_access(self, doc_id: int, now: float) -> None:
        pass

    def on_remove(self, doc_id: int) -> float:
        return 0.0

    def choose_victim(self) -> Optional[int]:
        return None

    def __len__(self) -> int:
        return 0

    def __contains__(self, doc_id: int) -> bool:
        return False


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used eviction via an ordered dict of admission times."""

    def __init__(self) -> None:
        self._order: "OrderedDict[int, float]" = OrderedDict()

    def on_insert(self, doc_id: int, size_bytes: int, now: float) -> None:
        if doc_id in self._order:
            raise KeyError(f"doc {doc_id} already tracked")
        self._order[doc_id] = now

    def on_access(self, doc_id: int, now: float) -> None:
        self._order.move_to_end(doc_id)

    def on_remove(self, doc_id: int) -> float:
        return self._order.pop(doc_id)

    def choose_victim(self) -> Optional[int]:
        if not self._order:
            return None
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._order


class FIFOPolicy(ReplacementPolicy):
    """Evicts in admission order; accesses do not refresh position."""

    def __init__(self) -> None:
        self._order: "OrderedDict[int, float]" = OrderedDict()

    def on_insert(self, doc_id: int, size_bytes: int, now: float) -> None:
        if doc_id in self._order:
            raise KeyError(f"doc {doc_id} already tracked")
        self._order[doc_id] = now

    def on_access(self, doc_id: int, now: float) -> None:
        if doc_id not in self._order:
            raise KeyError(f"doc {doc_id} not tracked")

    def on_remove(self, doc_id: int) -> float:
        return self._order.pop(doc_id)

    def choose_victim(self) -> Optional[int]:
        if not self._order:
            return None
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._order


class LFUPolicy(ReplacementPolicy):
    """In-cache LFU; ties broken by least-recent access.

    Uses a lazy heap of ``(count, last_access, doc_id)`` snapshots; stale
    heap entries are skipped at pop time, keeping operations O(log n).
    """

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._last: Dict[int, float] = {}
        self._admitted: Dict[int, float] = {}
        self._heap: List[Tuple[int, float, int]] = []

    def _push(self, doc_id: int) -> None:
        heapq.heappush(
            self._heap, (self._counts[doc_id], self._last[doc_id], doc_id)
        )

    def on_insert(self, doc_id: int, size_bytes: int, now: float) -> None:
        if doc_id in self._counts:
            raise KeyError(f"doc {doc_id} already tracked")
        self._counts[doc_id] = 1
        self._last[doc_id] = now
        self._admitted[doc_id] = now
        self._push(doc_id)

    def on_access(self, doc_id: int, now: float) -> None:
        if doc_id not in self._counts:
            raise KeyError(f"doc {doc_id} not tracked")
        self._counts[doc_id] += 1
        self._last[doc_id] = now
        self._push(doc_id)

    def on_remove(self, doc_id: int) -> float:
        del self._counts[doc_id]
        del self._last[doc_id]
        return self._admitted.pop(doc_id)

    def choose_victim(self) -> Optional[int]:
        while self._heap:
            count, last, doc_id = self._heap[0]
            current = self._counts.get(doc_id)
            if current is None or current != count or self._last[doc_id] != last:
                heapq.heappop(self._heap)  # stale snapshot
                continue
            return doc_id
        return None

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._counts


class GDSFPolicy(ReplacementPolicy):
    """GreedyDual-Size-Frequency.

    Priority ``H(d) = L + frequency(d) * cost(d) / size(d)`` where ``L`` is
    the inflation clock (the priority of the last evicted document). The
    cost is uniform (1 per document), which favors small, popular documents
    — appropriate when the retrieval cost is dominated by per-request
    overhead.
    """

    def __init__(self) -> None:
        self._inflation = 0.0
        self._priority: Dict[int, float] = {}
        self._freq: Dict[int, int] = {}
        self._size: Dict[int, int] = {}
        self._admitted: Dict[int, float] = {}
        self._heap: List[Tuple[float, int]] = []

    def _score(self, doc_id: int) -> float:
        return self._inflation + self._freq[doc_id] / self._size[doc_id]

    def _push(self, doc_id: int) -> None:
        heapq.heappush(self._heap, (self._priority[doc_id], doc_id))

    def on_insert(self, doc_id: int, size_bytes: int, now: float) -> None:
        if doc_id in self._priority:
            raise KeyError(f"doc {doc_id} already tracked")
        self._freq[doc_id] = 1
        self._size[doc_id] = size_bytes
        self._admitted[doc_id] = now
        self._priority[doc_id] = self._score(doc_id)
        self._push(doc_id)

    def on_access(self, doc_id: int, now: float) -> None:
        if doc_id not in self._priority:
            raise KeyError(f"doc {doc_id} not tracked")
        self._freq[doc_id] += 1
        self._priority[doc_id] = self._score(doc_id)
        self._push(doc_id)

    def on_remove(self, doc_id: int) -> float:
        # Advance the inflation clock to the departing doc's priority so that
        # future admissions compete fairly against long-resident documents.
        self._inflation = max(self._inflation, self._priority[doc_id])
        del self._priority[doc_id]
        del self._freq[doc_id]
        del self._size[doc_id]
        return self._admitted.pop(doc_id)

    def choose_victim(self) -> Optional[int]:
        while self._heap:
            priority, doc_id = self._heap[0]
            current = self._priority.get(doc_id)
            if current is None or abs(current - priority) > 1e-12:
                heapq.heappop(self._heap)  # stale snapshot
                continue
            return doc_id
        return None

    def __len__(self) -> int:
        return len(self._priority)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._priority


_POLICIES: Dict[str, Callable[[], ReplacementPolicy]] = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "lfu": LFUPolicy,
    "gdsf": GDSFPolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``fifo``/``lfu``/``gdsf``)."""
    try:
        factory = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return factory()
