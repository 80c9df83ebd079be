"""The cache group both consistency baselines run on.

A :class:`CacheGroup` is the pre-cache-cloud cooperative proxy group: a set
of edge caches, a static hash from each document to one *home* cache that
remembers who fetched it (the weak cooperation of those systems — no rings,
no load balancing), and the miss tail "a peer's copy if there is one, else
the origin's". It exposes the driving surface of
:class:`repro.core.cloud.CacheCloud` — ``handle_request(cache_id, doc_id,
now)`` and ``handle_update(doc_id, now)`` — plus the staleness accounting
the comparison exists for.

What a consistency mechanism adds is a *rule*, and a subclass states only
that: how a resident copy is served (:meth:`CacheGroup._serve_copy`), how a
miss finds its peer and what that costs (:meth:`CacheGroup._locate`), which
peers may serve (:meth:`CacheGroup._peer_usable`), what storing a copy
starts (:meth:`CacheGroup._on_store`) and what an update sends
(:meth:`CacheGroup.handle_update`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.core.cloud import RequestOutcome, RequestResult
from repro.core.hashing import StaticHashAssigner
from repro.edgecache.cache import EdgeCache
from repro.edgecache.stats import CacheStats
from repro.network.bandwidth import TrafficCategory
from repro.network.origin import OriginServer
from repro.network.transport import Transport
from repro.workload.documents import Corpus


@dataclass
class GroupConfig:
    """What every baseline group configures: its size (each cache's disk
    is unlimited)."""

    num_caches: int = 10

    def __post_init__(self) -> None:
        if self.num_caches <= 0:
            raise ValueError("num_caches must be positive")


class CacheGroup:
    """Edge caches, a static-hash holder map, and the peer-or-origin miss tail.

    ``stale_hits`` / ``fresh_hits`` count requests served from a copy older
    than (resp. as new as) the origin's current version — the consistency
    violation each mechanism permits.
    """

    def __init__(
        self,
        config: GroupConfig,
        corpus: Corpus,
        origin: Optional[OriginServer] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self.config = config
        self.corpus = corpus
        self.origin = origin if origin is not None else OriginServer(corpus)
        self.transport = transport if transport is not None else Transport()
        self.caches = [EdgeCache(cache_id=cache_id) for cache_id in range(config.num_caches)]
        self._assigner = StaticHashAssigner(list(range(config.num_caches)))
        self._holders: Dict[int, Set[int]] = {}  # doc_id -> caches w/ copies
        self.requests_handled = 0
        self.updates_handled = 0
        self.stale_hits = 0
        self.fresh_hits = 0

    # ------------------------------------------------------------------
    # The rule a subclass states
    # ------------------------------------------------------------------
    def _serve_copy(
        self, cache: EdgeCache, held: int, doc_id: int, current: int, now: float
    ) -> RequestResult:
        """Serve a request whose cache holds a copy at ``held`` (``current`` = origin's)."""
        raise NotImplementedError

    def _locate(
        self, cache_id: int, doc_id: int, now: float
    ) -> Tuple[float, Optional[int]]:
        """A local miss: ``(latency spent asking, the peer to fetch from or None)``."""
        raise NotImplementedError

    def _peer_usable(self, peer: int, doc_id: int, now: float) -> bool:
        """Whether ``peer``, listed as a holder, may serve ``doc_id`` now."""
        return self.caches[peer].holds(doc_id)

    def _on_store(self, cache_id: int, doc_id: int, now: float) -> None:
        """``cache_id`` just stored a copy of ``doc_id``."""

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def handle_request(self, cache_id: int, doc_id: int, now: float) -> RequestResult:
        """Serve one request under the group's consistency rule."""
        cache = self.caches[cache_id]
        self.requests_handled += 1
        cache.observe_request(doc_id, now)
        current = self.origin.version_of(doc_id)
        held = cache.storage.version_of(doc_id)
        if held >= 0:
            return self._serve_copy(cache, held, doc_id, current, now)
        latency, peer = self._locate(cache_id, doc_id, now)
        return self._fetch(cache, doc_id, current, now, latency, peer)

    def home_of(self, doc_id: int) -> int:
        """The statically hashed cache that tracks ``doc_id``'s holders."""
        return self._assigner.beacon_for(self.corpus[doc_id].url)

    def _find_peer(self, doc_id: int, requester: int, now: float) -> Optional[int]:
        """The lowest-numbered other holder that may serve; stale entries go."""
        for peer in sorted(self._holders.get(doc_id, ())):
            if peer == requester:
                continue
            if self._peer_usable(peer, doc_id, now):
                return peer
            self._holders[doc_id].discard(peer)
        return None

    def _fetch(
        self,
        cache: EdgeCache,
        doc_id: int,
        current: int,
        now: float,
        latency: float,
        peer: Optional[int],
    ) -> RequestResult:
        """Bring the body in — from ``peer`` if there is one, else the origin."""
        size = self.corpus[doc_id].size_bytes
        if peer is not None:
            latency += self.transport.send_document(
                peer, cache.cache_id, size, TrafficCategory.PEER_TRANSFER
            )
            # The peer hands over whatever version it has — stale spreads.
            version = self.caches[peer].storage.version_of(doc_id)
            self.caches[peer].storage.access(doc_id, now)
            cache.stats.cloud_hits += 1
            self._store(cache, doc_id, size, version, now)
            self._count(version, current)
            return self._served(cache, RequestOutcome.CLOUD_HIT, latency, peer)
        self.origin.serve_fetch(doc_id)
        latency += self.transport.send_document(
            self.origin.node_id, cache.cache_id, size, TrafficCategory.ORIGIN_FETCH
        )
        cache.stats.origin_fetches += 1
        self._store(cache, doc_id, size, current, now)
        return self._served(
            cache, RequestOutcome.ORIGIN_FETCH, latency, self.origin.node_id
        )

    def _store(
        self, cache: EdgeCache, doc_id: int, size: int, version: int, now: float
    ) -> None:
        cache.admit(doc_id, size, version, now)
        self._holders.setdefault(doc_id, set()).add(cache.cache_id)
        self._on_store(cache.cache_id, doc_id, now)

    def _count(self, version: int, current: int) -> None:
        """One request served from a copy at ``version``."""
        if version >= current:
            self.fresh_hits += 1
        else:
            self.stale_hits += 1

    def _served(
        self, cache: EdgeCache, outcome: RequestOutcome, latency: float, served_by: int
    ) -> RequestResult:
        """The request's result (``latency`` in simulated minutes), recorded."""
        result = RequestResult(outcome, 60_000.0 * latency, served_by)
        cache.stats.record_latency(result.latency_ms)
        return result

    # ------------------------------------------------------------------
    # Update path
    # ------------------------------------------------------------------
    def handle_update(self, doc_id: int, now: float) -> int:
        """The origin's version advances; a group on its own is told nothing."""
        self.updates_handled += 1
        self.origin.publish_update(doc_id)
        return 0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def staleness_rate(self) -> float:
        """Fraction of copy-served requests that delivered stale bytes."""
        served = self.stale_hits + self.fresh_hits
        return self.stale_hits / served if served else 0.0

    def aggregate_stats(self) -> CacheStats:
        """Sum of per-cache counters."""
        total = CacheStats()
        for cache in self.caches:
            total.merge(cache.stats)
        return total
