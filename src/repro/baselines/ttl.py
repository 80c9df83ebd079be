"""TTL-based consistency baseline.

Each stored copy carries an expiry ``stored_at + ttl``. Requests hitting an
unexpired copy are served locally with **no origin contact** — even if the
origin has since updated the document, which is precisely the staleness the
cache-cloud push protocol eliminates. Expired copies are revalidated with a
conditional fetch: a control-sized request, answered by either a
control-sized "not modified" or a full body.

Cooperation is supported in the weaker form the pre-cache-cloud systems
used: a miss may be served by a peer (found through the same beacon-point
directory machinery), but peers may legitimately serve stale bytes — the
staleness metrics make that cost visible.

The origin does **not** push updates under TTL; :meth:`TTLCloud.handle_update`
only advances the version counter so staleness can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.cloud import RequestOutcome, RequestResult
from repro.core.hashing import StaticHashAssigner
from repro.edgecache.cache import EdgeCache
from repro.edgecache.replacement import make_policy
from repro.edgecache.stats import CacheStats
from repro.network.bandwidth import TrafficCategory
from repro.network.origin import OriginServer
from repro.network.transport import Transport
from repro.workload.documents import Corpus


@dataclass
class TTLConfig:
    """Configuration of the TTL baseline.

    ``ttl_minutes`` is the uniform time-to-live; real deployments vary it
    per document, but a uniform TTL is the standard baseline and matches
    how the cooperative-proxy literature evaluated it.
    """

    num_caches: int = 10
    ttl_minutes: float = 15.0
    capacity_bytes: Optional[int] = None
    replacement_policy: str = "lru"
    cooperative: bool = True  # peers may serve misses (possibly stale)

    def __post_init__(self) -> None:
        if self.num_caches <= 0:
            raise ValueError("num_caches must be positive")
        if self.ttl_minutes <= 0:
            raise ValueError("ttl_minutes must be positive")
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive or None")


class TTLCloud:
    """A cache group under TTL consistency.

    Exposes the same driving surface as :class:`CacheCloud` —
    ``handle_request(cache_id, doc_id, now)`` and
    ``handle_update(doc_id, now)`` — plus staleness accounting:

    * ``stale_hits`` — requests served from a copy older than the origin's
      current version (the consistency violation TTL permits).
    * ``validations`` / ``validation_misses`` — conditional fetches and how
      many returned a new body.
    """

    def __init__(
        self,
        config: TTLConfig,
        corpus: Corpus,
        origin: Optional[OriginServer] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self.config = config
        self.corpus = corpus
        self.origin = origin if origin is not None else OriginServer(corpus)
        self.transport = transport if transport is not None else Transport()
        self.caches = [
            EdgeCache(
                cache_id=cache_id,
                capacity_bytes=config.capacity_bytes,
                policy=make_policy(config.replacement_policy),
            )
            for cache_id in range(config.num_caches)
        ]
        # Peer discovery reuses static hashing: the "directory" cache for a
        # document simply remembers who fetched it (the weak cooperation of
        # pre-cache-cloud proxy groups).
        self._assigner = StaticHashAssigner(list(range(config.num_caches)))
        self._holders: Dict[int, set] = {}
        self._expiry: Dict[tuple, float] = {}  # (cache_id, doc_id) -> expiry
        self.requests_handled = 0
        self.updates_handled = 0
        self.stale_hits = 0
        self.fresh_hits = 0
        self.validations = 0
        self.validation_misses = 0

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def handle_request(self, cache_id: int, doc_id: int, now: float) -> RequestResult:
        """Serve one request under TTL semantics."""
        cache = self.caches[cache_id]
        self.requests_handled += 1
        cache.observe_request(doc_id, now)
        current_version = self.origin.version_of(doc_id)

        copy = cache.copy_of(doc_id)
        if copy is not None:
            if self._expiry.get((cache_id, doc_id), 0.0) > now:
                # Unexpired: served blind. Staleness goes unnoticed.
                cache.serve_local(doc_id, now)
                if copy.version >= current_version:
                    self.fresh_hits += 1
                else:
                    self.stale_hits += 1
                result = RequestResult(RequestOutcome.LOCAL_HIT, 0.0, cache_id)
                cache.stats.record_latency(result.latency_ms)
                return result
            # Expired: conditional revalidation with the origin.
            self.validations += 1
            latency = self.transport.send_control(cache_id, self.origin.node_id)
            if copy.version >= current_version:
                # 304 Not Modified: extend the TTL, serve locally.
                latency += self.transport.send_control(self.origin.node_id, cache_id)
                self._expiry[(cache_id, doc_id)] = now + self.config.ttl_minutes
                cache.serve_local(doc_id, now)
                self.fresh_hits += 1
                result = RequestResult(
                    RequestOutcome.LOCAL_HIT, 60_000.0 * latency, cache_id
                )
                cache.stats.record_latency(result.latency_ms)
                return result
            # Body changed: full refetch.
            self.validation_misses += 1
            size = self.origin.serve_fetch(doc_id)
            latency += self.transport.send_document(
                self.origin.node_id, cache_id, size, TrafficCategory.ORIGIN_FETCH
            )
            cache.stats.origin_fetches += 1
            self._store(cache, doc_id, size, current_version, now)
            result = RequestResult(
                RequestOutcome.ORIGIN_FETCH, 60_000.0 * latency, self.origin.node_id
            )
            cache.stats.record_latency(result.latency_ms)
            return result

        # Local miss: try a peer (cooperative mode), else the origin.
        size = self.corpus[doc_id].size_bytes
        if self.config.cooperative:
            peer = self._find_peer(doc_id, cache_id, now)
            if peer is not None:
                latency = self.transport.send_control(
                    cache_id, self._assigner.beacon_for(self.corpus[doc_id].url)
                )
                latency += self.transport.send_document(
                    peer, cache_id, size, TrafficCategory.PEER_TRANSFER
                )
                peer_copy = self.caches[peer].copy_of(doc_id)
                self.caches[peer].storage.access(doc_id, now)
                cache.stats.cloud_hits += 1
                # The peer hands over whatever version it has — stale spreads.
                self._store(cache, doc_id, size, peer_copy.version, now)
                if peer_copy.version < current_version:
                    self.stale_hits += 1
                else:
                    self.fresh_hits += 1
                result = RequestResult(RequestOutcome.CLOUD_HIT, 60_000.0 * latency, peer)
                cache.stats.record_latency(result.latency_ms)
                return result
        self.origin.serve_fetch(doc_id)
        latency = self.transport.send_document(
            self.origin.node_id, cache_id, size, TrafficCategory.ORIGIN_FETCH
        )
        cache.stats.origin_fetches += 1
        self._store(cache, doc_id, size, current_version, now)
        result = RequestResult(
            RequestOutcome.ORIGIN_FETCH, 60_000.0 * latency, self.origin.node_id
        )
        cache.stats.record_latency(result.latency_ms)
        return result

    def _find_peer(self, doc_id: int, requester: int, now: float) -> Optional[int]:
        for peer in sorted(self._holders.get(doc_id, ())):
            if peer == requester:
                continue
            peer_cache = self.caches[peer]
            if (
                peer_cache.holds(doc_id)
                and self._expiry.get((peer, doc_id), 0.0) > now
            ):
                return peer
            self._holders.get(doc_id, set()).discard(peer)
        return None

    def _store(
        self, cache: EdgeCache, doc_id: int, size: int, version: int, now: float
    ) -> None:
        evicted = cache.admit(doc_id, size, version, now)
        if evicted is None:
            cache.decline()
            return
        self._holders.setdefault(doc_id, set()).add(cache.cache_id)
        self._expiry[(cache.cache_id, doc_id)] = now + self.config.ttl_minutes
        for evicted_doc in evicted:
            self._holders.get(evicted_doc, set()).discard(cache.cache_id)
            self._expiry.pop((cache.cache_id, evicted_doc), None)

    # ------------------------------------------------------------------
    # Update path
    # ------------------------------------------------------------------
    def handle_update(self, doc_id: int, now: float) -> int:
        """Under TTL the origin sends nothing; versions just advance."""
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

    def __repr__(self) -> str:
        return (
            f"TTLCloud(caches={len(self.caches)}, ttl={self.config.ttl_minutes}min, "
            f"stale_rate={self.staleness_rate:.3f})"
        )
