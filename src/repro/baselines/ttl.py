"""TTL-based consistency baseline.

Each stored copy carries an expiry ``stored_at + ttl``. Requests hitting an
unexpired copy are served locally with **no origin contact** — even if the
origin has since updated the document, which is precisely the staleness the
cache-cloud push protocol eliminates. Expired copies are revalidated with a
conditional fetch: a control-sized request, answered by either a
control-sized "not modified" or a full body.

Cooperation is supported in the weaker form the pre-cache-cloud systems
used: a miss may be served by a peer (found through the group's static-hash
holder map, :class:`~repro.baselines.group.CacheGroup`), but peers may
legitimately serve stale bytes — the staleness metrics make that cost
visible.

The origin does **not** push updates under TTL: the group's
``handle_update`` only advances the version counter so staleness can be
measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.baselines.group import CacheGroup, GroupConfig
from repro.core.cloud import RequestOutcome, RequestResult
from repro.edgecache.cache import EdgeCache
from repro.network.origin import OriginServer
from repro.network.transport import Transport
from repro.workload.documents import Corpus


@dataclass
class TTLConfig(GroupConfig):
    """Configuration of the TTL baseline.

    ``ttl_minutes`` is the uniform time-to-live; real deployments vary it
    per document, but a uniform TTL is the standard baseline and matches
    how the cooperative-proxy literature evaluated it.
    """

    ttl_minutes: float = 15.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.ttl_minutes <= 0:
            raise ValueError("ttl_minutes must be positive")


class TTLCloud(CacheGroup):
    """A cache group under TTL consistency.

    Beside the group's staleness counters (``stale_hits`` is the consistency
    violation TTL permits): ``validations`` / ``validation_misses`` —
    conditional fetches and how many returned a new body.
    """

    config: TTLConfig

    def __init__(
        self,
        config: TTLConfig,
        corpus: Corpus,
        origin: Optional[OriginServer] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        super().__init__(config, corpus, origin, transport)
        self._expiry: Dict[Tuple[int, int], float] = {}  # (cache_id, doc_id) -> expiry
        self.validations = 0
        self.validation_misses = 0

    def _unexpired(self, cache_id: int, doc_id: int, now: float) -> bool:
        return self._expiry.get((cache_id, doc_id), 0.0) > now

    def _on_store(self, cache_id: int, doc_id: int, now: float) -> None:
        self._expiry[(cache_id, doc_id)] = now + self.config.ttl_minutes

    def _serve_copy(
        self, cache: EdgeCache, held: int, doc_id: int, current: int, now: float
    ) -> RequestResult:
        cache_id = cache.cache_id
        if self._unexpired(cache_id, doc_id, now):
            # Unexpired: served blind. Staleness goes unnoticed.
            cache.serve_local(doc_id, now)
            self._count(held, current)
            return self._served(cache, RequestOutcome.LOCAL_HIT, 0.0, cache_id)
        # Expired: conditional revalidation with the origin.
        self.validations += 1
        latency = self.transport.send_control(cache_id, self.origin.node_id)
        if held >= current:
            # 304 Not Modified: extend the TTL, serve locally.
            latency += self.transport.send_control(self.origin.node_id, cache_id)
            self._expiry[(cache_id, doc_id)] = now + self.config.ttl_minutes
            cache.serve_local(doc_id, now)
            self.fresh_hits += 1
            return self._served(cache, RequestOutcome.LOCAL_HIT, latency, cache_id)
        # Body changed: full refetch.
        self.validation_misses += 1
        return self._fetch(cache, doc_id, current, now, latency, None)

    def _locate(
        self, cache_id: int, doc_id: int, now: float
    ) -> Tuple[float, Optional[int]]:
        peer = self._find_peer(doc_id, cache_id, now)
        if peer is None:
            return 0.0, None
        return self.transport.send_control(cache_id, self.home_of(doc_id)), peer

    def _peer_usable(self, peer: int, doc_id: int, now: float) -> bool:
        return super()._peer_usable(peer, doc_id, now) and self._unexpired(
            peer, doc_id, now
        )

    def __repr__(self) -> str:
        return (
            f"TTLCloud(caches={len(self.caches)}, ttl={self.config.ttl_minutes}min, "
            f"stale_rate={self.staleness_rate:.3f})"
        )
