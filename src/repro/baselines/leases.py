"""Cooperative-leases consistency baseline (Ninan et al. [8]).

The scheme the paper's related work singles out: every document is
**statically hashed** to one cache — its *leaseholder* — which maintains a
time-bounded lease with the origin server:

* While a lease is active, the origin sends an **invalidation** (a small
  control message, not the new body) to the leaseholder on every update;
  the leaseholder forwards the invalidation to the in-group caches holding
  the document, which drop their copies.
* When a lease has expired, the origin stays silent; the leaseholder renews
  the lease on the next request for the document (a control round-trip).
  Requests served between expiry and renewal may return stale bytes —
  leases trade origin state for a bounded staleness window.

Contrast with cache clouds: updates invalidate rather than refresh (hot
documents get re-fetched, paying body transfers on the read path), the
document→cache map is static (no load balancing), and consistency holds
only while leases are live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.baselines.group import CacheGroup, GroupConfig
from repro.core.cloud import RequestOutcome, RequestResult
from repro.edgecache.cache import EdgeCache
from repro.edgecache.document import CachedDocument
from repro.network.origin import OriginServer
from repro.network.transport import Transport
from repro.workload.documents import Corpus


@dataclass
class LeaseConfig(GroupConfig):
    """Configuration of the cooperative-leases baseline."""

    lease_duration_minutes: float = 30.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lease_duration_minutes <= 0:
            raise ValueError("lease_duration_minutes must be positive")


class CooperativeLeaseCloud(CacheGroup):
    """A cache group under cooperative-lease consistency.

    Beside the group's staleness counters (stale hits happen during lapsed
    leases): lease renewals, and invalidations sent by the origin and
    forwarded by leaseholders.
    """

    config: LeaseConfig

    def __init__(
        self,
        config: LeaseConfig,
        corpus: Corpus,
        origin: Optional[OriginServer] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        super().__init__(config, corpus, origin, transport)
        self._lease_expiry: Dict[int, float] = {}  # doc_id -> lease end at its holder
        self.lease_renewals = 0
        self.invalidations_sent = 0
        self.invalidations_forwarded = 0

    # ------------------------------------------------------------------
    # Lease machinery
    # ------------------------------------------------------------------
    def leaseholder_of(self, doc_id: int) -> int:
        """The statically hashed leaseholder cache for ``doc_id``."""
        return self.home_of(doc_id)

    def lease_active(self, doc_id: int, now: float) -> bool:
        """Whether the document's lease is currently live."""
        return self._lease_expiry.get(doc_id, 0.0) > now

    def _renew_lease(self, doc_id: int, now: float) -> float:
        """Leaseholder ↔ origin control round-trip; returns its latency."""
        holder = self.leaseholder_of(doc_id)
        latency = self.transport.send_control(holder, self.origin.node_id)
        latency += self.transport.send_control(self.origin.node_id, holder)
        self._lease_expiry[doc_id] = now + self.config.lease_duration_minutes
        self.lease_renewals += 1
        return latency

    # ------------------------------------------------------------------
    # The rule
    # ------------------------------------------------------------------
    def _serve_copy(
        self, cache: EdgeCache, copy: CachedDocument, doc_id: int, current: int, now: float
    ) -> RequestResult:
        cache.serve_local(doc_id, now)
        latency = 0.0
        if self.lease_active(doc_id, now):
            # Covered by the lease: consistent by construction (any update
            # would have invalidated the copy).
            self.fresh_hits += 1
        else:
            # Lapsed lease: the copy is served as-is; renewal happens via
            # the leaseholder so future updates invalidate again.
            self._count(copy.version, current)
            latency += self._renew_lease(doc_id, now)
        return self._served(cache, RequestOutcome.LOCAL_HIT, latency, cache.cache_id)

    def _locate(
        self, cache_id: int, doc_id: int, now: float
    ) -> Tuple[float, Optional[int]]:
        # Consult the leaseholder (it tracks group holders).
        holder_id = self.leaseholder_of(doc_id)
        latency = self.transport.send_control(cache_id, holder_id)
        latency += self.transport.send_control(holder_id, cache_id)
        if not self.lease_active(doc_id, now):
            latency += self._renew_lease(doc_id, now)
        return latency, self._find_peer(doc_id, cache_id, now)

    def handle_update(self, doc_id: int, now: float) -> int:
        """Invalidate in-group copies while the lease is live.

        Returns the number of copies invalidated. With a lapsed lease the
        origin sends nothing (the lease contract has ended) and existing
        copies go stale until revalidation.
        """
        super().handle_update(doc_id, now)
        if not self.lease_active(doc_id, now):
            return 0
        holder_id = self.leaseholder_of(doc_id)
        self.origin.note_update_message(doc_id)
        self.transport.send_control(self.origin.node_id, holder_id)
        self.invalidations_sent += 1
        invalidated = 0
        for cache_id in sorted(self._holders.pop(doc_id, ())):
            cache = self.caches[cache_id]
            if not cache.holds(doc_id):
                continue
            if cache_id != holder_id:
                self.transport.send_control(holder_id, cache_id)
                self.invalidations_forwarded += 1
            cache.drop(doc_id, now)
            invalidated += 1
        return invalidated

    def __repr__(self) -> str:
        return (
            f"CooperativeLeaseCloud(caches={len(self.caches)}, "
            f"lease={self.config.lease_duration_minutes}min, "
            f"renewals={self.lease_renewals})"
        )
