"""Cache statistics and rate estimation.

Two concerns live here:

* :class:`CacheStats` — hit/miss/traffic counters per cache, the raw
  material of the experiment reports.
* :class:`DecayingRate` / :class:`AccessFrequencyTracker` — exponentially
  decayed event-rate estimators. The utility-based placement scheme decides
  with "the request and update patterns of the document collected through
  continued monitoring in the recent time duration" (paper §3.1); a decayed
  counter is the standard constant-space estimator of a recent rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

#: Default half-life (simulated minutes) for rate estimators. One hour —
#: matching the paper's sub-range determination cycle, so placement and load
#: balancing react on the same timescale.
DEFAULT_HALF_LIFE = 60.0

_LN2 = math.log(2.0)


class DecayingRate:
    """Exponentially decayed event counter exposing an event *rate*.

    The decayed count ``c`` halves every ``half_life`` time units; the
    estimated rate is ``c * ln(2) / half_life``, which converges to the true
    rate for a stationary Poisson arrival process.
    """

    __slots__ = ("half_life", "_count", "_last_time")

    def __init__(self, half_life: float = DEFAULT_HALF_LIFE) -> None:
        if half_life <= 0:
            raise ValueError(f"half_life must be > 0, got {half_life}")
        self.half_life = half_life
        self._count = 0.0
        self._last_time = 0.0

    def observe(self, now: float, weight: float = 1.0) -> None:
        """Record ``weight`` events at time ``now``."""
        # The decay step is inlined (same arithmetic as ``_decay_to``):
        # observation is the hot call on the request path, and the extra
        # method dispatch is measurable at benchmark request rates.
        last = self._last_time
        if now > last:
            self._count = self._count * 2.0 ** (-(now - last) / self.half_life)
            self._last_time = now
        self._count += weight

    def rate(self, now: float) -> float:
        """Estimated events per time unit as of ``now``."""
        self._decay_to(now)
        return self._count * _LN2 / self.half_life

    def _decay_to(self, now: float) -> None:
        if now > self._last_time:
            self._count *= 2.0 ** (-(now - self._last_time) / self.half_life)
            self._last_time = now

    def __repr__(self) -> str:
        return f"DecayingRate(half_life={self.half_life}, count={self._count:.3f})"


class AccessFrequencyTracker:
    """Per-document decayed access rates plus the cache-wide mean.

    Feeds the AFC utility component: "how frequently the document is accessed
    in comparison to other documents stored in the cache".
    """

    def __init__(self, half_life: float = DEFAULT_HALF_LIFE) -> None:
        self.half_life = half_life
        self._per_doc: Dict[int, DecayingRate] = {}
        self._aggregate = DecayingRate(half_life)

    def observe(self, doc_id: int, now: float) -> None:
        """Record one access to ``doc_id``."""
        # Both estimator updates are inlined (same arithmetic as
        # ``DecayingRate.observe``): this runs once per client request, and
        # the two extra method dispatches are measurable at benchmark rates.
        half_life = self.half_life
        tracker = self._per_doc.get(doc_id)
        if tracker is None:
            tracker = DecayingRate(half_life)
            self._per_doc[doc_id] = tracker
        last = tracker._last_time
        if now > last:
            tracker._count = tracker._count * 2.0 ** (-(now - last) / half_life)
            tracker._last_time = now
        tracker._count += 1.0
        aggregate = self._aggregate
        last = aggregate._last_time
        if now > last:
            aggregate._count = (
                aggregate._count * 2.0 ** (-(now - last) / half_life)
            )
            aggregate._last_time = now
        aggregate._count += 1.0

    def rate_of(self, doc_id: int, now: float) -> float:
        """Recent access rate of ``doc_id`` at this cache."""
        tracker = self._per_doc.get(doc_id)
        return tracker.rate(now) if tracker is not None else 0.0

    def mean_rate(self, now: float) -> float:
        """Mean per-document access rate across recently seen documents."""
        if not self._per_doc:
            return 0.0
        return self._aggregate.rate(now) / len(self._per_doc)

    def forget(self, doc_id: int) -> None:
        """Drop a document's estimator (e.g. after corpus churn)."""
        self._per_doc.pop(doc_id, None)


@dataclass
class CacheStats:
    """Counters for one edge cache over an experiment run."""

    requests: int = 0
    local_hits: int = 0
    cloud_hits: int = 0  # served by a peer cache in the cloud
    origin_fetches: int = 0  # group miss: fetched from the origin server
    stores: int = 0  # placement accepted the copy
    placement_rejects: int = 0  # placement declined the copy
    updates_applied: int = 0  # pushed updates applied to a resident copy
    latency_total_ms: float = 0.0

    def record_latency(self, latency_ms: float) -> None:
        """Accumulate the client-perceived latency of one request."""
        if latency_ms < 0:
            raise ValueError(f"latency must be >= 0, got {latency_ms}")
        self.latency_total_ms += latency_ms

    @property
    def local_hit_rate(self) -> float:
        """Fraction of requests served from local storage."""
        return self.local_hits / self.requests if self.requests else 0.0

    @property
    def cloud_hit_rate(self) -> float:
        """Fraction of requests served within the cloud (local or peer)."""
        if not self.requests:
            return 0.0
        return (self.local_hits + self.cloud_hits) / self.requests

    @property
    def mean_latency_ms(self) -> float:
        """Mean client-perceived latency per request."""
        return self.latency_total_ms / self.requests if self.requests else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Fold another cache's counters into this one (cloud aggregation)."""
        self.requests += other.requests
        self.local_hits += other.local_hits
        self.cloud_hits += other.cloud_hits
        self.origin_fetches += other.origin_fetches
        self.stores += other.stores
        self.placement_rejects += other.placement_rejects
        self.updates_applied += other.updates_applied
        self.latency_total_ms += other.latency_total_ms
