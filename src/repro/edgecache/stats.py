"""Cache statistics and rate estimation.

Two concerns live here:

* :class:`CacheStats` — hit/miss/traffic counters per cache, the raw
  material of the experiment reports.
* :class:`RateTable` / :class:`AccessFrequencyTracker` — exponentially
  decayed event-rate estimators, one per key. The utility-based placement
  scheme decides with "the request and update patterns of the document
  collected through continued monitoring in the recent time duration"
  (paper §3.1); a decayed counter is the standard constant-space estimator
  of a recent rate.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

#: Default half-life (simulated minutes) for rate estimators. One hour —
#: matching the paper's sub-range determination cycle, so placement and load
#: balancing react on the same timescale.
DEFAULT_HALF_LIFE = 60.0

_LN2 = math.log(2.0)


class RateTable:
    """Exponentially decayed event rates, one per key, in flat columns.

    Per key, the decayed count ``c`` halves every ``half_life`` time units;
    the estimated rate is ``c * ln(2) / half_life``, which converges to the
    true rate for a stationary Poisson arrival process.

    A key gets a slot the first time it is observed. Its count and the time
    it was last decayed to live at that slot of two ``array('d')`` columns,
    so the state of a key is two unboxed doubles and an entry of an
    int-to-int dict — none of it tracked by the garbage collector, however
    many keys a table holds. Reading an unseen key returns ``0.0`` and
    allocates nothing.
    """

    __slots__ = ("half_life", "_slots", "_counts", "_lasts")

    def __init__(self, half_life: float = DEFAULT_HALF_LIFE) -> None:
        if half_life <= 0:
            raise ValueError(f"half_life must be > 0, got {half_life}")
        self.half_life = half_life
        self._slots: Dict[int, int] = {}
        self._counts = array("d")
        self._lasts = array("d")

    def observe(self, key: int, now: float) -> None:
        """Record one event for ``key`` at time ``now``."""
        counts = self._counts
        lasts = self._lasts
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(counts)
            counts.append(0.0)
            lasts.append(0.0)
        last = lasts[slot]
        if now > last:
            counts[slot] = counts[slot] * 2.0 ** (-(now - last) / self.half_life) + 1.0
            lasts[slot] = now
        else:
            counts[slot] += 1.0

    def rate(self, key: int, now: float) -> float:
        """Estimated events of ``key`` per time unit as of ``now``.

        The read decays the key's state to ``now``: the order of reads is
        part of the float bits every later read returns.
        """
        slot = self._slots.get(key)
        if slot is None:
            return 0.0
        count = self._counts[slot]
        last = self._lasts[slot]
        if now > last:
            count *= 2.0 ** (-(now - last) / self.half_life)
            self._counts[slot] = count
            self._lasts[slot] = now
        return count * _LN2 / self.half_life

    def state(self) -> Iterator[Tuple[int, float, float]]:
        """``(key, decayed count, time decayed to)`` per key, first seen first."""
        return zip(self._slots, self._counts, self._lasts)


class AccessFrequencyTracker(RateTable):
    """Per-document decayed access rates plus the cache-wide mean.

    Feeds the AFC utility component: "how frequently the document is accessed
    in comparison to other documents stored in the cache". The cache-wide
    total is one more decayed count, kept beside the table's columns.
    """

    __slots__ = ("_total", "_total_time")

    def __init__(self, half_life: float = DEFAULT_HALF_LIFE) -> None:
        super().__init__(half_life)
        self._total = 0.0
        self._total_time = 0.0

    def observe(self, doc_id: int, now: float) -> None:
        """Record one access to ``doc_id``."""
        RateTable.observe(self, doc_id, now)
        last = self._total_time
        if now > last:
            self._total = self._total * 2.0 ** (-(now - last) / self.half_life) + 1.0
            self._total_time = now
        else:
            self._total += 1.0

    #: Recent access rate of a document at this cache (``0.0`` if unseen).
    rate_of = RateTable.rate

    def mean_rate(self, now: float) -> float:
        """Mean per-document access rate: the cache-wide decayed rate
        divided by the number of documents ever seen here, since no code
        path drops a rate slot. Slots that decayed to nothing still count,
        so on long runs the mean reads low (ROADMAP item 16(c) is to drop
        them)."""
        seen = len(self._slots)
        if not seen:
            return 0.0
        total = self._total
        last = self._total_time
        if now > last:
            total *= 2.0 ** (-(now - last) / self.half_life)
            self._total = total
            self._total_time = now
        return total * _LN2 / self.half_life / seen

    def total_state(self) -> Tuple[float, float]:
        """``(decayed count, time decayed to)`` of the cache-wide total."""
        return self._total, self._total_time


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
