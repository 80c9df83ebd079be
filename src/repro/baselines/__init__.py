"""Consistency-maintenance baselines the paper positions itself against.

The related-work section (§5) contrasts cache clouds with two earlier
families of consistency mechanisms:

* **TTL-based consistency** (`repro.baselines.ttl`) — what the classic
  cooperative proxy caches (Karger et al., Tewari et al., Wolman et al.)
  assumed: every copy carries a time-to-live and is served without
  revalidation until it expires. Cheap for the origin, but serves stale
  documents; the paper's push-based protocol exists to avoid exactly that.
* **Cooperative leases** (`repro.baselines.leases`) — Ninan et al. [8]:
  each document is statically hashed to a *leaseholder* cache that holds a
  time-bounded lease with the origin; while the lease is valid the origin
  sends invalidations to the leaseholder, which forwards them to the other
  in-cloud holders. Consistency is strong while leased, but updates
  invalidate rather than refresh, so hot documents are re-fetched.

Both are one :class:`repro.baselines.group.CacheGroup` — the static-hash
proxy group with its holder map, peer-or-origin miss tail and staleness
counters — plus the mechanism's rule as a subclass. The group implements
the same ``handle_request`` / ``handle_update`` surface as
:class:`repro.core.cloud.CacheCloud`, so the comparison harness
(:mod:`repro.experiments.extensions`) can drive all three uniformly and
chart traffic, staleness, and origin load side by side.
"""

from repro.baselines.leases import CooperativeLeaseCloud, LeaseConfig
from repro.baselines.ttl import TTLCloud, TTLConfig

__all__ = [
    "CooperativeLeaseCloud",
    "LeaseConfig",
    "TTLCloud",
    "TTLConfig",
]
