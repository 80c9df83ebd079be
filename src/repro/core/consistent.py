"""Consistent-hashing baseline assigner.

The paper discusses consistent hashing (Karger et al. [5]) as the prior
approach: document URLs and cache identifiers both map onto a unit circle
and each document is assigned to the nearest cache clockwise. Its critique
(§2.1): (a) beacon discovery "might take up to log N timesteps" when the
membership table is maintained as a distributed successor structure, and
(b) "uniform distribution of URLs across beacon points does not yield good
load balancing when the lookup and update loads follow a skewed
distribution".

This implementation uses the standard virtual-node construction (each cache
appears ``virtual_nodes`` times on the circle) and models the distributed
discovery cost via :meth:`discovery_hops` so the ablation benchmark can
charge it.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from typing import Dict, List, Sequence, Tuple

from repro.core.hashing import DocumentAssigner


def _point(key: str) -> int:
    digest = hashlib.md5(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashAssigner(DocumentAssigner):
    """Consistent hashing over a unit circle with virtual nodes."""

    def __init__(self, cache_ids: Sequence[int], virtual_nodes: int = 64) -> None:
        if not cache_ids:
            raise ValueError("need at least one cache")
        if virtual_nodes <= 0:
            raise ValueError(f"virtual_nodes must be positive, got {virtual_nodes}")
        self.virtual_nodes = virtual_nodes
        self._ring: List[Tuple[int, int]] = []  # (point, cache_id), sorted
        self._points: List[int] = []
        self._members: Dict[int, bool] = {}
        for cache_id in cache_ids:
            self.add_cache(cache_id)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_cache(self, cache_id: int) -> None:
        """Insert a cache (its virtual points) into the circle."""
        if cache_id in self._members:
            raise ValueError(f"cache {cache_id} already on the ring")
        self._members[cache_id] = True
        for replica in range(self.virtual_nodes):
            point = _point(f"cache:{cache_id}#{replica}")
            index = bisect.bisect_left(self._points, point)
            self._points.insert(index, point)
            self._ring.insert(index, (point, cache_id))

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------
    def beacon_for(self, url: str) -> int:
        if not self._ring:
            raise RuntimeError("consistent hash ring is empty")
        point = _point(f"url:{url}")
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap around the circle
        return self._ring[index][1]

    def members(self) -> List[int]:
        return sorted(self._members)

    def discovery_hops(self, url: str) -> int:
        """Distributed successor lookup: ceil(log2 n) hops (paper §2.1)."""
        n = len(self._members)
        return max(1, math.ceil(math.log2(n))) if n > 1 else 1

    def __repr__(self) -> str:
        return (
            f"ConsistentHashAssigner(caches={len(self._members)}, "
            f"virtual_nodes={self.virtual_nodes})"
        )
