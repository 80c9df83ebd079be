"""Network topology models.

Two interchangeable models are provided:

* :class:`EuclideanTopology` — nodes embedded in a 2-D plane; latency is
  proportional to Euclidean distance plus a constant per-hop cost. This is
  the standard synthetic-Internet abstraction for edge-network studies and
  is what the landmark clustering operates on.
* :class:`ExplicitTopology` — an explicit symmetric latency matrix, for tests
  and for replaying measured RTTs.

Latencies are in simulated milliseconds. The simulation clock runs in
minutes; :func:`ms_to_minutes` converts at the transport layer.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple


#: Fixed per-message cost of a Euclidean link (processing, last-mile).
BASE_LATENCY_MS = 2.0

#: Propagation cost per unit of Euclidean distance.
MS_PER_UNIT = 1.0


def ms_to_minutes(milliseconds: float) -> float:
    """Convert a millisecond latency to simulated minutes."""
    return milliseconds / 60_000.0


class NetworkTopology:
    """Abstract topology: node ids and pairwise latency."""

    def nodes(self) -> List[int]:
        """All node ids."""
        raise NotImplementedError

    def latency_ms(self, a: int, b: int) -> float:
        """One-way latency between nodes ``a`` and ``b`` in milliseconds."""
        raise NotImplementedError

    def rtt_ms(self, a: int, b: int) -> float:
        """Round-trip time between two nodes."""
        return 2.0 * self.latency_ms(a, b)


class EuclideanTopology(NetworkTopology):
    """Nodes placed in a plane, given as a mapping node id -> (x, y).

    Latency = :data:`BASE_LATENCY_MS` + distance * :data:`MS_PER_UNIT`.
    """

    def __init__(self, positions: Dict[int, Tuple[float, float]]) -> None:
        if not positions:
            raise ValueError("topology needs at least one node")
        self._positions = dict(positions)

    @classmethod
    def random(
        cls,
        num_nodes: int,
        rng: Optional[random.Random] = None,
        extent: float = 100.0,
        num_clusters: int = 0,
        cluster_spread: float = 5.0,
    ) -> "EuclideanTopology":
        """Place nodes uniformly, or around ``num_clusters`` cluster centers.

        Clustered placement models a realistic edge network whose caches sit
        in a handful of metro areas — the structure landmark clustering is
        meant to discover.
        """
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        rng = rng if rng is not None else random.Random(0)
        positions: Dict[int, Tuple[float, float]] = {}
        if num_clusters > 0:
            centers = [
                (rng.uniform(0, extent), rng.uniform(0, extent))
                for _ in range(num_clusters)
            ]
            for node in range(num_nodes):
                cx, cy = centers[node % num_clusters]
                positions[node] = (
                    cx + rng.gauss(0.0, cluster_spread),
                    cy + rng.gauss(0.0, cluster_spread),
                )
        else:
            for node in range(num_nodes):
                positions[node] = (rng.uniform(0, extent), rng.uniform(0, extent))
        return cls(positions)

    def nodes(self) -> List[int]:
        return sorted(self._positions)

    def position(self, node: int) -> Tuple[float, float]:
        """Coordinates of ``node``."""
        return self._positions[node]

    def latency_ms(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        ax, ay = self._positions[a]
        bx, by = self._positions[b]
        distance = math.hypot(ax - bx, ay - by)
        return BASE_LATENCY_MS + distance * MS_PER_UNIT

    def add_node(self, node: int, position: Tuple[float, float]) -> None:
        """Add a node (used to place the origin server and landmarks)."""
        if node in self._positions:
            raise ValueError(f"node {node} already present")
        self._positions[node] = position


class ExplicitTopology(NetworkTopology):
    """Topology backed by an explicit symmetric latency matrix."""

    def __init__(self, latency_matrix: Sequence[Sequence[float]]) -> None:
        n = len(latency_matrix)
        if n == 0:
            raise ValueError("latency matrix must be non-empty")
        for i, row in enumerate(latency_matrix):
            if len(row) != n:
                raise ValueError(f"latency matrix row {i} has length {len(row)} != {n}")
            if row[i] != 0:
                raise ValueError(f"diagonal entry ({i},{i}) must be 0")
            for j, value in enumerate(row):
                if value < 0:
                    raise ValueError(f"latency ({i},{j}) must be >= 0")
                if abs(value - latency_matrix[j][i]) > 1e-9:
                    raise ValueError(f"latency matrix must be symmetric at ({i},{j})")
        self._matrix = [list(row) for row in latency_matrix]

    def nodes(self) -> List[int]:
        return list(range(len(self._matrix)))

    def latency_ms(self, a: int, b: int) -> float:
        return self._matrix[a][b]
