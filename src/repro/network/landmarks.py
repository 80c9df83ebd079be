"""Landmark-based cache-cloud construction.

The paper forms clouds with an "Internet landmarks-based technique ...
accurately clustering the caches of an edge network" (reference [12], in
preparation at publication time). The essential published idea of landmark
clustering (GeoPing/Vivaldi-era): measure each node's RTT vector to a small
set of well-known landmark hosts; nodes with similar vectors are in close
network proximity; cluster the vectors.

We implement that faithfully on top of the topology substrate:

1. Pick (or accept) ``L`` landmark nodes.
2. Build each cache's RTT vector to all landmarks.
3. Cluster the vectors with k-medoids (PAM-style swap refinement) under the
   Euclidean metric, yielding ``k`` cache clouds.

k-medoids rather than k-means because RTT vectors live in a non-vector
metric space in real deployments (medoids only need pairwise distances).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence

from repro.network.topology import NetworkTopology

#: Swap-refinement passes k-medoids runs at most.
MAX_ITERATIONS = 50


class LandmarkClustering:
    """Clusters edge caches into clouds via landmark RTT vectors."""

    def __init__(
        self,
        topology: NetworkTopology,
        landmark_nodes: Sequence[int],
    ) -> None:
        if not landmark_nodes:
            raise ValueError("need at least one landmark node")
        self.topology = topology
        self.landmarks = list(landmark_nodes)

    def rtt_vector(self, cache_node: int) -> List[float]:
        """RTTs from ``cache_node`` to every landmark, in landmark order."""
        return [self.topology.rtt_ms(cache_node, lm) for lm in self.landmarks]

    @staticmethod
    def vector_distance(a: Sequence[float], b: Sequence[float]) -> float:
        """Euclidean distance between two RTT vectors."""
        if len(a) != len(b):
            raise ValueError("vectors must have equal length")
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    def cluster(
        self,
        cache_nodes: Sequence[int],
        num_clouds: int,
        rng: Optional[random.Random] = None,
    ) -> List[List[int]]:
        """Partition ``cache_nodes`` into ``num_clouds`` clouds.

        Returns a list of clouds, each a sorted list of cache node ids.
        Deterministic given ``rng``.
        """
        if num_clouds <= 0:
            raise ValueError("num_clouds must be positive")
        if len(cache_nodes) < num_clouds:
            raise ValueError(
                f"cannot form {num_clouds} clouds from {len(cache_nodes)} caches"
            )
        rng = rng if rng is not None else random.Random(0)
        vectors: Dict[int, List[float]] = {
            node: self.rtt_vector(node) for node in cache_nodes
        }
        nodes = list(cache_nodes)
        medoids = rng.sample(nodes, num_clouds)

        def assign(current_medoids: List[int]) -> Dict[int, int]:
            assignment = {}
            for node in nodes:
                best = min(
                    current_medoids,
                    key=lambda m: self.vector_distance(vectors[node], vectors[m]),
                )
                assignment[node] = best
            return assignment

        def cost(assignment: Dict[int, int]) -> float:
            return sum(
                self.vector_distance(vectors[node], vectors[m])
                for node, m in assignment.items()
            )

        assignment = assign(medoids)
        best_cost = cost(assignment)
        for _ in range(MAX_ITERATIONS):
            improved = False
            # Classic PAM: consider swapping each medoid with any non-medoid
            # node, not only its own members — restricting candidates to the
            # medoid's cluster gets stuck in local optima when an initial
            # medoid captures several planted clusters.
            for mi in range(len(medoids)):
                for candidate in nodes:
                    if candidate in medoids:
                        continue
                    trial = list(medoids)
                    trial[mi] = candidate
                    trial_assignment = assign(trial)
                    trial_cost = cost(trial_assignment)
                    if trial_cost + 1e-12 < best_cost:
                        medoids = trial
                        assignment = trial_assignment
                        best_cost = trial_cost
                        improved = True
            if not improved:
                break
        clouds: Dict[int, List[int]] = {m: [] for m in medoids}
        for node, medoid in assignment.items():
            clouds[medoid].append(node)
        return sorted((sorted(members) for members in clouds.values()), key=lambda c: c[0])


def form_cache_clouds(
    topology: NetworkTopology,
    cache_nodes: Sequence[int],
    landmark_nodes: Sequence[int],
    num_clouds: int,
    rng: Optional[random.Random] = None,
) -> List[List[int]]:
    """Convenience wrapper: cluster ``cache_nodes`` into ``num_clouds`` clouds."""
    clustering = LandmarkClustering(topology, landmark_nodes)
    return clustering.cluster(cache_nodes, num_clouds, rng=rng)
