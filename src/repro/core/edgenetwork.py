"""A multi-cloud edge cache network.

The paper's unit of evaluation is one cache cloud, but the surrounding
story (§1-§2) is a *large-scale edge cache network*: many caches spread
over the Internet, clustered into clouds by network proximity, all serving
one origin. This module supplies that outer layer:

* clouds are formed from a topology by the landmark clustering of
  :mod:`repro.network.landmarks` (the stand-in for reference [12]);
* each cloud runs the full cache-cloud protocol with its own beacon rings;
* the origin serves every cloud, and — the headline saving of cooperative
  update handling — sends **one body-carrying update message per cloud
  holding the document**, instead of one per holding cache.

Global cache node ids are mapped to (cloud, local id) pairs so traces
addressed to physical nodes drive the right cloud.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cloud import CacheCloud, RequestResult
from repro.core.config import CloudConfig
from repro.network.bandwidth import TrafficCategory, TrafficMeter
from repro.network.landmarks import form_cache_clouds
from repro.network.origin import OriginServer
from repro.network.topology import NetworkTopology
from repro.network.transport import Transport
from repro.workload.documents import Corpus


@dataclass
class EdgeNetworkStats:
    """Network-wide aggregates across clouds."""

    requests: int
    updates: int
    origin_fetches: int
    server_update_messages: int
    cloud_hit_rate: float
    total_megabytes: float


class EdgeCacheNetwork:
    """Several cache clouds sharing one origin server.

    Parameters
    ----------
    cloud_memberships:
        Global cache node ids per cloud (e.g. from
        :func:`repro.network.landmarks.form_cache_clouds`).
    base_config:
        Template :class:`CloudConfig`; each cloud gets a copy resized to its
        membership (``num_rings`` is clamped so every ring keeps ≥2 beacon
        points where possible).
    corpus:
        Shared document universe.
    topology:
        Optional latency model covering every cache node and the origin.
    """

    def __init__(
        self,
        cloud_memberships: Sequence[Sequence[int]],
        base_config: CloudConfig,
        corpus: Corpus,
        topology: Optional[NetworkTopology] = None,
    ) -> None:
        if not cloud_memberships:
            raise ValueError("need at least one cloud")
        flat = [node for cloud in cloud_memberships for node in cloud]
        if len(flat) != len(set(flat)):
            raise ValueError("a cache node may belong to only one cloud")
        self.corpus = corpus
        self.origin = OriginServer(corpus)
        self.meter = TrafficMeter()
        self.clouds: List[CacheCloud] = []
        self._node_to_cloud: Dict[int, Tuple[int, int]] = {}
        for cloud_index, members in enumerate(cloud_memberships):
            members = list(members)
            config = self._size_config(base_config, len(members))
            transport = Transport(topology=None, meter=self.meter)
            cloud = CacheCloud(config, corpus, origin=self.origin, transport=transport)
            self.clouds.append(cloud)
            for local_id, node in enumerate(members):
                self._node_to_cloud[node] = (cloud_index, local_id)
        self.topology = topology
        self.requests_handled = 0
        self.updates_handled = 0

    @staticmethod
    def _size_config(base: CloudConfig, num_caches: int) -> CloudConfig:
        num_rings = min(base.num_rings, max(1, num_caches // 2))
        return replace(
            base,
            num_caches=num_caches,
            num_rings=num_rings,
            capabilities=None,
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_topology(
        cls,
        topology: NetworkTopology,
        cache_nodes: Sequence[int],
        landmark_nodes: Sequence[int],
        num_clouds: int,
        base_config: CloudConfig,
        corpus: Corpus,
        rng: Optional[random.Random] = None,
    ) -> "EdgeCacheNetwork":
        """Cluster ``cache_nodes`` into clouds by landmark RTT vectors."""
        memberships = form_cache_clouds(
            topology, cache_nodes, landmark_nodes, num_clouds, rng=rng
        )
        return cls(memberships, base_config, corpus, topology=topology)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cloud_of(self, node: int) -> Tuple[int, int]:
        """(cloud index, local cache id) of a global cache node."""
        return self._node_to_cloud[node]

    def cache_nodes(self) -> List[int]:
        """All global cache node ids."""
        return sorted(self._node_to_cloud)

    def __len__(self) -> int:
        return len(self.clouds)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def handle_request(self, node: int, doc_id: int, now: float) -> RequestResult:
        """Route a request to the node's cloud."""
        cloud_index, local_id = self._node_to_cloud[node]
        self.requests_handled += 1
        return self.clouds[cloud_index].handle_request(local_id, doc_id, now)

    def handle_update(self, doc_id: int, now: float) -> int:
        """Propagate one origin update to every cloud; returns refreshes.

        The origin's version is published once; each cloud's beacon point
        then fans the update out to its local holders. ``update_messages``
        on the origin counts one per cloud per update (versus one per
        holding cache without cooperation — the saving Figure 1 motivates).
        """
        self.updates_handled += 1
        # Publish once, then let each cloud distribute at the new version.
        # CacheCloud.handle_update publishes internally, so feed the clouds
        # in sequence: the first publish advances the version, the rest see
        # versions already current and bump again — avoid that by publishing
        # through a single cloud-agnostic path instead.
        refreshed = 0
        new_version = self.origin.publish_update(doc_id)
        for cloud in self.clouds:
            refreshed += self._distribute(cloud, doc_id, new_version, now)
        return refreshed

    def _distribute(
        self, cloud: CacheCloud, doc_id: int, version: int, now: float
    ) -> int:
        """Run one cloud's beacon-mediated fan-out at ``version``.

        The version was published network-wide, so this is
        :meth:`BeaconRole.propagate_update` without the publish, over the
        cloud's own fabric. Its preamble counts differently from the
        beacon's notice-or-body step: the beacon's load counter ticks
        whether or not the message arrives, and a bare notice is not an
        origin update message (DESIGN.md §3.1).
        """
        beacon_id = cloud.beacon_for_doc(doc_id)
        beacon = cloud.beacons[beacon_id]
        beacon.record_update(cloud.doc_irh(doc_id))
        tracker = cloud._update_rates.get(doc_id)
        if tracker is None:
            from repro.edgecache.stats import DecayingRate

            tracker = DecayingRate(cloud.config.half_life)
            cloud._update_rates[doc_id] = tracker
        tracker.observe(now)

        size = self.corpus[doc_id].size_bytes
        fabric = cloud.fabric
        beacon_role = cloud.beacon_roles[beacon_id]
        holders = beacon_role.update_targets(doc_id)
        origin_id = self.origin.node_id
        if not holders:
            fabric.send_control(origin_id, beacon_id, reliable=True)
            return 0
        self.origin.note_update_message(doc_id)
        body = fabric.send_document(
            origin_id,
            beacon_id,
            size,
            TrafficCategory.UPDATE_SERVER_TO_BEACON,
            reliable=True,
        )
        if not body.ok:
            cloud.update_pushes_lost += len(holders)
            return 0
        return beacon_role.fan_out(
            holders, doc_id, version, size, now, now + body.latency
        )

    def run_cycles(self, now: float) -> None:
        """Run the sub-range determination in every cloud."""
        for cloud in self.clouds:
            cloud.run_cycle(now)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> EdgeNetworkStats:
        """Network-wide aggregates."""
        requests = sum(cloud.requests_handled for cloud in self.clouds)
        fetched = self.origin.fetches_served
        local_hits = sum(cloud.aggregate_stats().local_hits for cloud in self.clouds)
        cloud_hits = sum(cloud.aggregate_stats().cloud_hits for cloud in self.clouds)
        hit_rate = (local_hits + cloud_hits) / requests if requests else 0.0
        return EdgeNetworkStats(
            requests=requests,
            updates=self.updates_handled,
            origin_fetches=fetched,
            server_update_messages=self.origin.update_messages_sent,
            cloud_hit_rate=hit_rate,
            total_megabytes=self.meter.total_bytes / (1024.0 * 1024.0),
        )

    def holders_network_wide(self, doc_id: int) -> int:
        """Total copies of ``doc_id`` across all clouds (ground truth)."""
        return sum(len(cloud.holders_of(doc_id)) for cloud in self.clouds)

    def __repr__(self) -> str:
        sizes = [len(cloud.caches) for cloud in self.clouds]
        return f"EdgeCacheNetwork(clouds={len(self.clouds)}, sizes={sizes})"
