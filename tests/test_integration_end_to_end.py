"""End-to-end integration tests: full pipeline over generated workloads."""

import pytest

from repro.core.cloud import CacheCloud
from repro.core.config import (
    AssignmentScheme,
    CloudConfig,
    PlacementScheme,
    UtilityWeights,
)
from repro.experiments.runner import run_experiment
from repro.network.bandwidth import TrafficCategory
from repro.workload.documents import build_corpus
from repro.workload.generator import SyntheticTraceGenerator, WorkloadConfig


def build_workload(num_docs=150, num_caches=6, duration=40.0, update_rate=20.0, seed=3):
    corpus = build_corpus(num_docs, fixed_size=2048)
    generator = SyntheticTraceGenerator(
        WorkloadConfig(
            num_documents=num_docs,
            num_caches=num_caches,
            request_rate_per_cache=25.0,
            update_rate=update_rate,
            alpha_requests=0.9,
            duration_minutes=duration,
            seed=seed,
        )
    )
    return corpus, generator.build_trace()


def cloud_config(**overrides):
    defaults = dict(
        num_caches=6,
        num_rings=3,
        intra_gen=200,
        cycle_length=8.0,
        placement=PlacementScheme.UTILITY,
        utility_weights=UtilityWeights.equal_over(["afc", "dai", "cmc"]),
    )
    defaults.update(overrides)
    return CloudConfig(**defaults)


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def result(self):
        corpus, trace = build_workload()
        return run_experiment(
            cloud_config(), corpus, trace.requests, trace.updates, duration=40.0
        )

    def test_every_request_was_served(self, result):
        stats = result.stats
        served = stats.local_hits + stats.cloud_hits + stats.origin_fetches
        assert served == stats.requests

    def test_cloud_hit_rate_is_meaningful(self, result):
        # Cooperation must actually happen on a Zipf workload.
        assert result.stats.cloud_hit_rate > 0.3

    def test_traffic_flows_in_every_expected_category(self, result):
        meter = result.traffic
        assert meter.bytes_for(TrafficCategory.ORIGIN_FETCH) > 0
        assert meter.bytes_for(TrafficCategory.PEER_TRANSFER) > 0
        assert meter.bytes_for(TrafficCategory.CONTROL) > 0
        assert meter.bytes_for(TrafficCategory.UPDATE_SERVER_TO_BEACON) > 0

    def test_cycles_ran(self, result):
        assert result.cloud.cycles_run >= 4


class TestDirectoryGroundTruth:
    """The lookup directory must agree with reality at all times."""

    def test_directory_matches_storage_after_long_run(self):
        corpus, trace = build_workload(update_rate=40.0)
        config = cloud_config(capacity_bytes=40 * 2048)  # forces evictions
        cloud = CacheCloud(config, corpus)
        for record in trace.merged():
            from repro.workload.trace import UpdateRecord

            if isinstance(record, UpdateRecord):
                cloud.handle_update(record.doc_id, record.time)
            else:
                cloud.handle_request(record.cache_id, record.doc_id, record.time)
            if cloud.requests_handled % 500 == 0:
                cloud.run_cycle(record.time)
        # Invariant: for every document, the directory entry at its beacon
        # equals the set of caches actually storing the document.
        for doc_id in range(len(corpus)):
            beacon = cloud.beacon_for_doc(doc_id)
            recorded = cloud.beacons[beacon].directory.holders(doc_id)
            truth = cloud.holders_of(doc_id)
            assert recorded == truth, f"doc {doc_id}: {recorded} != {truth}"
        # And no other beacon claims the document.
        for doc_id in range(len(corpus)):
            beacon = cloud.beacon_for_doc(doc_id)
            for other_id, state in cloud.beacons.items():
                if other_id != beacon:
                    assert not state.directory.knows(doc_id)


class TestSchemeComparison:
    def test_dynamic_beats_static_on_skewed_load(self):
        """The paper's core claim at integration level.

        A single 6-member beacon ring is used so the comparison isolates the
        sub-range determination mechanism: with multiple tiny rings at this
        scale, the (unbalanceable) ring-assignment luck of a 400-document
        corpus dominates the statistic.
        """
        corpus, trace = build_workload(num_docs=400, duration=60.0, update_rate=60.0)
        covs = {}
        for scheme in (AssignmentScheme.STATIC, AssignmentScheme.DYNAMIC):
            result = run_experiment(
                cloud_config(
                    assignment=scheme,
                    num_rings=1,
                    placement=PlacementScheme.BEACON,
                    cycle_length=6.0,
                ),
                corpus,
                trace.requests,
                trace.updates,
                duration=60.0,
                warmup=12.0,
            )
            covs[scheme] = result.load_stats.cov
        assert covs[AssignmentScheme.DYNAMIC] < covs[AssignmentScheme.STATIC]

    def test_cooperation_reduces_origin_load(self):
        corpus, trace = build_workload()
        results = {}
        for cooperation in (True, False):
            result = run_experiment(
                cloud_config(cooperation=cooperation, placement=PlacementScheme.AD_HOC),
                corpus,
                trace.requests,
                trace.updates,
                duration=40.0,
                warmup=0.0,
            )
            results[cooperation] = result.cloud.origin.fetches_served
        assert results[True] < results[False]

    def test_cooperation_reduces_server_update_messages(self):
        corpus, trace = build_workload(update_rate=60.0)
        messages = {}
        for cooperation in (True, False):
            result = run_experiment(
                cloud_config(cooperation=cooperation, placement=PlacementScheme.AD_HOC),
                corpus,
                trace.requests,
                trace.updates,
                duration=40.0,
                warmup=0.0,
            )
            messages[cooperation] = result.cloud.origin.update_messages_sent
        # One message per cloud vs one per holder: cooperation sends fewer.
        assert messages[True] < messages[False]


class TestLatencyWithTopology:
    def test_latencies_reflect_topology(self):
        import random

        from repro.network.origin import ORIGIN_NODE_ID, OriginServer
        from repro.network.topology import EuclideanTopology
        from repro.network.transport import Transport

        corpus = build_corpus(50, fixed_size=1024)
        topo = EuclideanTopology.random(6, random.Random(0), extent=600.0)
        topo.add_node(ORIGIN_NODE_ID, (3000.0, 3000.0))  # origin is far away
        config = cloud_config(placement=PlacementScheme.AD_HOC)
        cloud = CacheCloud(
            config,
            corpus,
            origin=OriginServer(corpus),
            transport=Transport(topology=topo),
        )
        first = cloud.handle_request(0, 7, now=0.0)  # origin fetch, far
        second = cloud.handle_request(1, 7, now=1.0)  # peer fetch, near
        third = cloud.handle_request(1, 7, now=2.0)  # local hit
        assert first.latency_ms > second.latency_ms > third.latency_ms
        assert third.latency_ms == 0.0


class TestByteConservation:
    def test_meter_matches_protocol_reconstruction(self):
        """Every metered byte is explainable from first principles.

        Replays a workload and reconstructs the expected byte totals per
        category from the counters the roles keep: the meter must agree
        exactly — any drift means a code path accounts traffic twice or not
        at all.
        """
        from repro.network.transport import (
            CONTROL_MESSAGE_BYTES,
            TRANSFER_HEADER_BYTES,
        )
        from repro.workload.trace import UpdateRecord

        corpus = build_corpus(80, fixed_size=4096)
        cloud = CacheCloud(cloud_config(placement=PlacementScheme.AD_HOC), corpus)
        trace = SyntheticTraceGenerator(
            WorkloadConfig(
                num_documents=80,
                num_caches=6,
                request_rate_per_cache=20.0,
                update_rate=15.0,
                duration_minutes=20.0,
                seed=8,
            )
        ).build_trace()
        refreshed = bodies = beacon_copies = 0
        for record in trace.merged():
            if isinstance(record, UpdateRecord):
                doc_id = record.doc_id
                beacon_copy = cloud.caches[cloud.beacon_for_doc(doc_id)].holds(doc_id)
                count = cloud.handle_update(doc_id, record.time)
                refreshed += count
                bodies += count > 0
                beacon_copies += beacon_copy
            else:
                cloud.handle_request(record.cache_id, record.doc_id, record.time)

        meter = cloud.transport.meter
        body = 4096 + TRANSFER_HEADER_BYTES
        stats = cloud.aggregate_stats()
        assert stats.updates_applied == refreshed > 0

        # Peer transfers: one per cloud hit.
        assert meter.bytes_for(TrafficCategory.PEER_TRANSFER) == (
            stats.cloud_hits * body
        )
        # Origin fetches: one per group miss.
        assert meter.bytes_for(TrafficCategory.ORIGIN_FETCH) == (
            stats.origin_fetches * body
        )
        # One origin message per update: a body when it refreshed a holder.
        assert cloud.origin.update_messages_sent == cloud.updates_handled
        assert meter.bytes_for(TrafficCategory.UPDATE_SERVER_TO_BEACON) == (
            bodies * body
        )
        # Fan-out pushes: one per refreshed holder except the beacon's copy.
        assert meter.bytes_for(TrafficCategory.UPDATE_FANOUT) == (
            (refreshed - beacon_copies) * body
        )
        # Control messages are all CONTROL_MESSAGE_BYTES-sized.
        assert meter.bytes_for(TrafficCategory.CONTROL) == (
            meter.messages_for(TrafficCategory.CONTROL) * CONTROL_MESSAGE_BYTES
        )
