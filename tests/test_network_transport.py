"""Unit tests for the transport layer."""

import pytest

from repro.network.bandwidth import TrafficCategory, TrafficMeter
from repro.network.topology import EuclideanTopology, ExplicitTopology
from repro.network.transport import (
    CONTROL_MESSAGE_BYTES,
    TRANSFER_HEADER_BYTES,
    Transport,
)


class TestLatencyModel:
    def test_no_topology_means_zero_latency(self):
        transport = Transport()
        assert transport.latency_minutes(0, 1) == 0.0

    def test_self_send_zero_latency(self):
        topo = ExplicitTopology([[0, 60_000], [60_000, 0]])
        transport = Transport(topology=topo)
        assert transport.latency_minutes(1, 1) == 0.0

    def test_latency_converted_to_minutes(self):
        topo = ExplicitTopology([[0, 60_000], [60_000, 0]])
        transport = Transport(topology=topo)
        assert transport.latency_minutes(0, 1) == 1.0
        assert transport.rtt_minutes(0, 1) == 2.0


class TestLatencyLines:
    def _euclidean(self):
        return EuclideanTopology(
            {0: (0.0, 0.0), 1: (3.0, 4.0), 2: (10.0, 0.0), 3: (0.0, 7.5)}
        )

    def test_lines_agree_with_latency_minutes_in_both_directions(self):
        transport = Transport(topology=self._euclidean())
        for anchor in range(4):
            outbound = transport.latencies_from(anchor)
            inbound = transport.latencies_to(anchor)
            for other in range(4):
                assert outbound[other] == transport.latency_minutes(anchor, other)
                assert inbound[other] == transport.latency_minutes(other, anchor)

    def test_lines_are_memoised_per_anchor(self):
        transport = Transport(topology=self._euclidean())
        line = transport.latencies_to(2)
        assert len(line) == 0  # filled on first read, not up front
        first = line[1]
        assert transport.latencies_to(2) is line
        assert line == {1: first}

    def test_add_node_never_stales_a_line(self):
        """``add_node`` only adds positions: what a line already holds stays
        right, and the new node is filled in on its first read."""
        topology = self._euclidean()
        transport = Transport(topology=topology)
        line = transport.latencies_from(0)
        before = {other: line[other] for other in range(4)}
        topology.add_node(9, (-6.0, 8.0))
        assert transport.latencies_from(0) is line
        for other, value in before.items():
            assert line[other] == value == transport.latency_minutes(0, other)
        assert line[9] == transport.latency_minutes(0, 9) > 0.0

    def test_direction_is_kept_for_a_matrix_symmetric_only_to_tolerance(self):
        topo = ExplicitTopology([[0, 60_000.0], [60_000.0 + 5e-10, 0]])
        transport = Transport(topology=topo)
        assert transport.latencies_from(0)[1] == transport.latency_minutes(0, 1)
        assert transport.latencies_to(0)[1] == transport.latency_minutes(1, 0)
        assert transport.latencies_from(0)[1] != transport.latencies_to(0)[1]

    def test_replacing_the_topology_discards_the_lines(self):
        transport = Transport(topology=ExplicitTopology([[0, 60_000], [60_000, 0]]))
        assert transport.latencies_to(0)[1] == 1.0
        transport.topology = ExplicitTopology([[0, 120_000], [120_000, 0]])
        assert transport.latencies_to(0)[1] == 2.0


class TestAccounting:
    def test_send_charges_meter(self):
        meter = TrafficMeter()
        transport = Transport(meter=meter)
        transport.send(0, 1, 500, TrafficCategory.PEER_TRANSFER)
        assert meter.bytes_for(TrafficCategory.PEER_TRANSFER) == 500

    def test_send_control_size(self):
        meter = TrafficMeter()
        Transport(meter=meter).send_control(0, 1)
        assert meter.bytes_for(TrafficCategory.CONTROL) == CONTROL_MESSAGE_BYTES

    def test_send_document_adds_header(self):
        meter = TrafficMeter()
        Transport(meter=meter).send_document(
            0, 1, 1000, TrafficCategory.ORIGIN_FETCH
        )
        assert (
            meter.bytes_for(TrafficCategory.ORIGIN_FETCH)
            == 1000 + TRANSFER_HEADER_BYTES
        )

    def test_send_document_rejects_empty_body(self):
        with pytest.raises(ValueError):
            Transport().send_document(0, 1, 0, TrafficCategory.ORIGIN_FETCH)

    def test_default_meter_created(self):
        transport = Transport()
        transport.send(0, 1, 5, TrafficCategory.CONTROL)
        assert transport.meter.total_bytes == 5
