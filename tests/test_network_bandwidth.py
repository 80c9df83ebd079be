"""Unit tests for the traffic meter."""

import pytest

from repro.network.bandwidth import TrafficCategory, TrafficMeter


class TestTrafficMeter:
    def test_starts_empty(self):
        meter = TrafficMeter()
        assert meter.total_bytes == 0
        for category in TrafficCategory:
            assert meter.bytes_for(category) == 0

    def test_record_accumulates(self):
        meter = TrafficMeter()
        meter.record(TrafficCategory.PEER_TRANSFER, 100)
        meter.record(TrafficCategory.PEER_TRANSFER, 50)
        assert meter.bytes_for(TrafficCategory.PEER_TRANSFER) == 150
        assert meter.messages_for(TrafficCategory.PEER_TRANSFER) == 2

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            TrafficMeter().record(TrafficCategory.CONTROL, -1)

    def test_zero_byte_message_counts_message(self):
        meter = TrafficMeter()
        meter.record(TrafficCategory.CONTROL, 0)
        assert meter.messages_for(TrafficCategory.CONTROL) == 1

    def test_total_bytes_spans_categories(self):
        meter = TrafficMeter()
        meter.record(TrafficCategory.CONTROL, 10)
        meter.record(TrafficCategory.ORIGIN_FETCH, 90)
        assert meter.total_bytes == 100

    def test_megabytes_per_unit_time(self):
        meter = TrafficMeter()
        meter.record(TrafficCategory.PEER_TRANSFER, 2 * 1024 * 1024)
        assert meter.megabytes_per_unit_time(4.0) == pytest.approx(0.5)

    def test_megabytes_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            TrafficMeter().megabytes_per_unit_time(0.0)

    def test_breakdown_keys(self):
        breakdown = TrafficMeter().breakdown()
        assert set(breakdown) == {c.value for c in TrafficCategory}

    def test_merge(self):
        a, b = TrafficMeter(), TrafficMeter()
        a.record(TrafficCategory.CONTROL, 5)
        b.record(TrafficCategory.CONTROL, 7)
        b.record(TrafficCategory.ORIGIN_FETCH, 11)
        a.merge(b)
        assert a.bytes_for(TrafficCategory.CONTROL) == 12
        assert a.bytes_for(TrafficCategory.ORIGIN_FETCH) == 11

    def test_reset(self):
        meter = TrafficMeter()
        meter.record(TrafficCategory.CONTROL, 5)
        meter.reset()
        assert meter.total_bytes == 0
        assert meter.messages_for(TrafficCategory.CONTROL) == 0
