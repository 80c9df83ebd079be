"""The cache-cloud protocols as they cross the wire.

DESIGN.md §3.1's protocol diagram as an executable test: on a 4-cache,
topology-less cloud, each protocol step is asserted as the exact sequence of
``(src, dst, num_bytes, category)`` rows the fabric's dispatch log records.
The dispatch log is the one capture of what crossed the wire.
"""

import pytest

from repro.core.config import AssignmentScheme
from repro.core.directory import DIRECTORY_ENTRY_BYTES
from repro.network.origin import ORIGIN_NODE_ID
from repro.network.transport import CONTROL_MESSAGE_BYTES, TRANSFER_HEADER_BYTES
from tests.conftest import make_cloud, wire

ORIGIN = ORIGIN_NODE_ID
#: ``small_corpus`` documents are 1 KiB; a document leg carries a header too.
DOC = 1024 + TRANSFER_HEADER_BYTES
CTL = CONTROL_MESSAGE_BYTES


def _request(cloud, cache_id, doc_id, now):
    return lambda: cloud.handle_request(cache_id, doc_id, now)


def _update(cloud, doc_id, now):
    return lambda: cloud.handle_update(doc_id, now)


def _skewed(cloud, populated=True):
    """A cloud whose ring-0 beacon is overloaded, so the next cycle moves a
    range; ``populated`` fills the directories first so entries migrate."""
    if populated:
        for doc in range(30):
            cloud.handle_request(doc % 4, doc, now=doc * 0.1)
    hot = next(d for d in range(len(cloud.corpus)) if cloud.doc_ring(d) == 0)
    for i in range(300):
        cloud.handle_update(hot, now=5.0 + i * 0.01)
    return cloud


def _hand_overs(cloud, monkeypatch):
    """``(src, dst, entries)`` per hand-over from here on."""
    moved = []
    hand_over = cloud.hand_over

    def recording(src, dst, entries):
        moved.append((src, dst, len(entries)))
        hand_over(src, dst, entries)

    monkeypatch.setattr(cloud, "hand_over", recording)
    return moved


def _cycle(cloud, monkeypatch):
    """The cycle's wire rows, plus ``(src, dst, entries)`` per hand-over."""
    moved = _hand_overs(cloud, monkeypatch)
    return wire(cloud, lambda: cloud.run_cycle(10.0)), moved


def _sized(moved):
    """The one hand-over rule: ``max(256, n · 96)`` bytes for ``n`` entries."""
    return [
        (src, dst, max(CTL, n * DIRECTORY_ENTRY_BYTES), "directory_migration")
        for src, dst, n in moved
    ]


class TestWireSequence:
    def test_group_miss(self, small_corpus):
        """(a) Lookup legs + response, forced origin fetch, registration."""
        cloud = make_cloud(small_corpus)
        beacon = cloud.beacon_for_doc(5)
        assert beacon != 0 and cloud.doc_hops(5) == 1
        assert wire(cloud, _request(cloud, 0, 5, 1.0)) == [
            (0, beacon, CTL, "control"),
            (beacon, 0, CTL, "control"),
            (ORIGIN, 0, DOC, "origin_fetch"),
            (0, beacon, CTL, "control"),
        ]

    def test_cloud_hit(self, small_corpus):
        """(b) One peer transfer from the chosen holder."""
        cloud = make_cloud(small_corpus)
        cloud.handle_request(0, 5, 1.0)
        beacon = cloud.beacon_for_doc(5)
        assert wire(cloud, _request(cloud, 1, 5, 2.0)) == [
            (1, beacon, CTL, "control"),
            (beacon, 1, CTL, "control"),
            (0, 1, DOC, "peer_transfer"),
            (1, beacon, CTL, "control"),  # ad hoc: the requester registers too
        ]

    def test_update_with_holders(self, small_corpus):
        """(c) One body to the beacon, a leg per other holder in id order."""
        cloud = make_cloud(small_corpus)
        beacon = cloud.beacon_for_doc(5)
        for now, cache_id in enumerate((3, beacon, 0, 1)):
            cloud.handle_request(cache_id, 5, float(now))
        legs = [
            (beacon, holder, DOC, "update_fanout")
            for holder in range(4)
            if holder != beacon
        ]
        assert wire(cloud, _update(cloud, 5, 10.0)) == [
            (ORIGIN, beacon, DOC, "update_server_to_beacon"),
            *legs,
        ]

    def test_update_without_holder(self, small_corpus):
        """(d) A bare control notice from the origin to the beacon."""
        cloud = make_cloud(small_corpus)
        beacon = cloud.beacon_for_doc(5)
        assert wire(cloud, _update(cloud, 5, 1.0)) == [(ORIGIN, beacon, CTL, "control")]

    def test_cycle_moving_a_range(self, small_corpus, monkeypatch):
        """(e) Announcements to every live cache and the origin, then one
        migration per moved range sized ``max(256, n · 96)``."""
        cloud = _skewed(make_cloud(small_corpus))
        coordinator = cloud.assigner.rings[0].members[0]
        rows, moved = _cycle(cloud, monkeypatch)
        announcements = [
            (coordinator, dst, CTL, "control")
            for dst in (*range(4), ORIGIN)
            if dst != coordinator
        ]
        assert moved and any(n * DIRECTORY_ENTRY_BYTES > CTL for _, _, n in moved)
        assert rows == announcements + _sized(moved)


class TestSizes:
    def test_lookup_messages_are_control_sized(self, small_corpus):
        """Every leg of a multi-hop lookup RPC, and its response, is one
        control message."""
        cloud = make_cloud(small_corpus, assignment=AssignmentScheme.CONSISTENT)
        doc = next(d for d in range(50) if cloud.doc_hops(d) > 1)
        beacon = cloud.beacon_for_doc(doc)
        requester = next(c for c in range(4) if c != beacon)
        rows = wire(cloud, _request(cloud, requester, doc, 1.0))
        hops = cloud.doc_hops(doc)
        assert rows[: hops + 1] == [(requester, beacon, CTL, "control")] * hops + [
            (beacon, requester, CTL, "control")
        ]

    def test_update_notice_body_vs_invalidation(self, small_corpus):
        """The origin's one message per update: control-sized with nobody
        to refresh, the document body plus header otherwise."""
        cloud = make_cloud(small_corpus)
        beacon = cloud.beacon_for_doc(5)
        bare = wire(cloud, _update(cloud, 5, 1.0))
        cloud.handle_request(beacon, 5, 2.0)
        with_body = wire(cloud, _update(cloud, 5, 3.0))
        assert bare == [(ORIGIN, beacon, CTL, "control")]
        assert with_body == [(ORIGIN, beacon, DOC, "update_server_to_beacon")]

    def test_directory_transfer_scales_with_entries(self, small_corpus, monkeypatch):
        rows, moved = _cycle(_skewed(make_cloud(small_corpus)), monkeypatch)
        sizes = [r[2] for r in rows if r[3] == "directory_migration"]
        large = [n for _, _, n in moved if n * DIRECTORY_ENTRY_BYTES >= CTL]
        assert large
        assert all(n * DIRECTORY_ENTRY_BYTES in sizes for n in large)

    def test_empty_directory_transfer_has_floor(self, small_corpus, monkeypatch):
        cloud = _skewed(make_cloud(small_corpus), populated=False)
        rows, moved = _cycle(cloud, monkeypatch)
        assert moved and all(n == 0 for _, _, n in moved)
        assert [r[2] for r in rows if r[3] == "directory_migration"] == [CTL] * len(moved)

    @pytest.mark.parametrize("populated", [True, False])
    def test_retirement_and_join_follow_the_cycle_rule(
        self, small_corpus, monkeypatch, populated
    ):
        """A retirement hands its directory off in one message and a join
        pulls one from every other ring member, each sized as a cycle move
        is: ``max(256, n · 96)``, an empty hand-over a control message."""
        cloud = make_cloud(small_corpus, num_caches=6, failure_resilience=True)
        leaver = 0
        if populated:
            # Every cache but the leaver stores, so it is drained yet its
            # beacon lists holders.
            for doc in range(30):
                cloud.handle_request(1 + doc % 5, doc, now=doc * 0.1)
        manager = cloud.failure_manager
        moved = _hand_overs(cloud, monkeypatch)
        retired = wire(cloud, lambda: manager.retire_cache(leaver, 5.0))
        assert len(moved) == 1
        joined = wire(cloud, lambda: manager.instantiate_cache(leaver, 6.0))
        rows = [row for row in retired + joined if row[3] == "directory_migration"]
        assert rows == _sized(moved)
        pulls = moved[1:]
        assert [dst for _, dst, _ in pulls] == [leaver] * (len(manager.ring_of(leaver)) - 1)
        if populated:
            assert moved[0][2] * DIRECTORY_ENTRY_BYTES > CTL
        else:
            assert all(n == 0 for _, _, n in moved)


class TestCloudTraceGating:
    """The dispatch log is attached per test, never by default.

    A cloud records nothing and keeps the fabric's fast path unless a log is
    attached; attaching one observes the protocols without changing them.
    """

    @staticmethod
    def _exercise(cloud):
        # Same request twice from different caches: the second lookup finds a
        # holder, and the update then has a holder to refresh.
        cloud.handle_request(0, 5, 0.0)
        cloud.handle_request(1, 5, 1.0)
        cloud.handle_update(5, 2.0)
        return cloud

    def test_disabled_capture_records_nothing(self, small_corpus):
        cloud = self._exercise(make_cloud(small_corpus))
        assert cloud.fabric.dispatch_log is None
        assert cloud.fabric._fast_path
        # The simulation itself still ran.
        assert cloud.requests_handled == 2
        assert cloud.updates_handled == 1

    def test_enabled_capture_sees_lookup_and_update_messages(self, small_corpus):
        cloud = make_cloud(small_corpus)
        rows = wire(cloud, lambda: self._exercise(cloud))
        beacon = cloud.beacon_for_doc(5)
        lookups = [r for r in rows if r[3] == "control" and r[1] == beacon]
        assert len(lookups) >= 2
        assert (ORIGIN, beacon, DOC, "update_server_to_beacon") in rows

    def test_gating_does_not_change_outcomes(self, small_corpus):
        captured = make_cloud(small_corpus)
        wire(captured, lambda: self._exercise(captured))
        silent = self._exercise(make_cloud(small_corpus))
        assert captured.aggregate_stats() == silent.aggregate_stats()
        assert captured.transport.meter == silent.transport.meter
