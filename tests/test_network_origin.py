"""Unit tests for the origin server."""

import pytest

from repro.network.origin import ORIGIN_NODE_ID, OriginServer
from repro.workload.documents import build_corpus


@pytest.fixture
def origin():
    return OriginServer(build_corpus(10, fixed_size=2048))


class TestVersions:
    def test_initial_version_zero(self, origin):
        assert origin.version_of(3) == 0

    def test_publish_increments(self, origin):
        assert origin.publish_update(3) == 1
        assert origin.publish_update(3) == 2
        assert origin.version_of(3) == 2

    def test_versions_independent_per_document(self, origin):
        origin.publish_update(1)
        assert origin.version_of(2) == 0

    def test_unknown_doc_raises(self, origin):
        with pytest.raises(KeyError):
            origin.version_of(99)
        with pytest.raises(KeyError):
            origin.publish_update(-1)


class TestServing:
    def test_serve_fetch_returns_size_and_counts(self, origin):
        size = origin.serve_fetch(0)
        assert size == 2048
        assert origin.fetches_served == 1
        assert origin.bytes_served == 2048

    def test_note_update_message(self, origin):
        origin.note_update_message(0)
        assert origin.update_messages_sent == 1

    def test_default_node_id(self, origin):
        assert origin.node_id == ORIGIN_NODE_ID

    def test_updates_published_counter(self, origin):
        origin.publish_update(0)
        origin.publish_update(1)
        assert origin.updates_published == 2
