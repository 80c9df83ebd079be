"""Origin server model.

The origin server is the authoritative source of every document. In the
cache-cloud protocol it plays two roles:

* On a **group miss** (no cache in the cloud holds the document) it serves
  the document body to the requesting cache.
* On a **document update** it pushes the new version to exactly one cache
  per cloud — the document's beacon point — which fans the update out
  in-cloud. The server therefore tracks each cloud's current beacon-point
  assignment; sub-range announcements keep it current (paper §2.3: "all the
  caches in the cache ring *and the origin server* are informed about the
  new sub-range assignments").
"""

from __future__ import annotations

from typing import List

from repro.workload.documents import Corpus

#: Conventional node id for the origin server in single-cloud experiments.
ORIGIN_NODE_ID = -1


class OriginServer:
    """Document versions plus server-side load counters.

    The server assigns monotonically increasing version numbers per document.
    ``update_messages_sent`` counts update messages dispatched toward beacon
    points — one per cloud per update, a body or a bare notice — which is
    the server-side consistency load the cooperative design is meant to
    reduce.
    """

    def __init__(self, corpus: Corpus, node_id: int = ORIGIN_NODE_ID) -> None:
        self.corpus = corpus
        self.node_id = node_id
        # Corpora are immutable and densely numbered, so versions live in a
        # flat list and the doc-id bounds check caches the corpus length:
        # version_of sits on the request hot path (every freshness check).
        self._num_docs = len(corpus)
        self._versions: List[int] = [0] * self._num_docs
        self.updates_published = 0
        self.update_messages_sent = 0
        self.fetches_served = 0
        self.bytes_served = 0

    # ------------------------------------------------------------------
    # Versions
    # ------------------------------------------------------------------
    def version_of(self, doc_id: int) -> int:
        """Current version of ``doc_id`` (documents start at version 0)."""
        if 0 <= doc_id < self._num_docs:
            return self._versions[doc_id]
        raise KeyError(f"unknown doc_id {doc_id}")

    def publish_update(self, doc_id: int) -> int:
        """Advance the document's version; returns the new version number."""
        self._check_doc(doc_id)
        new_version = self._versions[doc_id] + 1
        self._versions[doc_id] = new_version
        self.updates_published += 1
        return new_version

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_fetch(self, doc_id: int) -> int:
        """Serve a group-miss fetch; returns the document size in bytes."""
        self._check_doc(doc_id)
        size = self.corpus[doc_id].size_bytes
        self.fetches_served += 1
        self.bytes_served += size
        return size

    def note_update_message(self, doc_id: int) -> None:
        """Count one update message sent to a beacon point."""
        self._check_doc(doc_id)
        self.update_messages_sent += 1

    def _check_doc(self, doc_id: int) -> None:
        if not 0 <= doc_id < self._num_docs:
            raise KeyError(f"unknown doc_id {doc_id}")

    def __repr__(self) -> str:
        return (
            f"OriginServer(docs={len(self.corpus)}, "
            f"updates={self.updates_published}, fetches={self.fetches_served})"
        )
