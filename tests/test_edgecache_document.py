"""Unit tests for the in-cache document copy.

A copy is its size and admission time; its doc id is the store's key and
its version a slot in the store's version column, so the id and version
checks are the store's to make on admit.
"""

import pytest

from repro.edgecache.document import CachedDocument
from repro.edgecache.storage import CacheStorage


class TestValidation:
    def test_rejects_negative_doc_id(self):
        with pytest.raises(ValueError):
            CacheStorage(documents=10).admit(-1, 1, 0, 0.0)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            CachedDocument(size_bytes=0, stored_at=0.0)

    def test_rejects_negative_version(self):
        # -1 is the column's "no copy": a copy at it would read as absent.
        with pytest.raises(ValueError):
            CacheStorage(documents=10).admit(0, 1, -1, 0.0)


class TestBehaviour:
    def test_residence_time(self):
        doc = CachedDocument(size_bytes=1, stored_at=3.0)
        assert doc.residence_time(10.0) == 7.0
        assert doc.residence_time(1.0) == 0.0  # clamped, never negative

