"""Unit tests for the in-cache document copy."""

import pytest

from repro.edgecache.document import CachedDocument


class TestValidation:
    def test_rejects_negative_doc_id(self):
        with pytest.raises(ValueError):
            CachedDocument(doc_id=-1, size_bytes=1, version=0, stored_at=0.0)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            CachedDocument(doc_id=0, size_bytes=0, version=0, stored_at=0.0)

    def test_rejects_negative_version(self):
        with pytest.raises(ValueError):
            CachedDocument(doc_id=0, size_bytes=1, version=-1, stored_at=0.0)


class TestBehaviour:
    def test_residence_time(self):
        doc = CachedDocument(doc_id=0, size_bytes=1, version=0, stored_at=3.0)
        assert doc.residence_time(10.0) == 7.0
        assert doc.residence_time(1.0) == 0.0  # clamped, never negative
