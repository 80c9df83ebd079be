"""Unit tests for the document corpus model."""

import random

import pytest

from repro.workload.documents import Corpus, DocumentSpec, build_corpus


class TestDocumentSpec:
    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            DocumentSpec(doc_id=-1, url="u", size_bytes=10)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            DocumentSpec(doc_id=0, url="u", size_bytes=0)

    def test_is_hashable_and_frozen(self):
        doc = DocumentSpec(0, "u", 10)
        assert hash(doc)
        with pytest.raises(AttributeError):
            doc.size_bytes = 20


class TestCorpus:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Corpus([])

    def test_rejects_non_dense_ids(self):
        docs = [DocumentSpec(0, "a", 1), DocumentSpec(2, "b", 1)]
        with pytest.raises(ValueError):
            Corpus(docs)

    def test_rejects_duplicate_urls(self):
        docs = [DocumentSpec(0, "same", 1), DocumentSpec(1, "same", 1)]
        with pytest.raises(ValueError):
            Corpus(docs)

    def test_lookup_by_id_and_url(self):
        docs = [DocumentSpec(0, "a", 5), DocumentSpec(1, "b", 7)]
        corpus = Corpus(docs)
        assert corpus[1].url == "b"

    def test_total_bytes_and_mean(self):
        docs = [DocumentSpec(0, "a", 5), DocumentSpec(1, "b", 7)]
        corpus = Corpus(docs)
        assert corpus.total_bytes == 12
        assert corpus.mean_size() == 6.0

    def test_iteration_in_id_order(self):
        corpus = build_corpus(10, fixed_size=100)
        assert [d.doc_id for d in corpus] == list(range(10))


class TestBuildCorpus:
    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            build_corpus(0)

    def test_fixed_size(self):
        corpus = build_corpus(10, fixed_size=512)
        assert all(d.size_bytes == 512 for d in corpus)

    def test_fixed_size_must_be_positive(self):
        with pytest.raises(ValueError):
            build_corpus(10, fixed_size=0)

    def test_lognormal_sizes_near_requested_mean(self):
        corpus = build_corpus(5000, random.Random(0), mean_size=8192)
        assert corpus.mean_size() == pytest.approx(8192, rel=0.15)

    def test_sizes_have_floor(self):
        corpus = build_corpus(2000, random.Random(0), mean_size=128, sigma=1.5)
        assert min(d.size_bytes for d in corpus) >= 64

    def test_urls_unique_and_prefixed(self):
        corpus = build_corpus(20, fixed_size=1)
        urls = corpus.urls()
        assert len(set(urls)) == 20
        assert all(u.startswith("http://") for u in urls)

    def test_deterministic_given_rng(self):
        a = build_corpus(50, random.Random(5))
        b = build_corpus(50, random.Random(5))
        assert [d.size_bytes for d in a] == [d.size_bytes for d in b]
