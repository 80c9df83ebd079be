"""Unit tests for the byte-budgeted store.

A resident copy is a slot in the store's version column plus its size and
admission time, both keyed by doc id, so the store validates every field of
a copy on admit.
"""

import pytest

from repro.edgecache.replacement import LRUPolicy, NoReplacement, make_policy
from repro.edgecache.storage import CacheStorage


class TestValidation:
    @pytest.mark.parametrize(
        "doc_id, size_bytes, version",
        [
            pytest.param(-1, 1, 0, id="negative-doc-id"),
            # -1 is the column's "no copy": a copy at it would read as absent.
            pytest.param(0, 1, -1, id="negative-version"),
            pytest.param(0, 0, 0, id="zero-size"),
        ],
    )
    def test_admit_rejects(self, doc_id, size_bytes, version):
        storage = CacheStorage(documents=10)
        with pytest.raises(ValueError):
            storage.admit(doc_id, size_bytes, version, 0.0)
        assert len(storage) == 0 and storage.used_bytes == 0


class TestUnlimitedStorage:
    def test_admits_everything(self):
        storage = CacheStorage()
        for doc in range(100):
            assert storage.admit(doc, 1000, 0, float(doc)) == []
        assert len(storage) == 100
        assert storage.unlimited

    def test_expected_residence_none(self):
        storage = CacheStorage()
        storage.admit(0, 100, 0, 0.0)
        assert storage.residence_mean is None

    @pytest.mark.parametrize("name", ["lru", "fifo", "lfu", "gdsf"])
    def test_never_asks_for_a_victim_whichever_policy_it_was_handed(self, name):
        handed = make_policy(name)
        handed.choose_victim = lambda: pytest.fail("an unlimited store evicted")
        storage = CacheStorage(capacity_bytes=None, policy=handed)
        for doc in range(50):
            storage.admit(doc, 1000, 0, float(doc))
            storage.access(doc, doc + 0.5)
        storage.refresh_version(3, 1)
        storage.admit(4, 1000, 2, 61.0)  # re-admission
        storage.remove(5, 62.0)
        assert len(storage) == 49 and storage.evictions == 0
        # ... so it keeps no replacement order for anybody to read.
        assert isinstance(storage.policy, NoReplacement)
        assert len(storage.policy) == 0 and len(handed) == 0
        assert 3 not in storage.policy

    def test_a_budget_keeps_the_policy_it_was_handed(self):
        handed = make_policy("fifo")
        storage = CacheStorage(capacity_bytes=1000, policy=handed)
        storage.admit(1, 100, 0, 0.0)
        assert storage.policy is handed and 1 in handed


class TestBoundedStorage:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CacheStorage(capacity_bytes=0)

    def test_tracks_used_bytes(self):
        storage = CacheStorage(capacity_bytes=1000)
        storage.admit(1, 300, 0, 0.0)
        storage.admit(2, 200, 0, 0.0)
        assert storage.used_bytes == 500

    def test_evicts_lru_to_make_room(self):
        storage = CacheStorage(capacity_bytes=1000, policy=LRUPolicy())
        storage.admit(1, 400, 0, 0.0)
        storage.admit(2, 400, 0, 1.0)
        storage.access(1, 2.0)  # doc 2 is now LRU
        evicted = storage.admit(3, 400, 0, 3.0)
        assert evicted == [2]
        assert 1 in storage and 3 in storage and 2 not in storage
        assert storage.evictions == 1

    def test_doc_larger_than_disk_rejected(self):
        storage = CacheStorage(capacity_bytes=100)
        assert storage.admit(1, 101, 0, 0.0) is None
        assert len(storage) == 0

    def test_multiple_evictions_for_one_admit(self):
        storage = CacheStorage(capacity_bytes=1000)
        for doc in range(4):
            storage.admit(doc, 250, 0, float(doc))
        evicted = storage.admit(9, 900, 0, 10.0)
        assert evicted == [0, 1, 2, 3]  # 250 left would not fit 900 alongside
        assert storage.used_bytes == 900
        assert storage.evictions == 4

    def test_readmission_refreshes_version_in_place(self):
        storage = CacheStorage(capacity_bytes=1000)
        storage.admit(1, 400, 0, 0.0)
        evicted = storage.admit(1, 400, 3, 1.0)
        assert evicted == []
        assert storage.version_of(1) == 3
        assert len(storage) == 1

    def test_readmission_at_another_size_raises(self):
        # A document's size never changes (the corpus is immutable), so a
        # copy arriving at another size is a caller bug, refused before it
        # could leave ``used_bytes`` out of step with the copies.
        storage = CacheStorage(capacity_bytes=1000)
        storage.admit(1, 400, 0, 0.0)
        storage.admit(2, 400, 0, 1.0)
        with pytest.raises(ValueError):
            storage.admit(2, 600, 1, 2.0)
        assert storage.version_of(2) == 0 and storage.used_bytes == 800
        assert 1 in storage and storage.evictions == 0


class TestAccess:
    def test_access_returns_nothing_and_refreshes_recency(self):
        storage = CacheStorage(capacity_bytes=200, policy=LRUPolicy())
        storage.admit(1, 100, 0, 0.0)
        storage.admit(2, 100, 0, 1.0)
        assert storage.access(1, 5.0) is None
        assert storage.admit(3, 100, 0, 6.0) == [2]
        assert storage.size_of(1) == 100

    def test_access_missing_raises(self):
        with pytest.raises(KeyError):
            CacheStorage().access(7, 0.0)


class TestVersionRefresh:
    def test_refresh_updates_version(self):
        storage = CacheStorage()
        storage.admit(1, 100, 0, 0.0)
        storage.refresh_version(1, 4)
        assert storage.version_of(1) == 4

    def test_refresh_of_an_absent_doc_changes_nothing(self):
        storage = CacheStorage(capacity_bytes=1000)
        storage.admit(1, 100, 0, 0.0)
        assert storage.refresh_version(2, 4) is False
        assert storage.refresh_version(7_000, 4) is False  # past the column
        assert storage.refresh_version(1, 4) is True
        assert 2 not in storage and storage.used_bytes == 100
        assert storage.version_of(2) == -1


class TestVersionColumn:
    def test_a_sized_column_covers_the_corpus_and_starts_empty(self):
        storage = CacheStorage(documents=50)
        assert list(storage.versions) == [-1] * 50
        storage.admit(49, 100, 3, 0.0)
        assert len(storage.versions) == 50 and storage.versions[49] == 3

    def test_an_unsized_column_grows_on_admit(self):
        storage = CacheStorage()
        assert len(storage.versions) == 0 and storage.version_of(9) == -1
        storage.admit(9, 100, 2, 0.0)
        assert len(storage.versions) >= 10
        assert [storage.version_of(d) for d in range(10)] == [-1] * 9 + [2]

    def test_remove_and_eviction_clear_the_slot(self):
        storage = CacheStorage(capacity_bytes=200, documents=10)
        storage.admit(1, 100, 4, 0.0)
        storage.admit(2, 100, 5, 1.0)
        assert storage.admit(3, 100, 6, 2.0) == [1]
        storage.remove(2, 3.0)
        assert list(storage.versions) == [-1, -1, -1, 6] + [-1] * 6


class TestRemove:
    def test_remove_returns_space(self):
        storage = CacheStorage(capacity_bytes=500)
        storage.admit(1, 300, 0, 0.0)
        storage.remove(1, 1.0)
        assert storage.used_bytes == 0
        assert storage.evictions == 0  # explicit removal is not an eviction

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            CacheStorage().remove(1, 0.0)


class TestResidenceEstimation:
    def test_no_evictions_yet_returns_none(self):
        storage = CacheStorage(capacity_bytes=1000)
        storage.admit(1, 100, 0, 0.0)
        assert storage.residence_mean is None

    def test_estimate_is_mean_of_recent_evictions(self):
        storage = CacheStorage(capacity_bytes=200)
        storage.admit(1, 100, 0, 0.0)
        storage.admit(2, 100, 0, 0.0)
        storage.admit(3, 100, 0, 10.0)  # evicts doc 1 after 10 units
        storage.admit(4, 100, 0, 30.0)  # evicts doc 2 after 30 units
        assert storage.residence_mean == pytest.approx(20.0)

    def test_estimate_is_the_window_mean_bit_for_bit(self):
        """The estimate is refreshed at each eviction with the same
        ``sum(samples) / len(samples)`` a per-call recomputation would do —
        including once the 64-sample window starts dropping old samples."""
        from repro.edgecache.storage import RESIDENCE_SAMPLE_WINDOW

        storage = CacheStorage(capacity_bytes=100)
        now = 0.0
        for doc_id in range(RESIDENCE_SAMPLE_WINDOW + 40):
            now += 0.1 + (doc_id % 7) / 3.0
            storage.admit(doc_id, 100, 0, now)  # evicts the previous one
            samples = storage._residence_samples
            if samples:
                assert storage.residence_mean == sum(samples) / len(
                    samples
                )
        assert len(storage._residence_samples) == RESIDENCE_SAMPLE_WINDOW

    def test_an_eviction_before_admission_samples_zero(self):
        # A residence is never negative, even for a ``now`` before the
        # victim's admission time.
        storage = CacheStorage(capacity_bytes=100)
        storage.admit(1, 100, 0, 3.0)
        assert storage.admit(2, 100, 0, 1.0) == [1]
        assert list(storage._residence_samples) == [0.0]
        assert storage.residence_mean == 0.0

    def test_explicit_removal_does_not_move_the_estimate(self):
        storage = CacheStorage(capacity_bytes=200)
        storage.admit(1, 100, 0, 0.0)
        storage.admit(2, 100, 0, 0.0)
        storage.admit(3, 100, 0, 10.0)
        before = storage.residence_mean
        storage.remove(3, 50.0)
        assert storage.residence_mean == before
