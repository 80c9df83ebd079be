"""Unit tests for the byte-budgeted store."""

import pytest

from repro.edgecache.replacement import LRUPolicy, NoReplacement, make_policy
from repro.edgecache.storage import CacheStorage


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
        storage.refresh_version(3, 1, size_bytes=10**9, now=60.0)  # grown body
        storage.admit(4, 10**9, 2, 61.0)  # re-admission at a larger size
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
        assert storage.get(1).version == 3
        assert len(storage) == 1


class TestAccess:
    def test_access_touches_document(self):
        storage = CacheStorage()
        storage.admit(1, 100, 0, 0.0)
        doc = storage.access(1, 5.0)
        assert doc.last_access == 5.0
        assert doc.access_count == 1

    def test_access_missing_raises(self):
        with pytest.raises(KeyError):
            CacheStorage().access(7, 0.0)


class TestVersionRefresh:
    def test_refresh_updates_version(self):
        storage = CacheStorage()
        storage.admit(1, 100, 0, 0.0)
        storage.refresh_version(1, 4)
        assert storage.get(1).version == 4

    def test_refresh_of_an_absent_doc_changes_nothing(self):
        storage = CacheStorage(capacity_bytes=1000)
        storage.admit(1, 100, 0, 0.0)
        assert storage.refresh_version(2, 4, size_bytes=300) is False
        assert storage.refresh_version(1, 4) is True
        assert 2 not in storage and storage.used_bytes == 100

    def test_refresh_with_size_change_adjusts_usage(self):
        storage = CacheStorage(capacity_bytes=1000)
        storage.admit(1, 100, 0, 0.0)
        storage.refresh_version(1, 1, size_bytes=300)
        assert storage.used_bytes == 300
        assert storage.get(1).size_bytes == 300

    def test_grown_doc_forces_eviction_of_others(self):
        storage = CacheStorage(capacity_bytes=1000)
        storage.admit(1, 500, 0, 0.0)
        storage.admit(2, 400, 0, 1.0)
        storage.refresh_version(2, 1, size_bytes=600, now=2.0)
        assert 2 in storage
        assert 1 not in storage  # evicted to fit the grown copy
        assert storage.used_bytes <= 1000


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

    def test_explicit_removal_does_not_move_the_estimate(self):
        storage = CacheStorage(capacity_bytes=200)
        storage.admit(1, 100, 0, 0.0)
        storage.admit(2, 100, 0, 0.0)
        storage.admit(3, 100, 0, 10.0)
        before = storage.residence_mean
        storage.remove(3, 50.0)
        assert storage.residence_mean == before
