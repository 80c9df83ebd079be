"""Unit tests for the byte-budgeted store.

A resident copy is a slot in the store's version column: its size is its
document's entry in the size column and its admission time is kept by the
replacement order, so the store validates every field of a copy on admit.
"""

import gc
import tracemalloc
from array import array

import pytest

from repro.core.cloud import CacheCloud
from repro.core.config import CloudConfig
from repro.edgecache.replacement import LRUPolicy, NoReplacement, make_policy
from repro.edgecache.storage import CacheStorage
from repro.workload.documents import build_corpus


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
        storage = CacheStorage(sizes=array("i", [1] * 10))
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
        storage = CacheStorage(sizes=array("i", [100] * 50))
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
        storage = CacheStorage(capacity_bytes=200, sizes=array("i", [100] * 10))
        storage.admit(1, 100, 4, 0.0)
        storage.admit(2, 100, 5, 1.0)
        assert storage.admit(3, 100, 6, 2.0) == [1]
        storage.remove(2, 3.0)
        assert list(storage.versions) == [-1, -1, -1, 6] + [-1] * 6


class TestSizeColumn:
    def test_a_copy_at_another_size_than_the_corpus_is_refused(self):
        sizes = array("i", [300, 400, 500])
        storage = CacheStorage(capacity_bytes=1000, sizes=sizes)
        with pytest.raises(ValueError):
            storage.admit(1, 401, 0, 0.0)  # first admission, too
        assert storage.admit(1, 400, 0, 0.0) == []
        assert storage.size_of(1) == 400 and storage.used_bytes == 400
        assert list(sizes) == [300, 400, 500]  # the shared column is read only

    def test_stores_of_a_cloud_share_one_column(self):
        sizes = array("i", [300, 400])
        a, b = CacheStorage(sizes=sizes), CacheStorage(capacity_bytes=900, sizes=sizes)
        assert a.sizes is b.sizes is sizes
        a.admit(0, 300, 0, 0.0)
        assert 0 in a and 0 not in b

    def test_a_private_column_learns_each_size_once(self):
        storage = CacheStorage(capacity_bytes=1000)
        storage.admit(3, 400, 0, 0.0)
        storage.remove(3, 1.0)
        # The copy is gone, its document's size is not.
        with pytest.raises(ValueError):
            storage.admit(3, 600, 0, 2.0)
        assert storage.admit(3, 400, 1, 3.0) == [] and storage.used_bytes == 400

    def test_size_of_an_absent_copy_raises(self):
        storage = CacheStorage(sizes=array("i", [300, 400]))
        storage.admit(0, 300, 0, 0.0)
        with pytest.raises(KeyError):
            storage.size_of(1)
        with pytest.raises(KeyError):
            storage.size_of(5)


class TestResidency:
    """``in``, ``len`` and iteration read the version column."""

    def test_membership_is_a_bounds_checked_slot(self):
        storage = CacheStorage(sizes=array("i", [100] * 4))
        storage.admit(2, 100, 0, 0.0)
        assert 2 in storage
        assert all(d not in storage for d in (-1, 0, 3, 4, 10_000))

    @pytest.mark.parametrize("capacity", [None, 300])
    def test_iteration_ascends_whatever_the_admission_order(self, capacity):
        storage = CacheStorage(capacity_bytes=capacity)
        for now, doc_id in enumerate((9, 4, 7, 1)):
            storage.admit(doc_id, 100, 0, float(now))
        resident = [4, 7, 1] if capacity else [9, 4, 7, 1]
        assert list(storage) == sorted(resident) and len(storage) == len(resident)
        storage.remove(7, 5.0)
        assert list(storage) == sorted(set(resident) - {7}) == sorted(storage)
        assert len(storage) == len(resident) - 1


class TestAdmissionTime:
    """The replacement order keeps each copy's admission time."""

    @pytest.mark.parametrize("name", ["lru", "fifo", "lfu", "gdsf"])
    def test_an_eviction_samples_the_time_the_order_kept(self, name):
        storage = CacheStorage(capacity_bytes=200, policy=make_policy(name))
        storage.admit(1, 100, 0, 2.0)
        storage.admit(2, 100, 0, 5.0)
        storage.access(2, 6.0)
        storage.access(2, 7.0)
        (victim,) = storage.admit(3, 100, 0, 11.0)
        assert victim == 1  # oldest, least used, least recent: every policy's
        assert list(storage._residence_samples) == [9.0]

    @pytest.mark.parametrize("name", ["lru", "fifo", "lfu", "gdsf"])
    def test_on_remove_returns_the_insertion_time(self, name):
        policy = make_policy(name)
        policy.on_insert(4, 10, 3.5)
        policy.on_access(4, 8.0)
        assert policy.on_remove(4) == 3.5 and 4 not in policy

    def test_an_unbounded_store_keeps_no_admission_time(self):
        storage = CacheStorage()
        storage.admit(1, 100, 0, 2.0)
        storage.remove(1, 9.0, count_as_eviction=True)
        assert storage.evictions == 1 and storage.residence_mean is None
        assert not storage._residence_samples


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


class TestFootprint:
    """Bytes a store allocates per resident copy, its columns excluded.

    A store is built as :class:`~repro.core.cloud.CacheCloud` builds it (its
    columns sized to the corpus up front), then churned through three times
    its resident count, so a per-copy map would be measured at the table size
    that churn leaves it at. Measured: ~165 B on a bounded store (an LRU
    entry and its admission time) and 0 B on an unbounded one; each ceiling
    is that plus headroom. One per-copy dict of admission times beside the
    order measured 238 B and 172 B: it fails both.
    """

    RESIDENT = 1_000
    SIZE = 1_000

    def _bytes_per_copy(self, capacity_bytes):
        corpus = build_corpus(4 * self.RESIDENT, fixed_size=self.SIZE)
        config = CloudConfig(num_caches=2, num_rings=1, capacity_bytes=capacity_bytes)
        storage = CacheCloud(config, corpus).caches[0].storage
        docs = list(range(3 * self.RESIDENT))  # a trace's ids exist already
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for doc_id in docs:
                storage.admit(doc_id, self.SIZE, 0, doc_id * 0.5)
            if capacity_bytes is None:
                for doc_id in docs[: 2 * self.RESIDENT]:
                    storage.remove(doc_id, 1e6)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(storage) == self.RESIDENT
        return grown / self.RESIDENT

    def test_a_bounded_store_keeps_one_map_per_copy(self):
        per_copy = self._bytes_per_copy(self.RESIDENT * self.SIZE)
        assert per_copy <= 200, f"{per_copy:.0f} B per resident copy"

    def test_an_unbounded_store_keeps_nothing_per_copy(self):
        per_copy = self._bytes_per_copy(None)
        assert per_copy <= 8, f"{per_copy:.0f} B per resident copy"
