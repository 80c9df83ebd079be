"""Unit tests for the edge cache node facade."""

import pytest

from repro.edgecache.cache import EdgeCache
from repro.edgecache.document import CachedDocument


class TestConstruction:
    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            EdgeCache(-1)

    def test_rejects_non_positive_capability(self):
        with pytest.raises(ValueError):
            EdgeCache(0, capability=0.0)


class TestRequestPath:
    def test_observe_request_counts_and_tracks_frequency(self):
        cache = EdgeCache(0)
        cache.observe_request(5, 1.0)
        assert cache.stats.requests == 1
        assert cache.frequencies.rate_of(5, 1.0) > 0

    def test_serve_local_counts_hit(self):
        cache = EdgeCache(0)
        cache.admit(5, 100, 0, 0.0)
        doc = cache.serve_local(5, 2.0)
        assert isinstance(doc, CachedDocument)
        assert cache.stats.local_hits == 1

    def test_admit_counts_store(self):
        cache = EdgeCache(0)
        assert cache.admit(5, 100, 0, 0.0) == []
        assert cache.stats.stores == 1

    def test_admit_too_big_returns_none_without_store_count(self):
        cache = EdgeCache(0, capacity_bytes=50)
        assert cache.admit(5, 100, 0, 0.0) is None
        assert cache.stats.stores == 0

    def test_decline_counts_reject(self):
        cache = EdgeCache(0)
        cache.decline()
        assert cache.stats.placement_rejects == 1


class TestFreshness:
    def test_holds_fresh_semantics(self):
        cache = EdgeCache(0)
        cache.admit(5, 100, 2, 0.0)
        assert cache.holds(5)
        assert cache.holds_fresh(5, 2)
        assert cache.holds_fresh(5, 1)  # newer than required is fine
        assert not cache.holds_fresh(5, 3)

    def test_apply_update_refreshes_version(self):
        cache = EdgeCache(0)
        cache.admit(5, 100, 0, 0.0)
        assert cache.apply_update(5, 3, 1.0)
        assert cache.copy_of(5).version == 3
        assert cache.stats.updates_applied == 1

    def test_apply_update_to_absent_doc_is_noop(self):
        cache = EdgeCache(0)
        assert not cache.apply_update(5, 3, 1.0)
        assert cache.stats.updates_applied == 0

    def test_drop(self):
        cache = EdgeCache(0)
        cache.admit(5, 100, 0, 0.0)
        assert cache.drop(5, 1.0)
        assert not cache.holds(5)
        assert not cache.drop(5, 2.0)


class TestFailure:
    def test_fail_clears_storage(self):
        cache = EdgeCache(0)
        cache.admit(1, 100, 0, 0.0)
        cache.admit(2, 100, 0, 0.0)
        cache.fail(1.0)
        assert not cache.alive
        assert len(cache.storage) == 0

    def test_recover_comes_back_cold(self):
        cache = EdgeCache(0)
        cache.admit(1, 100, 0, 0.0)
        cache.fail(1.0)
        cache.recover()
        assert cache.alive
        assert not cache.holds(1)


class TestHolderEpoch:
    """The shared cell is bumped exactly when this cache stops holding
    documents without its beacon points being told."""

    def test_own_cell_by_default_shared_when_given(self):
        assert EdgeCache(0).holder_epoch == [0]
        cell = [0]
        a = EdgeCache(0, holder_epoch=cell)
        b = EdgeCache(1, holder_epoch=cell)
        a.fail(1.0)
        assert b.holder_epoch is cell and cell == [1]

    def test_fail_and_retire_bump_recover_does_not(self):
        cache = EdgeCache(0)
        cache.admit(1, 100, 0, 0.0)
        cache.fail(1.0)
        assert cache.holder_epoch == [1]
        cache.recover()
        assert cache.holder_epoch == [1]
        cache.retire()
        assert cache.holder_epoch == [2]

    def test_announced_evictions_do_not_bump(self):
        cache = EdgeCache(0, capacity_bytes=200)
        cache.admit(1, 100, 0, 0.0)
        cache.admit(2, 100, 0, 1.0)
        assert cache.admit(3, 100, 0, 2.0) == [1]  # the caller sends the notice
        cache.apply_update(2, 1, 3.0, size_bytes=100)
        cache.drop(2, 4.0)
        assert cache.holder_epoch == [0]

    def test_update_that_grows_a_copy_over_others_bumps(self):
        cache = EdgeCache(0, capacity_bytes=200)
        cache.admit(1, 100, 0, 0.0)
        cache.admit(2, 100, 0, 1.0)
        cache.apply_update(2, 1, 2.0, size_bytes=150)  # pushes doc 1 out
        assert not cache.holds(1)
        assert cache.holder_epoch == [1]

    def test_readmission_that_grows_a_copy_over_others_bumps(self):
        cache = EdgeCache(0, capacity_bytes=200)
        cache.admit(1, 100, 0, 0.0)
        cache.admit(2, 100, 0, 1.0)
        assert cache.admit(2, 150, 1, 2.0) == []  # evicted doc 1, unreported
        assert not cache.holds(1)
        assert cache.holder_epoch == [1]
