"""Unit tests for the lookup directory."""

import pytest

from repro.core.directory import LookupDirectory


class TestHolders:
    def test_unknown_doc_has_no_holders(self):
        directory = LookupDirectory()
        assert directory.holders(7) == set()
        assert not directory.knows(7)

    def test_add_and_query(self):
        directory = LookupDirectory()
        directory.add_holder(7, irh=3, cache_id=1)
        directory.add_holder(7, irh=3, cache_id=2)
        assert directory.holders(7) == {1, 2}
        assert directory.knows(7)
        assert len(directory) == 1

    def test_holders_returns_a_copy(self):
        directory = LookupDirectory()
        directory.add_holder(7, 3, 1)
        holders = directory.holders(7)
        holders.add(99)
        assert directory.holders(7) == {1}

    def test_irh_conflict_raises(self):
        directory = LookupDirectory()
        directory.add_holder(7, 3, 1)
        with pytest.raises(ValueError):
            directory.add_holder(7, 4, 2)

    def test_remove_holder(self):
        directory = LookupDirectory()
        directory.add_holder(7, 3, 1)
        directory.add_holder(7, 3, 2)
        directory.remove_holder(7, 1)
        assert directory.holders(7) == {2}

    def test_last_holder_removal_garbage_collects(self):
        directory = LookupDirectory()
        directory.add_holder(7, 3, 1)
        directory.remove_holder(7, 1)
        assert not directory.knows(7)
        assert len(directory) == 0
        assert directory.extract_range(0, 10) == []

    def test_remove_unknown_is_noop(self):
        directory = LookupDirectory()
        directory.remove_holder(7, 1)  # must not raise


class TestDropCache:
    def test_drop_cache_scrubs_everywhere(self):
        directory = LookupDirectory()
        directory.add_holder(1, 0, 5)
        directory.add_holder(2, 1, 5)
        directory.add_holder(2, 1, 6)
        touched = directory.drop_cache(5)
        assert touched == 2
        assert not directory.knows(1)
        assert directory.holders(2) == {6}


class TestMigration:
    def build(self):
        directory = LookupDirectory()
        directory.add_holder(1, 2, 10)
        directory.add_holder(2, 5, 11)
        directory.add_holder(3, 5, 12)
        directory.add_holder(4, 9, 13)
        return directory

    def test_extract_range_removes_and_returns(self):
        directory = self.build()
        extracted = directory.extract_range(5, 9)
        assert {doc for doc, _, _ in extracted} == {2, 3, 4}
        assert len(directory) == 1
        assert directory.knows(1)

    def test_ingest_restores_entries(self):
        source = self.build()
        target = LookupDirectory()
        target.ingest(source.extract_range(0, 9))
        assert target.holders(2) == {11}
        assert target.holders(4) == {13}
        assert len(target) == 4

    def test_ingest_merges_holder_sets(self):
        target = LookupDirectory()
        target.add_holder(2, 5, 99)
        target.ingest([(2, 5, {11, 12})])
        assert target.holders(2) == {11, 12, 99}

    def test_snapshot_is_deep_enough(self):
        directory = self.build()
        snapshot = directory.snapshot()
        directory.drop_cache(11)
        assert any(doc == 2 and 11 in holders for doc, _, holders in snapshot)

    def test_snapshot_round_trip(self):
        directory = self.build()
        clone = LookupDirectory()
        clone.ingest(directory.snapshot())
        for doc in (1, 2, 3, 4):
            assert clone.holders(doc) == directory.holders(doc)


class TestStamps:
    def build(self):
        directory = LookupDirectory()
        directory.add_holder(1, irh=10, cache_id=0)
        directory.add_holder(1, irh=10, cache_id=3)
        directory.stamp(1, version=4, epoch=2)
        return directory

    def test_unstamped_by_default(self):
        directory = LookupDirectory()
        directory.add_holder(1, irh=10, cache_id=0)
        assert directory.stamp_of(1) is None
        assert directory.stamp_of(99) is None

    def test_stamp_round_trip_and_unstamp(self):
        directory = self.build()
        assert directory.stamp_of(1) == (4, 2)
        directory.unstamp(1)
        assert directory.stamp_of(1) is None
        directory.unstamp(1)  # idempotent

    def test_removing_a_holder_keeps_the_stamp(self):
        directory = self.build()
        directory.remove_holder(1, 3)
        assert directory.stamp_of(1) == (4, 2)
        directory.add_holder(2, irh=11, cache_id=3)
        directory.stamp(2, 0, 2)
        assert directory.drop_cache(3) == 1
        assert directory.stamp_of(1) == (4, 2)

    def test_adding_a_holder_drops_the_stamp_unless_vouched_for(self):
        directory = self.build()
        directory.add_holder(1, irh=10, cache_id=5, keep_stamp=True)
        assert directory.stamp_of(1) == (4, 2)
        directory.add_holder(1, irh=10, cache_id=6)
        assert directory.stamp_of(1) is None

    def test_stamp_dies_with_the_entry(self):
        directory = self.build()
        directory.remove_holder(1, 0)
        directory.remove_holder(1, 3)
        assert not directory.knows(1)
        assert directory.stamp_of(1) is None

    def test_migration_drops_stamps_on_both_sides(self):
        directory = self.build()
        entries = directory.extract_range(10, 10)
        assert directory.stamp_of(1) is None
        target = LookupDirectory()
        target.add_holder(1, irh=10, cache_id=7)
        target.stamp(1, 4, 2)
        target.ingest(entries)
        assert target.holders(1) == {0, 3, 7}
        assert target.stamp_of(1) is None

    def test_entry_is_the_live_set_not_a_copy(self):
        directory = self.build()
        entry = directory.entry(1)
        assert entry == {0, 3}
        directory.add_holder(1, irh=10, cache_id=8)
        assert 8 in entry
        assert directory.entry(99) == frozenset()
