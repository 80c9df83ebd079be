"""Unit + property tests for replacement policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edgecache.replacement import (
    FIFOPolicy,
    GDSFPolicy,
    LFUPolicy,
    LRUPolicy,
    make_policy,
)

ALL_POLICIES = [LRUPolicy, FIFOPolicy, LFUPolicy, GDSFPolicy]


@pytest.mark.parametrize("policy_class", ALL_POLICIES)
class TestPolicyContract:
    """Behaviours every policy must share."""

    def test_empty_policy_has_no_victim(self, policy_class):
        assert policy_class().choose_victim() is None

    def test_insert_then_contains(self, policy_class):
        policy = policy_class()
        policy.on_insert(1, 100, 0.0)
        assert 1 in policy
        assert len(policy) == 1

    def test_double_insert_raises(self, policy_class):
        policy = policy_class()
        policy.on_insert(1, 100, 0.0)
        with pytest.raises(KeyError):
            policy.on_insert(1, 100, 1.0)

    def test_remove_forgets(self, policy_class):
        policy = policy_class()
        policy.on_insert(1, 100, 0.0)
        policy.on_remove(1)
        assert 1 not in policy
        assert policy.choose_victim() is None

    def test_access_unknown_doc_raises(self, policy_class):
        policy = policy_class()
        with pytest.raises(KeyError):
            policy.on_access(42, 0.0)

    def test_victim_is_a_tracked_doc(self, policy_class):
        policy = policy_class()
        for doc in range(5):
            policy.on_insert(doc, 10, float(doc))
        assert policy.choose_victim() in policy


class TestLRU:
    def test_evicts_least_recently_used(self):
        policy = LRUPolicy()
        for doc in (1, 2, 3):
            policy.on_insert(doc, 10, 0.0)
        policy.on_access(1, 1.0)
        assert policy.choose_victim() == 2

    def test_access_refreshes_position(self):
        policy = LRUPolicy()
        policy.on_insert(1, 10, 0.0)
        policy.on_insert(2, 10, 0.0)
        policy.on_access(1, 1.0)
        policy.on_access(2, 2.0)
        assert policy.choose_victim() == 1


class TestFIFO:
    def test_access_does_not_refresh(self):
        policy = FIFOPolicy()
        policy.on_insert(1, 10, 0.0)
        policy.on_insert(2, 10, 0.0)
        policy.on_access(1, 5.0)
        assert policy.choose_victim() == 1


class TestLFU:
    def test_evicts_least_frequent(self):
        policy = LFUPolicy()
        policy.on_insert(1, 10, 0.0)
        policy.on_insert(2, 10, 0.0)
        policy.on_access(1, 1.0)
        policy.on_access(1, 2.0)
        policy.on_access(2, 3.0)
        assert policy.choose_victim() == 2

    def test_tie_broken_by_recency(self):
        policy = LFUPolicy()
        policy.on_insert(1, 10, 0.0)
        policy.on_insert(2, 10, 1.0)
        # Equal counts: the least recently touched (doc 1) goes first.
        assert policy.choose_victim() == 1

    def test_stale_heap_entries_skipped(self):
        policy = LFUPolicy()
        policy.on_insert(1, 10, 0.0)
        policy.on_insert(2, 10, 0.0)
        for t in range(5):
            policy.on_access(1, float(t))
        assert policy.choose_victim() == 2
        policy.on_remove(2)
        assert policy.choose_victim() == 1


class TestGDSF:
    def test_prefers_evicting_large_cold_docs(self):
        policy = GDSFPolicy()
        policy.on_insert(1, 10_000, 0.0)  # big
        policy.on_insert(2, 100, 0.0)  # small
        assert policy.choose_victim() == 1

    def test_frequency_raises_priority(self):
        policy = GDSFPolicy()
        policy.on_insert(1, 100, 0.0)
        policy.on_insert(2, 100, 0.0)
        for t in range(10):
            policy.on_access(2, float(t))
        assert policy.choose_victim() == 1

    def test_inflation_gives_new_docs_a_chance(self):
        policy = GDSFPolicy()
        policy.on_insert(1, 100, 0.0)
        for t in range(50):
            policy.on_access(1, float(t))
        # Evict something to advance the clock, then admit a new doc: it must
        # not be instantly below the long-resident hot doc forever.
        policy.on_insert(2, 100, 51.0)
        policy.on_remove(2)
        policy.on_insert(3, 100, 52.0)
        assert policy.choose_victim() == 3  # still colder than doc 1 — fine
        # But after doc 1 leaves, inflation carried its priority forward.
        policy.on_remove(1)
        policy.on_insert(4, 100, 53.0)
        assert policy.choose_victim() in (3, 4)


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name,cls",
        [("lru", LRUPolicy), ("fifo", FIFOPolicy), ("lfu", LFUPolicy), ("gdsf", GDSFPolicy)],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_case_insensitive(self):
        assert isinstance(make_policy("LRU"), LRUPolicy)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("belady")


@st.composite
def operation_sequences(draw):
    """Random insert/access/remove/evict sequences over a small id space."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "access", "remove", "evict"]),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=60,
        )
    )


@pytest.mark.parametrize("policy_name", ["lru", "fifo", "lfu", "gdsf"])
@given(ops=operation_sequences())
@settings(max_examples=40, deadline=None)
def test_policy_tracks_membership_consistently(policy_name, ops):
    """Property: after any op sequence, victim ∈ tracked set; len is exact."""
    policy = make_policy(policy_name)
    resident = set()
    now = 0.0
    for action, doc in ops:
        now += 1.0
        if action == "insert" and doc not in resident:
            policy.on_insert(doc, 10 + doc, now)
            resident.add(doc)
        elif action == "access" and doc in resident:
            policy.on_access(doc, now)
        elif action == "remove" and doc in resident:
            policy.on_remove(doc)
            resident.discard(doc)
        elif action == "evict" and resident:
            victim = policy.choose_victim()
            assert victim in resident
            policy.on_remove(victim)
            resident.discard(victim)
    assert len(policy) == len(resident)
    for doc in resident:
        assert doc in policy
