"""Hypothesis stateful machines for the core mutable data structures.

Rule-based state machines drive :class:`CacheStorage` and
:class:`BeaconRing` through arbitrary interleavings of their operations,
checking invariants a shadow model maintains in parallel. These catch
bookkeeping desyncs (byte accounting, policy/tracked-set drift, arc
partition corruption) that example-based tests rarely reach. A third
machine drives ring *membership* of a whole cloud — crashes, recoveries,
retirements, warm joins and scripted churn events addressed to any node —
against the failure manager's record of who is in and why the others are
out.
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.audit.invariants import InvariantAuditor
from repro.core.elastic import ElasticConfig
from repro.core.overload import OverloadConfig
from repro.core.ring import BeaconRing
from repro.edgecache.replacement import make_policy
from repro.edgecache.storage import CacheStorage
from repro.faults.churn import FAIL, INSTANTIATE, RECOVER, RETIRE, ChurnEvent, ChurnSchedule
from repro.workload.documents import build_corpus
from tests.conftest import make_cloud

DOC_IDS = st.integers(min_value=0, max_value=19)
SIZES = st.integers(min_value=10, max_value=400)


class StorageMachine(RuleBasedStateMachine):
    """CacheStorage under random admit/access/refresh/remove sequences."""

    def __init__(self):
        super().__init__()
        self.now = 0.0

    @initialize(
        capacity=st.one_of(st.none(), st.integers(min_value=400, max_value=1200)),
        policy_name=st.sampled_from(["lru", "fifo", "lfu", "gdsf"]),
    )
    def setup(self, capacity, policy_name):
        self.capacity = capacity
        self.storage = CacheStorage(
            capacity_bytes=capacity, policy=make_policy(policy_name)
        )
        self.model = {}  # doc_id -> size

    def _tick(self):
        self.now += 1.0
        return self.now

    @rule(doc_id=DOC_IDS, size=SIZES, version=st.integers(0, 5))
    def admit(self, doc_id, size, version):
        now = self._tick()
        if doc_id in self.model:
            # Re-admission refreshes in place at the existing entry.
            self.storage.admit(doc_id, self.model[doc_id], version, now)
            return
        evicted = self.storage.admit(doc_id, size, version, now)
        if evicted is None:
            assert self.capacity is not None and size > self.capacity
            return
        for victim in evicted:
            assert victim in self.model
            del self.model[victim]
        self.model[doc_id] = size

    @rule(doc_id=DOC_IDS)
    def access(self, doc_id):
        now = self._tick()
        if doc_id in self.model:
            self.storage.access(doc_id, now)
            assert self.storage.size_of(doc_id) == self.model[doc_id]
        else:
            try:
                self.storage.access(doc_id, now)
                raise AssertionError("access to absent doc must raise")
            except KeyError:
                pass

    @rule(doc_id=DOC_IDS)
    @precondition(lambda self: self.model)
    def remove_resident(self, doc_id):
        now = self._tick()
        if doc_id not in self.model:
            return
        self.storage.remove(doc_id, now)
        del self.model[doc_id]

    @rule(doc_id=DOC_IDS, version=st.integers(1, 9))
    def refresh(self, doc_id, version):
        self._tick()
        if doc_id not in self.model:
            return
        self.storage.refresh_version(doc_id, version)
        assert self.storage.version_of(doc_id) == version

    @invariant()
    def resident_set_matches_model(self):
        assert set(self.storage) == set(self.model)
        assert len(self.storage) == len(self.model)
        # The version column names a version for exactly the resident set.
        slotted = {d for d, held in enumerate(self.storage.versions) if held >= 0}
        assert slotted == set(self.model)
        # The policy tracks the resident set iff there is a budget: a
        # store that can never evict keeps no replacement order.
        tracked = len(self.model) if self.capacity is not None else 0
        assert len(self.storage.policy) == tracked

    @invariant()
    def byte_accounting_exact(self):
        assert self.storage.used_bytes == sum(self.model.values())

    @invariant()
    def never_over_capacity(self):
        if self.capacity is not None:
            assert self.storage.used_bytes <= self.capacity


class RingMachine(RuleBasedStateMachine):
    """BeaconRing under random rebalances and membership churn."""

    INTRA_GEN = 48

    @initialize(size=st.integers(min_value=1, max_value=6))
    def setup(self, size):
        self.members = list(range(size))
        self.next_member = size
        self.ring = BeaconRing(self.members, self.INTRA_GEN)
        self.rng = random.Random(99)

    @rule(seed=st.integers(0, 10_000))
    def rebalance(self, seed):
        rng = random.Random(seed)
        per_irh = {k: rng.uniform(0, 5) for k in range(self.INTRA_GEN)}
        loads = {
            m: sum(per_irh[k] for k in self.ring.arc_of(m).values())
            for m in self.ring.members
        }
        self.ring.rebalance(loads, per_irh)

    @rule()
    @precondition(lambda self: len(self.members) >= 2)
    def remove_member(self):
        victim = self.rng.choice(self.members)
        self.ring.remove_member(victim)
        self.members.remove(victim)

    @rule(position_seed=st.integers(0, 6))
    @precondition(lambda self: len(self.members) < 8)
    def add_member(self, position_seed):
        position = position_seed % (len(self.members) + 1)
        donor_index = position % len(self.members)
        donor = self.ring.members[donor_index]
        if self.ring.arc_of(donor).width < 2:
            return
        member = self.next_member
        self.next_member += 1
        self.ring.add_member(member, position)
        self.members.append(member)

    @invariant()
    def membership_consistent(self):
        assert sorted(self.ring.members) == sorted(self.members)

    @invariant()
    def arcs_partition_the_circle(self):
        total = sum(self.ring.arc_of(m).width for m in self.ring.members)
        assert total == self.INTRA_GEN
        table = self.ring.owner_table()
        for member in self.ring.members:
            assert table.count(member) == self.ring.arc_of(member).width
            assert self.ring.arc_of(member).width >= 1

    @invariant()
    def owner_lookup_agrees_with_arcs(self):
        for irh in range(0, self.INTRA_GEN, 7):
            owner = self.ring.owner_of(irh)
            assert self.ring.arc_of(owner).contains(irh)


class MembershipMachine(RuleBasedStateMachine):
    """A small elastic cloud under every membership change, asked of any node.

    Members, crashed and retired nodes alike are addressed by every rule.
    A change the addressed node's state does not admit must raise the
    documented ``ValueError`` (direct calls) or be skipped (churn events)
    and leave the cloud as it was; one it admits must go through.
    """

    NUM_CACHES = 6
    CACHES = st.integers(min_value=0, max_value=NUM_CACHES - 1)
    DOCS = st.integers(min_value=0, max_value=39)

    def __init__(self):
        super().__init__()
        corpus = build_corpus(40, fixed_size=1024)
        self.cloud = make_cloud(
            corpus, num_caches=self.NUM_CACHES, num_rings=2, failure_resilience=True
        )
        self.cloud.attach_overload(OverloadConfig())
        self.controller = self.cloud.attach_elastic(ElasticConfig())
        self.manager = self.cloud.failure_manager
        self.schedule = ChurnSchedule([])
        self.auditor = InvariantAuditor()
        self.now = 0.0

    def _tick(self):
        self.now += 0.5
        return self.now

    def _attempt(self, admitted, change, cache_id):
        """``change`` goes through iff ``admitted``; else ValueError, no effect."""
        if admitted:
            change(cache_id, self._tick())
            return
        before = (self.manager.crashed(), self.manager.retired())
        with pytest.raises(ValueError):
            change(cache_id, self._tick())
        assert (self.manager.crashed(), self.manager.retired()) == before

    @rule(cache_id=CACHES, doc_id=DOCS)
    def request(self, cache_id, doc_id):
        self.cloud.handle_request(cache_id, doc_id, self._tick())

    @rule(doc_id=DOCS)
    def update(self, doc_id):
        self.cloud.handle_update(doc_id, self._tick())

    @rule()
    def cycle(self):
        self.cloud.run_cycle(self._tick())

    @rule(cache_id=CACHES)
    def fail(self, cache_id):
        self._attempt(self.manager.can_leave(cache_id), self.cloud.fail_cache, cache_id)

    @rule(cache_id=CACHES)
    def recover(self, cache_id):
        self._attempt(
            cache_id in self.manager.crashed(), self.cloud.recover_cache, cache_id
        )

    @rule(cache_id=CACHES)
    def retire(self, cache_id):
        self._attempt(
            self.manager.can_leave(cache_id), self.controller.retire_node, cache_id
        )

    @rule(cache_id=CACHES)
    def instantiate(self, cache_id):
        self._attempt(
            cache_id in self.manager.retired(), self.controller.instantiate_node, cache_id
        )

    @rule(cache_id=CACHES, action=st.sampled_from([FAIL, RECOVER, RETIRE, INSTANTIATE]))
    def churn_event(self, cache_id, action):
        admitted = {
            FAIL: self.manager.can_leave(cache_id),
            RETIRE: self.manager.can_leave(cache_id),
            RECOVER: cache_id in self.manager.crashed(),
            INSTANTIATE: cache_id in self.manager.retired(),
        }[action]
        now = self._tick()
        skipped = self.schedule.stats.skipped
        applied = self.schedule.apply(self.cloud, ChurnEvent(now, cache_id, action), now)
        assert applied == admitted
        assert self.schedule.stats.skipped == skipped + (not admitted)

    @invariant()
    def one_record_of_who_is_in_and_why_the_others_are_out(self):
        crashed, retired = set(self.manager.crashed()), set(self.manager.retired())
        assert not crashed & retired
        rings = self.cloud.assigner.rings
        for cache in self.cloud.caches:
            listed = sum(cache.cache_id in ring.members for ring in rings)
            member = cache.cache_id not in crashed | retired
            assert cache.alive == member == (listed == 1) and listed <= 1
            assert self.controller.is_standby(cache.cache_id) == (cache.cache_id in retired)
        assert self.controller.active_count() == self.NUM_CACHES - len(crashed | retired)

    @invariant()
    def never_a_hard_violation(self):
        assert self.auditor.audit(self.cloud).hard_violations == 0


TestStorageMachine = StorageMachine.TestCase
TestStorageMachine.settings = settings(max_examples=40, deadline=None, stateful_step_count=40)

TestRingMachine = RingMachine.TestCase
TestRingMachine.settings = settings(max_examples=40, deadline=None, stateful_step_count=30)

TestMembershipMachine = MembershipMachine.TestCase
TestMembershipMachine.settings = settings(
    max_examples=40, deadline=None, stateful_step_count=30, derandomize=True
)
