"""The stamped lookup answers exactly what the full holder walk answers.

``BeaconRole.answer_lookup`` trusts a directory entry whose stamp is
current and skips the walk that would have verified every holder. That is
sound only if *every* event that can make a listed holder unfit also drops
the stamp (or bumps the cloud's holder-epoch). This file is the net under
that claim.

:func:`_reference_answer_lookup` and :func:`_reference_update_targets` are
the pre-stamp bodies — copy, sort, probe every holder, repair, choose —
kept here as the reference implementation (there is deliberately no switch
for them in ``src/``). Two same-seed clouds, one patched to the reference,
are driven through the same seeded script of requests, updates, sub-range
cycles, crashes and recoveries, elastic retire/instantiate and anti-entropy
sweeps, under loss, overload, a latency topology, the CUP tree and a
federation of clouds. After every operation the two must agree on
what the lookup returned, on ``directory_repairs``, on every beacon's
directory and on the aggregate cache statistics; the stamped cloud must
also pass the auditor's stamp-soundness check at every step.

The last class removes one stamp-dropping seam at a time and checks that
the net then tears — so a future edit that forgets a seam is caught here,
not in a golden fingerprint three PRs later.
"""

from __future__ import annotations

import random
import types
from typing import Callable, List, Optional, Tuple

import pytest

from repro.audit.invariants import InvariantAuditor, ViolationKind
from repro.core.cloud import CacheCloud
from repro.core.config import (
    WEIGHTS_ALL_ON,
    AssignmentScheme,
    CloudConfig,
    PlacementScheme,
)
from repro.core.directory import LookupDirectory
from repro.core.edgenetwork import EdgeCacheNetwork
from repro.core.elastic import ElasticConfig
from repro.core.overload import OverloadConfig
from repro.edgecache.cache import EdgeCache
from repro.faults.churn import (
    FAIL,
    INSTANTIATE,
    RECOVER,
    RETIRE,
    ChurnEvent,
    ChurnSchedule,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.network.origin import ORIGIN_NODE_ID
from repro.network.topology import EuclideanTopology
from repro.network.transport import Transport
from repro.observe.profile import WorkProfile
from repro.workload.documents import build_corpus

NUM_CACHES = 8
NUM_DOCS = 40


# ----------------------------------------------------------------------
# The reference: the walk as it was before stamps existed
# ----------------------------------------------------------------------
def _reference_answer_lookup(
    self, doc_id: int, requester: int, version: int
) -> Optional[int]:
    cloud = self.cloud
    caches = cloud.caches
    candidates = self.state.directory.holders(doc_id)
    candidates.discard(requester)
    live: List[int] = []
    for holder in sorted(candidates):
        holder_cache = caches[holder]
        if holder_cache.alive and holder_cache.storage.version_of(doc_id) >= version:
            live.append(holder)
        else:
            self.state.directory.remove_holder(doc_id, holder)
            cloud.directory_repairs += 1
    if not live:
        return None
    if cloud.transport.topology is None:
        return live[0]
    return min(
        live,
        key=lambda h: (cloud.transport.latency_minutes(h, requester), h),
    )


def _reference_update_targets(self, doc_id: int) -> List[int]:
    caches = self.cloud.caches
    return [
        h
        for h in sorted(self.state.directory.holders(doc_id))
        if caches[h].alive and doc_id in caches[h].storage
    ]


def _patch_to_reference(cloud: CacheCloud) -> None:
    for role in cloud.beacon_roles.values():
        role.answer_lookup = types.MethodType(_reference_answer_lookup, role)
        role.update_targets = types.MethodType(_reference_update_targets, role)


def _record_answers(cloud: CacheCloud) -> List[Optional[int]]:
    """Log every ``answer_lookup`` return value of ``cloud``, in call order."""
    answers: List[Optional[int]] = []
    for role in cloud.beacon_roles.values():
        inner = role.answer_lookup

        def recording(doc_id, requester, version, _inner=inner):
            holder = _inner(doc_id, requester, version)
            answers.append(holder)
            return holder

        role.answer_lookup = recording
    return answers


# ----------------------------------------------------------------------
# Cloud pairs
# ----------------------------------------------------------------------
def _build(
    seed: int,
    *,
    placement: PlacementScheme = PlacementScheme.UTILITY,
    resilient: bool = False,
    loss: float = 0.0,
    overload: Optional[OverloadConfig] = None,
    elastic: bool = False,
    anti_entropy: bool = False,
    topology: bool = False,
) -> CacheCloud:
    corpus = build_corpus(NUM_DOCS, random.Random(seed))
    config = CloudConfig(
        num_caches=NUM_CACHES,
        num_rings=2,
        intra_gen=100,
        cycle_length=10.0,
        assignment=AssignmentScheme.DYNAMIC,
        placement=placement,
        utility_weights=WEIGHTS_ALL_ON,
        # Small disks: evictions (and their notices) on most admissions.
        capacity_bytes=max(1, corpus.total_bytes // 6),
        failure_resilience=resilient or elastic,
        seed=seed,
    )
    transport = None
    if topology:
        topo = EuclideanTopology.random(NUM_CACHES, random.Random(seed + 1))
        topo.add_node(ORIGIN_NODE_ID, (50.0, 50.0))
        transport = Transport(topology=topo)
    cloud = CacheCloud(config, corpus, transport=transport)
    if loss:
        plan = FaultPlan(
            seed=seed, loss_rate=loss, retry=RetryPolicy(max_attempts=2)
        )
        cloud.attach_faults(FaultInjector(plan, cloud.transport))
    if overload is not None or elastic:
        cloud.attach_overload(overload if overload is not None else OverloadConfig())
    if elastic:
        cloud.attach_elastic(ElasticConfig())
    if anti_entropy:
        cloud.attach_anti_entropy()
    cloud.redirect_on_dead = True
    return cloud


def _pair(seed: int, **planes) -> Tuple[CacheCloud, CacheCloud]:
    stamped = _build(seed, **planes)
    reference = _build(seed, **planes)
    _patch_to_reference(reference)
    return stamped, reference


# ----------------------------------------------------------------------
# Seeded scripts
# ----------------------------------------------------------------------
Op = Tuple  # (kind, *args)


def _script(
    seed: int,
    steps: int,
    *,
    churn: bool = False,
    scale: bool = False,
    anti_entropy: bool = False,
    bare_crash: bool = False,
    burst: bool = False,
) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []
    for i in range(steps):
        now = i / 4.0
        # Squared-uniform documents: a hot head with large holder sets and a
        # tail that churns through the small disks.
        doc_id = int(rng.random() ** 2 * NUM_DOCS) % NUM_DOCS
        ops.append(("request", rng.randrange(NUM_CACHES), doc_id, now))
        if rng.random() < 0.25:
            update_doc = int(rng.random() ** 2 * NUM_DOCS) % NUM_DOCS
            ops.append(("update", update_doc, now))
        if i % 40 == 39:
            ops.append(("cycle", now))
        if churn and rng.random() < 0.04:
            action = FAIL if rng.random() < 0.5 else RECOVER
            ops.append(("churn", rng.randrange(NUM_CACHES), action, now))
        if scale and rng.random() < 0.04:
            action = RETIRE if rng.random() < 0.5 else INSTANTIATE
            ops.append(("churn", rng.randrange(NUM_CACHES), action, now))
        if anti_entropy and i % 25 == 24:
            ops.append(("anti_entropy", now))
        if bare_crash and rng.random() < 0.04:
            ops.append(("bare_crash", rng.randrange(NUM_CACHES), now))
        if burst and i % 40 == 19:
            # A flash crowd: every cache asks for this document at once, so
            # its first holders' queues fill and later misses shed them.
            ops.extend(("request", cache_id, doc_id, now) for cache_id in range(NUM_CACHES))
    return ops


def _apply(cloud: CacheCloud, schedule: ChurnSchedule, op: Op):
    kind = op[0]
    if kind == "request":
        _, cache_id, doc_id, now = op
        result = cloud.handle_request(cache_id, doc_id, now)
        return (result.outcome, result.latency_ms, result.served_by)
    if kind == "update":
        _, doc_id, now = op
        return cloud.handle_update(doc_id, now)
    if kind == "cycle":
        return cloud.run_cycle(op[1])
    if kind == "churn":
        _, cache_id, action, now = op
        return schedule.apply(cloud, ChurnEvent(now, cache_id, action), now)
    if kind == "anti_entropy":
        return cloud.anti_entropy.run_cycle(op[1])
    if kind == "bare_crash":
        # No failure manager: nothing scrubs the directories, the dead (or
        # revived-cold) cache simply stays listed until a lookup repairs it.
        cache = cloud.caches[op[1]]
        if cache.alive:
            cache.fail(op[2])
        else:
            cache.recover()
        return cache.alive
    raise AssertionError(f"unknown op {op!r}")


def _directories(cloud: CacheCloud):
    return {
        beacon_id: sorted(
            (doc_id, irh, sorted(holders))
            for doc_id, irh, holders in beacon.directory.snapshot()
        )
        for beacon_id, beacon in cloud.beacons.items()
    }


def _unsound_stamps(cloud: CacheCloud) -> int:
    return InvariantAuditor().audit(cloud).count(ViolationKind.UNSOUND_STAMP)


def _drive_and_compare(
    stamped: CacheCloud,
    reference: CacheCloud,
    ops: List[Op],
    audit_every: int = 1,
) -> None:
    answers = _record_answers(stamped)
    reference_answers = _record_answers(reference)
    schedules = (ChurnSchedule([]), ChurnSchedule([]))
    for index, op in enumerate(ops):
        got = _apply(stamped, schedules[0], op)
        want = _apply(reference, schedules[1], op)
        where = f"after op {index} {op!r}"
        assert got == want, where
        assert answers == reference_answers, where
        del answers[:], reference_answers[:]
        assert stamped.directory_repairs == reference.directory_repairs, where
        assert _directories(stamped) == _directories(reference), where
        assert stamped.aggregate_stats() == reference.aggregate_stats(), where
        if index % audit_every == 0:
            assert _unsound_stamps(stamped) == 0, where
    assert stamped.transport.meter == reference.transport.meter
    assert stamped.resilience_summary() == reference.resilience_summary()
    assert stamped.beacon_loads() == reference.beacon_loads()


def _trusted_share(cloud: CacheCloud, ops: List[Op]) -> float:
    """Fraction of ``cloud``'s lookups that were answered from a stamp."""
    profile = cloud.attach_profile(WorkProfile())
    schedule = ChurnSchedule([])
    trusted = 0
    for op in ops:
        before = (
            profile.counts["holder_verify"],
            profile.units["holder_verify"],
        )
        _apply(cloud, schedule, op)
        walks = profile.counts["holder_verify"] - before[0]
        if walks and profile.units["holder_verify"] == before[1]:
            trusted += walks
    total = profile.counts["holder_verify"]
    return trusted / total if total else 0.0


# ----------------------------------------------------------------------
# Equivalence under every plane
# ----------------------------------------------------------------------
SCENARIOS = {
    "plain-utility": (dict(), dict()),
    "ad-hoc": (dict(placement=PlacementScheme.AD_HOC), dict()),
    "beacon-placement": (dict(placement=PlacementScheme.BEACON), dict()),
    "topology": (dict(topology=True), dict()),
    "loss-and-retries": (dict(loss=0.2), dict()),
    "bare-crash": (dict(), dict(bare_crash=True)),
    "bare-crash-topology": (dict(topology=True), dict(bare_crash=True)),
    "churn": (dict(resilient=True), dict(churn=True)),
    "churn-under-loss": (dict(resilient=True, loss=0.15), dict(churn=True)),
    "churn-topology": (dict(resilient=True, topology=True), dict(churn=True)),
    "overload-deferral": (
        dict(
            overload=OverloadConfig(
                queue_capacity=6,
                service_ms=4000.0,
                service_ms_per_kb=50.0,
                shed_highwater=2,
                shed_lowwater=1,
            )
        ),
        dict(burst=True),
    ),
    "elastic-drain-retire": (dict(elastic=True), dict(scale=True)),
    "elastic-and-crashes": (
        dict(elastic=True, loss=0.1),
        dict(scale=True, churn=True),
    ),
    "anti-entropy": (
        dict(resilient=True, loss=0.2, anti_entropy=True),
        dict(churn=True, anti_entropy=True),
    ),
    "cup-tree": (dict(placement=PlacementScheme.CUP_TREE), dict()),
    "cup-tree-under-loss": (dict(placement=PlacementScheme.CUP_TREE, loss=0.2), dict()),
}


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stamped_lookup_matches_the_full_walk(name, seed):
    planes, script = SCENARIOS[name]
    stamped, reference = _pair(seed, **planes)
    ops = _script(seed, 320, **script)
    _drive_and_compare(stamped, reference, ops, audit_every=4)


def test_scripts_exercise_what_they_claim():
    """Non-vacuity: the planes bite, and stamps do carry most lookups."""
    planes, script = SCENARIOS["anti-entropy"]
    cloud = _build(3, **planes)
    schedule = ChurnSchedule([])
    for op in _script(3, 320, **script):
        _apply(cloud, schedule, op)
    summary = cloud.resilience_summary()
    assert summary["eviction_notices_lost"] > 0
    assert summary["update_pushes_lost"] > 0
    assert summary["failovers"] > 0 and summary["recoveries"] > 0
    assert summary["directory_repairs"] > 0
    assert summary["ae_repairs"] > 0

    planes, script = SCENARIOS["elastic-drain-retire"]
    cloud = _build(3, **planes)
    for op in _script(3, 320, **script):
        _apply(cloud, schedule, op)
    assert cloud.elastic.stats.scale_in_events > 0
    assert cloud.elastic.stats.docs_handed_off > 0

    planes, script = SCENARIOS["overload-deferral"]
    cloud = _build(3, **planes)
    for op in _script(3, 320, **script):
        _apply(cloud, schedule, op)
    assert cloud.overload.stats.fanout_deferred > 0
    assert cloud.overload.stats.peer_fetches_shed > 0

    # On a quiet cloud nearly every lookup after the first per document is
    # answered from the stamp — otherwise the equivalence above would be
    # comparing the walk with itself.
    assert _trusted_share(_build(3), _script(3, 320)) > 0.6
    assert _trusted_share(_build(3, loss=0.2), _script(3, 320)) > 0.2


def test_federation_distribute_matches_the_full_walk():
    """A federation's clouds stamp and walk as a cloud on its own does.

    ``EdgeCacheNetwork.handle_update`` publishes once and has every cloud
    deliver through ``CacheCloud.deliver_update``, so each cloud's beacon
    reaches ``update_targets`` and ``note_refreshed`` by the same path.
    """
    corpus = build_corpus(NUM_DOCS, random.Random(5))
    base = CloudConfig(
        num_caches=4,
        num_rings=2,
        intra_gen=100,
        placement=PlacementScheme.UTILITY,
        utility_weights=WEIGHTS_ALL_ON,
        capacity_bytes=max(1, corpus.total_bytes // 6),
    )
    memberships = [list(range(0, 6)), list(range(6, 12))]
    stamped = EdgeCacheNetwork(memberships, base, corpus)
    reference = EdgeCacheNetwork(memberships, base, corpus)
    for cloud in reference.clouds:
        _patch_to_reference(cloud)
    rng = random.Random(5)
    for i in range(400):
        now = i / 4.0
        node = rng.randrange(12)
        doc_id = int(rng.random() ** 2 * NUM_DOCS) % NUM_DOCS
        got = stamped.handle_request(node, doc_id, now)
        want = reference.handle_request(node, doc_id, now)
        assert (got.outcome, got.served_by) == (want.outcome, want.served_by)
        if rng.random() < 0.3:
            update_doc = int(rng.random() ** 2 * NUM_DOCS) % NUM_DOCS
            assert stamped.handle_update(update_doc, now) == (
                reference.handle_update(update_doc, now)
            )
        if i % 50 == 49:
            stamped.run_cycles(now)
            reference.run_cycles(now)
        for ours, theirs in zip(stamped.clouds, reference.clouds):
            assert ours.directory_repairs == theirs.directory_repairs
            assert _directories(ours) == _directories(theirs)
            assert ours.aggregate_stats() == theirs.aggregate_stats()
            assert _unsound_stamps(ours) == 0
    assert stamped.meter == reference.meter
    # The federation path re-stamps too: updates do not send the next
    # lookup back to a full walk.
    restamped = sum(
        1
        for cloud in stamped.clouds
        for beacon in cloud.beacons.values()
        for doc_id in beacon.directory
        if beacon.directory.stamp_of(doc_id)
        == (stamped.origin.version_of(doc_id), cloud.holder_epoch[0])
    )
    assert restamped > 0


# ----------------------------------------------------------------------
# The net has no hole: remove a seam, and it tears
# ----------------------------------------------------------------------
def _diverges(
    stamped: CacheCloud, reference: CacheCloud, ops: List[Op]
) -> bool:
    """Whether the equivalence drive or the stamp audit fails."""
    try:
        _drive_and_compare(stamped, reference, ops)
    except (AssertionError, KeyError):
        # KeyError: a trusted answer named a holder with no copy, and the
        # peer fetch tripped over it.
        return True
    return False


class TestRemovedSeamIsCaught:
    def _check(
        self,
        monkeypatch,
        planes,
        script,
        sabotage: Callable[[pytest.MonkeyPatch], None],
    ):
        caught = 0
        for seed in (3, 17, 29):
            stamped, reference = _pair(seed, **planes)
            ops = _script(seed, 320, **script)
            with monkeypatch.context() as patch:
                sabotage(patch)
                caught += _diverges(stamped, reference, ops)
        assert caught > 0

    def test_lost_eviction_notice_must_drop_the_stamp(self, monkeypatch):
        def sabotage(patch):
            patch.setattr(LookupDirectory, "unstamp", lambda self, doc_id: None)

        self._check(monkeypatch, dict(loss=0.2), dict(), sabotage)

    def test_crash_must_bump_the_epoch(self, monkeypatch):
        real_fail = EdgeCache.fail

        def fail_without_bump(self, now):
            epoch = self.holder_epoch[0]
            real_fail(self, now)
            self.holder_epoch[0] = epoch

        def sabotage(patch):
            patch.setattr(EdgeCache, "fail", fail_without_bump)

        # Under the failure manager a crash also scrubs every directory, so
        # the bump only matters for a cache that fails without one.
        self._check(monkeypatch, dict(), dict(bare_crash=True), sabotage)

    def test_unvouched_add_holder_must_drop_the_stamp(self, monkeypatch):
        real_add = LookupDirectory.add_holder

        def add_keeping_stamp(self, doc_id, irh, cache_id, keep_stamp=False):
            real_add(self, doc_id, irh, cache_id, keep_stamp=True)

        def sabotage(patch):
            patch.setattr(LookupDirectory, "add_holder", add_keeping_stamp)

        self._check(
            monkeypatch,
            dict(resilient=True, loss=0.2, anti_entropy=True),
            dict(churn=True, anti_entropy=True),
            sabotage,
        )
