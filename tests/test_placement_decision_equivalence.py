"""The store decision from values read in place equals the old decision.

A miss used to build a frozen :class:`PlacementContext`, hand it to the
policy, and — for utility placement — go through four static methods, three
``_ratio`` calls and a validated frozen ``UtilityComponents`` to produce one
float. It now reads the same values in the same order and calls
``PlacementPolicy.decide`` with them; nothing is built per decision.

The old decision is kept in this file as the oracle: :func:`old_on_retrieval`
is the parent commit's ``PolicyStrategy.on_retrieval`` (context object in,
``should_store`` out) and :func:`old_should_store` the parent's four policy
bodies, ``math.isclose`` guard and all. Every placement scheme and every zoo
strategy is driven twice over one random request/update script — once as
shipped, once with the oracle patched in — and compared after every operation
on the request's outcome, every cache's counters and resident set, the
utility computer's ``evaluations``/``accepts``, and the *bit pattern* of every
rate estimator the decisions read (``rate()`` advances decay state, so a read
skipped or reordered shows up in the low bits).

The holder reads have an oracle of their own: :func:`parent_holder_inputs`
is the per-holder walk that gave the live holders and the least residence
estimate before a decision took the holders from a current-stamp entry as
they stand and the minimum from a lockstep walk of the cloud's residence
order and the holders (whichever ends it first). Hypothesis drives
churn, bare crashes, recoveries, anti-entropy sweeps and hand-built states
(dead and decider-listed holders, uncontended beside contended ones, equal
estimates), and every decision's ``(copies, min_residence)`` and every
reported ``existing_holders`` must equal the walk's. The last class
recompiles ``_placement_inputs`` with one fragment replaced, so rewording
those lines means updating ``HOLDER_MUTANTS``.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import random
import struct
import textwrap
from collections import Counter
from typing import Any, List, Optional, Set, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.audit.invariants import InvariantAuditor, ViolationKind
from repro.core import node as node_module
from repro.core.cloud import CacheCloud
from repro.core.config import WEIGHTS_ALL_ON, CloudConfig, PlacementScheme, UtilityWeights
from repro.core.node import CacheNode, RequestResult
from repro.core.placement import (
    AdHocPlacement,
    BeaconPlacement,
    ExpirationAgePlacement,
    PlacementPolicy,
    UtilityPlacement,
    make_placement,
)
from repro.core.utility import PlacementContext, UtilityComponents, UtilityComputer
from repro.faults.churn import FAIL, RECOVER, ChurnEvent, ChurnSchedule
from repro.strategies import paper
from repro.strategies.base import Retrieval, apply_store_decision
from repro.strategies.spec import KNOWN_SCHEMES, build_strategy
from repro.workload.documents import build_corpus


# ----------------------------------------------------------------------
# The oracle: the parent commit's decision, context object and all
# ----------------------------------------------------------------------
def _old_ratio(numerator: float, denominator_extra: float, neutral: float = 0.5) -> float:
    total = numerator + denominator_extra
    if total <= 0.0 or math.isclose(total, 0.0):
        return neutral
    return numerator / total


def _old_dscc(ctx: PlacementContext) -> float:
    if ctx.expected_residence_new is None:
        return 1.0
    if ctx.min_residence_existing is None:
        return 0.5
    return _old_ratio(ctx.expected_residence_new, ctx.min_residence_existing)


def old_should_store(policy: PlacementPolicy, ctx: PlacementContext) -> bool:
    """The four ``should_store`` bodies as they stood at the parent commit."""
    if isinstance(policy, AdHocPlacement):
        return True
    if isinstance(policy, BeaconPlacement):
        return ctx.cache_id == ctx.beacon_id
    if isinstance(policy, ExpirationAgePlacement):
        if ctx.update_rate <= 0.0:
            return True
        return ctx.local_access_rate > 1.0 * ctx.update_rate  # beta was always 1.0
    assert isinstance(policy, UtilityPlacement)
    computer = policy.computer
    computer.evaluations += 1
    components = UtilityComponents(
        afc=_old_ratio(ctx.local_access_rate, ctx.cache_mean_rate),
        dai=1.0 / (len(ctx.existing_holders) + 1),
        dscc=_old_dscc(ctx),
        cmc=_old_ratio(ctx.local_access_rate, ctx.update_rate),
    )
    decision = components.weighted(computer.weights) > computer.threshold
    if decision:
        computer.accepts += 1
    return decision


def old_on_retrieval(self: Any, node: Any, retrieval: Retrieval) -> bool:
    """The parent's ``PolicyStrategy.on_retrieval``."""
    ctx = node.placement_context(
        retrieval.doc_id, retrieval.size_bytes, retrieval.now, retrieval.beacon_id
    )
    return apply_store_decision(node, retrieval, old_should_store(self.policy, ctx))


# ----------------------------------------------------------------------
# One random script, observed after every operation
# ----------------------------------------------------------------------
CACHES = 5
DOCS = 40


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def estimator_bits(cloud: CacheCloud) -> List[Any]:
    """Decayed count and time of every estimator a decision can read."""
    out: List[Any] = []
    for cache in cloud.caches:
        tracker = cache.frequencies
        out.append(tuple(map(bits, tracker.total_state())))
        out.extend(
            (doc, bits(count), bits(last))
            for doc, count, last in sorted(tracker.state())
        )
    out.extend(
        (doc, bits(count), bits(last))
        for doc, count, last in sorted(cloud.update_rates.state())
    )
    return out


def observe(cloud: CacheCloud, returned: Any) -> tuple:
    if isinstance(returned, RequestResult):
        returned = (returned.outcome, bits(returned.latency_ms), returned.served_by)
    computer = getattr(cloud.placement, "computer", None)
    return (
        returned,
        [dataclasses.astuple(cache.stats) for cache in cloud.caches],
        [sorted(cache.storage) for cache in cloud.caches],
        [cache.storage.residence_mean for cache in cloud.caches],
        (computer.evaluations, computer.accepts) if computer is not None else None,
        estimator_bits(cloud),
        dict(cloud.transport.meter.breakdown()),
    )


def drive(scheme: str, seed: int, operations: int = 400) -> List[tuple]:
    corpus = build_corpus(DOCS, random.Random(seed))
    config = CloudConfig(
        num_caches=CACHES,
        num_rings=2,
        cycle_length=5.0,
        placement=PlacementScheme.UTILITY,
        capacity_bytes=int(corpus.total_bytes * 0.15),
        seed=seed,
    )
    cloud = CacheCloud(
        config, corpus, strategy=build_strategy(scheme, config)
    )
    rng = random.Random(seed + 1)
    observations = []
    for step in range(operations):
        now = step * 0.05
        if step % 60 == 59:
            cloud.run_cycle(now)
        if rng.random() < 0.25:
            returned: Any = cloud.handle_update(rng.randrange(DOCS), now)
        else:
            doc = int(rng.random() ** 2 * DOCS)
            returned = cloud.handle_request(rng.randrange(CACHES), doc, now)
        observations.append(observe(cloud, returned))
    return observations


class TestEveryScheme:
    @pytest.mark.parametrize("scheme", KNOWN_SCHEMES)
    @pytest.mark.parametrize("seed", [5, 23])
    def test_in_place_decision_equals_context_decision(self, scheme, seed, monkeypatch):
        shipped = drive(scheme, seed)
        monkeypatch.setattr(paper.PolicyStrategy, "on_retrieval", old_on_retrieval)
        oracle = drive(scheme, seed)
        for step, (ours, theirs) in enumerate(zip(shipped, oracle)):
            assert ours == theirs, f"first divergence at operation {step}"

    def test_script_exercises_the_decision(self):
        """Stores, declines, evictions and finite residences all occur."""
        final = drive("utility", 5)[-1]
        stats = final[1]
        assert sum(s[4] for s in stats) > 20  # stores
        assert sum(s[5] for s in stats) > 20  # placement_rejects
        assert any(mean is not None for mean in final[3])
        evaluations, accepts = final[4]
        assert 0 < accepts < evaluations

    def test_a_skipped_estimator_read_shows_in_the_bits(self, monkeypatch):
        """Non-vacuity: an always-store shortcut that skips the reads tears."""
        shipped = drive("ad_hoc", 5)

        def shortcut(self: Any, node: Any, retrieval: Retrieval) -> bool:
            return apply_store_decision(node, retrieval, True)

        monkeypatch.setattr(paper.PolicyStrategy, "on_retrieval", shortcut)
        assert drive("ad_hoc", 5) != shipped


# ----------------------------------------------------------------------
# The policies on random inputs, out-of-range ones included
# ----------------------------------------------------------------------
RATES = st.one_of(
    st.floats(min_value=0.0, max_value=1e6),
    st.sampled_from([0.0, 1e-300, 5e-324]),
    st.floats(min_value=-10.0, max_value=-1e-3),  # out of range on purpose
)
RESIDENCES = st.one_of(st.none(), st.floats(min_value=-5.0, max_value=1e6))
SCHEMES = [scheme for scheme in PlacementScheme]


def outcome_of(call) -> Any:
    try:
        return call()
    except (ValueError, ZeroDivisionError) as exc:
        return (type(exc), str(exc))


@given(
    cache_id=st.integers(0, 3),
    beacon_id=st.integers(0, 3),
    holders=st.sets(st.integers(4, 30), max_size=8),
    access=RATES,
    mean=RATES,
    update=RATES,
    res_new=RESIDENCES,
    res_min=RESIDENCES,
    scheme=st.sampled_from(SCHEMES),
)
@settings(max_examples=400, deadline=None)
def test_policies_agree_with_the_old_bodies(
    cache_id, beacon_id, holders, access, mean, update, res_new, res_min, scheme
):
    ctx = PlacementContext(
        cache_id=cache_id,
        doc_id=1,
        size_bytes=100,
        now=1.0,
        beacon_id=beacon_id,
        existing_holders=frozenset(holders),
        local_access_rate=access,
        cache_mean_rate=mean,
        update_rate=update,
        expected_residence_new=res_new,
        min_residence_existing=res_min,
    )
    config = CloudConfig(placement=scheme, utility_weights=UtilityWeights())
    old_policy, new_policy, in_place = (make_placement(config) for _ in range(3))
    expected = outcome_of(lambda: old_should_store(old_policy, ctx))
    assert outcome_of(lambda: new_policy.should_store(ctx)) == expected
    assert (
        outcome_of(
            lambda: in_place.decide(
                cache_id == beacon_id, len(holders), access, mean, update,
                res_new, res_min,
            )
        )
        == expected
    )
    if scheme is PlacementScheme.UTILITY:
        counters = [
            (p.computer.evaluations, p.computer.accepts)
            for p in (old_policy, new_policy, in_place)
        ]
        assert counters[0] == counters[1] == counters[2]


class TestRangeCheck:
    """An out-of-range component still raises, naming the component."""

    @pytest.mark.parametrize(
        "name, arguments",
        [
            ("afc", dict(access_rate=-1.0, mean_rate=3.0)),
            ("dai", dict(copies=-3)),
            ("dscc", dict(residence_new=-1.0, residence_min=3.0)),
            ("cmc", dict(update_rate=-0.5)),
            ("afc", dict(access_rate=float("nan"))),
        ],
    )
    def test_component_named(self, name, arguments):
        inputs = dict(
            copies=0, access_rate=1.0, mean_rate=1.0, update_rate=0.0,
            residence_new=None, residence_min=None,
        )
        inputs.update(arguments)
        computer = UtilityComputer(UtilityWeights())
        with pytest.raises(ValueError, match=rf"component {name}="):
            computer.decide(**inputs)
        assert (computer.evaluations, computer.accepts) == (1, 0)

    def test_first_offender_is_named(self):
        computer = UtilityComputer(UtilityWeights())
        with pytest.raises(ValueError, match=r"component afc=-0\.5 outside \[0, 1\]"):
            computer.utility(0, -1.0, 3.0, -3.0, None, None)


class TestLayout:
    """The per-miss records carry no ``__dict__``."""

    @pytest.mark.parametrize("cls", [Retrieval, RequestResult, PlacementContext])
    def test_slotted(self, cls):
        assert "__slots__" in vars(cls) and "__dict__" not in vars(cls)
        instance = object.__new__(cls)
        assert not hasattr(instance, "__dict__")

    def test_request_result_stays_mutable(self):
        from repro.core.node import RequestOutcome

        result = RequestResult(RequestOutcome.LOCAL_HIT, 1.0, 0)
        result.latency_ms += 2.5  # the ingress queue wait is added in place
        assert result == RequestResult(RequestOutcome.LOCAL_HIT, 3.5, 0)
        assert dataclasses.replace(result, served_by=4).served_by == 4


# ----------------------------------------------------------------------
# The holder reads: a stamped entry and a residence-order lockstep
# ----------------------------------------------------------------------
def parent_holder_inputs(
    node: CacheNode, doc_id: int, beacon_id: int
) -> Tuple[List[int], Optional[float]]:
    """The parent's per-holder walk: (live holders, minimum residence)."""
    cloud = node.cloud
    caches = cloud.caches
    cache_id = node.cache_id
    live = []
    min_residence: Optional[float] = None
    uncontended = False
    for holder in cloud.beacons[beacon_id].directory.entry(doc_id):
        holder_cache = caches[holder]
        if holder == cache_id or not holder_cache.alive:
            continue
        live.append(holder)
        residence = holder_cache.storage.residence_mean
        if residence is None:
            uncontended = True
        elif min_residence is None or residence < min_residence:
            min_residence = residence
    if uncontended:
        min_residence = None
    return live, min_residence


#: The cases the oracle must have met, by name.
CASES = (
    "stamped", "unstamped", "dead_listed", "decider_listed",
    "uncontended_among_contended", "equal_residences", "recovered_listed",
    "order_meets_a_holder_first", "holders_run_out_first",
)


class HolderCheck:
    """Compares every store decision of a cloud with the parent's walk.

    Installed on :class:`CacheNode` (all nodes of every cloud): before each
    ``_placement_inputs`` / ``placement_context`` call the walk is run on
    the same state, and ``(copies, min_residence)`` and ``existing_holders``
    must equal what it finds. ``cases`` tallies which of :data:`CASES` the
    decisions met.
    """

    def __init__(self, monkeypatch) -> None:
        self.cases: Counter = Counter()
        self.recovered: Set[Tuple[int, int]] = set()  # (cloud id, cache id)
        inputs = CacheNode._placement_inputs
        context = CacheNode.placement_context
        check = self

        def checked_inputs(node, doc_id, now, beacon_id):
            live, expected_min = check.oracle(node, doc_id, beacon_id)
            result = inputs(node, doc_id, now, beacon_id)
            assert (set(result[0]), result[5]) == (set(live), expected_min)
            return result

        def checked_context(node, doc_id, size, now, beacon_id):
            live, _ = check.oracle(node, doc_id, beacon_id)
            ctx = context(node, doc_id, size, now, beacon_id)
            assert ctx.existing_holders == frozenset(live)
            return ctx

        monkeypatch.setattr(CacheNode, "_placement_inputs", checked_inputs)
        monkeypatch.setattr(CacheNode, "placement_context", checked_context)

    def oracle(self, node, doc_id, beacon_id):
        cloud = node.cloud
        directory = cloud.beacons[beacon_id].directory
        entry = directory.entry(doc_id)
        stamp = directory.stamp_of(doc_id)
        live, expected_min = parent_holder_inputs(node, doc_id, beacon_id)
        cases = self.cases
        current = stamp is not None and stamp[1] == cloud.holder_epoch[0]
        cases["stamped" if current else "unstamped"] += 1
        if any(not cloud.caches[h].alive for h in entry):
            cases["dead_listed"] += 1
        if node.cache_id in entry:
            cases["decider_listed"] += 1
        residences = [cloud.caches[h].storage.residence_mean for h in live]
        finite = [r for r in residences if r is not None]
        if finite and len(finite) < len(residences):
            cases["uncontended_among_contended"] += 1
        if len(set(finite)) < len(finite):
            cases["equal_residences"] += 1
        if any((id(cloud), h) in self.recovered for h in live):
            cases["recovered_listed"] += 1
        if live:
            # Which way the lockstep ends: the order's first live holder
            # at or before step len(live), or the holders running out.
            position = next(
                step for step, (_, h) in enumerate(cloud.residence_order, 1) if h in live
            )
            first = position <= len(live)
            cases["order_meets_a_holder_first" if first else "holders_run_out_first"] += 1
        return live, expected_min


CHURN_CACHES, CHURN_DOCS = 6, 24


def churn_cloud(seed: int) -> CacheCloud:
    corpus = build_corpus(CHURN_DOCS, random.Random(seed))
    config = CloudConfig(
        num_caches=CHURN_CACHES,
        num_rings=2,
        intra_gen=100,
        cycle_length=10.0,
        placement=PlacementScheme.UTILITY,
        utility_weights=WEIGHTS_ALL_ON,
        capacity_bytes=max(1, corpus.total_bytes // 5),
        failure_resilience=True,
        seed=seed,
    )
    cloud = CacheCloud(config, corpus)
    cloud.attach_anti_entropy()
    cloud.redirect_on_dead = True
    return cloud


OPERATIONS = st.one_of(
    st.tuples(st.just("request"), st.integers(0, CHURN_CACHES - 1),
              st.integers(0, CHURN_DOCS - 1)),
    st.tuples(st.just("update"), st.integers(0, CHURN_DOCS - 1)),
    st.tuples(st.sampled_from(["fail", "recover", "crash"]),
              st.integers(0, CHURN_CACHES - 1)),
    st.tuples(st.sampled_from(["anti_entropy", "cycle", "report"])),
)


def run_operations(cloud: CacheCloud, check: HolderCheck, operations) -> None:
    """Apply ``operations``; ``report`` asks every node for a context."""
    schedule = ChurnSchedule([])
    for step, operation in enumerate(operations):
        now = step * 0.25
        kind = operation[0]
        if kind == "request":
            cloud.handle_request(operation[1], operation[2], now)
        elif kind == "update":
            cloud.handle_update(operation[1], now)
        elif kind in ("fail", "crash") and sum(c.alive for c in cloud.caches) < 3:
            continue  # a bare crash bypasses the manager's last-member guard
        elif kind in ("fail", "recover"):
            action = FAIL if kind == "fail" else RECOVER
            applied = schedule.apply(cloud, ChurnEvent(now, operation[1], action), now)
            if applied and kind == "recover":
                check.recovered.add((id(cloud), operation[1]))
        elif kind == "crash":
            # No failure manager: the dead (or revived-cold) cache stays
            # listed, unstamped, until a lookup or a sweep repairs it.
            cache = cloud.caches[operation[1]]
            if cache.alive:
                cache.fail(now)
            else:
                cache.recover()
                check.recovered.add((id(cloud), cache.cache_id))
        elif kind == "anti_entropy":
            cloud.anti_entropy.run_cycle(now)
        elif kind == "cycle":
            cloud.run_cycle(now)
        else:
            for node in cloud.nodes:
                for doc_id in range(CHURN_DOCS):
                    beacon_id = cloud.beacon_for_doc(doc_id)
                    if cloud.beacons[beacon_id].directory.knows(doc_id):
                        node.placement_context(doc_id, 100, now, beacon_id)
        assert InvariantAuditor().audit(cloud).count(ViolationKind.RESIDENCE_ORDER) == 0


def seeded_operations(seed: int, steps: int) -> List[tuple]:
    rng = random.Random(seed)
    operations: List[tuple] = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.75:
            doc = int(rng.random() ** 2 * CHURN_DOCS)
            operations.append(("request", rng.randrange(CHURN_CACHES), doc))
        elif roll < 0.87:
            operations.append(("update", rng.randrange(CHURN_DOCS)))
        elif roll < 0.95:
            kind = rng.choice(["fail", "recover", "crash", "crash"])
            operations.append((kind, rng.randrange(CHURN_CACHES)))
        else:
            operations.append((rng.choice(["anti_entropy", "cycle", "report"]),))
    return operations


def constructed_decision(
    check: HolderCheck,
    residences: List[Optional[float]],
    listed: Set[int],
    dead: Set[int],
    recovered: Set[int],
    decider: int,
    stamped: bool,
) -> None:
    """One decision on a state set up by hand, every estimate chosen.

    Cache ``i`` gets ``residences[i]`` as its residence estimate (one
    eviction sampled at exactly that residence, or none); ``listed`` are
    registered for document 0 (each with a copy, except the decider);
    ``dead`` crash without the failure manager and ``recovered`` of them
    come back cold. The entry is stamped when asked and sound.
    """
    corpus = build_corpus(4, random.Random(0))
    config = CloudConfig(
        num_caches=len(residences), num_rings=2, intra_gen=100,
        placement=PlacementScheme.UTILITY, capacity_bytes=corpus.total_bytes,
    )
    cloud = CacheCloud(config, corpus)
    caches = cloud.caches
    for cache, residence in zip(caches, residences):
        if residence is not None:
            cache.storage.admit(3, corpus[3].size_bytes, 0, 0.0)
            cache.storage.remove(3, residence, count_as_eviction=True)
    beacon_id = cloud.beacon_for_doc(0)
    directory = cloud.beacons[beacon_id].directory
    for holder in sorted(listed):
        if holder != decider:
            caches[holder].admit(0, corpus[0].size_bytes, 0, 1.0)
        directory.add_holder(0, cloud.doc_irh(0), holder)
    for cache_id in sorted(dead):
        caches[cache_id].fail(2.0)
        if cache_id in recovered:
            caches[cache_id].recover()
            check.recovered.add((id(cloud), cache_id))
    if stamped and all(caches[h].alive and caches[h].holds(0) for h in listed):
        directory.stamp(0, 0, cloud.holder_epoch[0])
    assert InvariantAuditor().audit(cloud).count(ViolationKind.RESIDENCE_ORDER) == 0
    node = cloud.nodes[decider]
    node.placement_context(0, corpus[0].size_bytes, 3.0, beacon_id)
    node.decide_store(cloud.placement, 0, 3.0, beacon_id)


#: Residence estimates a constructed state draws from: uncontended, or one
#: of three finite values, so that two holders often draw the same one.
RESIDENCE_CHOICES = [None, 0.5, 2.0, 7.0]
SIX = st.sets(st.integers(0, 5), max_size=6)


class TestHolderReads:
    @given(
        seed=st.integers(0, 2**16),
        warm=st.integers(60, 200),
        operations=st.lists(OPERATIONS, min_size=1, max_size=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_decision_equals_the_holder_walk(self, seed, warm, operations):
        with pytest.MonkeyPatch.context() as patch:
            check = HolderCheck(patch)
            run_operations(churn_cloud(seed), check, seeded_operations(seed, warm) + operations)

    @given(
        residences=st.lists(st.sampled_from(RESIDENCE_CHOICES), min_size=6, max_size=6),
        listed=SIX, dead=SIX, recovered=SIX, decider=st.integers(0, 5),
        stamped=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_constructed_states_equal_the_holder_walk(
        self, residences, listed, dead, recovered, decider, stamped
    ):
        assume(decider not in dead - recovered)  # a dead cache decides nothing
        with pytest.MonkeyPatch.context() as patch:
            check = HolderCheck(patch)
            constructed_decision(
                check, residences, listed, dead, recovered & dead, decider, stamped
            )

    def test_every_case_is_met(self, monkeypatch):
        """Non-vacuity: every branch of the walk is met by some decision."""
        check = HolderCheck(monkeypatch)
        for seed in range(4):
            run_operations(churn_cloud(seed), check, seeded_operations(seed, 600))
        # Two finite estimates tie at the minimum, beside an uncontended
        # holder's: float residences from a run almost never repeat.
        constructed_decision(
            check, [2.0, 2.0, 7.0, None, 2.0, 0.5], {0, 1, 2, 4}, set(), set(), 5, True
        )
        missing = [case for case in CASES if not check.cases[case]]
        assert not missing, f"no decision met {missing}: {dict(check.cases)}"


def mutant_inputs(fragment: str, replacement: str):
    """``CacheNode._placement_inputs`` recompiled with one fragment replaced."""
    source = textwrap.dedent(inspect.getsource(CacheNode._placement_inputs))
    assert source.count(fragment) == 1, fragment
    namespace = dict(vars(node_module))
    exec(source.replace(fragment, replacement), namespace)
    return namespace["_placement_inputs"]


HOLDER_MUTANTS = {
    "count_trusts_every_entry": (
        "stamp is not None and stamp[1] == cloud.holder_epoch[0]", "True",
    ),
    "count_trusts_a_lapsed_epoch": (
        "stamp is not None and stamp[1] == cloud.holder_epoch[0]", "stamp is not None",
    ),
    "stamped_entry_keeps_the_decider": (
        "entry - {cache_id} if cache_id in entry else entry", "entry",
    ),
    "unstamped_entry_keeps_the_decider": (
        "holder != cache_id and caches[holder].alive", "caches[holder].alive",
    ),
    "unstamped_entry_keeps_a_dead_holder": (
        "holder != cache_id and caches[holder].alive", "holder != cache_id",
    ),
    "uncontended_taken_as_a_residence": (
        "if least != UNCONTENDED:", "if True:",
    ),
    "holders_not_folded": ("if listed_key < least:", "if False:"),
    "order_hit_does_not_stop": ("break", "pass"),
}


class TestRemovedSeams:
    def test_unmutated_recompile_passes(self, monkeypatch):
        """The recompile itself changes nothing (the mutants do)."""
        unchanged = mutant_inputs("if live:", "if live:")
        monkeypatch.setattr(CacheNode, "_placement_inputs", unchanged)
        check = HolderCheck(monkeypatch)
        run_operations(churn_cloud(0), check, seeded_operations(0, 600))

    @pytest.mark.parametrize("name", sorted(HOLDER_MUTANTS))
    def test_mutant_tears_the_net(self, name, monkeypatch):
        monkeypatch.setattr(CacheNode, "_placement_inputs", mutant_inputs(*HOLDER_MUTANTS[name]))
        check = HolderCheck(monkeypatch)
        with pytest.raises(AssertionError):
            for seed in range(4):
                run_operations(churn_cloud(seed), check, seeded_operations(seed, 600))
