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
"""

from __future__ import annotations

import dataclasses
import math
import random
import struct
from typing import Any, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cloud import CacheCloud
from repro.core.config import CloudConfig, PlacementScheme, UtilityWeights
from repro.core.node import RequestResult
from repro.core.placement import (
    AdHocPlacement,
    BeaconPlacement,
    ExpirationAgePlacement,
    PlacementPolicy,
    UtilityPlacement,
    make_placement,
)
from repro.core.utility import PlacementContext, UtilityComponents, UtilityComputer
from repro.strategies import paper
from repro.strategies.base import Retrieval, apply_store_decision
from repro.strategies.spec import KNOWN_SCHEMES, StrategySpec, build_strategy
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
        return ctx.local_access_rate > policy.beta * ctx.update_rate
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
    """``_count``/``_last_time`` of every estimator a decision can read."""
    out: List[Any] = []
    for cache in cloud.caches:
        tracker = cache.frequencies
        out.append((bits(tracker._aggregate._count), bits(tracker._aggregate._last_time)))
        out.extend(
            (doc, bits(rate._count), bits(rate._last_time))
            for doc, rate in sorted(tracker._per_doc.items())
        )
    out.extend(
        (doc, bits(rate._count), bits(rate._last_time))
        for doc, rate in sorted(cloud._update_rates.items())
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
        config, corpus, strategy=build_strategy(StrategySpec(scheme), config)
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
