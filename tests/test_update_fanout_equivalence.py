"""One update-delivery path delivers exactly what the per-leg loops did.

An update's holder legs go out as one ``MessageFabric.send_fanout`` burst
from one delivery body (``repro.core.roles.push_to_holders``): deferrals
asked first, legs sent together, copies refreshed afterwards, spans and
trace messages written after the fact. That is sound only if nothing can
tell the difference from asking, sending and applying holder by holder.
This file is the net under that claim.

The ``_reference_*`` functions are the bodies as they stood before the
shared delivery existed — the star ``propagate_update``, the origin's
``refresh_holders``, ``CUPTreeStrategy.on_update`` with its own copy of the
notice-or-body step, and the federation's ``_distribute`` over the bare
transport — kept here as the oracle (there is deliberately no switch for
them in ``src/``). Two same-seed clouds, one patched to the oracle, are
driven through the same seeded script; after every operation they must
agree on the refreshed count, every stored copy, every directory entry and
stamp, the holder-epoch, the meter by category, the transport ledger,
``fabric.stats``, ``update_pushes_lost`` and — where attached — the work
profile, the span list and telemetry counters, the flight rows and
artifact, the protocol trace, the dispatch log, the injector's RNG state
and the overload statistics.

The last class mutates one seam of the new path at a time — the self-skip,
the header bytes, the deferral — and checks that the net then tears.
"""

from __future__ import annotations

import dataclasses
import inspect
import random
import textwrap
import types
from typing import Callable, Dict, List, Optional, Set, Tuple

import pytest

from repro.core import roles
from repro.core.cloud import CacheCloud
from repro.core.config import AssignmentScheme, CloudConfig, PlacementScheme
from repro.core.edgenetwork import EdgeCacheNetwork
from repro.core.fabric import MessageFabric
from repro.core.overload import OverloadConfig
from repro.core.protocol import UpdateNotice, UpdatePush
from repro.edgecache.stats import DecayingRate
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.network.bandwidth import TrafficCategory
from repro.network.origin import ORIGIN_NODE_ID
from repro.network.topology import EuclideanTopology
from repro.network.transport import Transport
from repro.observe.flight import FlightRecorder
from repro.observe.profile import WorkProfile
from repro.observe.registry import Telemetry
from repro.strategies import StrategySpec, build_strategy
from repro.workload.documents import build_corpus

NUM_CACHES = 8
NUM_DOCS = 40


# ----------------------------------------------------------------------
# The oracle: the per-leg loops as they were before ``send_fanout``
# ----------------------------------------------------------------------
def _reference_propagate_update(self, doc_id, version, size, now):
    cloud = self._cloud
    fabric = cloud.fabric
    beacon_id = self.beacon_id
    irh = cloud.doc_irh(doc_id)
    holders = self.update_targets(doc_id)
    carries_body = bool(holders)
    if fabric.trace.enabled:
        fabric.emit(UpdateNotice(doc_id, version, beacon_id, carries_body, size))
    cloud.origin.note_update_message(doc_id)
    origin_id = cloud.origin.node_id
    tel = cloud.telemetry
    if not carries_body:
        notice_span = None
        if tel is not None:
            notice_span = tel.begin_span("update_notice", now, beacon=beacon_id)
        notice = fabric.send_control(origin_id, beacon_id, reliable=True)
        if tel is not None and notice_span is not None:
            tel.end_span(notice_span, now + notice.latency, ok=notice.ok)
        if notice.ok:
            self.state.record_update(irh)
        return 0
    body_span = None
    if tel is not None:
        body_span = tel.begin_span(
            "server_to_beacon", now, beacon=beacon_id, bytes=size
        )
    body = fabric.send_document(
        origin_id,
        beacon_id,
        size,
        TrafficCategory.UPDATE_SERVER_TO_BEACON,
        reliable=True,
    )
    if tel is not None and body_span is not None:
        tel.end_span(
            body_span, now + body.latency, ok=body.ok, attempts=body.attempts
        )
    if not body.ok:
        cloud.update_pushes_lost += len(holders)
        return 0
    self.state.record_update(irh)
    fanout_start = now + body.latency
    refreshed = 0
    overload = cloud.overload
    for holder in holders:
        if holder != beacon_id:
            if overload is not None and overload.defer_fanout(holder):
                if tel is not None:
                    defer_span = tel.begin_span(
                        "overload_defer",
                        fanout_start,
                        kind="fanout_leg",
                        node=holder,
                    )
                    tel.end_span(defer_span, fanout_start)
                    tel.count("overload.deferred.fanout")
                continue
            leg_span = None
            if tel is not None:
                leg_span = tel.begin_span(
                    "fanout_leg", fanout_start, holder=holder, bytes=size
                )
            push = fabric.send_document(
                beacon_id,
                holder,
                size,
                TrafficCategory.UPDATE_FANOUT,
                reliable=True,
            )
            profile = cloud.profile
            if profile is not None:
                profile.charge("fanout_leg", push.attempts)
            if tel is not None and leg_span is not None:
                tel.end_span(
                    leg_span,
                    fanout_start + push.latency,
                    ok=push.ok,
                    attempts=push.attempts,
                )
            if not push.ok:
                cloud.update_pushes_lost += 1
                continue
            if fabric.trace.enabled:
                fabric.emit(UpdatePush(beacon_id, holder, doc_id, version, size))
        cloud.caches[holder].apply_update(doc_id, version, now, size_bytes=size)
        refreshed += 1
    self.note_refreshed(doc_id, version, refreshed)
    return refreshed


def _reference_refresh_holders(self, doc_id, version, size, now):
    cloud = self._cloud
    fabric = cloud.fabric
    tel = cloud.telemetry
    refreshed = 0
    for cache in cloud.caches:
        if cache.alive and cache.holds(doc_id):
            self.server.note_update_message(doc_id)
            push_span = None
            if tel is not None:
                push_span = tel.begin_span(
                    "origin_refresh", now, holder=cache.cache_id, bytes=size
                )
            push = fabric.send_document(
                self.node_id,
                cache.cache_id,
                size,
                TrafficCategory.UPDATE_SERVER_TO_BEACON,
                reliable=True,
            )
            if tel is not None and push_span is not None:
                tel.end_span(
                    push_span, now + push.latency, ok=push.ok, attempts=push.attempts
                )
            if not push.ok:
                cloud.update_pushes_lost += 1
                continue
            cache.apply_update(doc_id, version, now, size_bytes=size)
            refreshed += 1
    return refreshed


def _reference_cup_on_update(self, beacon_role, doc_id, version, size, now):
    cloud = beacon_role.cloud
    fabric = cloud.fabric
    beacon_id = beacon_role.beacon_id
    irh = cloud.doc_irh(doc_id)
    caches = cloud.caches
    holders = beacon_role.update_targets(doc_id)
    carries_body = bool(holders)
    if fabric.trace.enabled:
        fabric.emit(UpdateNotice(doc_id, version, beacon_id, carries_body, size))
    cloud.origin.note_update_message(doc_id)
    origin_id = cloud.origin.node_id
    tel = cloud.telemetry
    if not carries_body:
        notice_span = None
        if tel is not None:
            notice_span = tel.begin_span("update_notice", now, beacon=beacon_id)
        notice = fabric.send_control(origin_id, beacon_id, reliable=True)
        if tel is not None and notice_span is not None:
            tel.end_span(notice_span, now + notice.latency, ok=notice.ok)
        if notice.ok:
            beacon_role.state.record_update(irh)
        return 0
    body_span = None
    if tel is not None:
        body_span = tel.begin_span(
            "server_to_beacon", now, beacon=beacon_id, bytes=size
        )
    body = fabric.send_document(
        origin_id,
        beacon_id,
        size,
        TrafficCategory.UPDATE_SERVER_TO_BEACON,
        reliable=True,
    )
    if tel is not None and body_span is not None:
        tel.end_span(
            body_span, now + body.latency, ok=body.ok, attempts=body.attempts
        )
    if not body.ok:
        cloud.update_pushes_lost += len(holders)
        return 0
    beacon_role.state.record_update(irh)
    order = [beacon_id] + [h for h in holders if h != beacon_id]
    arrival: Dict[int, float] = {beacon_id: now + body.latency}
    deferred: Set[int] = set()
    overload = cloud.overload
    k = self.fanout
    for index, parent in enumerate(order):
        parent_at = arrival.get(parent)
        if parent_at is None:
            continue
        first_child = k * index + 1
        for child_index in range(first_child, min(first_child + k, len(order))):
            child = order[child_index]
            if overload is not None and overload.defer_fanout(child):
                if tel is not None:
                    defer_span = tel.begin_span(
                        "overload_defer", parent_at, kind="tree_push", node=child
                    )
                    tel.end_span(defer_span, parent_at)
                    tel.count("overload.deferred.fanout")
                deferred.add(child)
                continue
            leg_span = None
            if tel is not None:
                leg_span = tel.begin_span(
                    "tree_push", parent_at, parent=parent, holder=child, bytes=size
                )
            push = fabric.send_document(
                parent, child, size, TrafficCategory.UPDATE_FANOUT, reliable=True
            )
            if tel is not None and leg_span is not None:
                tel.end_span(
                    leg_span,
                    parent_at + push.latency,
                    ok=push.ok,
                    attempts=push.attempts,
                )
            if not push.ok:
                continue
            if fabric.trace.enabled:
                fabric.emit(UpdatePush(parent, child, doc_id, version, size))
            arrival[child] = parent_at + push.latency
    refreshed = 0
    for holder in holders:
        if holder in arrival:
            caches[holder].apply_update(doc_id, version, now, size_bytes=size)
            refreshed += 1
    cloud.update_pushes_lost += sum(
        1 for h in holders if h not in arrival and h not in deferred
    )
    beacon_role.note_refreshed(doc_id, version, refreshed)
    return refreshed


def _reference_distribute(self, cloud, doc_id, version, now):
    """The federation's fan-out over the bare transport (no fabric)."""
    beacon_id = cloud.beacon_for_doc(doc_id)
    beacon = cloud.beacons[beacon_id]
    beacon.record_update(cloud.doc_irh(doc_id))
    tracker = cloud._update_rates.get(doc_id)
    if tracker is None:
        tracker = DecayingRate(cloud.config.half_life)
        cloud._update_rates[doc_id] = tracker
    tracker.observe(now)
    size = self.corpus[doc_id].size_bytes
    beacon_role = cloud.beacon_roles[beacon_id]
    holders = beacon_role.update_targets(doc_id)
    if not holders:
        cloud.transport.send_control(self.origin.node_id, beacon_id)
        return 0
    self.origin.note_update_message(doc_id)
    cloud.transport.send_document(
        self.origin.node_id,
        beacon_id,
        size,
        TrafficCategory.UPDATE_SERVER_TO_BEACON,
    )
    refreshed = 0
    for holder in holders:
        if holder != beacon_id:
            cloud.transport.send_document(
                beacon_id, holder, size, TrafficCategory.UPDATE_FANOUT
            )
        cloud.caches[holder].apply_update(doc_id, version, now, size_bytes=size)
        refreshed += 1
    beacon_role.note_refreshed(doc_id, version, refreshed)
    return refreshed


def _patch_to_reference(cloud: CacheCloud) -> None:
    for role in cloud.beacon_roles.values():
        role.propagate_update = types.MethodType(_reference_propagate_update, role)
    cloud.origin_role.refresh_holders = types.MethodType(
        _reference_refresh_holders, cloud.origin_role
    )
    if hasattr(cloud.strategy, "fanout"):  # the CUP tree
        cloud.strategy.on_update = types.MethodType(
            _reference_cup_on_update, cloud.strategy
        )


# ----------------------------------------------------------------------
# Cloud pairs
# ----------------------------------------------------------------------
OVERLOAD = OverloadConfig(
    queue_capacity=6,
    service_ms=4000.0,
    service_ms_per_kb=50.0,
    shed_highwater=2,
    shed_lowwater=1,
)


def _build(
    seed: int,
    *,
    limited: bool = False,
    cooperation: bool = True,
    topology: bool = False,
    trace: bool = False,
    profile: bool = False,
    loss: Optional[float] = None,
    overload: bool = False,
    telemetry: bool = False,
    flight: Optional[str] = None,
    capture: bool = False,
    strategy: Optional[str] = None,
) -> CacheCloud:
    corpus = build_corpus(NUM_DOCS, random.Random(seed))
    config = CloudConfig(
        num_caches=NUM_CACHES,
        num_rings=2,
        intra_gen=100,
        cycle_length=10.0,
        assignment=AssignmentScheme.DYNAMIC,
        # Ad hoc placement on unlimited disks: every requester keeps its
        # copy, so holder sets grow towards the whole cloud.
        placement=PlacementScheme.AD_HOC,
        capacity_bytes=max(1, corpus.total_bytes // 6) if limited else None,
        cooperation=cooperation,
        seed=seed,
    )
    transport = None
    if topology:
        topo = EuclideanTopology.random(NUM_CACHES, random.Random(seed + 1))
        topo.add_node(ORIGIN_NODE_ID, (50.0, 50.0))
        transport = Transport(topology=topo)
    composed = None
    if strategy is not None:
        composed = build_strategy(StrategySpec(scheme=strategy), config)
    cloud = CacheCloud(
        config,
        corpus,
        transport=transport,
        capture_protocol=trace,
        strategy=composed,
    )
    if telemetry:
        cloud.attach_telemetry(Telemetry())
    if overload:
        cloud.attach_overload(OVERLOAD)
    if flight is not None:
        cloud.attach_flight(FlightRecorder(flight, window=5.0))
    if profile:
        cloud.attach_profile(WorkProfile())
    if loss is not None:
        plan = FaultPlan(seed=seed, loss_rate=loss, retry=RetryPolicy(max_attempts=2))
        cloud.attach_faults(FaultInjector(plan, cloud.transport))
    if capture:
        cloud.fabric.capture_dispatches()
    return cloud


def _pair(seed: int, tmp_path, **planes) -> Tuple[CacheCloud, CacheCloud]:
    flights: Tuple[Optional[str], Optional[str]] = (None, None)
    if planes.pop("flight", False):
        flights = (str(tmp_path / "batched.jsonl"), str(tmp_path / "per_leg.jsonl"))
    batched = _build(seed, flight=flights[0], **planes)
    per_leg = _build(seed, flight=flights[1], **planes)
    _patch_to_reference(per_leg)
    return batched, per_leg


# ----------------------------------------------------------------------
# Seeded scripts
# ----------------------------------------------------------------------
Op = Tuple  # (kind, *args)


def _script(
    seed: int, steps: int, *, grow: bool = False, bare_crash: bool = False
) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []
    for i in range(steps):
        now = i / 4.0
        doc_id = int(rng.random() ** 2 * NUM_DOCS) % NUM_DOCS
        ops.append(("request", rng.randrange(NUM_CACHES), doc_id, now))
        if rng.random() < 0.4:
            # Uniform: updates reach the tail, whose documents nobody holds.
            update_doc = rng.randrange(NUM_DOCS)
            if grow and rng.random() < 0.5:
                ops.append(("grow", update_doc, 1.0 + 2.0 * rng.random()))
            ops.append(("update", update_doc, now))
        if i % 40 == 39:
            ops.append(("cycle", now))
        if bare_crash and rng.random() < 0.05:
            ops.append(("bare_crash", rng.randrange(NUM_CACHES), now))
    return ops


def _apply(cloud: CacheCloud, op: Op):
    kind = op[0]
    if kind == "request":
        _, cache_id, doc_id, now = op
        if not cloud.caches[cache_id].alive:
            return None
        result = cloud.handle_request(cache_id, doc_id, now)
        return (result.outcome, result.latency_ms, result.served_by)
    if kind == "update":
        _, doc_id, now = op
        return cloud.handle_update(doc_id, now)
    if kind == "grow":
        # The next update of this document pushes a larger body.
        _, doc_id, factor = op
        docs = cloud.corpus._docs
        docs[doc_id] = dataclasses.replace(
            docs[doc_id], size_bytes=int(docs[doc_id].size_bytes * factor) + 1
        )
        return docs[doc_id].size_bytes
    if kind == "cycle":
        return cloud.run_cycle(op[1])
    if kind == "bare_crash":
        # No failure manager: a dead beacon point has no stand-in, so its
        # documents' updates take the origin's holder-by-holder refresh.
        cache = cloud.caches[op[1]]
        if cache.alive:
            cache.fail(op[2])
        else:
            cache.recover()
        return cache.alive
    raise AssertionError(f"unknown op {op!r}")


# ----------------------------------------------------------------------
# What must not be able to tell the two spellings apart
# ----------------------------------------------------------------------
def _stores(cloud: CacheCloud):
    return [
        (
            cache.alive,
            cache.storage.used_bytes,
            cache.storage.evictions,
            [
                (doc_id, copy.version, copy.size_bytes)
                for doc_id in sorted(cache.storage)
                for copy in (cache.storage.get(doc_id),)
            ],
        )
        for cache in cloud.caches
    ]


def _directories(cloud: CacheCloud):
    return {
        beacon_id: sorted(
            (doc_id, irh, sorted(holders), beacon.directory.stamp_of(doc_id))
            for doc_id, irh, holders in beacon.directory.snapshot()
        )
        for beacon_id, beacon in cloud.beacons.items()
    }


def _meter(transport: Transport):
    meter = transport.meter
    return {
        category.value: (meter.bytes_for(category), meter.messages_for(category))
        for category in TrafficCategory
    }


def _observed(cloud: CacheCloud) -> Dict[str, object]:
    fabric = cloud.fabric
    transport = cloud.transport
    seen: Dict[str, object] = {
        "stores": _stores(cloud),
        "directories": _directories(cloud),
        "holder_epoch": cloud.holder_epoch[0],
        "meter": _meter(transport),
        "ledger": (transport.messages_attempted, transport.bytes_attempted),
        "fabric_stats": dataclasses.asdict(fabric.stats),
        "update_pushes_lost": cloud.update_pushes_lost,
        "cache_stats": cloud.aggregate_stats(),
        "beacon_loads": cloud.beacon_loads(),
        "update_messages": cloud.origin.update_messages_sent,
        "beacon_unreachable": cloud.beacon_unreachable,
    }
    if cloud.profile is not None:
        seen["profile"] = cloud.profile.snapshot()
    if cloud.telemetry is not None:
        seen["spans"] = [dataclasses.astuple(s) for s in cloud.telemetry.spans.spans]
        seen["counters"] = dict(cloud.telemetry.counters)
    if cloud.flight is not None:
        seen["flight_rows"] = {
            category: list(row) for category, row in cloud.flight._fabric.items()
        }
    if fabric.trace.enabled:
        seen["trace"] = list(fabric.trace.messages)
    if fabric.dispatch_log is not None:
        seen["dispatch_log"] = list(fabric.dispatch_log)
    if fabric.faults is not None:
        seen["fault_rng"] = fabric.faults._rng.getstate()
        seen["fault_stats"] = dataclasses.asdict(fabric.faults.stats)
    if cloud.overload is not None:
        seen["overload_stats"] = cloud.overload.stats.as_dict()
    return seen


def _drive_and_compare(
    batched: CacheCloud, per_leg: CacheCloud, ops: List[Op]
) -> None:
    for index, op in enumerate(ops):
        got = _apply(batched, op)
        want = _apply(per_leg, op)
        where = f"after op {index} {op!r}"
        assert got == want, where
        ours, theirs = _observed(batched), _observed(per_leg)
        for key in theirs:
            assert ours[key] == theirs[key], f"{key} {where}"
    if batched.flight is not None:
        last = ops[-1][-1]
        batched.flight.finish(last)
        per_leg.flight.finish(last)
        with open(batched.flight.path, "rb") as ours_file:
            with open(per_leg.flight.path, "rb") as theirs_file:
                assert ours_file.read() == theirs_file.read()


# ----------------------------------------------------------------------
# Equivalence under everything that can see a leg
# ----------------------------------------------------------------------
SCENARIOS = {
    "nothing-attached": (dict(), dict()),
    "topology": (dict(topology=True), dict()),
    "grown-body-evicts": (dict(limited=True), dict(grow=True)),
    "trace-enabled": (dict(trace=True), dict()),
    "trace-enabled-topology": (dict(trace=True, topology=True), dict()),
    "work-profile": (dict(profile=True), dict()),
    "zero-fault-injector": (dict(loss=0.0, profile=True), dict()),
    "loss-and-retries": (dict(loss=0.2, profile=True, trace=True), dict()),
    "overload-deferral-telemetry": (
        dict(overload=True, telemetry=True, flight=True, topology=True),
        dict(),
    ),
    "all-planes": (
        dict(
            loss=0.15,
            overload=True,
            telemetry=True,
            flight=True,
            capture=True,
            trace=True,
            limited=True,
        ),
        dict(grow=True),
    ),
    "cup-tree": (dict(strategy="cup_tree", trace=True), dict()),
    "cup-tree-all-planes": (
        dict(strategy="cup_tree", loss=0.2, overload=True, telemetry=True),
        dict(),
    ),
    "no-cooperation": (dict(cooperation=False), dict()),
    "no-cooperation-observed": (
        dict(cooperation=False, loss=0.2, telemetry=True, profile=True, trace=True),
        dict(),
    ),
    "dead-beacon-refresh": (dict(telemetry=True), dict(bare_crash=True)),
}


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_batched_fanout_matches_the_per_leg_loops(name, seed, tmp_path):
    planes, script = SCENARIOS[name]
    batched, per_leg = _pair(seed, tmp_path, **planes)
    _drive_and_compare(batched, per_leg, _script(seed, 240, **script))


def _run(seed: int, name: str, tmp_path) -> CacheCloud:
    planes, script = SCENARIOS[name]
    planes = dict(planes)
    flight = str(tmp_path / f"{name}.jsonl") if planes.pop("flight", False) else None
    cloud = _build(seed, flight=flight, **planes)
    for op in _script(seed, 240, **script):
        _apply(cloud, op)
    return cloud


def test_scripts_exercise_what_they_claim(tmp_path):
    """Non-vacuity: each scenario reaches the case it is named for."""
    # Beacon among the holders, beacon not among them, nobody holding.
    cloud = _build(3)
    seen = set()
    widest = 0
    for op in _script(3, 240):
        if op[0] == "update":
            beacon_id = cloud.beacon_for_doc(op[1])
            holders = cloud.beacon_roles[beacon_id].update_targets(op[1])
            seen.add("nobody" if not holders else beacon_id in holders)
            widest = max(widest, len(holders))
        _apply(cloud, op)
    assert seen == {"nobody", True, False}
    assert widest > NUM_CACHES // 2
    assert cloud.fabric._fast_path

    # A grown body pushes other copies out, and the epoch says so.
    quiet = _run(3, "nothing-attached", tmp_path)
    grown = _run(3, "grown-body-evicts", tmp_path)
    assert quiet.holder_epoch[0] == 0
    assert grown.holder_epoch[0] > 0

    lossy = _run(3, "loss-and-retries", tmp_path)
    assert lossy.update_pushes_lost > 0 and lossy.fabric.stats.retries > 0
    assert lossy.profile.units["fanout_leg"] > lossy.profile.counts["fanout_leg"] > 0

    # Deferred and sent legs inside one update, interleaved in holder order.
    loaded = _run(3, "overload-deferral-telemetry", tmp_path)
    assert loaded.overload.stats.fanout_deferred > 0
    names = [span.name for span in loaded.telemetry.spans.spans]
    joined = " ".join(names)
    assert "fanout_leg overload_defer fanout_leg" in joined

    tree = _run(3, "cup-tree-all-planes", tmp_path)
    assert tree.overload.stats.fanout_deferred > 0
    assert "tree_push" in [span.name for span in tree.telemetry.spans.spans]

    alone = _run(3, "no-cooperation-observed", tmp_path)
    assert "origin_refresh" in [s.name for s in alone.telemetry.spans.spans]
    assert alone.update_pushes_lost > 0
    assert alone.profile.counts["fanout_leg"] == 0  # the origin's legs are not

    orphaned = _run(3, "dead-beacon-refresh", tmp_path)
    assert orphaned.beacon_unreachable > 0
    names = [span.name for span in orphaned.telemetry.spans.spans]
    assert "origin_refresh" in names and "fanout_leg" in names


# ----------------------------------------------------------------------
# The federation: same bytes as before, now through the fabric
# ----------------------------------------------------------------------
def _federation(seed: int) -> EdgeCacheNetwork:
    corpus = build_corpus(NUM_DOCS, random.Random(seed))
    base = CloudConfig(
        num_caches=4,
        num_rings=2,
        intra_gen=100,
        placement=PlacementScheme.AD_HOC,
        capacity_bytes=max(1, corpus.total_bytes // 4),
    )
    return EdgeCacheNetwork([list(range(0, 6)), list(range(6, 12))], base, corpus)


def _drive_federations(
    ours: EdgeCacheNetwork, theirs: EdgeCacheNetwork, seed: int, steps: int = 300
) -> None:
    rng = random.Random(seed)
    for i in range(steps):
        now = i / 4.0
        node = rng.randrange(12)
        doc_id = int(rng.random() ** 2 * NUM_DOCS) % NUM_DOCS
        got = ours.handle_request(node, doc_id, now)
        want = theirs.handle_request(node, doc_id, now)
        assert (got.outcome, got.served_by) == (want.outcome, want.served_by)
        if rng.random() < 0.4:
            update_doc = rng.randrange(NUM_DOCS)
            assert ours.handle_update(update_doc, now) == (
                theirs.handle_update(update_doc, now)
            ), f"update {i}"
        if i % 50 == 49:
            ours.run_cycles(now)
            theirs.run_cycles(now)
        for cloud, reference in zip(ours.clouds, theirs.clouds):
            where = f"after step {i}"
            assert _stores(cloud) == _stores(reference), where
            assert _directories(cloud) == _directories(reference), where
            assert cloud.holder_epoch == reference.holder_epoch, where
            assert cloud.aggregate_stats() == reference.aggregate_stats(), where
            assert cloud.beacon_loads() == reference.beacon_loads(), where
            assert (
                cloud.transport.messages_attempted,
                cloud.transport.bytes_attempted,
            ) == (
                reference.transport.messages_attempted,
                reference.transport.bytes_attempted,
            ), where
        assert _meter(ours.clouds[0].transport) == _meter(theirs.clouds[0].transport)
        assert (
            ours.origin.update_messages_sent == theirs.origin.update_messages_sent
        )


@pytest.mark.parametrize("seed", [3, 17])
def test_federation_distribute_moves_the_same_bytes_as_the_bare_transport(seed):
    ours, theirs = _federation(seed), _federation(seed)
    theirs._distribute = types.MethodType(_reference_distribute, theirs)
    _drive_federations(ours, theirs, seed)
    assert ours.meter.bytes_for(TrafficCategory.UPDATE_FANOUT) > 0
    assert ours.meter == theirs.meter


def test_federation_update_is_visible_to_the_fabric():
    """Notice, body and holder legs all cross ``cloud.fabric``."""
    network = _federation(5)
    rng = random.Random(5)
    for i in range(120):
        network.handle_request(rng.randrange(12), rng.randrange(8), i / 4.0)
    logs = [cloud.fabric.capture_dispatches() for cloud in network.clouds]
    before = [cloud.fabric.stats.dispatches for cloud in network.clouds]
    held = next(d for d in range(8) if network.holders_network_wide(d) > 2)
    unheld = next(
        d for d in range(NUM_DOCS) if network.holders_network_wide(d) == 0
    )
    refreshed = network.handle_update(held, 40.0)
    network.handle_update(unheld, 40.0)
    assert refreshed > 2
    sent = sum(
        cloud.fabric.stats.dispatches - base
        for cloud, base in zip(network.clouds, before)
    )
    records = [record for log in logs for record in log]
    assert sent == len(records)
    by_category: Dict[str, int] = {}
    for record in records:
        by_category[record.category] = by_category.get(record.category, 0) + 1
    # One bare notice per cloud for the unheld document; for the held one a
    # body per holding cloud and a leg per holder that is not its beacon.
    assert by_category["control"] == len(network.clouds)
    assert 1 <= by_category["update_server_to_beacon"] <= len(network.clouds)
    legs = by_category["update_fanout"]
    assert refreshed - by_category["update_server_to_beacon"] <= legs <= refreshed
    assert all(
        record.src != record.dst
        for record in records
        if record.category == "update_fanout"
    )


# ----------------------------------------------------------------------
# The net has no hole: mutate a seam, and it tears
# ----------------------------------------------------------------------
def _mutant(function: Callable, old: str, new: str) -> Callable:
    """``function`` recompiled with one source fragment replaced."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"seam {old!r} not found once in {function}"
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace[function.__name__]


def _diverges(batched: CacheCloud, per_leg: CacheCloud, ops: List[Op]) -> bool:
    try:
        _drive_and_compare(batched, per_leg, ops)
    except AssertionError:
        return True
    return False


class TestRemovedSeamIsCaught:
    def _check(self, monkeypatch, tmp_path, planes, sabotage) -> None:
        caught = 0
        for seed in (3, 17):
            batched, per_leg = _pair(seed, tmp_path, **planes)
            ops = _script(seed, 240)
            with monkeypatch.context() as patch:
                sabotage(patch)
                caught += _diverges(batched, per_leg, ops)
        assert caught == 2

    def test_the_beacon_must_not_push_to_itself(self, monkeypatch, tmp_path):
        def sabotage(patch):
            patch.setattr(
                roles,
                "push_to_holders",
                _mutant(
                    roles.push_to_holders,
                    "own_copy = src in holders",
                    "own_copy = False",
                ),
            )

        self._check(monkeypatch, tmp_path, dict(), sabotage)

    def test_a_leg_carries_its_header_bytes(self, monkeypatch, tmp_path):
        def sabotage(patch):
            patch.setattr(
                MessageFabric,
                "send_fanout",
                _mutant(
                    MessageFabric.send_fanout,
                    "document_bytes + TRANSFER_HEADER_BYTES",
                    "document_bytes",
                ),
            )

        self._check(monkeypatch, tmp_path, dict(), sabotage)
        self._check(monkeypatch, tmp_path, dict(loss=0.0), sabotage)

    def test_a_deferred_holder_gets_no_leg(self, monkeypatch, tmp_path):
        def sabotage(patch):
            patch.setattr(
                roles,
                "push_to_holders",
                _mutant(roles.push_to_holders, "if h not in deferred", "if True"),
            )

        self._check(monkeypatch, tmp_path, dict(overload=True), sabotage)
