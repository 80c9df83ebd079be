"""Artifact-equivalence oracle for the fabric's attach-time attempt plan.

The fabric resolves its middleware and observers once per attach/detach
(DESIGN.md §3.1) instead of re-asking "who is attached?" on every wire
attempt. That is a pure host-speed change: every artifact a run leaves
behind must come out byte-identical. The digests below were generated on
the commit *before* the plan existed (PR 12, ``52b7b44``) by running this
very file with ``REPRO_PRINT_PLAN_DIGESTS=1``; they are constants so that
a later "equivalent" rewrite of the slow path is judged against the
original interpretive ``_attempt`` and not against itself.

One small run with every plane attached at once — loss + duplication +
delay with retries, real bounded queues with a per-category service
override, ``Telemetry`` with a span cap the run crosses, a
``FlightRecorder``, dispatch capture and the warm-up counter reset — in
two flavours: a uniform loss plan (the injector's no-override fast path)
and one with link and category overrides.

``faults.stats.bytes_attempted`` is deliberately outside the digest: the
same PR rebases it at the warm-up boundary (it is the transport ledger's
twin, and the ledger is zeroed there), so it is the one number that is
*meant* to differ from the parent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from typing import Dict

import pytest

from repro.core.cloud import CacheCloud
from repro.core.config import (
    WEIGHTS_ALL_ON,
    AssignmentScheme,
    CloudConfig,
    PlacementScheme,
)
from repro.core.overload import OverloadConfig
from repro.experiments.runner import run_experiment
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.network.origin import ORIGIN_NODE_ID
from repro.network.topology import EuclideanTopology
from repro.network.transport import Transport
from repro.observe.export import dump_json
from repro.observe.flight import FlightRecorder
from repro.observe.registry import Telemetry
from repro.simulation.engine import Simulator
from repro.simulation.rng import derive_seed
from repro.strategies import StrategySpec, build_strategy
from repro.workload.documents import build_corpus
from repro.workload.sydney import SydneyConfig, SydneyTraceGenerator

SEED = 1305
CACHES = 8
DOCS = 400
DURATION = 12.0
WARMUP = 4.0

RETRY = RetryPolicy()

FAULT_PLANS = {
    "uniform": FaultPlan(
        seed=3,
        loss_rate=0.08,
        duplicate_rate=0.02,
        delay_rate=0.03,
        delay_minutes=0.01,
        retry=RETRY,
    ),
    "overrides": FaultPlan(
        seed=3,
        loss_rate=0.05,
        delay_rate=0.03,
        delay_minutes=0.01,
        category_loss=(("update_fanout", 0.25), ("control", 0.02)),
        link_loss=((0, 1, 0.5), (2, 5, 1.0)),
        retry=RETRY,
    ),
}

OVERLOAD = OverloadConfig(
    queue_capacity=6,
    service_ms=150.0,
    service_ms_per_kb=5.0,
    category_service_ms=(("control", 40.0), ("client_request", 90.0)),
    shed_highwater=4,
    shed_lowwater=2,
    retry=RETRY,
)

#: sha256 of each artifact, generated on the parent commit (see module doc).
PARENT_DIGESTS: Dict[str, Dict[str, str]] = {
    "uniform": {
        "telemetry": "56e29a69b133274f552a13b834b2d4221201257c7d2291b6728fe4df21f22ece",
        "flight": "91fb8072b3b9fb54237fae7803160bf22b99c0139d6bcdf027e212b267b48f07",
        "dispatch_log": "4a8496b527a85b100e524d399ebee5d1f4e8cf458ec84ce198e52ace7b014a48",
        "fabric_stats": "b1fcce70bb05105012557a7483128cb7d1f505a234c341b4d13819206fb9c547",
        "fault_stats": "3a3668fb78530f4598e5b8c394419a94fb1428d0449bceb2e292ef5522f395cd",
        "overload_stats": "126109a5645fde5c13a25c5eaa0aa291584fc0892d9195e6c9083dfac4e4e89f",
        "result": "19b5ba200416b0de5fafd90c72ad2b084a6a4663da9e5fd9a20e67b8ed7cc3d3",
    },
    "overrides": {
        "telemetry": "a004a18f210bd950b38db225860b3c5a21b1d0d5bf9048a9111b7913790ed08a",
        "flight": "2d902010fe4e308e56a917b5c059c899c5cbbacb4387abd1501e5e06814b9391",
        "dispatch_log": "d9392e64e159c2c2ce358441f1055cec195a5cd7acc918ab954c1dd2b08e4707",
        "fabric_stats": "ba25e13a0bb3d93a814cf410696187dc344bca2c43f6a34332b5dece85e30f04",
        "fault_stats": "f7cbc974706d2a59aadf04256165fe73378ceb6d48dad61e2802f6f974e4a3e2",
        "overload_stats": "12968facf4c47aea877cb7de5769ada031847c54d0a4ffb9c66c37a71d694efe",
        "result": "2d8b0426cc2bd5ba1d4c94a2c428d219b3445966ccd348980c59a3c6bdcac5e2",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _all_planes_run(plan_name: str, flight_path: str, reattach: bool = False):
    """One all-planes run; returns ``(digests, cloud, result)``.

    With ``reattach`` every plane is detached and re-attached once in the
    middle of the measured window, between two requests: the plan is
    rebuilt, the fabric passes through its fast path, and — because every
    plane keeps its state on its own object — the artifacts must equal
    those of one continuous attachment.
    """
    corpus = build_corpus(DOCS, random.Random(derive_seed(SEED, "corpus")))
    trace = SydneyTraceGenerator(
        SydneyConfig(
            num_documents=DOCS,
            num_caches=CACHES,
            peak_request_rate_per_cache=70.0,
            base_update_rate=40.0,
            duration_minutes=DURATION,
            diurnal_period_minutes=DURATION,
            drift_pool=DOCS // 2,
            seed=derive_seed(SEED, "trace"),
        )
    ).build_trace()
    topology = EuclideanTopology.random(
        CACHES, random.Random(derive_seed(SEED, "topology")), num_clusters=3
    )
    topology.add_node(ORIGIN_NODE_ID, (400.0, 400.0))
    config = CloudConfig(
        num_caches=CACHES,
        num_rings=4,
        cycle_length=5.0,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.UTILITY,
        utility_weights=WEIGHTS_ALL_ON,
        capacity_bytes=int(corpus.total_bytes * 0.08),
        failure_resilience=True,
        seed=SEED,
    )
    cloud = CacheCloud(config, corpus, transport=Transport(topology=topology))
    simulator = Simulator()
    telemetry = Telemetry(max_spans=600)
    flight = FlightRecorder(flight_path, window=2.0)
    injector = FaultInjector(
        FAULT_PLANS[plan_name],
        cloud.transport,
        seed=derive_seed(SEED, "faults"),
        clock=lambda: simulator.now,
    )
    cloud.attach_telemetry(telemetry)
    controller = cloud.attach_overload(OVERLOAD)
    cloud.attach_flight(flight)
    cloud.attach_faults(injector)
    dispatches = cloud.fabric.capture_dispatches()
    assert not cloud.fabric._fast_path

    if reattach:

        def bounce() -> None:
            # Fabric-level on purpose: re-binding the recorder through
            # ``cloud.attach_flight`` re-baselines its overload deltas by
            # design, which is a window-content change, not a plan one.
            fabric = cloud.fabric
            fabric.detach_faults()
            fabric.watch = None
            fabric.detach_service()
            fabric.stop_dispatch_capture()
            assert fabric._fast_path
            fabric.attach_service(controller)
            fabric.watch = cloud.watch
            fabric.attach_faults(injector)
            fabric.dispatch_log = dispatches
            assert not fabric._fast_path

        simulator.schedule_at(7.3, bounce, label="bounce-planes")

    result = run_experiment(
        config,
        corpus,
        trace.requests,
        trace.updates,
        DURATION,
        warmup=WARMUP,
        cloud=cloud,
        simulator=simulator,
        audit=True,
    )
    flight.finish(DURATION)
    with open(flight_path, "rb") as handle:
        flight_bytes = handle.read()

    fault_stats = dict(injector.stats.as_dict())
    fault_stats["by_category"] = dict(injector.stats.dropped_by_category)
    digests = {
        "telemetry": _sha(dump_json(telemetry)),
        "flight": hashlib.sha256(flight_bytes).hexdigest(),
        "dispatch_log": _sha(
            "\n".join(
                f"{r.src},{r.dst},{r.num_bytes},{r.category}" for r in dispatches
            )
        ),
        "fabric_stats": _sha(_canonical(dataclasses.asdict(cloud.fabric.stats))),
        "fault_stats": _sha(_canonical(fault_stats)),
        "overload_stats": _sha(_canonical(dataclasses.asdict(controller.stats))),
        "result": _sha(
            _canonical(
                {
                    "resilience": result.resilience,
                    "stats": dataclasses.asdict(result.stats),
                    "meter": cloud.transport.meter.breakdown(),
                    "requests": result.requests,
                    "updates": result.updates,
                }
            )
        ),
    }
    return digests, cloud, result


@pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
def test_all_planes_artifacts_match_parent_digests(plan_name, tmp_path):
    digests, cloud, _ = _all_planes_run(plan_name, str(tmp_path / "flight.jsonl"))
    if os.environ.get("REPRO_PRINT_PLAN_DIGESTS"):
        print(f"\nPLAN_DIGESTS {plan_name} = {json.dumps(digests, indent=4)}")
    # The run must have exercised what the plan rewrites.
    fabric = cloud.fabric.stats
    assert fabric.retries > 0 and fabric.timeouts > 0 and fabric.rejections > 0
    assert cloud.telemetry.spans.dropped > 0
    assert cloud.overload.stats.queue_delay_minutes > 0.0
    assert cloud.faults.stats.dropped > 0 and cloud.faults.stats.delayed > 0
    assert digests == PARENT_DIGESTS[plan_name]


@pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
def test_reattaching_every_plane_mid_run_changes_no_artifact(plan_name, tmp_path):
    continuous, _, _ = _all_planes_run(plan_name, str(tmp_path / "a.jsonl"))
    bounced, cloud, _ = _all_planes_run(
        plan_name, str(tmp_path / "b.jsonl"), reattach=True
    )
    assert not cloud.fabric._fast_path
    assert bounced == continuous


def test_warmup_reset_keeps_the_injector_inside_the_ledger(tmp_path):
    """Regression: a run with ``warmup > 0`` and a loss plan audits clean.

    The warm-up reset zeroed the transport's attempt ledger but not the
    injector's twin of it, so the conservation check reported "injector
    attempted more bytes than the transport ledger" — a false *hard*
    violation on every warmed-up faulty run.
    """
    _, cloud, result = _all_planes_run("uniform", str(tmp_path / "flight.jsonl"))
    assert result.audit is not None
    assert result.audit["audit_meter_mismatch"] == 0
    injector = cloud.faults
    assert 0 < injector.stats.bytes_attempted <= cloud.transport.bytes_attempted


# ----------------------------------------------------------------------
# The role seams the all-planes run never reaches
# ----------------------------------------------------------------------
#: Each run reaches role seams that the two runs above do not: ``lcd`` the
#: beacon-routed fetch (``origin_fetch`` via the beacon, ``beacon_forward``,
#: placement at the beacon hop), ``no_cooperation`` ``fetch_direct`` and the
#: origin's ``origin_refresh``, ``cup_tree_overload`` the interest-tree push
#: with overload deferral.
SEAM_RUNS = {
    "lcd": dict(scheme="lcd", cooperation=True, overload=False),
    "no_cooperation": dict(scheme="utility", cooperation=False, overload=False),
    "cup_tree_overload": dict(scheme="cup_tree", cooperation=True, overload=True),
}

#: ``(span name, attribute)`` pairs each run must record: its reason to exist.
SEAM_SPANS = {
    "lcd": {("origin_fetch", "via_beacon"), ("beacon_forward", "beacon"), ("placement", "stored")},
    "no_cooperation": {("origin_fetch", "direct"), ("origin_refresh", "holder")},
    "cup_tree_overload": {("tree_push", "parent"), ("overload_defer", "kind")},
}

#: sha256 of each artifact, generated with ``REPRO_PRINT_PLAN_DIGESTS=1`` on
#: the parent of the change that folded the role seams' span and profile
#: calls into one attach-time handle. No flight recorder or work profile is
#: attached: that change charges CUP tree pushes to ``fanout_leg`` by design.
#: The three ``result`` digests were re-recorded when the auditor gained the
#: ``residence_order`` kind: its summary carries one more key,
#: ``audit_residence_order: 0.0``; with that key left out they hash as before.
SEAM_DIGESTS: Dict[str, Dict[str, str]] = {
    "cup_tree_overload": {
        "telemetry": "932689c27587d74c54975d45026e99915529d8e0162deaf2531962690cab7307",
        "dispatch_log": "8059e5e6a35366bb559dd84b8c80b41b3b965389be7c989d0e034c2d0c8bee17",
        "fabric_stats": "c6d39904c9302d00bd2be9ea81261779d52c9e8c6addb67cbf83d4733e0f981f",
        "fault_stats": "24e3a2c380975cbd987fe55829474e12522a00fa20e6f57e1376c3fa4868087d",
        "overload_stats": "21f93f55ee3fa0dcfa6dfd441127d3518ff02d7f855287a006512e0dd93119fe",
        "result": "e9f7416803493b2940589aff93879f14c72f633df27d84d4251131be2cffb802",
    },
    "lcd": {
        "telemetry": "733fac1d8172043d54a462e9debd7bb2c29c6a8b77b88df94b5ca3a4bd94b9c8",
        "dispatch_log": "665c073776025fc84e22025266db457cfb523afa190a323d8f829a14044b3ce0",
        "fabric_stats": "55531c6531a7a461cafac663fbde542f974ae3d0b7f2c509b79460887aa7264d",
        "fault_stats": "e0b762a7d051faa3fcbf19d8326ca8b587d2b8f7bb645d3e2313506ca2498845",
        "overload_stats": "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
        "result": "2f2c5beb732f7aa9218c2dc1f035443d98433b3df73a0d5295301c5a94b87320",
    },
    "no_cooperation": {
        "telemetry": "ae41384c6748f03107b271e217cce3177b4b105a0653dc0afc036a89af07ea06",
        "dispatch_log": "7e36998e4360460568cf67a23c7fff38fb47cc8ab72cb8761fb8edac3372e2fc",
        "fabric_stats": "3de50097cace0594871abd14e9e90b484c26dd0bb9f3b5b6e0dc9ee30d94d726",
        "fault_stats": "870a9d6e0ffe1b332dce2b05d0ffbf932a7e032a26e4df951866c657c40a8335",
        "overload_stats": "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
        "result": "e008912c20903dc893861eab4a54277c32715611245ad62156a0201f45fa18a1",
    },
}


def _seam_run(name: str) -> Dict[str, str]:
    """One small lossy run of ``SEAM_RUNS[name]``; returns its digests."""
    run = SEAM_RUNS[name]
    corpus = build_corpus(DOCS, random.Random(derive_seed(SEED, "corpus")))
    trace = SydneyTraceGenerator(
        SydneyConfig(
            num_documents=DOCS,
            num_caches=CACHES,
            peak_request_rate_per_cache=70.0,
            base_update_rate=120.0,
            duration_minutes=DURATION,
            diurnal_period_minutes=DURATION,
            drift_pool=DOCS // 2,
            seed=derive_seed(SEED, "trace"),
        )
    ).build_trace()
    config = CloudConfig(
        num_caches=CACHES,
        num_rings=4,
        cycle_length=5.0,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.UTILITY,
        utility_weights=WEIGHTS_ALL_ON,
        capacity_bytes=int(corpus.total_bytes * 0.08),
        cooperation=run["cooperation"],
        seed=SEED,
    )
    strategy = build_strategy(StrategySpec(scheme=run["scheme"]), config)
    cloud = CacheCloud(config, corpus, strategy=strategy)
    simulator = Simulator()
    telemetry = Telemetry(max_spans=1_000_000)
    dispatches = cloud.fabric.capture_dispatches()
    result = run_experiment(
        config,
        corpus,
        trace.requests,
        trace.updates,
        DURATION,
        warmup=WARMUP,
        cloud=cloud,
        simulator=simulator,
        fault_plan=FAULT_PLANS["uniform"],
        telemetry=telemetry,
        overload=OVERLOAD if run["overload"] else None,
        audit=True,
    )
    spans = telemetry.spans
    assert spans.dropped == 0 and spans.depth == 0
    assert SEAM_SPANS[name] <= {(span.name, attr) for span in spans.spans for attr in span.attrs}
    overload = cloud.overload
    if overload is not None:
        assert overload.stats.fanout_deferred > 0
    fault_stats = dict(cloud.faults.stats.as_dict())
    fault_stats["by_category"] = dict(cloud.faults.stats.dropped_by_category)
    return {
        "telemetry": _sha(dump_json(telemetry)),
        "dispatch_log": _sha(
            "\n".join(f"{r.src},{r.dst},{r.num_bytes},{r.category}" for r in dispatches)
        ),
        "fabric_stats": _sha(_canonical(dataclasses.asdict(cloud.fabric.stats))),
        "fault_stats": _sha(_canonical(fault_stats)),
        "overload_stats": _sha(
            _canonical(None if overload is None else dataclasses.asdict(overload.stats))
        ),
        "result": _sha(
            _canonical(
                {
                    "audit": result.audit,
                    "stats": dataclasses.asdict(result.stats),
                    "meter": cloud.transport.meter.breakdown(),
                    "requests": result.requests,
                    "updates": result.updates,
                }
            )
        ),
    }


@pytest.mark.parametrize("name", sorted(SEAM_RUNS))
def test_role_seam_artifacts_match_parent_digests(name):
    digests = _seam_run(name)
    if os.environ.get("REPRO_PRINT_PLAN_DIGESTS"):
        print(f"\nSEAM_DIGESTS {name} = {json.dumps(digests, indent=4)}")
    assert digests == SEAM_DIGESTS[name]
