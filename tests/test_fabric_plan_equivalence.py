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
cost (:class:`PerCategoryCost`, which keeps the traffic the digests were
recorded from), ``Telemetry`` with a span cap the run crosses, a
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

from repro.core import cloud as cloud_module
from repro.core.cloud import CacheCloud
from repro.core.config import (
    WEIGHTS_ALL_ON,
    AssignmentScheme,
    CloudConfig,
    PlacementScheme,
)
from repro.core.overload import OverloadConfig, OverloadController
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
    shed_highwater=4,
    shed_lowwater=2,
    retry=RETRY,
)


class PerCategoryCost(OverloadController):
    """The controller with a control message costing 40 ms and a client
    request 90 ms instead of the flat 150 ms.

    The digests below were recorded with these per-category costs. The
    service model itself charges one flat cost, so this controller keeps
    them for the runs here, and with them the traffic the digests pin.
    """

    CONTROL = dataclasses.replace(OVERLOAD, service_ms=40.0)

    def __init__(self, config: OverloadConfig) -> None:
        assert config is OVERLOAD
        super().__init__(config)
        self._request_minutes = dataclasses.replace(
            config, service_ms=90.0
        ).service_minutes(0)

    def admit_wire(self, dst, category, num_bytes):
        if category != "control":
            return super().admit_wire(dst, category, num_bytes)
        self.config = self.CONTROL
        try:
            return super().admit_wire(dst, category, num_bytes)
        finally:
            self.config = OVERLOAD


@pytest.fixture(autouse=True)
def per_category_cost(monkeypatch):
    monkeypatch.setattr(cloud_module, "OverloadController", PerCategoryCost)


#: sha256 of each artifact, generated on the parent commit (see module doc).
#: Both re-recorded when a holder came to serve a stale copy instead of
#: dropping and refetching it: this run loses update legs, so from the first
#: request for a stale copy on its traffic, counters and artifacts differ.
#: Regenerated with ``REPRO_PRINT_PLAN_DIGESTS=1`` on that change, whose only
#: behavioural difference from its parent is the deleted refetch branch; the
#: fabric's code is the same on both, and at the parent it still matched the
#: digests generated before the plan existed.
PARENT_DIGESTS: Dict[str, Dict[str, str]] = {
    "uniform": {
        "telemetry": "45215ad77a6b1da42d7993e0386a17614f35e11f379dde573ac5ef568c7292ab",
        "flight": "b6da369a5d0b67e3491d158d5abc22dbe7fd05379beffdb7be15f5b28bbba0f3",
        "dispatch_log": "d6a52e6b47f56d9fcec1d934a8a078e709b66d53e3fc36661229b404e1907f57",
        "fabric_stats": "73e605a360e268b4be8fc04f8b3a40b1aa38f7014ffd01ff97813736c6f12215",
        "fault_stats": "5ff335423a4062e81a8192a2fae0adfcb39e65cf02c7a013444a89961cfbed6d",
        "overload_stats": "c58980b95b0d2b434acfb3c259cc438cd5ae8627a8538582a1348a71420a3a00",
        "result": "f1c430036c662e04b6b4b100de41c61e2f5693f9217fe99e4bb8e3b8e7a1e8ca",
    },
    "overrides": {
        "telemetry": "85c07bb28c6691c6f954af9f23818af19235a3d91da3817bf9bbbd682aeb04e9",
        "flight": "4bc9d4fd30edc5766c3bda9a23ef9d9de5e77028163d3f0cc66f88085062f0f9",
        "dispatch_log": "27c8223f2530bcd98507b6911b4ad48d9879cea431a2de1f585a6e8f1f8b7cbe",
        "fabric_stats": "6b9a49ab3020f6cec2eb0c044b510c4d48150bcbe26318674fa712ed9b0b21cf",
        "fault_stats": "64eaf778dc147bdf97089eda3e5f862ac62614a6751930b4f38392445b638579",
        "overload_stats": "7ad271ac4e5aaaf07dfa9c5c09a3337f05b2029664d8058affa9d56f59d9c635",
        "result": "ec34c979230dfe5ca1b102ac7bd88a8e6bbb168487d02cbb5b1198ba00e2e4ed",
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
#: ``residence_order`` kind, and again when it gained ``version_column``: each
#: time its summary carried one more key (``audit_residence_order: 0.0``,
#: ``audit_version_column: 0.0``); with that key left out they hash as before.
#: ``cup_tree_overload`` and ``lcd`` were re-recorded, as ``PARENT_DIGESTS``
#: were, when a holder came to serve a stale copy instead of refetching it
#: (their runs defer or lose update legs; ``no_cooperation``'s did not move).
SEAM_DIGESTS: Dict[str, Dict[str, str]] = {
    "cup_tree_overload": {
        "telemetry": "694545f6a337f023e6e46e4e50a9cad15472118ce448e54eb4ddcd0ff79ead1a",
        "dispatch_log": "361b44b804c988e888d84378fdd52725361876651084e32406ff95116212ae69",
        "fabric_stats": "78fdfe0e68f31da16a76f58eb880de2c6579af563eec1ba85dbc2212ecec56b2",
        "fault_stats": "17eb84237d367dbccaaf4c6cddd4b7da477bc110e27b141383e210ba08fab563",
        "overload_stats": "7b1a1d70cd800a7a51144c8ba28b47df633123b635fb222e6593cdbfd3f6a553",
        "result": "d6de2ae7d620a3488cf3d4d1e521131f8f680da03733679055673ebee0160f6f",
    },
    "lcd": {
        "telemetry": "d554e1e678dd9512404a11e6d45837ac373189b71be54b22b46ea00910eb8c85",
        "dispatch_log": "7c8df3acd5c1a3271c28012b83f0ef189b96c7488ac0fde7c4dd17158c02ef79",
        "fabric_stats": "44c51d9c89978e0a0e2e360b72336780346fb35d60c35e5f7fa51a059fc77f7b",
        "fault_stats": "73ac0b6802a190d328cb425befb9a42b6113980a076a9237e4a42bd0575c8074",
        "overload_stats": "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
        "result": "7cf1522a881fb514490d635ce406533871c80d19aa09e4c0929d81d6fa66e218",
    },
    "no_cooperation": {
        "telemetry": "ae41384c6748f03107b271e217cce3177b4b105a0653dc0afc036a89af07ea06",
        "dispatch_log": "7e36998e4360460568cf67a23c7fff38fb47cc8ab72cb8761fb8edac3372e2fc",
        "fabric_stats": "3de50097cace0594871abd14e9e90b484c26dd0bb9f3b5b6e0dc9ee30d94d726",
        "fault_stats": "870a9d6e0ffe1b332dce2b05d0ffbf932a7e032a26e4df951866c657c40a8335",
        "overload_stats": "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b",
        "result": "11e076ed71d6e0cf1cc13ef55d798e91ff64c2f84890993cef4d638f03bf32d0",
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
        placement=PlacementScheme(run["scheme"]),
        utility_weights=WEIGHTS_ALL_ON,
        capacity_bytes=int(corpus.total_bytes * 0.08),
        cooperation=run["cooperation"],
        seed=SEED,
    )
    cloud = CacheCloud(config, corpus)
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
