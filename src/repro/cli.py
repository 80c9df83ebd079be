"""Command-line interface for the cache-clouds reproduction.

Usage::

    python -m repro exp fig3 fig4 threshold consistency --scale small
    python -m repro exp resilience --scale tiny --loss 0 0.2 0.5 --churn 0 0.05
    python -m repro exp zoo --scale tiny --jobs 2 --fingerprint
    python -m repro trace --documents 500 --duration 30 --out trace.txt
    python -m repro run --caches 10 --rings 5 --placement utility
    python -m repro run --telemetry telemetry.json
    python -m repro observe --duration 20 --out telemetry.json
    python -m repro compare old.json new.json --tolerance 0.1
    python -m repro flight record --out flight.jsonl --duration 20 --report
    python -m repro flight render flight.jsonl --html flight.html
    python -m repro flight diff baseline.jsonl candidate.jsonl

``exp`` runs experiments of :mod:`repro.experiments.registry` (``repro exp
--help`` lists them): it prints each one's tables and a ``claims:`` line, and
exits non-zero when a sweep point failed or a claim is false. Its
per-experiment flags are generated from the registry entries.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional, TypeVar

from repro.core.cloud import CacheCloud
from repro.core.config import AssignmentScheme, CloudConfig, PlacementScheme
from repro.experiments import registry
from repro.experiments.reporting import (
    compare_runs,
    fingerprint,
    load_result,
    save_result,
)
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.network.origin import ORIGIN_NODE_ID, OriginServer
from repro.observe.flight import ArtifactError
from repro.network.topology import EuclideanTopology
from repro.network.transport import Transport
from repro.workload.documents import Corpus, build_corpus
from repro.workload.generator import SyntheticTraceGenerator, WorkloadConfig
from repro.workload.readers import write_trace


def _add_workload(
    parser: argparse.ArgumentParser,
    documents: int,
    caches: int = 10,
    update_rate: float = 40.0,
    duration: float = 60.0,
    rings: Optional[int] = None,
    cycle: float = 15.0,
) -> None:
    """The synthetic-workload flags (and, with ``rings``, the cloud's)."""
    parser.add_argument("--documents", type=int, default=documents)
    parser.add_argument("--caches", type=int, default=caches)
    if rings is not None:
        parser.add_argument("--rings", type=int, default=rings)
        parser.add_argument("--cycle", type=float, default=cycle)
    parser.add_argument("--request-rate", type=float, default=60.0,
                        help="requests per minute per cache")
    parser.add_argument("--update-rate", type=float, default=update_rate,
                        help="updates per minute")
    parser.add_argument("--alpha", type=float, default=0.9, help="Zipf parameter")
    parser.add_argument("--duration", type=float, default=duration, help="minutes")
    parser.add_argument("--seed", type=int, default=0)


def _generator(args: argparse.Namespace) -> SyntheticTraceGenerator:
    return SyntheticTraceGenerator(
        _checked(
            WorkloadConfig,
            num_documents=args.documents,
            num_caches=args.caches,
            request_rate_per_cache=args.request_rate,
            update_rate=args.update_rate,
            alpha_requests=args.alpha,
            duration_minutes=args.duration,
            seed=args.seed,
        )
    )


def _prepare(
    args: argparse.Namespace,
    clustered: bool = False,
    assignment: str = AssignmentScheme.DYNAMIC.value,
    placement: str = PlacementScheme.UTILITY.value,
) -> Callable[..., ExperimentResult]:
    """One cloud over the generated workload, built but not yet run.

    Every flag the workload and the cloud reject is rejected here, before
    anything runs; the returned call runs it, observers attached by keyword.

    ``clustered`` places the caches in two metro clusters with a far-away
    origin, which gives latency histograms real shape: peer transfers are
    cheap, origin fetches are not, and span trees and per-category latency
    columns show exactly where each request paid.
    """
    generator = _generator(args)
    corpus: Corpus = build_corpus(args.documents)
    config = _checked(
        CloudConfig,
        num_caches=args.caches,
        num_rings=args.rings,
        cycle_length=args.cycle,
        assignment=AssignmentScheme(assignment),
        placement=PlacementScheme(placement),
        seed=args.seed,
    )
    cloud = None
    if clustered:
        topology = EuclideanTopology.random(
            args.caches,
            random.Random(args.seed),
            extent=100.0,
            num_clusters=2,
            cluster_spread=25.0,
        )
        topology.add_node(ORIGIN_NODE_ID, (2_000.0, 2_000.0))
        cloud = CacheCloud(
            config,
            corpus,
            origin=OriginServer(corpus),
            transport=Transport(topology=topology),
        )
    return lambda **planes: run_experiment(
        config,
        corpus,
        generator.requests(),
        generator.updates(),
        duration=args.duration,
        cloud=cloud,
        **planes,
    )


def _add_exp(subparsers: Any) -> None:
    """The ``exp`` verb: common flags plus every registry entry's own."""
    listing = "\n".join(
        f"  {entry.name:20s}{entry.help}" for entry in registry.REGISTRY.values()
    )
    exp = subparsers.add_parser(
        "exp",
        help="run experiments from the registry (figures, ablations, "
        "extensions, sweeps); exits non-zero on a failed point or false claim",
        description=f"experiments:\n{listing}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    exp.add_argument(
        "names", nargs="+", choices=list(registry.REGISTRY), metavar="NAME"
    )
    scales = sorted({s for entry in registry.REGISTRY.values() for s in entry.scales})
    exp.add_argument(
        "--scale", choices=scales, default="small",
        help="experiment scale (tiny = smoke sizes and smoke grids; not every "
        "experiment has every scale)",
    )
    exp.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes for experiment sweeps (0 = all CPUs; "
        "default: the REPRO_JOBS environment variable, else serial)",
    )
    exp.add_argument(
        "--seed", type=int, default=None,
        help="override the scale's root seed (re-derives every random stream)",
    )
    exp.add_argument("--out", help="archive the result to this JSON file")
    exp.add_argument(
        "--fingerprint", action="store_true",
        help="print a SHA-256 fingerprint of the result (determinism checks)",
    )
    registry.add_flags(exp)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Cache Clouds (ICDCS 2005) reproduction harness"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_exp(subparsers)

    trace = subparsers.add_parser("trace", help="generate a synthetic trace file")
    _add_workload(trace, documents=1000)
    trace.add_argument("--out", required=True, help="output trace file")

    run = subparsers.add_parser("run", help="run one cloud over a generated workload")
    _add_workload(run, documents=2000, rings=5)
    run.add_argument(
        "--assignment", choices=[s.value for s in AssignmentScheme], default="dynamic"
    )
    run.add_argument(
        "--placement", choices=[s.value for s in PlacementScheme], default="utility"
    )
    run.add_argument(
        "--telemetry", nargs="?", const="telemetry.json", default=None, metavar="FILE",
        help="attach the observability registry and write its JSON artifact "
        "(span trees + per-category latency/bytes histograms) to FILE "
        "(default: telemetry.json)",
    )

    # `observe` and `flight record` trace the same small clustered cloud.
    traced = dict(
        documents=300, caches=8, update_rate=30.0, duration=20.0, rings=4, cycle=10.0
    )
    obs = subparsers.add_parser(
        "observe",
        help="run a small traced workload on a clustered topology and "
        "report span trees plus per-category latency histograms",
    )
    _add_workload(obs, **traced)
    obs.add_argument(
        "--span-limit", type=int, default=10_000, help="maximum spans retained by the recorder"
    )
    obs.add_argument("--out", help="write the telemetry JSON artifact here")
    obs.add_argument(
        "--json", action="store_true",
        help="print the canonical JSON artifact instead of the text report",
    )

    flight = subparsers.add_parser(
        "flight",
        help="streaming flight recorder: record a windowed run, render "
        "the throughput/cost dashboard, or diff two artifacts",
    )
    actions = flight.add_subparsers(dest="flight_action", required=True)
    rec = actions.add_parser(
        "record",
        help="run a traced workload with the flight recorder attached and "
        "stream the windowed JSONL artifact",
    )
    rec.add_argument("--out", required=True, help="flight artifact (JSONL) path")
    _add_workload(rec, **traced)
    rec.add_argument(
        "--window", type=float, default=1.0, help="flight window width in simulated minutes"
    )
    rec.add_argument(
        "--top-docs", type=int, default=5, help="hottest documents tracked per window"
    )
    rec.add_argument(
        "--report", action="store_true", help="render the dashboard after recording"
    )
    ren = actions.add_parser("render", help="render a recorded artifact as a text dashboard")
    ren.add_argument("artifact", help="flight artifact (JSONL)")
    ren.add_argument("--html", help="also write an HTML report here")
    ren.add_argument("--top", type=int, default=5, help="hottest documents shown")
    fdiff = actions.add_parser(
        "diff", help="compare two artifacts with thresholded verdicts (exit 1 on any FAIL)"
    )
    fdiff.add_argument("baseline", help="baseline flight artifact")
    fdiff.add_argument("candidate", help="candidate flight artifact")
    fdiff.add_argument(
        "--tolerance", type=float, default=0.10,
        help="relative drift allowed per verdict (default 10%%)",
    )

    compare = subparsers.add_parser("compare", help="diff two archived experiment results (JSON)")
    compare.add_argument("old", help="baseline archive")
    compare.add_argument("new", help="candidate archive")
    compare.add_argument(
        "--tolerance", type=float, default=0.05,
        help="relative drift above which a metric is reported (default 5%%)",
    )
    return parser


_T = TypeVar("_T")


class _Usage(Exception):
    """A well-formed command line asking for something the verb rejects."""


def _checked(build: Callable[..., _T], *args: Any, **kwargs: Any) -> _T:
    """``build(*args, **kwargs)``; a value it rejects is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise _Usage(str(exc)) from None


def _cmd_exp(args: argparse.Namespace) -> int:
    if args.out and len(args.names) > 1:
        raise _Usage("--out archives one experiment; name exactly one")
    try:  # reject a flag, scale or seed an experiment lacks before running any
        grids = registry.given_grids(args.names, vars(args))
        for name in args.names:
            registry.resolve(name, args.scale, args.seed)
    except ValueError as exc:
        raise _Usage(str(exc)) from None
    code = 0
    for name in args.names:
        outcome = registry.run(
            name, args.scale, jobs=args.jobs, seed=args.seed, **grids[name]
        )
        print(outcome.render())
        # A strict sweep that lost a point has no result: nothing to archive.
        if args.out and outcome.result is not None:
            save_result(outcome.result, args.out, name)
            print(f"archived to {args.out}")
        if args.fingerprint and outcome.result is not None:
            print(f"fingerprint: {fingerprint(outcome.result)}")
        if not outcome.ok:
            code = 1
    return code


def _cmd_trace(args: argparse.Namespace) -> int:
    count = write_trace(_generator(args).build_trace(), args.out)
    print(f"wrote {count} records to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    run = _prepare(args, assignment=args.assignment, placement=args.placement)
    telemetry = None
    if args.telemetry:
        from repro.observe import Telemetry

        telemetry = Telemetry()
    result = run(telemetry=telemetry)
    stats = result.stats
    assert result.load_stats is not None
    print(f"requests={stats.requests} updates={result.updates}")
    print(f"local hit rate={stats.local_hit_rate:.3f} "
          f"cloud hit rate={stats.cloud_hit_rate:.3f}")
    print(f"beacon-load CoV={result.load_stats.cov:.3f} "
          f"peak/mean={result.load_stats.peak_to_mean:.3f}")
    print(f"network={result.network_mb_per_unit:.3f} MB/unit")
    print(f"docs stored per cache={result.docs_stored_percent:.1f}%")
    if telemetry is not None:
        from repro.observe import write_json

        write_json(telemetry, args.telemetry)
        print(f"telemetry: {len(telemetry.spans.spans)} spans, "
              f"{len(telemetry.histograms)} histograms -> {args.telemetry}")
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    from repro.observe import (
        Telemetry,
        dump_json,
        find_tree,
        render_span_tree,
        render_summary,
        span_trees,
        write_json,
    )

    run = _prepare(args, clustered=True)
    telemetry = _checked(Telemetry, max_spans=args.span_limit)
    run(telemetry=telemetry)
    if args.json:
        print(dump_json(telemetry))
    else:
        print(render_summary(telemetry))
        example = find_tree(
            span_trees(telemetry.spans.spans),
            {"request", "beacon_lookup", "peer_fetch", "placement"},
        )
        if example is not None:
            print("\nexample collaborative miss (times in sim minutes):")
            print(render_span_tree(example))
    if args.out:
        write_json(telemetry, args.out)
        print(f"telemetry artifact -> {args.out}")
    return 0


def _cmd_flight(args: argparse.Namespace) -> int:
    from repro.observe.flight import (
        FlightRecorder,
        diff_flights,
        read_flight,
        render_flight_html,
        render_flight_report,
    )

    if args.flight_action == "record":
        run = _prepare(args, clustered=True)
        recorder = _checked(
            FlightRecorder, args.out, window=args.window, top_docs=args.top_docs
        )
        run(flight=recorder)
        log = read_flight(args.out)
        print(
            f"flight artifact -> {args.out} "
            f"({len(log.windows)} windows, window={log.window_width:g} min)"
        )
        if args.report:
            print()
            print(render_flight_report(log, top_k=args.top_docs))
        return 0
    if args.flight_action == "render":
        log = read_flight(args.artifact)
        print(render_flight_report(log, top_k=args.top))
        if args.html:
            Path(args.html).write_text(
                render_flight_html(log, top_k=args.top), encoding="utf-8"
            )
            print(f"\nhtml report -> {args.html}")
        return 0
    # diff
    baseline = read_flight(args.baseline)
    candidate = read_flight(args.candidate)
    lines, ok = diff_flights(baseline, candidate, tolerance=args.tolerance)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    old = load_result(args.old)
    new = load_result(args.new)
    drifted = compare_runs(old, new, tolerance=args.tolerance)
    if not drifted:
        print(f"no metric drifted more than {args.tolerance:.0%}")
        return 0

    def shown(value: Optional[float]) -> str:
        return "absent" if value is None else f"{value:g}"

    one_sided = sum(None in (before, after) for _, before, after, _ in drifted)
    print(
        f"{len(drifted)} metrics drifted more than {args.tolerance:.0%} "
        f"({one_sided} present in one archive only):"
    )
    for path, before, after, delta in drifted:
        change = "" if delta == float("inf") else f" ({delta:+.1%})"
        print(f"  {path}: {shown(before)} -> {shown(after)}{change}")
    return 1


_HANDLERS = {
    "exp": _cmd_exp,
    "trace": _cmd_trace,
    "run": _cmd_run,
    "observe": _cmd_observe,
    "flight": _cmd_flight,
    "compare": _cmd_compare,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "top", 0) < 0:
            raise _Usage(f"--top must be >= 0, got {args.top}")
        tolerance = getattr(args, "tolerance", 0.0)
        if not (tolerance >= 0 and math.isfinite(tolerance)):  # NaN fails both
            raise _Usage(f"--tolerance must be >= 0 and finite, got {tolerance}")
        return _HANDLERS[args.command](args)
    except _Usage as exc:  # one line, exit 2, before anything runs
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except BrokenPipeError:
        # Downstream reader (head, less) closed the pipe; redirect stdout
        # to devnull so the interpreter's exit-time flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ArtifactError, OSError) as exc:  # a malformed or unopenable file: one line
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
