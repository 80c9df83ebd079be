"""Command line: ``run.py`` (one workload) and ``python -m benchmarks.perf
{run,compare}`` (all workloads; two reports)."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import measure
from .compare import compare_reports
from .report import run_all
from .spec import load_spec
from .workloads import SCALES, WORKLOADS


def bench(argv: Optional[List[str]] = None) -> int:
    """``run.py``: one workload, this process; the last stdout line is the result."""
    parser = argparse.ArgumentParser(prog="benchmarks/perf/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else load_spec().run_seconds
    if seconds <= 0:
        raise SystemExit("--seconds must be positive")
    if args.trace:
        result = measure.per_layer(args.workload, args.seed, seconds, args.scale)
    else:
        result = measure.end_to_end(args.workload, args.seed, seconds, args.scale)
    for error in result.detail["errors"]:
        print(f"CHECK FAILED [{args.workload}]: {error}", file=sys.stderr)
    print("detail: " + json.dumps(result.detail))
    print(result.line)
    return 0 if result.correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="every workload, fresh child processes")
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--reps", type=int, default=3)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--scale", choices=sorted(SCALES), default="full")
    run.add_argument("--out", default=None, help="report path (default: out/report.json)")

    compare = commands.add_parser("compare", help="apply the bounds to two reports")
    compare.add_argument("baseline")
    compare.add_argument("candidate")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_all(args)
    return compare_reports(args.baseline, args.candidate)
