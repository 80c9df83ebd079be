#!/usr/bin/env python3
"""Driver entry point: one workload, one process, one JSON line.

    python3 benchmarks/perf/run.py --workload figure-sim --seed 11 \\
        --seconds 10 --trace 0

Run from the checkout root. The script puts the checkout's ``src/`` and
root on ``sys.path`` itself, so no ``PYTHONPATH`` is needed; without the
repository around it (``src/`` missing) it exits 2 and prints no result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    # Replace the script's own directory on the path: its module names
    # (``trace``, ``state``) must not shadow anything top-level.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    try:
        from benchmarks.perf.cli import bench
    except ImportError as exc:
        print(f"benchmarks/perf needs the repository's src/ tree: {exc}", file=sys.stderr)
        return 2
    return bench(argv)


if __name__ == "__main__":
    sys.exit(main())
