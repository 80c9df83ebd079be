"""Shared configuration for the experiment benchmarks.

The benchmark runs each registry experiment once (``rounds=1``) — these are
scientific reproductions, not micro-benchmarks — prints the same
rows/series the paper charts, and asserts the experiment's claims.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.parallel import resolve_jobs
from repro.experiments.reporting import save_result

#: Worker processes for the sweeps, from the ``REPRO_JOBS`` environment
#: variable (``REPRO_JOBS=4 pytest benchmarks`` fans every sweep out over
#: four processes; results are value-identical to serial).
BENCH_JOBS = resolve_jobs()

#: Where rendered tables and JSON archives land (git-ignored).
ARTIFACT_DIR = Path(__file__).parent / "artifacts"


def show(rendered: str) -> None:
    """Print a figure table (under ``pytest -s``) and archive it to disk.

    Every rendered table is also appended to ``artifacts/rendered.txt`` so a
    benchmark run leaves a reviewable record even without ``-s``.
    """
    print()
    print(rendered)
    ARTIFACT_DIR.mkdir(exist_ok=True)
    with open(ARTIFACT_DIR / "rendered.txt", "a", encoding="utf-8") as fh:
        fh.write(rendered + "\n")


def archive(result, name: str) -> None:
    """Archive a result object as JSON under ``artifacts/<name>.json``."""
    save_result(result, ARTIFACT_DIR / f"{name}.json", name=name)
