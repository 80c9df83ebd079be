"""Deterministic export of telemetry: JSON artifact and text reports.

Everything here is a pure function of a :class:`~repro.observe.registry.Telemetry`
snapshot. JSON output uses ``sort_keys=True`` and fixed indentation so two
same-seed runs serialize bit-identically — the CI telemetry-smoke job
diffs the raw bytes.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.observe.registry import Telemetry
from repro.observe.spans import Span

__all__ = [
    "span_trees",
    "telemetry_to_jsonable",
    "dump_json",
    "write_json",
    "render_span_tree",
    "render_summary",
    "find_tree",
]

# A span tree node: {"name", "start", "end", "attrs", "children"}.
Tree = Dict[str, object]


def span_trees(spans: Sequence[Span]) -> List[Tree]:
    """Reconstruct the forest of span trees from a flat span list.

    Spans whose parent was not retained become roots (the recorder's
    monotone retention means that only happens for genuinely parentless
    spans, but orphans are tolerated rather than dropped).
    """
    nodes: Dict[int, Tree] = {}
    roots: List[Tree] = []
    for span in spans:
        node: Tree = {
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "attrs": {key: span.attrs[key] for key in sorted(span.attrs)},
            "children": [],
        }
        nodes[span.span_id] = node
        parent = nodes.get(span.parent_id) if span.parent_id is not None else None
        if parent is None:
            roots.append(node)
        else:
            children = parent["children"]
            assert isinstance(children, list)
            children.append(node)
    return roots


def telemetry_to_jsonable(telemetry: Telemetry) -> Dict[str, object]:
    """Full telemetry snapshot as plain JSON-serializable data."""
    # Each of the three reads folds the registry's journal: read once.
    counters, gauges, histograms = (
        telemetry.counters, telemetry.gauges, telemetry.histograms
    )
    return {
        "schema_version": Telemetry.SCHEMA_VERSION,
        "counters": {key: counters[key] for key in sorted(counters)},
        "gauges": {key: gauges[key] for key in sorted(gauges)},
        "histograms": {key: histograms[key].to_dict() for key in sorted(histograms)},
        "spans": {
            "recorded": len(telemetry.spans.spans),
            "dropped": telemetry.spans.dropped,
            "trees": span_trees(telemetry.spans.spans),
        },
    }


def dump_json(telemetry: Telemetry) -> str:
    """Serialize to canonical JSON (stable key order, fixed indent)."""
    return json.dumps(telemetry_to_jsonable(telemetry), sort_keys=True, indent=2)


def write_json(telemetry: Telemetry, path: str) -> None:
    """Write the canonical JSON artifact (trailing newline included)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_json(telemetry))
        handle.write("\n")


def _format_attrs(attrs: Dict[str, object]) -> str:
    if not attrs:
        return ""
    parts = [f"{key}={attrs[key]}" for key in sorted(attrs)]
    return " [" + " ".join(parts) + "]"


def render_span_tree(tree: Tree, indent: int = 0) -> str:
    """One span tree as an indented text block (times in sim minutes)."""
    start = tree["start"]
    end = tree["end"]
    attrs = tree["attrs"]
    assert isinstance(attrs, dict)
    end_text = f"{end:.4f}" if isinstance(end, float) else "?"
    lines = [
        f"{'  ' * indent}{tree['name']}  "
        f"t={start:.4f}..{end_text}{_format_attrs(attrs)}"
    ]
    children = tree["children"]
    assert isinstance(children, list)
    for child in children:
        lines.append(render_span_tree(child, indent + 1))
    return "\n".join(lines)


def render_summary(telemetry: Telemetry) -> str:
    """Human-readable counter / histogram summary."""
    counters, gauges, histograms = (
        telemetry.counters, telemetry.gauges, telemetry.histograms
    )
    lines: List[str] = ["== counters =="]
    for key in sorted(counters):
        lines.append(f"  {key}: {counters[key]}")
    if gauges:
        lines.append("== gauges ==")
        for key in sorted(gauges):
            lines.append(f"  {key}: {gauges[key]:g}")
    lines.append("== histograms ==")
    for key in sorted(histograms):
        hist = histograms[key]
        p50, p90, p99 = (
            hist.percentile(0.50),
            hist.percentile(0.90),
            hist.percentile(0.99),
        )

        def _fmt(value: Optional[float]) -> str:
            return f"{value:.3f}" if value is not None else "-"

        lines.append(
            f"  {key}: n={hist.count} p50={_fmt(p50)} "
            f"p90={_fmt(p90)} p99={_fmt(p99)} max={_fmt(hist.max)}"
        )
    lines.append(
        f"== spans == recorded={len(telemetry.spans.spans)} "
        f"dropped={telemetry.spans.dropped}"
    )
    return "\n".join(lines)


def _tree_names(tree: Tree) -> Set[str]:
    names = {str(tree["name"])}
    children = tree["children"]
    assert isinstance(children, list)
    for child in children:
        names |= _tree_names(child)
    return names


def find_tree(trees: Iterable[Tree], required_names: Iterable[str]) -> Optional[Tree]:
    """First tree whose span names cover ``required_names`` (else None).

    Used to pull a worked example — e.g. a collaborative miss must contain
    ``{"request", "beacon_lookup", "peer_fetch", "placement"}``.
    """
    required = set(required_names)
    for tree in trees:
        if required <= _tree_names(tree):
            return tree
    return None
