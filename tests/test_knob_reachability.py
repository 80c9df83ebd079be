"""The knob gate: a settable value is set by someone or is a constant.

Every defaulted field of a ``@dataclass`` named ``*Config`` or ``*Spec``
under ``src/repro`` (inherited fields included) must be passed as a keyword,
under its own name, by at least one call in an entry point's reach:
``src/repro`` itself (the CLI and every registry experiment live there),
``benchmarks/perf/*.py`` and ``examples/*.py``. Tests are not entry points:
a field only tests set is a configuration no run exercises, so it becomes a
module constant at the value the runs use.

Matching is by keyword name alone (pure ``ast``; nothing is imported), so
this is a floor, like the module gate: a field whose name some other call
passes (``CloudConfig.half_life``) is not caught.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_GLOBS = ("src/repro/**/*.py", "benchmarks/perf/*.py", "examples/*.py")

#: ``Class.field`` -> why it stays settable although no entry point sets it.
ALLOWLIST: Dict[str, str] = {
    "CloudConfig.replacement_policy": (
        "LoadDistributionResult embeds the config: dropping the field "
        "re-pins fig3, fig4 and GOLDEN_FIGURE3"
    ),
    "CloudConfig.consistent_virtual_nodes": (
        "LoadDistributionResult embeds the config: dropping the field "
        "re-pins fig3, fig4 and GOLDEN_FIGURE3"
    ),
    "SydneyConfig.alpha": "the Sydney stand-in's calibration knob",
    "SydneyConfig.live_fraction": "the Sydney stand-in's calibration knob",
    "SydneyConfig.live_update_share": "the Sydney stand-in's calibration knob",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute):
            name = target.attr
        else:
            name = getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _own_fields(node: ast.ClassDef) -> List[Tuple[str, bool]]:
    """``(name, has_default)`` for each annotated field, in order."""
    return [
        (stmt.target.id, stmt.value is not None)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and not (
            isinstance(stmt.annotation, ast.Subscript)
            and getattr(stmt.annotation.value, "id", "") == "ClassVar"
        )
    ]


def _dataclasses() -> Dict[str, ast.ClassDef]:
    """Every dataclass under ``src/repro``, by class name."""
    found: Dict[str, ast.ClassDef] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                assert node.name not in found, f"two dataclasses named {node.name}"
                found[node.name] = node
    return found


def knobs() -> Iterator[Tuple[str, str]]:
    """``(class, field)`` for every defaulted field of a ``*Config`` / ``*Spec``."""
    classes = _dataclasses()

    def fields(name: str) -> List[Tuple[str, bool]]:
        node = classes[name]
        inherited = [
            field
            for base in node.bases
            if isinstance(base, ast.Name) and base.id in classes
            for field in fields(base.id)
        ]
        own = dict(_own_fields(node))
        return [f for f in inherited if f[0] not in own] + list(own.items())

    for name in sorted(classes):
        if name.endswith(("Config", "Spec")):
            for field, has_default in fields(name):
                if has_default:
                    yield name, field


def passed_keywords() -> Set[str]:
    """Every keyword name some call in an entry point's reach passes."""
    paths = {path for pattern in CALLER_GLOBS for path in ROOT.glob(pattern)}
    return {
        keyword.arg
        for path in sorted(paths)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg is not None
    }


def test_every_settable_value_is_set_by_an_entry_point():
    passed = passed_keywords()
    unset = {f"{cls}.{field}" for cls, field in knobs() if field not in passed}
    assert unset == set(ALLOWLIST), (
        "config fields no entry point sets (make them constants at the value "
        f"the runs use): {sorted(unset - set(ALLOWLIST))}; "
        f"stale allowlist entries: {sorted(set(ALLOWLIST) - unset)}"
    )


def test_inherited_fields_are_knobs_of_the_subclass():
    found = set(knobs())
    assert ("TTLConfig", "num_caches") in found
    assert ("LeaseConfig", "capacity_bytes") in found
    # Required fields are not knobs: every construction passes them.
    assert ("ChurnSpec", "duration_minutes") not in found
