"""The knob gate: a settable value is set by someone or is a constant.

Every defaulted field of a ``@dataclass`` named ``*Config`` or ``*Spec``
under ``src/repro`` (inherited fields included) must be passed as a keyword,
under its own name, by at least one call in an entry point's reach that
builds that class: ``src/repro`` itself (the CLI and every registry
experiment live there), ``benchmarks/perf/*.py`` and ``examples/*.py``.
Tests are not entry points: a field only tests set is a configuration no
run exercises, so it becomes a module constant at the value the runs use.

A keyword counts only for the dataclass its call builds (pure ``ast``;
nothing is imported), resolved by the callee's name:

* the class itself, whose keywords also set the fields it inherits;
* a *recipe*: a function with a ``**`` parameter whose body calls a class
  (or another recipe) with a ``**`` argument, like ``sweeps.paper_cloud``
  → ``CloudConfig``; the keys of the ``dict(...)`` it builds count too;
* ``_checked(Class, ...)``, the CLI's validating constructor.

A keyword passed to any other call sets nothing here, so a field does not
pass because an unrelated call (``AccessFrequencyTracker(half_life=...)``)
passes a keyword of its name.
"""

import ast
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_GLOBS = ("src/repro/**/*.py", "benchmarks/perf/*.py", "examples/*.py")

#: ``Class.field`` -> why it stays settable although no entry point sets it.
ALLOWLIST: Dict[str, str] = {
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


def _bases(classes: Dict[str, ast.ClassDef], name: str) -> List[str]:
    """``name`` and every dataclass it inherits from, nearest first."""
    return [name] + [
        ancestor
        for base in classes[name].bases
        if isinstance(base, ast.Name) and base.id in classes
        for ancestor in _bases(classes, base.id)
    ]


def knobs() -> Iterator[Tuple[str, str]]:
    """``(class, field)`` for every defaulted field of a ``*Config`` / ``*Spec``."""
    classes = _dataclasses()
    for name in sorted(classes):
        if name.endswith(("Config", "Spec")):
            fields: Dict[str, bool] = {}
            for cls in reversed(_bases(classes, name)):  # a subclass overrides
                fields.update(_own_fields(classes[cls]))
            for field, has_default in fields.items():
                if has_default:
                    yield name, field


def _name(node: ast.expr) -> str:
    """The called name: ``f`` for ``f(...)`` and ``mod.f(...)``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


def _callers() -> List[ast.Module]:
    paths = {path for pattern in CALLER_GLOBS for path in ROOT.glob(pattern)}
    return [ast.parse(path.read_text()) for path in sorted(paths)]


def _forwards(function: ast.FunctionDef, builds: Dict[str, str]) -> Optional[str]:
    """The class ``function`` passes a ``**`` argument to, if any."""
    for call in ast.walk(function):
        if isinstance(call, ast.Call) and any(k.arg is None for k in call.keywords):
            built = builds.get(_name(call.func))
            if built is not None:
                return built
    return None


def set_fields(
    classes: Dict[str, ast.ClassDef], modules: List[ast.Module]
) -> Set[Tuple[str, str]]:
    """``(class, field)`` for every keyword a call passes to a class it builds."""
    # Callee name -> the class a call of it builds: the classes, then the
    # recipes (to a fixed point: a recipe may forward to another recipe).
    builds = {name: name for name in classes}
    recipes: List[Tuple[ast.FunctionDef, str]] = []
    pending = [
        node
        for module in modules
        for node in ast.walk(module)
        if isinstance(node, ast.FunctionDef) and node.args.kwarg is not None
    ]
    while True:
        found = [(f, built) for f in pending if (built := _forwards(f, builds))]
        if not found:
            break
        for function, built in found:
            builds[function.name] = built
            recipes.append((function, built))
            pending.remove(function)

    passed: Set[Tuple[str, str]] = set()
    for module in modules:
        for call in ast.walk(module):
            if not isinstance(call, ast.Call):
                continue
            callee = _name(call.func)
            if callee == "_checked" and call.args:
                callee = _name(call.args[0])
            if callee in builds:
                passed.update(
                    (builds[callee], k.arg) for k in call.keywords if k.arg is not None
                )
    for function, built in recipes:
        passed.update(
            (built, k.arg)
            for call in ast.walk(function)
            if isinstance(call, ast.Call) and _name(call.func) == "dict"
            for k in call.keywords
            if k.arg is not None
        )
    # A keyword given to a subclass sets the field it inherits.
    return {
        (ancestor, field) for built, field in passed for ancestor in _bases(classes, built)
    }


def test_every_settable_value_is_set_by_an_entry_point():
    passed = set_fields(_dataclasses(), _callers())
    unset = {f"{cls}.{field}" for cls, field in knobs() if (cls, field) not in passed}
    assert unset == set(ALLOWLIST), (
        "config fields no entry point sets (make them constants at the value "
        f"the runs use): {sorted(unset - set(ALLOWLIST))}; "
        f"stale allowlist entries: {sorted(set(ALLOWLIST) - unset)}"
    )


def test_inherited_fields_are_knobs_of_the_subclass():
    found = set(knobs())
    assert ("TTLConfig", "num_caches") in found
    assert ("LeaseConfig", "ttl_minutes") not in found
    # Required fields are not knobs: every construction passes them.
    assert ("ChurnSpec", "duration_minutes") not in found


def test_a_keyword_sets_only_the_class_its_call_builds():
    module = ast.parse(textwrap.dedent(
        """
        def recipe(scale, **overrides):
            fields = dict(num_rings=2)
            fields.update(overrides)
            return CloudConfig(**fields)

        def outer(scale, **more):
            return recipe(scale, placement=None, **more)

        AccessFrequencyTracker(half_life=1.0)
        outer(scale, cycle_length=5.0)
        _checked(WorkloadConfig, alpha_requests=0.5)
        TTLConfig(ttl_minutes=1.0, num_caches=3)
        """
    ))
    passed = set_fields(_dataclasses(), [module])
    assert ("CloudConfig", "half_life") not in passed  # another class's call
    assert ("CloudConfig", "num_rings") in passed  # the recipe's own dict
    assert ("CloudConfig", "placement") in passed  # a recipe's recipe
    assert ("CloudConfig", "cycle_length") in passed  # ...and its callers
    assert ("WorkloadConfig", "alpha_requests") in passed
    assert ("TTLConfig", "num_caches") in passed
    assert ("GroupConfig", "num_caches") in passed  # inherited
    assert ("LeaseConfig", "num_caches") not in passed  # a sibling
