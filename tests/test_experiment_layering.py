"""Six structural rules over ``src/repro`` (pure ``ast``, like the gate beside it).

* The paper's setup is written once: ``CloudConfig``, ``SydneyConfig`` and
  ``WorkloadConfig`` are each constructed at exactly one site under
  ``repro.experiments`` + ``repro.audit.chaos`` — the recipes of
  :mod:`repro.experiments.sweeps`. An entry module states overrides.
* What modules share is public: no module under ``repro.experiments``,
  ``repro.audit`` or ``repro.baselines`` imports an underscore name from a
  sibling module.
* A run's planes are attached in one place: the run body,
  :func:`repro.experiments.runner.run_experiment`.
* Every seam reports to the observers in one way: through ``cloud.watch``
  — no module under ``repro.core`` or ``repro.strategies`` opens a span,
  runs an operation root or charges a profile, and none but
  ``core/cloud.py``'s attach code reads ``.telemetry`` / ``.profile``.
* The fabric knows no observer class: ``core/fabric.py`` imports nothing
  from ``repro.observe`` but the benchmark probe's lazy ``telemetry`` setter.
* Only what changes state runs on a timer: ``PeriodicProcess`` is imported
  by the sub-range cycles, the elastic check and the anti-entropy sweep.
  An observer rolls its windows from the request and update roots.

:func:`lines_per_claim` ranks the experiment modules by what they cost:
the table EXPERIMENTS.md embeds under the catalogue
(``tests/test_experiments_registry.py`` keeps the two in sync).
"""

import ast
from typing import Dict, List, Mapping, Sequence

from tests.test_module_reachability import MODULES, _reachable, _references, _resolve

LAYERS = ("repro.experiments", "repro.audit", "repro.baselines")
RECIPE_SCOPE = [
    path
    for name, path in MODULES.items()
    if name.startswith("repro.experiments.") or name == "repro.audit.chaos"
]


def test_the_setup_is_constructed_at_one_site_each():
    sites = {"CloudConfig": [], "SydneyConfig": [], "WorkloadConfig": []}
    for path in RECIPE_SCOPE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in sites:
                    sites[node.func.id].append(f"{path.name}:{node.lineno}")
    assert {name: len(where) for name, where in sites.items()} == {
        "CloudConfig": 1, "SydneyConfig": 1, "WorkloadConfig": 1,
    }, f"build configs through the recipes of experiments/sweeps.py: {sites}"
    assert all(where[0].startswith("sweeps.py:") for where in sites.values())


def test_no_module_imports_a_siblings_private_name():
    private = [
        f"{importer} imports {name} from {target}"
        for importer, path in MODULES.items()
        if importer.startswith(LAYERS)
        for module, name in _references(path)
        if name is not None and name.startswith("_") and not name.startswith("__")
        for target in [_resolve(module, name)]
        if target is not None and target != importer and target.startswith(LAYERS)
    ]
    assert not private, private


#: The ``CacheCloud`` methods that attach a run's planes.
PLANE_ATTACHES = {
    "attach_overload", "attach_telemetry", "attach_elastic", "attach_flight",
    "attach_faults", "attach_anti_entropy", "attach_cycles",
}


def test_planes_are_attached_only_by_the_run_body():
    # ``CacheCloud`` itself may delegate to its fabric (``self.fabric.attach_faults``).
    stray = [
        f"{name}:{node.lineno} {node.func.attr}"
        for name, path in MODULES.items()
        if name != "repro.experiments.runner"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in PLANE_ATTACHES
        and not (name == "repro.core.cloud" and ast.unparse(node.func.value) == "self.fabric")
    ]
    assert not stray, f"attach planes through runner.run_experiment: {stray}"


#: What only the watch calls: spans, operation roots, profile charges.
OBSERVER_CALLS = {
    "begin_span", "end_span", "observe_root", "observe_request", "observe_update",
    "charge", "record_walk",
}
#: What only ``CacheCloud``'s attach code reads of its observers.
OBSERVER_ATTRIBUTES = OBSERVER_CALLS | {"telemetry", "profile"}


def test_role_seams_report_only_through_the_watch():
    stray = sorted(
        f"{name}:{node.lineno} .{node.attr}"
        for name, path in MODULES.items()
        if name.startswith(("repro.core.", "repro.strategies."))
        for forbidden in [OBSERVER_CALLS if name == "repro.core.cloud" else OBSERVER_ATTRIBUTES]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in forbidden
    )
    assert not stray, f"report through cloud.watch: {stray}"


def _observe_imports(node: ast.AST, function: str = "<module>") -> List[str]:
    """The enclosing function of every import from ``repro.observe`` under ``node``."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        elif isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        else:
            modules = []
        if any(module.startswith("repro.observe") for module in modules):
            found.append(function)
        inner = child.name if isinstance(child, ast.FunctionDef) else function
        found.extend(_observe_imports(child, inner))
    return found


def test_the_fabric_imports_no_observer():
    tree = ast.parse(MODULES["repro.core.fabric"].read_text())
    assert _observe_imports(tree) == ["_watch_telemetry"]


#: The modules that change the cloud's state on a timer: ``core/cloud.py``
#: (sub-range cycles), the elastic check and the anti-entropy sweep.
TIMED_MODULES = {"repro.core.cloud", "repro.core.elastic", "repro.audit.antientropy"}


def test_only_state_changing_modules_run_on_a_timer():
    # The defining module and its package re-export are not users of it.
    importers = {
        name
        for name, path in MODULES.items()
        if name not in ("repro.simulation.process", "repro.simulation")
        for module, imported in _references(path)
        if imported == "PeriodicProcess"
        and _resolve(module, imported) == "repro.simulation.process"
    }
    assert importers == TIMED_MODULES


def lines_per_claim(claims: Mapping[str, Sequence[str]]) -> str:
    """Markdown table: per experiment module, exclusive lines ÷ claims stated.

    ``claims`` maps each registry entry to the claims a smoke run of it
    stated. A module's *exclusive* lines are those of every ``src/repro``
    module the CLI no longer reaches once that module is gone — itself
    included — i.e. what deleting its entries would let us delete. Examples
    and benchmarks are demos, not claims, so unlike the reachability gate
    they are not entry points here: a module only an example keeps alive
    still counts against the experiment that needs it.
    """
    from repro.experiments.registry import REGISTRY

    stated: Dict[str, int] = {}
    for entry in REGISTRY.values():
        module = entry.run.__module__
        stated[module] = stated.get(module, 0) + len(claims[entry.name])
    everything = _reachable(globs=())
    rows = []
    for module, count in stated.items():
        only = everything - _reachable(globs=(), without=module)
        lines = sum(len(MODULES[name].read_text().splitlines()) for name in only)
        others = ", ".join(sorted(f"`{n[len('repro.'):]}`" for n in only - {module}))
        rows.append((lines / count, module, lines, count, others or "—"))
    table = [
        "| module | lines only it reaches | with it go | claims at `tiny` | lines per claim |",
        "|---|---|---|---|---|",
    ]
    for ratio, module, lines, count, others in sorted(rows, reverse=True):
        table.append(f"| `{module}` | {lines} | {others} | {count} | {ratio:.0f} |")
    return "\n".join(table)
