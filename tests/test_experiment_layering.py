"""Nine structural rules over ``src/repro`` (pure ``ast``, like the gate beside it).

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
* An update has one root per entry point and one body: the origin's version
  is published only by ``CacheCloud.handle_update``,
  ``EdgeCacheNetwork.handle_update`` and the cooperation-free
  ``CacheGroup.handle_update``, and only ``core/roles.py`` sends an
  ``UPDATE_SERVER_TO_BEACON`` message — a federation delivers through its
  clouds, not through a preamble of its own.
* A caching strategy is selected in one way: ``CloudConfig.placement``
  names it and :func:`repro.strategies.spec.strategy_for` — the one factory —
  constructs it. No ``CacheCloud``, run body or spec takes a strategy of
  its own.
* Freshness comes from the wire: under ``repro.core`` the origin's
  ``version_of`` is read only where the origin replies itself, by the
  request root's stale-serve count, and by the two readers ROADMAP item 1
  still has to retire (``CacheNode.serve_miss`` and the elastic drain).

:func:`lines_per_claim` ranks the experiment modules by what they cost:
the table EXPERIMENTS.md embeds under the catalogue
(``tests/test_experiments_registry.py`` keeps the two in sync).
"""

import ast
from typing import Dict, List, Mapping, Sequence, Set, Tuple

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


#: Where an update's version is published: the three update entry points.
PUBLISHERS = {
    "repro.core.cloud:CacheCloud.handle_update",
    "repro.core.edgenetwork:EdgeCacheNetwork.handle_update",
    "repro.baselines.group:CacheGroup.handle_update",
}


def _calls_by_function(
    tree: ast.AST, scope: str = "", kind: type = ast.Call
) -> List[Tuple[str, ast.AST]]:
    """Every call (or other ``kind`` of node) under ``tree`` with its
    enclosing ``Class.function`` name."""
    found = []
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, kind):
            found.append((scope, child))
        found.extend(_calls_by_function(child, inner, kind))
    return found


def test_an_update_is_published_and_sent_to_a_beacon_in_one_place():
    publishers, senders = set(), []
    for name, path in MODULES.items():
        for function, call in _calls_by_function(ast.parse(path.read_text())):
            if not isinstance(call.func, ast.Attribute):
                continue
            if call.func.attr == "publish_update":
                publishers.add(f"{name}:{function}")
            if call.func.attr.startswith("send") and name != "repro.core.roles":
                senders.extend(
                    f"{name}:{node.lineno}"
                    for node in ast.walk(call)
                    if isinstance(node, ast.Attribute)
                    and ast.unparse(node) == "TrafficCategory.UPDATE_SERVER_TO_BEACON"
                )
    assert publishers == PUBLISHERS, publishers
    assert not senders, f"send update bodies through core/roles.py: {senders}"


#: Who under ``repro.core`` may read the origin's current version. A holder
#: serves what it holds, so any other read is a freshness oracle that no
#: message paid for.
ORIGIN_VERSION_READERS = {
    # Measurement only: counts a local hit on a stale copy.
    "repro.core.cloud:CacheCloud._serve_request",
    # The origin replies itself, so its version rides the reply.
    "repro.core.node:CacheNode.origin_fallback",
    "repro.core.node:CacheNode.fetch_direct",
    # ROADMAP item 1's remaining readers: a peer copy is stamped with the
    # origin's version, and the drain ships only copies the origin calls
    # current. Both go when a copy carries what its holder was sent.
    "repro.core.node:CacheNode.serve_miss",
    "repro.core.elastic:ElasticController._drain",
}


def test_only_the_origin_and_a_measurement_read_its_version():
    readers = {
        f"{name}:{function}"
        for name, path in MODULES.items()
        if name.startswith("repro.core.")
        for function, node in _calls_by_function(
            ast.parse(path.read_text()), kind=ast.Attribute
        )
        if node.attr == "version_of" and ast.unparse(node.value).endswith("origin")
    }
    assert readers == ORIGIN_VERSION_READERS, readers


#: The one place a ``CacheStrategy`` is constructed.
STRATEGY_FACTORY = "repro.strategies.spec:strategy_for"
#: What composes or describes a run, as ``module:qualified name``.
RUN_SURFACES = {
    "repro.core.cloud:CacheCloud.__init__",
    "repro.experiments.runner:run_experiment",
    "repro.experiments.parallel:run_live",
    "repro.experiments.parallel:ExperimentSpec",
}


def _strategy_classes() -> Set[str]:
    """``CacheStrategy`` and every subclass of it under ``src/repro``."""
    bases = {
        node.name: {ast.unparse(base) for base in node.bases}
        for path in MODULES.values()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    found = {"CacheStrategy"}
    while True:
        more = {name for name, named in bases.items() if named & found} - found
        if not more:
            return found
        found |= more


def _definitions(module: str) -> Dict[str, ast.AST]:
    """A module's top-level functions and classes, and its methods, by name."""
    found: Dict[str, ast.AST] = {}
    for node in ast.parse(MODULES[module].read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[f"{module}:{node.name}"] = node
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, ast.FunctionDef):
                    found[f"{module}:{node.name}.{child.name}"] = child
    return found


def _names(node: ast.AST) -> List[str]:
    """The parameters of a function, or the annotated fields of a class."""
    if isinstance(node, ast.FunctionDef):
        args = node.args
        return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return [
        ast.unparse(child.target)
        for child in getattr(node, "body", [])
        if isinstance(child, ast.AnnAssign)
    ]


def test_a_strategy_is_named_by_the_config_and_built_in_one_place():
    classes = _strategy_classes()
    assert {"PolicyStrategy", "LCEStrategy", "CUPTreeStrategy"} <= set(classes)
    built = sorted(
        f"{name}:{function} builds {call.func.id}"
        for name, path in MODULES.items()
        for function, call in _calls_by_function(ast.parse(path.read_text()))
        if isinstance(call.func, ast.Name) and call.func.id in classes
        and f"{name}:{function}" != STRATEGY_FACTORY
    )
    assert not built, f"build strategies only in {STRATEGY_FACTORY}: {built}"
    surfaces: Dict[str, ast.AST] = {}
    for module in {surface.split(":")[0] for surface in RUN_SURFACES}:
        surfaces.update(_definitions(module))
    assert RUN_SURFACES <= set(surfaces)
    taking = sorted(s for s in RUN_SURFACES if "strategy" in _names(surfaces[s]))
    assert not taking, f"select the strategy with config.placement: {taking}"


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
