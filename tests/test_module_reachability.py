"""The reachability gate: code under ``src/repro`` is run by someone or deleted.

Every non-``__init__`` module must be reachable, by imports alone, from an
entry point someone actually runs: the ``repro`` CLI (``repro.cli``,
``repro.__main__`` — and through it every registry experiment),
``benchmarks/perf/*.py`` and ``examples/*.py``. Tests are not entry points:
a module kept alive only by its own unit tests fails here.

Resolution rule (pure ``ast``; nothing under ``src`` is imported):

* a package ``__init__`` re-export is **not** a use — the hubs import
  everything, so counting them would make every module reachable;
* a name imported *through* a package (``from repro.workload import Trace``)
  resolves to the module that defines it (``repro.workload.trace``), by
  following the hub's own ``from … import`` lines;
* a string constant that is a module's dotted name counts as an import of it
  (``benchmarks/perf/trace.py`` wraps its targets through ``importlib``).
"""

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules allowed to be unreachable. Empty on purpose: add code to an entry
#: point, or delete it with the tests that test only it.
ALLOWLIST: Set[str] = set()

ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_GLOBS = ("benchmarks/perf/*.py", "examples/*.py")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: dotted name -> file, for every module and package under ``src/repro``.
MODULES: Dict[str, Path] = {
    _module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))
}
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}

Ref = Tuple[str, Optional[str]]


def _references(path: Path) -> Iterator[Ref]:
    """``(module, name)`` for every import (and module-name string) in a file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Constant) and node.value in MODULES:
            yield node.value, None


@functools.lru_cache(maxsize=None)
def _hub_exports(package: str) -> Dict[str, Ref]:
    """What each name a package ``__init__`` imports stands for."""
    return {
        (alias.asname or alias.name): (node.module, alias.name)
        for node in ast.walk(ast.parse(MODULES[package].read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
        for alias in node.names
    }


def _resolve(module: str, name: Optional[str]) -> Optional[str]:
    """The non-hub module a reference lands in (``None``: a hub, or not ours)."""
    while True:
        if name is not None and f"{module}.{name}" in MODULES:
            module, name = f"{module}.{name}", None
        if module not in PACKAGES:
            return module if module in MODULES else None
        if name is None or name not in (exports := _hub_exports(module)):
            return None
        module, name = exports[name]


def _reachable(
    globs: Tuple[str, ...] = ENTRY_GLOBS, without: Optional[str] = None
) -> Set[str]:
    """Modules reached from the CLI and the ``globs`` scripts, never entering ``without``."""
    pending: List[Path] = [MODULES[name] for name in ENTRY_MODULES]
    for pattern in globs:
        pending.extend(sorted(ROOT.glob(pattern)))
    assert len(pending) >= len(ENTRY_MODULES) + len(globs), "an entry-point glob matched nothing"
    seen: Set[str] = set(ENTRY_MODULES)
    while pending:
        for module, name in _references(pending.pop()):
            target = _resolve(module, name)
            if target is not None and target not in seen and target != without:
                seen.add(target)
                pending.append(MODULES[target])
    return seen


def test_every_module_is_reachable_from_an_entry_point():
    unreachable = set(MODULES) - PACKAGES - _reachable()
    assert unreachable == ALLOWLIST, (
        "modules no entry point imports (wire them in, or delete them with "
        f"the tests that test only them): {sorted(unreachable - ALLOWLIST)}; "
        f"stale allowlist entries: {sorted(ALLOWLIST - unreachable)}"
    )


def test_a_name_imported_through_a_hub_resolves_to_its_defining_module():
    assert _resolve("repro", "CacheCloud") == "repro.core.cloud"
    assert _resolve("repro.workload", "Trace") == "repro.workload.trace"
    assert _resolve("repro.workload", "zipf") == "repro.workload.zipf"
    assert _resolve("repro.workload", None) is None
    assert _resolve("repro", "__version__") is None
    assert _resolve("os.path", "join") is None


# ----------------------------------------------------------------------
# What a module knows of another object's insides
# ----------------------------------------------------------------------
#: ``(module, attribute)``: the deliberate reads of a ``_private`` attribute
#: of an object that is not ``self`` / ``cls`` — hot-path pokes that skip a
#: frame per operation, and a class reading a second instance of itself.
#: This list may only shrink: give the owner a public accessor instead of
#: adding a line (``FailureResilienceManager._home`` / ``._replicas`` were
#: read from four modules before they got ``ring_of`` / ``can_leave`` /
#: ``replica_holders``).
PRIVATE_READS: Set[Tuple[str, str]] = {
    # The meter's two tallies, charged in place by the fabric and transport.
    ("repro.core.fabric", "_bytes"),
    ("repro.core.fabric", "_messages"),
    ("repro.network.transport", "_bytes"),
    ("repro.network.transport", "_messages"),
    # NodeQueue's deque, touched in place by the overload controller.
    ("repro.core.overload", "_completions"),
    # The cloud-wide update-rate estimators, read where a miss is decided.
    ("repro.core.node", "_update_rates"),
    ("repro.core.edgenetwork", "_update_rates"),
    # DecayingRate's two fields, folded by the stats aggregation beside it.
    ("repro.edgecache.stats", "_count"),
    ("repro.edgecache.stats", "_last_time"),
    # A class reading another instance of itself.
    ("repro.network.bandwidth", "_bytes"),
    ("repro.network.bandwidth", "_messages"),
    ("repro.observe.registry", "_counters"),
    ("repro.observe.registry", "_histograms"),
    ("repro.observe.registry", "_times"),
    ("repro.observe.registry", "_values"),
    ("repro.observe.flight", "_index"),
    ("repro.observe.flight", "_header_written"),
    # The TTL rule extending the group's peer test through ``super()``.
    ("repro.baselines.ttl", "_peer_usable"),
}


def _private_reads() -> Dict[Tuple[str, str], List[int]]:
    """``(module, attr) -> lines`` reading ``<not self>._attr`` under ``src/repro``.

    Dunder and sunder names (``__dict__``, an ``Enum``'s ``_value_``) are
    the language's own, not a module's secrets.
    """
    reads: Dict[Tuple[str, str], List[int]] = {}
    for module, path in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.endswith("_")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            ):
                reads.setdefault((module, node.attr), []).append(node.lineno)
    return reads


def test_no_module_reads_another_objects_private_attribute():
    reads = _private_reads()
    leaked = sorted(
        f"{module}:{lines} reads .{attr}"
        for (module, attr), lines in reads.items()
        if (module, attr) not in PRIVATE_READS
    )
    assert not leaked, (
        f"give the owning class a public accessor (the allowlist only shrinks): {leaked}"
    )
    assert PRIVATE_READS <= set(reads), f"stale entries: {sorted(PRIVATE_READS - set(reads))}"
