"""Sanity checks for the example scripts.

Running the examples end-to-end takes tens of seconds each (they are demos,
not tests), but they must at least parse, compile, and import-resolve so a
refactor cannot silently break them. Each example's ``main`` is also
required to exist — the convention the README documents.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {path.stem for path in EXAMPLE_FILES}
    # The documented example set (README + DESIGN deliverables).
    assert "quickstart" in names
    assert "placement_comparison" in names
    assert "flash_crowd" in names
    assert "heterogeneous_cloud" in names
    assert "failure_resilience" in names
    assert "multi_cloud" in names
    assert "consistency_modes" in names


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_compiles(path):
    source = path.read_text()
    compile(source, str(path), "exec")


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_has_main_guard(path):
    source = path.read_text()
    tree = ast.parse(source)
    functions = {
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    assert "main" in functions
    assert 'if __name__ == "__main__":' in source


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_imports_resolve(path):
    """Import the module without executing main (the __main__ guard)."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        assert callable(module.main)
    finally:
        sys.modules.pop(spec.name, None)


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_has_usage_docstring(path):
    tree = ast.parse(path.read_text())
    docstring = ast.get_docstring(tree)
    assert docstring, f"{path.stem} lacks a module docstring"
    assert "Usage" in docstring
