"""Package structure tests: the intra-package import graph has no cycle."""

import ast
import graphlib
from pathlib import Path

import pytest

import arcsim

PACKAGE_DIR = Path(arcsim.__file__).parent


def package_imports(path, modules):
    """Sibling modules that ``path`` imports anywhere, function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
            found.update(parts[1] for parts in names if parts[0] == "arcsim" and len(parts) > 1)
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if not parts or parts[0] != "arcsim":
                    continue
                parts = parts[1:]
            elif node.level > 1:
                continue
            if parts:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
    return found & modules


def import_graph():
    paths = {p.stem: p for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__"}
    modules = set(paths)
    return {name: package_imports(path, modules) - {name} for name, path in paths.items()}


def test_no_import_cycle():
    graph = import_graph()
    assert {"diagnostics", "elliptic"} <= graph["stepper"]  # relative imports are seen
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))
