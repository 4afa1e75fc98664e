"""Package structure tests: the intra-package import graph has no cycle, and no code path
loads scipy."""

import ast
import graphlib
import os
import subprocess
import sys
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


def test_solves_leave_scipy_fft_unloaded():
    """import arcsim plus one 1D and one 2D solve, in a fresh interpreter, never load scipy.fft."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import arcsim\n"
        "rng = np.random.default_rng(0)\n"
        "arcsim.solve_w_values(rng.random(16), (1 / 16,), 1.0)\n"
        "arcsim.solve_w_values(rng.random((8, 6)), (1 / 8, 1 / 6), 1.0)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.fft')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_no_code_path_loads_scipy():
    """In a fresh interpreter, import, 1D and 2D runs, an MMS study and the theory load no scipy."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import arcsim, arcsim.cli, arcsim.mms, arcsim.theory\n"
        "params = arcsim.ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 2)\n"
        "for spec in (arcsim.GridSpec.interval(16), arcsim.GridSpec.rectangle((8, 6))):\n"
        "    u0 = arcsim.ScalarField.from_function(spec, lambda x, *_: 1.0 + 0.5 * np.cos(np.pi * x))\n"
        "    config = arcsim.RunConfig(spec, params, u0, arcsim.ScalarField.full(spec, 1.0),\n"
        "                              t_end=1e-3, output_interval=1e-3)\n"
        "    records, state, termination = arcsim.run(config)\n"
        "    assert termination == arcsim.COMPLETED and state.step > 0, termination\n"
        "result = arcsim.mms.run_convergence(3, base_cells=8, t_end=1e-3)\n"
        "assert len(result.errors) == 3, result\n"
        "t = arcsim.theory\n"
        "t.threshold_constant(2.0, 3), t.xi_threshold(2.0, 3, 1.0), t.critical_coefficient(3)\n"
        "t.production_exponent(2.0, 3, 3.0), t.absorption_exponent(3, 2.0)\n"
        "t.p_admissible_range(2.0, 3), t.alpha_upper_bound(3)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"]
