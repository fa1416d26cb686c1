"""Every name a module of the package imports is used in it or exported,
every function, class and method it defines is used in the package, and
the command line loads no scipy module until a quadrature runs and no
process pool machinery until a run asks for workers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperc

MODULES = sorted(p for p in Path(hyperc.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


# Public names that no code of the package calls, kept on purpose:
ALLOWED_UNREFERENCED = {
    # the single-segment definition that the tests check every Monte
    # Carlo path against
    "segment_in",
    # the quadrature oracle of area_crescent_closed_form, which the
    # tests and the benchmark's tracer reach by name
    "area_crescent",
    # _State.generate_state, which only numpy's PCG64 calls, to seed
    # itself from a trial's Philox block that RngStream drew
    "generate_state",
    # the axis coordinates of complex points by the Cayley map and logs,
    # which the tests and perfbench/layers.py reach by name; the package
    # reads its polar points in the frame of ``frame_fermi`` instead
    "axis_coordinates",
    # BooleanSample.points, the upper half-plane coordinates of a sample's
    # points, which only perfbench/layers.py and the tests read; the
    # package reads the polar (t, psi) they are made from
    "points",
}


def _definitions(tree: ast.Module):
    """(name, line) of the module's top-level functions and classes and
    of the methods of its top-level classes, without dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.lineno


def test_every_definition_is_referenced():
    """A function, class or method that no module of the package names,
    other than in its own definition and in ``__all__``, is dead code:
    only tests would reach it."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    exempt = set(hyperc.__all__) | ALLOWED_UNREFERENCED
    unreferenced = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _definitions(tree)
        if name.rsplit(".", 1)[-1] not in referenced | exempt
    ]
    assert unreferenced == []


# the pool machinery's modules, which estimate_f loads only for a run on
# worker processes
POOL_MODULES = ("concurrent.futures", "multiprocessing", "logging", "socket", "subprocess")


def _modules_after_cli_runs(prefixes, workers: int = 1) -> list:
    """In a fresh interpreter, the loaded modules named by prefixes (a
    module or a submodule of one), after importing the CLI, after a
    simulate-f run through ``main`` on the given number of workers, and
    after a tube sandwich of each Boolean model."""
    code = (
        "import math, sys\n"
        "import hyperc.cli\n"
        "from hyperc.geometry import HPoint\n"
        "from hyperc.percolation import sandwich_AQ\n"
        "from hyperc.sampling import ModelParams, RngStream\n"
        f"prefixes = {tuple(prefixes)!r}\n"
        "def modules():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if any(m == p or m.startswith(p + '.') for p in prefixes))\n"
        "loaded = [modules()]\n"
        "argv = ['simulate-f', '--lambda', '0.1', '--rmax', '2', '--trials', '600',\n"
        f"        '--seed', '1', '--workers', '{workers}']\n"
        "assert hyperc.cli.main(argv) == 0\n"
        "loaded.append(modules())\n"
        "for model, lam in (('vacant', 0.1), ('occupied', 1.0)):\n"
        "    res = sandwich_AQ(HPoint(0.0, 1.0), HPoint(0.0, math.exp(4.0)), 0.05, model,\n"
        "                      ModelParams(lam, 1.0), 20, RngStream(3))\n"
        "    assert res.p_Q <= res.f_hat <= res.p_A\n"
        "loaded.append(modules())\n"
        "print(loaded, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hyperc.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stderr.strip().splitlines()[-1])


def test_the_cli_loads_no_scipy():
    """scipy costs most of a CLI call's import time and serves only the
    quadrature oracles, which import it when called (the quadrature
    checks of ``hyperc grassmann``).  Importing the CLI, a simulate-f run
    through ``main`` and a tube sandwich load no scipy module."""
    assert _modules_after_cli_runs(["scipy"]) == [[], [], []]


def test_a_run_without_workers_loads_no_pool():
    """The process pool's machinery is imported when a pool starts:
    importing the CLI, a simulate-f run without workers and a tube
    sandwich load none of it, and a run on two workers does."""
    assert _modules_after_cli_runs(POOL_MODULES) == [[], [], []]
    with_pool = _modules_after_cli_runs(POOL_MODULES, workers=2)
    assert with_pool[0] == [] and {"concurrent.futures", "multiprocessing"} <= set(with_pool[1])
