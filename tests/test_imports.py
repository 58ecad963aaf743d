"""Every name a treeca module imports is used there; no test oracle is a package export;
the package exports load on first read."""
import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import treeca

SRC = Path(treeca.__file__).parent
# imported only for perfbench: spans.py patches ThreadPoolExecutor, and run.py's set-up calls
# _neighbor_tables, the name dynamics binds to rulematrix._positions
ALLOWED = {"analysis": {"ThreadPoolExecutor"}, "dynamics": {"_neighbor_tables"}}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("name", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__"))
def test_module_uses_every_import(name):
    assert unused_imports((SRC / f"{name}.py").read_text()) - ALLOWED.get(name, set()) == set()


def test_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == {"os", "c"}


# test oracles and benchmark-only names: importable from their modules, not from treeca
MODULE_ONLY = {"analysis": ("det_formula_n2", "det_formula_n3"),
               "dynamics": ("bijectivity_oracle", "enumerate_preimages", "step_matrix"),
               "rulematrix": ("det_mod_p", "rank_mod_p"), "tree": ("parent",)}


@pytest.mark.parametrize("module,name", [(m, n) for m, ns in MODULE_ONLY.items() for n in ns])
def test_oracles_are_not_package_exports(module, name):
    with pytest.raises(ImportError):
        exec(f"from treeca import {name}", {})
    assert callable(getattr(importlib.import_module(f"treeca.{module}"), name))


# what `from treeca import *` bound when the package imported every export eagerly
STAR = {"Configuration", "EntropySequence", "GardenReport", "LinAlgReport", "Params",
        "PartitionProbe", "PrimeField", "ReversibilityRecord", "RuleMatrix", "SolutionSet",
        "SweepSpec", "TreeShape", "analysis", "build_rule_matrix", "classify", "dynamics",
        "entropy_sequence", "errors", "evolve", "field", "garden_report", "invert", "is_prime",
        "kernel_basis", "linalg_report", "partition_atom_count", "preimages", "rulematrix",
        "solve", "step_local", "sweep", "tree"}


@pytest.mark.parametrize("name", treeca.__all__)
def test_each_export_is_its_owning_modules_object(name):
    obj = getattr(treeca, name)
    if isinstance(obj, types.ModuleType):
        assert obj is importlib.import_module(f"treeca.{name}")
    else:
        assert obj.__module__.startswith("treeca.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_binds_the_eager_export_set():
    namespace = {}
    exec("from treeca import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR == set(treeca.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'treeca' has no attribute 'no_such_name'"):
        getattr(treeca, "no_such_name")


def run_fresh(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent),
                                                        os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=60)


def test_exports_and_submodules_resolve_after_a_bare_import():
    """In a fresh process: a bare `import treeca` binds no export and no submodule,
    and each resolves on first read, an export entering vars(treeca) then."""
    script = ("import treeca\n"
              "assert not {'classify', 'dynamics', 'evolve'} & vars(treeca).keys()\n"
              "assert treeca.dynamics.__name__ == 'treeca.dynamics'\n"
              "assert 'evolve' not in vars(treeca)\n"
              "assert treeca.evolve is treeca.dynamics.evolve and 'evolve' in vars(treeca)\n"
              "assert not hasattr(treeca, 'cli') and not hasattr(treeca, 'parent')\n")
    proc = run_fresh(script)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_tree_arithmetic_loads_no_numpy():
    """In a fresh process, treeca.tree answers its size and digit-budget questions
    with no NumPy loaded."""
    script = ("import sys, treeca.tree as t\n"
              "answers = t.TreeShape(10**12).n, t.ball_size(5), t.printable(3, 10)\n"
              "assert answers == (10**12, 94, 59049)\n"
              "assert 'numpy' not in sys.modules\n")
    proc = run_fresh(script)
    assert (proc.returncode, proc.stderr) == (0, "")
