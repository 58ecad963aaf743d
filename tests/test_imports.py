"""Every name a treeca module imports is used there; no test oracle is a package export."""
import ast
import importlib
from pathlib import Path

import pytest

import treeca

SRC = Path(treeca.__file__).parent
# imported only for perfbench: spans.py patches ThreadPoolExecutor, run.py imports _neighbor_tables
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
