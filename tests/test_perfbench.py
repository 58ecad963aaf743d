"""The benchmark harness in perfbench/ reaches into the package by name:
its tracer patches functions, classes and module attributes, and its
set-up code imports a private name. These tests fail when such a name
goes missing."""
import importlib.util
import sys
from pathlib import Path

from treeca import analysis, cli, rulematrix
from treeca.tree import TreeShape

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(capsys):
    spans = _load("spans")
    names = [(mod, attr) for mod, attr, _, _ in spans.TARGETS]
    names += [(analysis, "ThreadPoolExecutor"), (TreeShape, "__post_init__"),
              (rulematrix.RuleMatrix, "__post_init__")]
    names += [(TreeShape, meth) for meth, _ in spans.METHODS]
    before = [getattr(obj, attr) for obj, attr in names]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["sweep", "--p-values", "5", "--random", "2"]) == 0
        assert cli.main(["classify", "-a", "1", "-b", "1", "-c", "1", "-d", "1",
                         "-n", "2", "-p", "3"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {s[2] for s in tracer.spans} >= {"cli.main", "analysis.sweep", "analysis.classify"}
    assert [getattr(obj, attr) for obj, attr in names] == before


def test_setup_code_runs(monkeypatch):
    """The code whose run time is setup_s, in this interpreter."""
    monkeypatch.setattr(sys, "argv", ["-c", "2", "3"])
    exec(compile(_load("run").SETUP_CODE, "perfbench-setup", "exec"), {})
