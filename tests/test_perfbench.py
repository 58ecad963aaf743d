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


def test_every_workload_argv_takes_the_table_route(monkeypatch):
    """The 27 CLI calls of the three seed-0 workloads are read from the flag
    table, as argparse reads them, so the benchmark times that route."""
    monkeypatch.setitem(sys.modules, "checks", _load("checks"))  # workloads imports it by name
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    calls = []
    monkeypatch.setattr(workloads, "run_cli", lambda argv, stdin=None: calls.append(argv))
    for make in workloads.WORKLOADS.values():
        for q in make(0).questions:
            if q.op != "preimages":  # the one question that calls the library directly
                q.run()
    parser = cli.build_parser()
    assert len(calls) == 27
    for argv in calls:
        args, unread = parser.parse_known_args(argv)
        assert unread == [] and cli._from_table(parser.subcommands, argv) == args, argv
