import argparse
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from treeca import cli
from treeca.cli import build_parser, fixture_path, main
from treeca.dynamics import Configuration, format_config, step_local
from treeca.field import PrimeField
from treeca.rulematrix import Params
from treeca.tree import TreeShape


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_irreversible_row(capsys):
    code, out, _ = run(capsys, "classify", "-a", "1", "-b", "1", "-c", "1", "-d", "1",
                       "-n", "2", "-p", "2")
    assert code == 0
    assert "verdict=irreversible" in out


def test_classify_csv_and_json(capsys):
    code, out, _ = run(capsys, "classify", "-a", "1", "-b", "1", "-c", "1", "-d", "1",
                       "-n", "2", "-p", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "1,1,1,1,2,3,2,10,true"
    code, out, _ = run(capsys, "classify", "-a", "1", "-b", "1", "-c", "1", "-d", "1",
                       "-n", "2", "-p", "3", "--format", "json")
    assert json.loads(out)[0]["reversible"] is True


def test_matrix_command(capsys):
    code, out, _ = run(capsys, "matrix", "-n", "2", "-p", "3",
                       "-a", "1", "-b", "1", "-c", "1", "-d", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "treeca-matrix 1 2 3"
    assert len(lines) == 11
    assert lines[1] == "1 1 1 1 0 0 0 0 0 0"


def test_det_command(capsys):
    code, out, _ = run(capsys, "det", "-n", "2", "-p", "3",
                       "-a", "1", "-b", "1", "-c", "1", "-d", "1")
    assert code == 0 and out == "2\n"


def test_entropy_command(capsys):
    code, out, _ = run(capsys, "entropy", "-p", "2", "--max-n", "3")
    assert code == 0
    assert out.splitlines() == ["n,H_n,H_n_over_n", "1,4,4", "2,10,5", "3,22,7.33333333333"]


def test_evolve_command(tmp_path, capsys):
    shape = TreeShape(2)
    cfg = Configuration(shape, 3, np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0]))
    src = tmp_path / "cfg.txt"
    src.write_text(format_config(cfg))
    code, out, _ = run(capsys, "evolve", "-n", "2", "-p", "3",
                       "-a", "1", "-b", "1", "-c", "1", "-d", "1",
                       "--steps", "1", "--input", str(src))
    assert code == 0
    trace = json.loads(out)
    assert trace[0] == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    assert trace[1] == [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("steps", [0, 7])
def test_evolve_text_prints_last_step(tmp_path, capsys, steps):
    shape, p = TreeShape(3), 101
    pr = Params(a=2, b=3, c=5, d=7, field=PrimeField(p))
    cfg = Configuration(shape, p, np.random.default_rng(2).integers(0, p, size=shape.total_vertices))
    src = tmp_path / "cfg.txt"
    src.write_text(format_config(cfg))
    code, out, _ = run(capsys, "evolve", "-n", "3", "-p", str(p), "-a", "2", "-b", "3",
                       "-c", "5", "-d", "7", "--steps", str(steps), "--input", str(src),
                       "--format", "text")
    for _ in range(steps):
        cfg = step_local(cfg, pr)
    assert (code, out) == (0, format_config(cfg))


def test_evolve_shape_mismatch(tmp_path, capsys):
    src = tmp_path / "cfg.txt"
    src.write_text(format_config(Configuration.zero(TreeShape(1), 3)))
    code, _, err = run(capsys, "evolve", "-n", "2", "-p", "3",
                       "-a", "1", "-b", "1", "-c", "1", "-d", "1", "--input", str(src))
    assert code == 3
    assert err.startswith("error ")


def test_garden_command(capsys):
    code, out, _ = run(capsys, "garden", "-n", "2", "-p", "2",
                       "-a", "1", "-b", "1", "-c", "1", "-d", "1",
                       "--samples", "1", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["garden_count"] == 512
    assert payload["seed"] == 0
    assert len(payload["sample_garden_configs"]) == 1


def test_probe_command(capsys):
    code, out, _ = run(capsys, "probe", "-n", "2", "-p", "2",
                       "-a", "1", "-b", "1", "-c", "1", "-d", "1", "--steps", "2")
    assert code == 0
    assert "observed_atom_count=" in out
    assert "claimed_atom_count=1024" in out


def test_sweep_command(capsys):
    code, out, _ = run(capsys, "sweep", "--a-values", "1", "--b-values", "1",
                       "--c-values", "1", "--d-values", "1",
                       "--n-values", "2", "--p-values", "3,5,7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,c,d,n,p,det,rank,reversible"
    assert len(lines) == 4
    assert all(ln.endswith("true") for ln in lines[1:])


def test_sweep_random_emits_seed(capsys):
    code, out, _ = run(capsys, "sweep", "--p-values", "7", "--n-values", "2",
                       "--random", "3", "--seed", "9")
    assert code == 0
    assert out.splitlines()[0] == "# seed=9"
    code2, out2, _ = run(capsys, "sweep", "--p-values", "7", "--n-values", "2",
                         "--random", "3", "--seed", "9")
    assert out2 == out  # byte-identical reruns


def test_table1_default_passes(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code, _, _ = run(capsys, "table1", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 39  # header + 38 expanded rows


def test_table1_tampered_fixture(tmp_path, capsys):
    text = fixture_path().read_text()
    bad = text.replace("2,1,3,2,2,17,reversible", "2,1,3,2,2,17,irreversible")
    assert bad != text
    f = tmp_path / "tampered.csv"
    f.write_text(bad)
    code, _, err = run(capsys, "table1", "--fixture", str(f))
    assert code == 4
    assert "fixture-mismatch" in err


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("a,b,c,d,", "b,c,d,", 1),  # no `a` column
    lambda text: text.replace(",2,17,reversible\n", ",2\n", 1),  # a short row
])
def test_table1_malformed_fixture(tmp_path, capsys, edit):
    text = fixture_path().read_text()
    assert edit(text) != text
    f = tmp_path / "malformed.csv"
    f.write_text(edit(text))
    code, _, err = run(capsys, "table1", "--fixture", str(f))
    assert code == 3
    assert "format-error" in err


def test_probe_large_steps_is_invalid_input(capsys):
    code, out, err = run(capsys, "probe", "-n", "1", "-p", "2",
                         "-a", "1", "-b", "1", "-c", "1", "-d", "1", "--steps", "40")
    assert code == 3
    assert out == ""
    assert "invalid-input" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "classify", "-a", "1", "-b", "1", "-c", "1", "-d", "1",
                       "-n", "2", "-p", "4")
    assert code == 3
    assert "non-prime-modulus" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "-a", "1"])  # missing required flags
    assert exc.value.code == 2


def test_cli_matches_library_output(capsys):
    # thin-adapter check: CLI bytes == serialized library result
    from treeca.analysis import classify, records_to_csv

    code, out, _ = run(capsys, "classify", "-a", "2", "-b", "1", "-c", "3", "-d", "2",
                       "-n", "2", "-p", "17", "--format", "csv")
    assert out == records_to_csv([classify(2, 1, 3, 2, 2, 17)])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("spec", [
    ["--random", "20", "--n-values", "1,3,2", "--p-values", "17,2,2147483647", "--seed", "5"],
    ["--a-values", "3,1,2", "--b-values", "2,1", "--c-values", "1,4", "--d-values", "2,3",
     "--n-values", "3,2", "--p-values", "7,5"],
])
def test_sweep_output_ignores_threads(capsys, monkeypatch, spec, fmt):
    argv = ["sweep", *spec, "--format", fmt]
    code, want, _ = run(capsys, *argv, "--threads", "1")
    assert code == 0 and want.count("\n") > 20
    assert run(capsys, *argv, "--threads", "4") == (0, want, "")
    monkeypatch.setenv("TREECA_THREADS", "4")
    assert run(capsys, *argv) == (0, want, "")


@pytest.mark.parametrize("primes,error", [
    ("4,5", "error non-prime-modulus: modulus 4 is not prime"),
    ("5,4", "error invalid-input: coefficient a must be nonzero"),
])
def test_sweep_first_bad_tuple_sets_the_error(capsys, primes, error):
    code, out, err = run(capsys, "sweep", "--p-values", primes, "--a-values", "0",
                         "--b-values", "1", "--c-values", "1", "--d-values", "1")
    assert (code, out) == (3, "")
    assert err.startswith(error)


def test_sweep_zero_coefficient_names_no_option_it_lacks(capsys):
    code, out, err = run(capsys, "sweep", "--p-values", "5", "--a-values", "0",
                         "--b-values", "1", "--c-values", "1", "--d-values", "1")
    assert (code, out, err) == (3, "", "error invalid-input: coefficient a must be nonzero\n")
    assert "allow_zero" not in err


def test_random_sweep_checks_the_modulus_before_drawing(capsys):
    code, out, err = run(capsys, "sweep", "--random", "2", "--p-values", "1")
    assert (code, out, err) == (3, "", "error non-prime-modulus: modulus 1 is not prime\n")


def test_negative_random_count_is_a_usage_error(capsys, monkeypatch):
    code, out, err = run_exit(capsys, monkeypatch, ["sweep", "--p-values", "5", "--random", "-1"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: treeca sweep ")
    assert err.endswith("treeca sweep: error: --random must be >= 0, got -1\n")


def test_empty_sweep_checks_no_modulus(capsys):
    code, out, err = run(capsys, "sweep", "--p-values", "4", "--b-values", "1")
    assert (code, out, err) == (0, "a,b,c,d,n,p,det,rank,reversible\n", "")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit in this Python")
def test_classify_deep_level_is_invalid_level_but_det_answers(capsys):
    flags = ["-a", "2", "-b", "1", "-c", "3", "-d", "2", "-n", "20000", "-p", "17"]
    code, out, err = run(capsys, "classify", *flags)
    assert (code, out) == (3, "")
    assert err.startswith("error invalid-level: level 20000")
    code, out, err = run(capsys, "det", *flags)
    assert code == 0 and err == ""
    assert 0 <= int(out) < 17 and out == f"{int(out)}\n"


def test_threads_environment_variable_is_not_read(capsys, monkeypatch):
    monkeypatch.setenv("TREECA_THREADS", "abc")
    build_parser.cache_clear()  # a parser built now must not read the variable
    assert run(capsys, "det", "-n", "2", "-p", "5", "-a", "1", "-b", "1", "-c", "1",
               "-d", "1") == (0, "1\n", "")
    assert run(capsys, "sweep", "--p-values", "5", "--a-values", "1", "--b-values", "1",
               "--c-values", "1", "--d-values", "1") == (
                   0, "a,b,c,d,n,p,det,rank,reversible\n1,1,1,1,2,5,1,10,true\n", "")


COEFFS = ["-a", "1", "-b", "1", "-c", "1", "-d", "1"]
SEQUENCE = [  # (argv, stdin), run in this order in one process
    (["classify", "-a", "1"], ""),  # usage error
    (["classify", *COEFFS, "-n", "2", "-p", "4"], ""),  # domain error
    (["classify", *COEFFS, "-n", "3", "-p", "7", "--format", "json"], ""),
    (["sweep", "--p-values", "17,5", "--n-values", "2,3", "--random", "5", "--seed", "3"], ""),
    (["evolve", *COEFFS, "-n", "1", "-p", "3", "--steps", "3"], "treeca-config 1 1 3\n1 0 2 1\n"),
    (["garden", *COEFFS, "-n", "2", "-p", "2", "--samples", "2", "--seed", "4"], ""),
    (["table1"], ""),
]


def run_sequence(capsys, monkeypatch):
    results = []
    for argv, stdin in SEQUENCE:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_reused_parser_answers_as_a_fresh_parser(capsys, monkeypatch):
    build_parser()
    reused = run_sequence(capsys, monkeypatch)
    assert [r[0] for r in reused] == [2, 3, 0, 0, 0, 0, 0]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)  # a fresh parser per call
    assert run_sequence(capsys, monkeypatch) == reused


def test_main_builds_at_most_one_parser_tree(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.__wrapped__()
    tree = len(built)  # the top-level parser and one per subcommand
    built.clear()
    build_parser.cache_clear()
    for k in range(20):
        assert main(["det", *COEFFS, "-n", str(k % 3 + 1), "-p", "5"]) == 0
    capsys.readouterr()
    assert tree > 1 and len(built) == tree


# Each subcommand accepts only the flags it reads. VALID holds one accepted
# invocation per subcommand (argv, stdin); a flag or --format value that the
# subcommand would not read must turn it into a usage error.
CONFIG_N1_P3 = "treeca-config 1 1 3\n1 0 2 1\n"
VALID = {
    "matrix": (["matrix", *COEFFS, "-n", "1", "-p", "3"], ""),
    "det": (["det", *COEFFS, "-n", "1", "-p", "3"], ""),
    "classify": (["classify", *COEFFS, "-n", "1", "-p", "3"], ""),
    "evolve": (["evolve", *COEFFS, "-n", "1", "-p", "3", "--steps", "2"], CONFIG_N1_P3),
    "garden": (["garden", *COEFFS, "-n", "2", "-p", "2", "--samples", "1"], ""),
    "entropy": (["entropy", "-p", "2", "--max-n", "3"], ""),
    "probe": (["probe", *COEFFS, "-n", "1", "-p", "3", "--steps", "2"], ""),
    "sweep": (["sweep", "--p-values", "5", "--a-values", "1", "--b-values", "1",
               "--c-values", "1", "--d-values", "1"], ""),
    "table1": (["table1"], ""),
}
DROPPED_FLAGS = [  # (subcommand, flag and its value): 17 pairs
    ("matrix", ["--format", "text"]), ("matrix", ["--enumeration-cap", "100"]),
    ("det", ["--format", "text"]), ("det", ["--enumeration-cap", "100"]),
    ("classify", ["--enumeration-cap", "100"]),
    ("evolve", ["--enumeration-cap", "100"]),
    ("garden", ["--format", "json"]), ("garden", ["--enumeration-cap", "100"]),
    ("entropy", ["--allow-zero-coeffs"]), ("entropy", ["--enumeration-cap", "100"]),
    ("probe", ["--format", "text"]), ("probe", ["--enumeration-cap", "100"]),
    ("sweep", ["--allow-zero-coeffs"]), ("sweep", ["--enumeration-cap", "100"]),
    ("table1", ["--format", "csv"]), ("table1", ["--allow-zero-coeffs"]),
    ("table1", ["--enumeration-cap", "100"]),
]
UNREAD_FORMATS = [  # the 18 of the old 27 (subcommand, --format value) pairs never read
    *((command, fmt) for command in ("matrix", "det", "garden", "probe", "table1")
      for fmt in ("csv", "json", "text")),
    ("evolve", "csv"), ("entropy", "text"), ("sweep", "text"),
]


def run_exit(capsys, monkeypatch, argv, stdin=""):
    """(exit status, stdout, stderr) of main(argv), a usage error included."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_evolve_rejects_a_residue_past_int64(capsys, monkeypatch):
    config = "treeca-config 1 1 5\n1 2 3 99999999999999999999999\n"
    assert run_exit(capsys, monkeypatch, ["evolve", *COEFFS, "-n", "1", "-p", "5"], config) == (
        3, "", "error format-error: residues outside [0, 5)\n")


def test_evolve_refuses_an_oversized_token(capsys, monkeypatch):
    config = f"treeca-config 1 1 5\n1 2 3 {'7' * 5000}\n"
    assert run_exit(capsys, monkeypatch, ["evolve", *COEFFS, "-n", "1", "-p", "5"], config) == (
        3, "", "error format-error: residues outside [0, 5)\n")


def test_valid_invocations_answer(capsys, monkeypatch):
    for command, (argv, stdin) in VALID.items():
        code, out, err = run_exit(capsys, monkeypatch, argv, stdin)
        assert (code, err) == (0, "") and out, command


@pytest.mark.parametrize("command,flag", [
    *(pytest.param(command, flag, id=f"{command}{flag[0]}") for command, flag in DROPPED_FLAGS),
    *(pytest.param(command, ["--format", fmt], id=f"{command}--format={fmt}")
      for command, fmt in UNREAD_FORMATS),
    *(pytest.param("sweep", ["--random", "2", f"--{k}-values", "1"], id=f"sweep--random--{k}")
      for k in "abcd"),
])
def test_unread_flags_are_usage_errors(capsys, monkeypatch, command, flag):
    argv, stdin = VALID[command]
    code, out, err = run_exit(capsys, monkeypatch, [*argv, *flag], stdin)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: treeca {command} ")


@pytest.mark.parametrize("command,formats", [
    ("classify", "text,csv,json"), ("evolve", "json,text"), ("entropy", "csv,json"),
    ("sweep", "csv,json"),
])
def test_format_offers_exactly_the_written_formats(capsys, command, formats):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    assert f"[--format {{{formats}}}]" in capsys.readouterr().out


def _classify_line(rec):
    return (f"a={rec.a} b={rec.b} c={rec.c} d={rec.d} n={rec.n} p={rec.p} "
            f"det={rec.det} rank={rec.rank} verdict={rec.verdict}\n")


def _kept_format_cases():
    """(argv, stdin, expected stdout) for each subcommand that takes --format,
    with the expected bytes from the library's own routines."""
    from treeca import analysis, dynamics

    rec = analysis.classify(2, 3, 5, 7, 3, 17)
    classify_argv = ["classify", "-a", "2", "-b", "3", "-c", "5", "-d", "7", "-n", "3", "-p", "17"]
    shape, p = TreeShape(2), 101
    cfg = Configuration(shape, p, np.arange(shape.total_vertices) * 37 % p)
    trace = dynamics.evolve(cfg, Params(a=2, b=3, c=5, d=7, field=PrimeField(p)), 6)
    evolve_argv = ["evolve", "-a", "2", "-b", "3", "-c", "5", "-d", "7", "-n", "2", "-p", str(p),
                   "--steps", "6"]
    seq = analysis.entropy_sequence(17, 9)
    entropy_json = json.dumps({"p": 17, "terms": [{"n": n, "H_n": h, "H_n_over_n": hn}
                                                  for n, h, hn in seq.terms]}, indent=2) + "\n"
    lists = dict(a_values=(1, 2), b_values=(3,), c_values=(1, 4), d_values=(2,),
                 n_values=(2, 3), p_values=(7, 5))
    table, reversible = analysis.sweep(analysis.SweepSpec(**lists))
    records = [analysis.ReversibilityRecord(*t, r)
               for t, r in zip(zip(*table.tolist()), reversible.tolist())]
    sweep_argv = ["sweep", *(f for k, v in lists.items()
                             for f in (f"--{k[0]}-values", ",".join(map(str, v))))]
    sweep_json = json.dumps({"seed": None, "records": [r._asdict() for r in records]},
                            indent=2) + "\n"
    return {
        ("classify", "text"): (classify_argv, "", _classify_line(rec)),
        ("classify", "csv"): (classify_argv, "", analysis.records_to_csv([rec])),
        ("classify", "json"): (classify_argv, "", analysis.records_to_json([rec]) + "\n"),
        ("evolve", "json"): (evolve_argv, format_config(cfg), dynamics.trace_to_json(trace) + "\n"),
        ("evolve", "text"): (evolve_argv, format_config(cfg),
                             format_config(Configuration(shape, p, trace.values[-1]))),
        ("entropy", "csv"): (["entropy", "-p", "17", "--max-n", "9"], "", analysis.entropy_csv(seq)),
        ("entropy", "json"): (["entropy", "-p", "17", "--max-n", "9"], "", entropy_json),
        ("sweep", "csv"): (sweep_argv, "", analysis.records_to_csv(records)),
        ("sweep", "json"): (sweep_argv, "", sweep_json),
    }


DEFAULT_FORMATS = {"classify": "text", "evolve": "json", "entropy": "csv", "sweep": "csv"}


@pytest.mark.parametrize("command,fmt", [
    ("classify", "text"), ("classify", "csv"), ("classify", "json"), ("evolve", "json"),
    ("evolve", "text"), ("entropy", "csv"), ("entropy", "json"), ("sweep", "csv"),
    ("sweep", "json"),
])
def test_kept_formats_print_the_library_serialisation(capsys, monkeypatch, command, fmt):
    argv, stdin, want = _kept_format_cases()[command, fmt]
    assert run_exit(capsys, monkeypatch, [*argv, "--format", fmt], stdin) == (0, want, "")
    if DEFAULT_FORMATS[command] == fmt:
        assert run_exit(capsys, monkeypatch, argv, stdin) == (0, want, "")


@pytest.mark.parametrize("command", ["classify", "det", "matrix"])
@pytest.mark.parametrize("coeffs", [(0, 3, 5, 7), (2, 0, 5, 7), (2, 3, 0, 7), (2, 3, 5, 0),
                                    (0, 0, 5, 0)])
def test_allow_zero_coeffs_matches_the_dense_route(capsys, command, coeffs):
    from treeca.analysis import ReversibilityRecord
    from treeca.rulematrix import _reduce, build_rule_matrix

    n, p = 3, 17
    argv = [command, *(f for k, v in zip("abcd", coeffs) for f in (f"-{k}", str(v))),
            "-n", str(n), "-p", str(p)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error invalid-input: coefficient ") and "must be nonzero" in err
    dense = build_rule_matrix(TreeShape(n), Params(*coeffs, field=PrimeField(p),
                                                   allow_zero=True)).dense()
    _, pivots, det = _reduce(dense, p)
    want = {
        "det": f"{det}\n",
        "classify": _classify_line(ReversibilityRecord(*coeffs, n, p, det, len(pivots), det != 0)),
        "matrix": f"treeca-matrix 1 {n} {p}\n" + "".join(" ".join(map(str, row)) + "\n"
                                                         for row in dense.tolist()),
    }[command]
    assert run(capsys, *argv, "--allow-zero-coeffs") == (0, want, "")


def test_evolve_text_keeps_no_trace(capsys, monkeypatch):
    """The text route steps one configuration: it never calls
    dynamics.evolve, and its peak allocation stays far below the
    (t+1) x |V_n| trace (2001 x 190 x 8 bytes = 3 MB)."""
    import tracemalloc

    from treeca import dynamics

    def no_trace(*args):
        raise AssertionError("dynamics.evolve called")

    monkeypatch.setattr(dynamics, "evolve", no_trace)
    shape, p = TreeShape(6), 2**31 - 1
    pr = Params(a=2, b=3, c=5, d=7, field=PrimeField(p))
    cfg = Configuration(shape, p, np.random.default_rng(6).integers(0, p, shape.total_vertices))
    argv = ["evolve", "-a", "2", "-b", "3", "-c", "5", "-d", "7", "-n", "6", "-p", str(p),
            "--format", "text"]
    tracemalloc.start()
    try:
        got = run_exit(capsys, monkeypatch, [*argv, "--steps", "2000"], format_config(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for _ in range(2000):
        cfg = step_local(cfg, pr)
    assert got == (0, format_config(cfg), "")
    assert peak < 500_000
    code, out, err = run_exit(capsys, monkeypatch, [*argv, "--steps", "-1"], format_config(cfg))
    assert (code, out) == (3, "")
    assert err == "error invalid-input: step count must be >= 0, got -1\n"


@pytest.mark.parametrize("p,last", [(2, 1022), (2**31 - 1, 1017)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_entropy_stops_at_the_float_range(capsys, p, last, fmt):
    code, out, err = run(capsys, "entropy", "-p", str(p), "--max-n", str(last), "--format", fmt)
    assert (code, err) == (0, "")
    assert "inf" not in out and "Infinity" not in out
    if fmt == "json":
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the JSON"))
    code, out, err = run(capsys, "entropy", "-p", str(p), "--max-n", str(last + 1),
                         "--format", fmt)
    assert (code, out) == (3, "")
    assert err.startswith(f"error invalid-level: level {last + 1}: ")


def test_probe_past_the_cap_is_enumeration_too_large(capsys, monkeypatch):
    """3^|V_12| configurations, more than Python prints, were past the old
    enumeration cap: the probe enumerates none, so it answers."""
    argv = ["probe", *COEFFS, "-n", "12", "-p", "3"]
    assert run_exit(capsys, monkeypatch, argv) == (0, (
        "steps=1 truncation_level=12 p=3 mode=root\nobserved_atom_count=3\n"
        "claimed_atom_count=81\n"), "")


@pytest.mark.parametrize("exc,message", [
    (MemoryError("Unable to allocate 7.45 GiB for an array"),
     "Unable to allocate 7.45 GiB for an array"),
    (MemoryError(), "not enough memory"),
])
def test_out_of_memory_is_a_domain_error(capsys, monkeypatch, exc, message):
    from treeca import dynamics

    def exhausted(*args):
        raise exc

    monkeypatch.setattr(dynamics, "evolve", exhausted)
    argv = ["evolve", *COEFFS, "-n", "1", "-p", "3", "--steps", "1000000000"]
    assert run_exit(capsys, monkeypatch, argv, "treeca-config 1 1 3\n0 1 2 0\n") == (
        3, "", f"error out-of-memory: {message}\n")


def test_sweep_refuses_an_oversized_token(capsys, monkeypatch):
    argv = ["sweep", "--p-values", "7" * 5000, "--a-values", "1", "--b-values", "1",
            "--c-values", "1", "--d-values", "1"]
    assert run_exit(capsys, monkeypatch, argv) == (
        3, "", "error format-error: --p-values holds a number outside int64\n")
    argv = ["sweep", "--p-values", "5", "--n-values", "2," + "9" * 21]
    assert run_exit(capsys, monkeypatch, argv) == (
        3, "", "error format-error: --n-values holds a number outside int64\n")


@pytest.mark.parametrize("p", [17, 99_991, 100_003, 2**31 - 1])
def test_evolve_out_file_holds_the_stdout_bytes(tmp_path, capsys, monkeypatch, p):
    """--out and stdout get the same bytes, json.dumps of the trace; the
    text is written in more than one block (n = 8, 60 steps: 46 726 cells)."""
    from treeca import dynamics

    shape = TreeShape(8)
    pr = Params(a=2, b=3, c=5, d=7, field=PrimeField(p))
    cfg = Configuration(shape, p, np.random.default_rng(p).integers(0, p, shape.total_vertices))
    want = json.dumps(dynamics.evolve(cfg, pr, 60).values.tolist()) + "\n"
    argv = ["evolve", "-a", "2", "-b", "3", "-c", "5", "-d", "7", "-n", "8", "-p", str(p),
            "--steps", "60"]
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(writelines=lambda parts: writes.extend(parts)))
    assert run_exit(capsys, monkeypatch, argv, format_config(cfg))[0] == 0
    assert "".join(writes) == want and writes[0] == "[[" and writes[-1] == "\n"
    assert len(writes) > 3 and max(map(len, writes)) < len(want) / 2  # block by block
    monkeypatch.undo()
    out = tmp_path / "trace.json"
    assert run_exit(capsys, monkeypatch, [*argv, "--out", str(out)], format_config(cfg)) == (
        0, "", "")
    assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("steps", [0, 1, 9])
def test_evolve_text_is_the_json_traces_last_row(capsys, monkeypatch, steps):
    shape, p = TreeShape(4), 2**31 - 1
    cfg = Configuration(shape, p, np.random.default_rng(steps).integers(0, p, shape.total_vertices))
    argv = ["evolve", "-a", "2", "-b", "3", "-c", "5", "-d", "7", "-n", "4", "-p", str(p),
            "--steps", str(steps)]
    code, out, _ = run_exit(capsys, monkeypatch, argv, format_config(cfg))
    last = Configuration(shape, p, np.array(json.loads(out)[-1]))
    assert code == 0 and len(json.loads(out)) == steps + 1
    assert run_exit(capsys, monkeypatch, [*argv, "--format", "text"], format_config(cfg)) == (
        0, format_config(last), "")


@pytest.mark.parametrize("samples", [0, 1, 3])
@pytest.mark.parametrize("p,coeffs", [(2, (1, 1, 1, 1)), (101, (2, 3, 4 * pow(5, -1, 101) % 101, 2)),
                                      (5, (1, 2, 3, 4))])
def test_garden_payload_is_json_dumps_with_indent_2(capsys, samples, p, coeffs):
    # singular rules at p = 2 and 101 (c = d^2 / (a+b)); (1, 2, 3, 4) is reversible mod 5,
    # so its sample list stays empty
    argv = ["garden", *(f for k, v in zip("abcd", coeffs) for f in (f"-{k}", str(v))),
            "-n", "3", "-p", str(p), "--samples", str(samples), "--seed", "3"]
    code, out, err = run(capsys, *argv)
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert out == json.dumps(payload, indent=2) + "\n"
    assert len(payload["sample_garden_configs"]) == (samples if payload["garden_count"] else 0)


def test_garden_reports_a_sample_shortfall_on_stderr(capsys):
    """At n = 1, p = 2 the draws can hold at most 10 000 samples, fewer than
    the 10 001 asked for: one warning line on stderr, and stdout, the exit
    code and the payload as without it."""
    argv = ["garden", "-a", "1", "-b", "1", "-c", "1", "-d", "1", "-n", "1", "-p", "2"]
    code, out, err = run(capsys, *argv, "--samples", "10001")
    found = len(json.loads(out)["sample_garden_configs"])
    assert code == 0 and 0 < found < 10001
    assert err == f"warning: found {found} of 10001 samples after 10000 draws\n"
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert run(capsys, *argv, "--samples", "2")[2] == ""


@pytest.mark.parametrize("n,sparse", [(10, []), (12, ["--sparse"])])
def test_matrix_is_written_block_by_block(tmp_path, capsys, monkeypatch, n, sparse):
    """matrix writes its header and then blocks of whole rows as they are made:
    tracemalloc peaks far below the 18.8 MB of dense text at n = 10, and --out
    and stdout get the bytes of format_matrix. A COO block holds 4096 rows."""
    import tracemalloc

    from treeca.rulematrix import build_rule_matrix, format_matrix

    argv = ["matrix", "-a", "2", "-b", "3", "-c", "5", "-d", "16", "-n", str(n), "-p", "17", *sparse]
    m = build_rule_matrix(TreeShape(n), Params(a=2, b=3, c=5, d=16, field=PrimeField(17)))
    want = format_matrix(m, sparse=bool(sparse))
    out = tmp_path / "matrix.txt"
    tracemalloc.start()
    try:
        got = run_exit(capsys, monkeypatch, [*argv, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (0, "", "") and peak < 8_000_000
    same_file = out.read_text() == want  # a bool, not a diff of 18.8 MB on failure
    assert same_file
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(writelines=lambda parts: writes.extend(parts)))
    assert run_exit(capsys, monkeypatch, argv)[0] == 0
    same_stdout = "".join(writes) == want
    assert same_stdout and writes[0] == want[:want.index("\n") + 1]
    assert len(writes) > 3 and all(w.endswith("\n") for w in writes)


@pytest.mark.parametrize("sparse", [[], ["--sparse"]])
def test_matrix_past_memory_writes_nothing(tmp_path, capsys, monkeypatch, sparse):
    """The tables of |V_40| vertices cannot be made: the failure comes before
    --out is opened, so no file is left behind."""
    out = tmp_path / "matrix.txt"
    code, stdout, err = run_exit(capsys, monkeypatch,
                                 ["matrix", *COEFFS, "-n", "40", "-p", "3", "--out", str(out), *sparse])
    assert (code, stdout) == (3, "") and err.startswith("error out-of-memory: ")
    assert not out.exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a full device")
@pytest.mark.parametrize("argv", [["matrix", *COEFFS, "-n", "5", "-p", "3"],
                                  ["evolve", *COEFFS, "-n", "1", "-p", "3", "--steps", "3"]])
def test_a_failed_out_write_is_invalid_input(capsys, monkeypatch, argv):
    code, out, err = run_exit(capsys, monkeypatch, [*argv, "--out", "/dev/full"],
                              "treeca-config 1 1 3\n0 1 2 0\n")
    assert (code, out) == (3, "") and err.startswith("error invalid-input: [Errno 28]")


def _treeca_process(args, cwd):
    """A Python process with piped stdout and stderr that imports this treeca,
    its stdout block-buffered as in a shell pipeline (PYTHONUNBUFFERED unset)."""
    import os
    import subprocess

    import treeca

    src = str(Path(treeca.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=cwd, env=env)


@pytest.mark.parametrize("command", [["matrix", "-n", "11"],
                                     ["evolve", "-n", "10", "--steps", "300", "--input", "start.cfg"]])
def test_a_closed_pipe_ends_the_output(tmp_path, command):
    """A reader that takes 10 bytes and leaves ends the output: exit 0 and
    nothing on stderr, not a broken-pipe error or an ignored exception."""
    shape = TreeShape(10)
    values = np.random.default_rng(10).integers(0, 5, shape.total_vertices)
    (tmp_path / "start.cfg").write_text(format_config(Configuration(shape, 5, values)))
    proc = _treeca_process(["-m", "treeca.cli", *command, *COEFFS, "-p", "5"], tmp_path)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (0, b"")


def test_a_closed_pipe_leaves_nothing_for_the_final_flush(tmp_path):
    """Text still buffered when the pipe breaks goes nowhere at exit: without
    that, the interpreter's own flush fails again and prints an ignored
    BrokenPipeError (exit 120)."""
    script = ("import sys\n"
              "from treeca import cli, rulematrix\n"
              "def blocks(m, sparse=False):\n"
              "    yield 'treeca-matrix'\n"  # left in stdout's buffer
              "    raise BrokenPipeError(32, 'Broken pipe')\n"
              "rulematrix.matrix_blocks = blocks\n"
              f"sys.exit(cli.main(['matrix', *{COEFFS!r}, '-n', '1', '-p', '3']))\n")
    proc = _treeca_process(["-c", script], tmp_path)
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (0, b"")
