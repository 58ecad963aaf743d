import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeca import cli
from treeca.cli import build_parser, fixture_path, main
from treeca.dynamics import Configuration, evolve, format_config, step_local
from treeca.field import PrimeField
from treeca.rulematrix import Params, build_rule_matrix, linalg_report
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


def _argparse_reads(argv):
    """(Namespace, unread) from argparse's own parse of argv, or None where it
    prints help or a usage error and exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return build_parser().parse_known_args(argv)
    except SystemExit:
        return None


JUNK = st.sampled_from(["", "-", "--", "-4", "-1", "x", "1.5", " 3", "1_0", "0x10", "-n",
                        "--out", "json", "root", "1,2"]) | st.text(max_size=3)


@st.composite
def spelled_argv(draw):
    """A subcommand and its flags, each written exactly with a good value or, at
    a drawn rate, dropped, abbreviated, written as --x=v or -n2, left without
    its value or given an int, negative, empty, "--" or junk one; at a nonzero
    rate, -h, --help, "--" or an unknown token may join them."""
    subs = build_parser().subcommands
    name = draw(st.sampled_from([*subs, "-h", "bogus"]))
    noise = draw(st.integers(0, 3))  # the chance in 10 that a flag is not written well
    argv = [name]
    for flag in draw(st.permutations(sorted(subs[name].options) if name in subs else [])):
        act = subs[name].options[flag]
        good = (st.sampled_from(sorted(act.choices)) if act.choices else
                st.integers(0, 40).map(str) if act.type else st.sampled_from(["2", "1,2", "x"]))
        form = "exact"
        if draw(st.integers(0, 9)) < noise:
            form = draw(st.sampled_from(["drop", "junk", "abbrev", "eq", "joined", "bare"]))
        value = draw(JUNK if form == "junk" else good)
        if form == "abbrev" and flag.startswith("--"):
            flag = flag[:draw(st.integers(3, len(flag) - 1))]
        if form == "drop":
            continue
        if form == "eq" or form == "joined" and flag.startswith("--"):
            argv.append(f"{flag}={value}")
        elif form == "joined":
            argv.append(flag + value)
        else:
            argv += [flag] if form == "bare" or act.nargs == 0 else [flag, value]
    for token in draw(st.lists(st.sampled_from(["-h", "--help", "--", "--bogus", "junk"]),
                               max_size=1 if noise else 0)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=400, deadline=None)
@given(spelled_argv())
@example(["table1", "--out", "--"])  # a value argparse refuses, though its table is good
@example(["table1", "--fixture", "--out"])
@example(["probe", *COEFFS, "-n", "1", "-p", "3", "--mode", "json"])  # a value past its choices
@example(["classify", "-a", "1", "-b", "1", "-c", "1", "-n", "1", "-p", "3"])  # -d missing
def test_table_route_reads_as_argparse_or_not_at_all(argv):
    """cli._from_table returns None, or the Namespace argparse returns for argv
    with nothing unread, so main answers every argv as argparse alone would."""
    got = cli._from_table(build_parser().subcommands, argv)
    if got is not None:
        want = _argparse_reads(argv)
        assert want is not None and want[1] == [] and vars(got) == vars(want[0])


def test_canonical_spellings_take_the_table_route():
    """Each VALID invocation, alone and with each of its subcommand's flags added
    in its own spelling with a good value, is read from the table, as argparse
    reads it."""
    subs = build_parser().subcommands
    for command, (argv, _) in VALID.items():
        for flag, act in [(None, None), *subs[command].options.items()]:
            value = [] if act is None or act.nargs == 0 else [
                sorted(act.choices)[0] if act.choices else "1"]
            full = [*argv, *([flag] if flag else []), *value]
            got = cli._from_table(subs, full)
            assert got is not None and got == _argparse_reads(full)[0], full


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


def test_evolve_json_keeps_no_trace(capsys, monkeypatch):
    """The JSON route steps and writes one block of rows at a time: its peak
    allocation stays far below the (t+1) x |V_n| trace (2001 x 190 x 8 bytes = 3 MB)
    and its text (about 2.1 MB here), and the bytes are json.dumps of the trace."""
    import tracemalloc

    shape, p = TreeShape(6), 2**31 - 1
    pr = Params(a=2, b=3, c=5, d=7, field=PrimeField(p))
    cfg = Configuration(shape, p, np.random.default_rng(6).integers(0, p, shape.total_vertices))
    argv = ["evolve", "-a", "2", "-b", "3", "-c", "5", "-d", "7", "-n", "6", "-p", str(p),
            "--steps", "2000"]
    digest, size = hashlib.sha256(), [0]

    def writelines(parts):  # keeps no text: a digest and a byte count
        for part in parts:
            digest.update(part.encode())
            size[0] += len(part)

    monkeypatch.setattr(sys, "stdout", SimpleNamespace(writelines=writelines))
    tracemalloc.start()
    try:
        code = run_exit(capsys, monkeypatch, argv, format_config(cfg))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = (json.dumps(evolve(cfg, pr, 2000).values.tolist()) + "\n").encode()
    assert code == 0 and (digest.hexdigest(), size[0]) == (hashlib.sha256(want).hexdigest(),
                                                           len(want))
    assert peak < 2_000_000  # one block's text and slots, about 1.2 MB


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

    monkeypatch.setattr(dynamics, "evolve_blocks", exhausted)  # what evolve --format json calls
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


@pytest.mark.parametrize("flags,message", [
    (["-p", "3", "--steps", "-1"], "invalid-input: step count must be >= 0, got -1\n"),
    (["-p", "5", "--steps", "2"],
     "dimension-mismatch: input configuration (n=1, p=3) does not match flags (n=1, p=5)\n"),
], ids=["negative-steps", "modulus-mismatch"])
def test_evolve_refusal_writes_nothing(tmp_path, capsys, monkeypatch, flags, message):
    """A negative step count and a modulus mismatch are refused, each with its
    error code, before --out is opened: nothing is written and no file is left."""
    out = tmp_path / "trace.json"
    argv = ["evolve", *COEFFS, "-n", "1", *flags, "--out", str(out)]
    code, stdout, err = run_exit(capsys, monkeypatch, argv, "treeca-config 1 1 3\n0 1 2 0\n")
    assert (code, stdout) == (3, "") and err.startswith("error ") and err.endswith(message)
    assert not out.exists()


def test_a_closed_stdout_stops_the_stepping(tmp_path, capsys, monkeypatch):
    """evolve steps only the states it writes: a reader that leaves after the first
    block of the trace ends a 10^9-step evolve at once, with exit 0, after at most
    one block of steps."""
    import os
    import time

    from treeca import dynamics

    steps, rule = [], dynamics._local_rule
    rows = dynamics._trace_rows(TreeShape(1).total_vertices)

    def counted(*args):
        step = rule(*args)

        def counting(v, out):
            steps.append(1)
            if len(steps) > rows:  # fails fast where the whole trace would be stepped first
                raise AssertionError("stepped past the first block")
            return step(v, out)
        return counting

    writes = []

    def writelines(parts):
        for part in parts:
            writes.append(part)
            if len(writes) == 2:  # "[[" and the first block of rows
                raise BrokenPipeError(32, "Broken pipe")

    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)  # main points it at devnull
    try:
        monkeypatch.setattr(dynamics, "_local_rule", counted)
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(writelines=writelines, fileno=lambda: fd))
        argv = ["evolve", *COEFFS, "-n", "1", "-p", "3", "--steps", str(10**9)]
        start = time.perf_counter()
        code = run_exit(capsys, monkeypatch, argv, "treeca-config 1 1 3\n0 1 2 0\n")[0]
        elapsed = time.perf_counter() - start
    finally:
        os.close(fd)
    assert code == 0 and len(writes) == 2 and writes[1].startswith("0, 1, 2, 0], [")
    assert len(steps) <= rows and elapsed < 5


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


@pytest.mark.parametrize("n", [59, 61])
def test_matrix_past_the_address_range_is_out_of_memory(tmp_path, capsys, monkeypatch, n):
    """From n = 59 the tables' 3*2^n int64 values pass what NumPy can address: that is
    out-of-memory too, as at n = 58, not NumPy's "array is too big" ValueError."""
    out = tmp_path / "matrix.txt"
    code, stdout, err = run_exit(capsys, monkeypatch,
                                 ["matrix", *COEFFS, "-n", str(n), "-p", "5", "--out", str(out)])
    assert (code, stdout) == (3, "")
    assert err.startswith(f"error out-of-memory: Unable to allocate the level-{n} neighbour tables")
    assert not out.exists()


@pytest.mark.parametrize("command", ["matrix", "garden"])
def test_a_level_past_int64_indexing_is_refused(capsys, monkeypatch, command):
    """matrix and garden index every vertex in int64, so level 62 (|V_62| >= 2^63)
    is refused before any table is made; det answers there."""
    code, out, err = run_exit(capsys, monkeypatch, [command, *COEFFS, "-n", "62", "-p", "3"])
    assert (code, out) == (3, "")
    assert err == ("error invalid-level: level 62: |V_n| = 3*2^n - 2 is past int64 indexing"
                   " (n <= 61)\n")
    assert run_exit(capsys, monkeypatch, ["det", *COEFFS, "-n", "62", "-p", "3"])[:2] == (0, "0\n")


@pytest.mark.parametrize("command", ["matrix", "garden"])
def test_a_level_of_21_digits_is_refused_at_once(tmp_path, command):
    """At n = 10^20 the refusal comes before TreeShape(n) forms 2^n, which would
    not finish: exit 3 within 10 s, in a process of its own."""
    proc = _treeca_process(["-m", "treeca.cli", command, *COEFFS, "-n", str(10**20), "-p", "5"],
                           tmp_path)
    try:
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    assert (proc.returncode, out) == (3, b"") and err.startswith(b"error invalid-level: ")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a full device")
@pytest.mark.parametrize("argv", [["matrix", *COEFFS, "-n", "5", "-p", "3"],
                                  ["evolve", *COEFFS, "-n", "1", "-p", "3", "--steps", "3"]])
def test_a_failed_out_write_is_invalid_input(capsys, monkeypatch, argv):
    code, out, err = run_exit(capsys, monkeypatch, [*argv, "--out", "/dev/full"],
                              "treeca-config 1 1 3\n0 1 2 0\n")
    assert (code, out) == (3, "") and err.startswith("error invalid-input: [Errno 28]")


def _treeca_process(args, cwd, **environ):
    """A Python process with piped stdout and stderr that imports this treeca,
    its stdout block-buffered as in a shell pipeline (PYTHONUNBUFFERED unset),
    with the environment variables environ added."""
    import os
    import subprocess

    import treeca

    src = str(Path(treeca.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env.update(environ)
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


DIGIT_LIMIT = pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                                reason="no int-to-str digit limit in this run")


@DIGIT_LIMIT
@pytest.mark.parametrize("n,p", [(8, 2**31 - 1), (12, 3)])
def test_garden_past_the_print_limit_is_refused_as_str_refuses_it(capsys, n, p):
    """p^(|V_n|-1) past 2^(4 limit) is refused before it is formed (n = 8), with
    the line that str() gives where the screen lets a count through (n = 12)."""
    with pytest.raises(ValueError) as exc:
        str(10 ** sys.get_int_max_str_digits())
    argv = ["garden", *COEFFS, "-n", str(n), "-p", str(p), "--samples", "2"]
    assert run(capsys, *argv) == (3, "", f"error invalid-input: {exc.value}\n")


@DIGIT_LIMIT
def test_garden_refuses_an_unprintable_count_at_once(tmp_path):
    """garden -n 40 (|V_40| = 3.3e12) exits 3 at once, where forming p^|V_n|
    used to hang."""
    proc = _treeca_process(["-m", "treeca.cli", "garden", "-n", "40", "-p", "5", *COEFFS,
                            "--samples", "2"], tmp_path)
    try:
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    assert (proc.returncode, out) == (3, b"")
    assert err.startswith(b"error invalid-input: Exceeds the limit (")


def _answer(args, tmp_path, **environ):
    """(exit code, stdout, stderr) of a treeca process that must end within 10 s."""
    proc = _treeca_process(args, tmp_path, **environ)
    try:
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    return proc.returncode, out.decode(), err.decode()


@pytest.mark.parametrize("argv,line", [
    (["garden", *COEFFS, "-n", "24", "-p", "5"],
     "error invalid-input: Exceeds the limit (100000 digits) for integer string conversion; "
     "use sys.set_int_max_str_digits() to increase the limit\n"),
    (["probe", *COEFFS, "-n", "1", "-p", "2", "--steps", "24"],
     "error invalid-input: claimed count p^|V_steps| exceeds 100000 digits at steps=24, p=2\n"),
])
def test_with_no_digit_limit_a_count_past_the_budget_is_refused_at_once(tmp_path, argv, line):
    """PYTHONINTMAXSTRDIGITS=0 lifts Python's limit but not treeca's budget of 100 000
    digits: 5^|V_24| and 2^|V_24| are refused at once, where str() ran past any timeout."""
    assert _answer(["-m", "treeca.cli", *argv], tmp_path, PYTHONINTMAXSTRDIGITS="0") == (3, "", line)


def test_with_no_digit_limit_a_count_within_the_budget_prints(tmp_path):
    """garden -n 12 -p 3 prints its 5862-digit counts, as json.dumps writes them."""
    argv = ["garden", *COEFFS, "-n", "12", "-p", "3"]
    rank = linalg_report(build_rule_matrix(TreeShape(12), Params(1, 1, 1, 1, PrimeField(3)))).rank
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = json.dumps({"order": 12286, "rank": rank, "p": 3, "image_size": 3**rank,
                           "garden_count": 3**12286 - 3**rank, "seed": 0,
                           "sample_garden_configs": []}, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(saved)
    assert _answer(["-m", "treeca.cli", *argv], tmp_path, PYTHONINTMAXSTRDIGITS="0") == (0, want, "")


def test_with_no_digit_limit_an_enumeration_count_is_not_formed(tmp_path):
    """3^|V_26| configurations exceed the cap with no 3^|V_26| formed or printed."""
    script = ("import sys; sys.set_int_max_str_digits(0)\n"
              "from treeca.dynamics import _check_enumeration\n"
              "from treeca.tree import ball_size\n"
              "_check_enumeration(ball_size(26), 3, 2)\n")
    code, out, err = _answer(["-c", script], tmp_path)
    assert (code, out) == (1, "")
    assert err.endswith("EnumerationTooLarge: 3^201326590 configurations exceed cap 2\n")
