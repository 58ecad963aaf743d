import argparse
import io
import json
import sys

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
