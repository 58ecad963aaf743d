"""Command-line front end.

Every subcommand is a thin adapter over the library: it parses flags,
calls one library routine, serializes the result, and exits. Exit codes
are stable: 0 success, 2 usage error, 3 domain error, 4 fixture mismatch.

main reuses one parser per process: build_parser is cached, so each
subcommand's cmd_* function is bound when the parser is first built. To
stub a subcommand, patch the library function it calls, not cmd_*.

main reads a well-formed argv, `<subcommand> (flag value | bare-flag)*` with
exact option strings, no value starting with "-", every type and choice good
and every required flag given, from the subcommand's flag table. Any other
argv (help, `--samp`, `--seed=4`, `-n2`, every usage error) goes to argparse.
"""
from __future__ import annotations

import argparse
import functools
import importlib.resources
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from . import analysis, dynamics, rulematrix
from .errors import DimensionMismatch, FixtureMismatch, InvalidLevel, TreecaError
from .field import PrimeField
from .rulematrix import Params, build_rule_matrix
from .tree import TreeShape

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_FIXTURE = 4


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or an iterable's strings as they are made, to file out or stdout."""
    parts = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w") as f:
            f.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _params(args) -> Params:
    field = PrimeField(args.p)
    return Params(a=args.a, b=args.b, c=args.c, d=args.d, field=field,
                  allow_zero=args.allow_zero_coeffs)


def _matrix(args, indexed: bool = False) -> rulematrix.RuleMatrix:
    if indexed and args.n > 61:  # every vertex has an int64 index; refused before 2^n is formed
        raise InvalidLevel(f"level {args.n}: |V_n| = 3*2^n - 2 is past int64 indexing (n <= 61)")
    return build_rule_matrix(TreeShape(args.n), _params(args))


def _add_param_flags(sub):
    for coeff in "abcd":
        sub.add_argument(f"-{coeff}", type=int, required=True)
    sub.add_argument("-n", type=int, required=True, help="tree level count")
    sub.add_argument("-p", type=int, required=True, help="prime modulus")
    sub.add_argument("--allow-zero-coeffs", action="store_true")


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser with the flag table main reads well-formed argv
    from: each option string's Action, what argparse sets for each flag not
    given (set_defaults values included), and the dests that must be given."""

    def __init__(self, **kwargs):
        self.options, self.defaults, self.required = {}, {}, set()
        super().__init__(**kwargs)

    def add_argument(self, *args, **kwargs):
        act = super().add_argument(*args, **kwargs)
        if act.default is argparse.SUPPRESS:  # -h/--help stay argparse's alone
            return act
        self.options.update(dict.fromkeys(act.option_strings, act))
        if act.required:
            self.required.add(act.dest)
        else:  # a string default goes through type, as argparse sends it
            convert = isinstance(act.default, str)
            self.defaults[act.dest] = (act.type or str)(act.default) if convert else act.default
        return act

    def set_defaults(self, **kwargs):
        super().set_defaults(**kwargs)
        self.defaults.update(kwargs)


def _from_table(subcommands, argv) -> argparse.Namespace | None:
    """The Namespace argparse would return for argv, read from argv[0]'s flag
    table, or None unless argv is well-formed (see the module docstring)."""
    sub = subcommands.get(argv[0]) if argv else None
    if sub is None:
        return None
    ns, tokens = dict(sub.defaults, command=argv[0]), iter(argv[1:])
    for flag in tokens:
        act = sub.options.get(flag)
        if act is not None and act.nargs == 0:  # store_true
            ns[act.dest] = act.const
            continue
        value = next(tokens, "-")  # a missing value is left to argparse, as a dash is
        if act is None or value.startswith("-"):
            return None
        try:
            ns[act.dest] = value = (act.type or str)(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if act.choices is not None and value not in act.choices:
            return None
    return argparse.Namespace(**ns) if sub.required <= ns.keys() else None


def _subcommand(sp, name: str, func, summary: str, formats: tuple[str, ...] = ()):
    """A subparser with --out, --format over formats (the first is the
    default), and usage_error, its own argparse error."""
    sub = sp.add_parser(name, help=summary)
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0])
    sub.set_defaults(func=func, usage_error=sub.error)  # exits 2 with this subcommand's usage line
    return sub


def cmd_matrix(args) -> int:
    _emit(rulematrix.matrix_blocks(_matrix(args, indexed=True), sparse=args.sparse), args.out)
    return EXIT_OK


def cmd_det(args) -> int:
    _emit(f"{rulematrix.linalg_report(_matrix(args)).det}\n", args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    rec = analysis.classify(args.a, args.b, args.c, args.d, args.n, args.p,
                            allow_zero=args.allow_zero_coeffs)
    if args.format == "json":
        text = analysis.records_to_json([rec]) + "\n"
    elif args.format == "csv":
        text = analysis.records_to_csv([rec])
    else:
        text = (
            f"a={rec.a} b={rec.b} c={rec.c} d={rec.d} n={rec.n} p={rec.p} "
            f"det={rec.det} rank={rec.rank} verdict={rec.verdict}\n"
        )
    _emit(text, args.out)
    return EXIT_OK


def cmd_evolve(args) -> int:
    cfg = dynamics.parse_config(Path(args.input).read_text() if args.input else sys.stdin.read())
    if cfg.shape.n != args.n or cfg.p != args.p:
        raise DimensionMismatch(
            f"input configuration (n={cfg.shape.n}, p={cfg.p}) does not match "
            f"flags (n={args.n}, p={args.p})"
        )
    params = _params(args)
    if args.format == "text":  # the last configuration only, so no trace is kept
        _emit(dynamics.format_config(dynamics.evolve_last(cfg, params, args.steps)), args.out)
    else:  # the trace's text is written block by block, as its states are stepped
        _emit(itertools.chain(dynamics.evolve_blocks(cfg, params, args.steps), ["\n"]), args.out)
    return EXIT_OK


def cmd_garden(args) -> int:
    rep = dynamics.garden_report(_matrix(args, indexed=True), samples=args.samples, seed=args.seed)
    head = json.dumps({"order": rep.order, "rank": rep.rank, "p": rep.p,
                       "image_size": rep.image_size, "garden_count": rep.garden_count,
                       "seed": args.seed}, indent=2)
    # the samples as json.dumps(indent=2) lays them out, with no pure-Python encoder per cell
    rows = ",\n    ".join("[\n      " + ",\n      ".join(map(str, c.values.tolist())) + "\n    ]"
                          for c in rep.sample_garden_configs)
    samples = f"[\n    {rows}\n  ]" if rows else "[]"
    _emit(f'{head[:-2]},\n  "sample_garden_configs": {samples}\n}}\n', args.out)
    if rep.garden_count and len(rep.sample_garden_configs) < args.samples:
        sys.stderr.write(f"warning: found {len(rep.sample_garden_configs)} of {args.samples} "
                         f"samples after {dynamics.GARDEN_DRAWS} draws\n")
    return EXIT_OK


def cmd_entropy(args) -> int:
    seq = analysis.entropy_sequence(args.p, args.max_n)
    if args.format == "json":
        text = json.dumps(
            {"p": seq.p, "terms": [{"n": n, "H_n": h, "H_n_over_n": hn} for n, h, hn in seq.terms]},
            indent=2,
        ) + "\n"
    else:
        text = analysis.entropy_csv(seq)
    _emit(text, args.out)
    return EXIT_OK


def cmd_probe(args) -> int:
    probe = analysis.partition_atom_count(_params(args), steps=args.steps,
                                          truncation=TreeShape(args.n), mode=args.mode)
    text = (
        f"steps={probe.steps} truncation_level={probe.truncation_level} p={probe.p} "
        f"mode={probe.mode}\n"
        f"observed_atom_count={probe.atom_count}\n"
        f"claimed_atom_count={probe.claimed_atom_count}\n"
    )
    _emit(text, args.out)
    return EXIT_OK


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    return tuple(rulematrix._int64s([t for t in text.split(",") if t.strip()],
                                    f"{flag} holds a number outside int64").tolist())


def cmd_sweep(args) -> int:
    if args.random < 0:
        args.usage_error(f"--random must be >= 0, got {args.random}")
    if args.random and any(getattr(args, f"{k}_values") for k in "abcd"):
        args.usage_error("--random draws (a, b, c, d) itself: it takes no --a-values .. --d-values")
    lists = {f"{k}_values": _parse_int_list(getattr(args, f"{k}_values"), f"--{k}-values")
             for k in "abcdnp"}
    columns = analysis.sweep(analysis.SweepSpec(**lists, random_count=args.random, seed=args.seed))
    if args.format == "json":  # json.dumps({"seed": .., "records": [..]}, indent=2), in blocks
        seed = json.dumps(args.seed if args.random else None)
        blocks = itertools.chain([f'{{\n  "seed": {seed},\n  "records": '],
                                 analysis.json_blocks(columns, "  "), ["\n}\n"])
    else:
        blocks = itertools.chain([f"# seed={args.seed}\n"] if args.random else [],
                                 analysis.csv_blocks(columns))
    _emit(blocks, args.out)
    return EXIT_OK


def fixture_path() -> Path:
    return Path(importlib.resources.files("treeca") / "data" / "table1.csv")


def cmd_table1(args) -> int:
    path = Path(args.fixture) if args.fixture else fixture_path()
    _emit(analysis.csv_blocks(analysis.table1_check(path.read_text())), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="treeca",
                                 description="Linear CA on the order-2 Cayley tree over Z_p")
    sp = ap.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    ap.subcommands = sp.choices  # name -> _Subcommand, each with its flag table

    m = _subcommand(sp, "matrix", cmd_matrix, "print the rule matrix")
    _add_param_flags(m)
    m.add_argument("--sparse", action="store_true", help="COO triples instead of dense rows")

    _add_param_flags(_subcommand(sp, "det", cmd_det, "determinant of the rule matrix mod p"))

    _add_param_flags(_subcommand(sp, "classify", cmd_classify,
                                 "reversibility verdict for one parameter tuple",
                                 ("text", "csv", "json")))

    e = _subcommand(sp, "evolve", cmd_evolve, "evolve a configuration file", ("json", "text"))
    _add_param_flags(e)
    e.add_argument("--steps", type=int, default=1)
    e.add_argument("--input", default=None, help="treeca-config file (default: stdin)")

    g = _subcommand(sp, "garden", cmd_garden, "Garden-of-Eden census")
    _add_param_flags(g)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--samples", type=int, default=0)

    en = _subcommand(sp, "entropy", cmd_entropy, "entropy growth sequence H_n, H_n/n",
                     ("csv", "json"))
    en.add_argument("-p", type=int, required=True)
    en.add_argument("--max-n", type=int, required=True)

    pr = _subcommand(sp, "probe", cmd_probe,
                     "partition refinement atom count (observability rank)")
    _add_param_flags(pr)
    pr.add_argument("--steps", type=int, default=1)
    pr.add_argument("--mode", choices=["root", "ball"], default="root")

    sw = _subcommand(sp, "sweep", cmd_sweep, "reversibility sweep over parameter ranges",
                     ("csv", "json"))
    for coeff in "abcd":
        sw.add_argument(f"--{coeff}-values", default="")
    sw.add_argument("--n-values", default="2")
    sw.add_argument("--p-values", required=True)
    sw.add_argument("--random", type=int, default=0,
                    help="sample this many tuples per (p, n) instead of a cartesian sweep")
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--threads", type=int, default=1)  # accepted and ignored

    t1 = _subcommand(sp, "table1", cmd_table1,
                     "regenerate the reversibility table and diff the fixture")
    t1.add_argument("--fixture", default=None, help="alternate fixture path")

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = _from_table(parser.subcommands, sys.argv[1:] if argv is None else argv)
    if args is None:
        args, unread = parser.parse_known_args(argv)
        if unread:  # argparse hands them back to the top-level parser, whose usage line lists all nine
            args.usage_error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.func(args)
    except FixtureMismatch as exc:
        sys.stderr.write(f"error {exc.code}: {exc}\n")
        for line in exc.diffs:
            sys.stderr.write(f"  {line}\n")
        return EXIT_FIXTURE
    except TreecaError as exc:
        sys.stderr.write(f"error {exc.code}: {exc}\n")
        return EXIT_DOMAIN
    except BrokenPipeError:  # the reader left: the end of output; the final flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error invalid-input: {exc}\n")
        return EXIT_DOMAIN
    except MemoryError as exc:  # NumPy names the allocation; Python's own is bare
        sys.stderr.write(f"error out-of-memory: {str(exc) or 'not enough memory'}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
