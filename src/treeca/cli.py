"""Command-line front end.

Every subcommand is a thin adapter over the library: its cmd_* function
takes the parsed flags, calls one library routine and returns the serialized
result, a str or an iterable of strings. main writes that text to stdout or
--out, the strings as they are made, and owns the exit codes, which are
stable: 0 success, 2 usage error, 3 domain error, 4 fixture mismatch.

main reuses one parser per process: build_parser is cached, so each
subcommand's cmd_* function is bound when the parser is first built. To
stub a subcommand, patch the library function it calls, not cmd_*.

main reads a well-formed argv, `<subcommand> (flag value | bare-flag)*` with
exact option strings, no value starting with "-", every type and choice good
and every required flag given, from the subcommand's flag table. Any other
argv (help, `--samp`, `--seed=4`, `-n2`, every usage error) goes to argparse.

At import this module loads argparse, the package and treeca.errors alone. Each
cmd_* reads the library as treeca.<module>, which the package imports on first
read, and imports json or pathlib itself, all after its usage checks. So no usage
error or help loads NumPy; det, matrix, evolve and garden load no treeca.analysis;
and the other five load no treeca.dynamics.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

import treeca

from .errors import DimensionMismatch, FixtureMismatch, FormatError, InvalidLevel, TreecaError

EXIT_OK = 0
EXIT_DOMAIN = 3
EXIT_FIXTURE = 4


def _params(args):
    return treeca.rulematrix.Params(a=args.a, b=args.b, c=args.c, d=args.d,
                                    field=treeca.field.PrimeField(args.p),
                                    allow_zero=args.allow_zero_coeffs)


def _matrix(args, indexed: bool = False):
    if indexed and args.n > 61:  # every vertex has an int64 index; refused before 2^n is formed
        raise InvalidLevel(f"level {args.n}: |V_n| = 3*2^n - 2 is past int64 indexing (n <= 61)")
    return treeca.rulematrix.build_rule_matrix(treeca.tree.TreeShape(args.n), _params(args))


def _add_param_flags(sub):
    for coeff in "abcd":
        sub.add_argument(f"-{coeff}", type=int, required=True)
    sub.add_argument("-n", type=int, required=True, help="tree level count")
    sub.add_argument("-p", type=int, required=True, help="prime modulus")
    sub.add_argument("--allow-zero-coeffs", action="store_true")


@functools.cache
def _flag_table(sub: argparse.ArgumentParser) -> tuple[dict, dict, set]:
    """sub's flag table, read from argparse's registry: (each option string's Action,
    what argparse sets for each flag not given, set_defaults values included, and
    the dests that must be given). -h/--help stay argparse's alone."""
    acts = [a for a in sub._actions if a.default is not argparse.SUPPRESS]
    # a string default goes through type, as argparse sends it
    defaults = {a.dest: (a.type or str)(a.default) if isinstance(a.default, str) else a.default
                for a in acts if not a.required}
    return ({s: a for a in acts for s in a.option_strings}, {**sub._defaults, **defaults},
            {a.dest for a in acts if a.required})


def _from_table(subcommands, argv) -> argparse.Namespace | None:
    """The Namespace argparse would return for argv, read from argv[0]'s flag
    table, or None unless argv is well-formed (see the module docstring)."""
    sub = subcommands.get(argv[0]) if argv else None
    if sub is None:
        return None
    options, defaults, required = _flag_table(sub)
    ns, tokens = dict(defaults, command=argv[0]), iter(argv[1:])
    for flag in tokens:
        act = options.get(flag)
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
    return argparse.Namespace(**ns) if required <= ns.keys() else None


def _subcommand(sp, name: str, func, summary: str, formats: tuple[str, ...] = ()):
    """A subparser with --out, --format over formats (the first is the
    default), and usage_error, its own argparse error."""
    sub = sp.add_parser(name, help=summary)
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0])
    sub.set_defaults(func=func, usage_error=sub.error)  # exits 2 with this subcommand's usage line
    return sub


def _at_least(args, low: int, *dests: str) -> None:
    """A usage error (exit 2) for the first of these flags given a value below low."""
    for dest in dests:
        if getattr(args, dest) < low:
            flag = dest.replace("_", "-")
            args.usage_error(f"--{flag} must be >= {low}, got {getattr(args, dest)}")


def cmd_matrix(args):
    return treeca.rulematrix.matrix_blocks(_matrix(args, indexed=True), sparse=args.sparse)


def cmd_det(args):
    return f"{treeca.rulematrix.linalg_report(_matrix(args)).det}\n"


def cmd_classify(args):
    analysis = treeca.analysis
    rec = analysis.classify(args.a, args.b, args.c, args.d, args.n, args.p,
                            allow_zero=args.allow_zero_coeffs)
    if args.format == "json":
        return analysis.records_to_json([rec]) + "\n"
    if args.format == "csv":
        return analysis.records_to_csv([rec])
    return (f"a={rec.a} b={rec.b} c={rec.c} d={rec.d} n={rec.n} p={rec.p} "
            f"det={rec.det} rank={rec.rank} verdict={rec.verdict}\n")


def cmd_evolve(args):
    _at_least(args, 0, "steps")
    from pathlib import Path

    dynamics = treeca.dynamics
    cfg = dynamics.parse_config(Path(args.input).read_text() if args.input else sys.stdin.read())
    if cfg.shape.n != args.n or cfg.p != args.p:
        raise DimensionMismatch(
            f"input configuration (n={cfg.shape.n}, p={cfg.p}) does not match "
            f"flags (n={args.n}, p={args.p})"
        )
    params = _params(args)
    if args.format == "text":  # the last configuration only, so no trace is kept
        return dynamics.format_config(dynamics.evolve_last(cfg, params, args.steps))
    # the trace's text is written block by block, as its states are stepped
    return itertools.chain(dynamics.evolve_blocks(cfg, params, args.steps), ["\n"])


def cmd_garden(args):
    _at_least(args, 0, "samples", "seed")
    import json

    rep = treeca.dynamics.garden_report(_matrix(args, indexed=True), samples=args.samples,
                                        seed=args.seed)
    head = json.dumps({"order": rep.order, "rank": rep.rank, "p": rep.p,
                       "image_size": rep.image_size, "garden_count": rep.garden_count,
                       "seed": args.seed}, indent=2)
    # the samples as json.dumps(indent=2) lays them out, with no pure-Python encoder per cell
    rows = ",\n    ".join("[\n      " + ",\n      ".join(map(str, c.values.tolist())) + "\n    ]"
                          for c in rep.sample_garden_configs)
    samples = f"[\n    {rows}\n  ]" if rows else "[]"
    if rep.garden_count and len(rep.sample_garden_configs) < args.samples:
        sys.stderr.write(f"warning: found {len(rep.sample_garden_configs)} of {args.samples} "
                         f"samples after {treeca.dynamics.GARDEN_DRAWS} draws\n")
    return f'{head[:-2]},\n  "sample_garden_configs": {samples}\n}}\n'


def cmd_entropy(args):
    _at_least(args, 1, "max_n")
    import json

    seq = treeca.analysis.entropy_sequence(args.p, args.max_n)
    if args.format == "csv":
        return treeca.analysis.entropy_csv(seq)
    terms = [{"n": n, "H_n": h, "H_n_over_n": hn} for n, h, hn in seq.terms]
    return json.dumps({"p": seq.p, "terms": terms}, indent=2) + "\n"


def cmd_probe(args):
    _at_least(args, 1, "steps")
    probe = treeca.analysis.partition_atom_count(_params(args), steps=args.steps,
                                                 truncation=treeca.tree.TreeShape(args.n),
                                                 mode=args.mode)
    return (f"steps={probe.steps} truncation_level={probe.truncation_level} p={probe.p} "
            f"mode={probe.mode}\n"
            f"observed_atom_count={probe.atom_count}\n"
            f"claimed_atom_count={probe.claimed_atom_count}\n")


def _parse_int_list(args, dest: str) -> tuple[int, ...]:
    """dest's comma-separated integers: an item that int() refuses is a usage error, as a
    bad -n is, and one past int64 is a FormatError. Read with no NumPy loaded."""
    flag = "--" + dest.replace("_", "-")
    tokens = [t for t in getattr(args, dest).split(",") if t.strip()]
    try:  # a token past 20 characters (19 digits and a sign) is past int64, unread by int()
        values = [int(t) if len(t) <= 20 else 1 << 63 for t in tokens]
    except ValueError as exc:  # int()'s own message, naming the item
        args.usage_error(f"argument {flag}: {exc}")
    if not all(-(1 << 63) <= v < 1 << 63 for v in values):
        raise FormatError(f"{flag} holds a number outside int64")
    return tuple(values)


def cmd_sweep(args):
    _at_least(args, 0, "random", "seed")
    if args.random and any(getattr(args, f"{k}_values") for k in "abcd"):
        args.usage_error("--random draws (a, b, c, d) itself: it takes no --a-values .. --d-values")
    lists = {f"{k}_values": _parse_int_list(args, f"{k}_values") for k in "abcdnp"}
    import json

    analysis = treeca.analysis
    columns = analysis.sweep(analysis.SweepSpec(**lists, random_count=args.random, seed=args.seed))
    if args.format == "json":  # json.dumps({"seed": .., "records": [..]}, indent=2), in blocks
        seed = json.dumps(args.seed if args.random else None)
        return itertools.chain([f'{{\n  "seed": {seed},\n  "records": '],
                               analysis.json_blocks(columns, "  "), ["\n}\n"])
    return itertools.chain([f"# seed={args.seed}\n"] if args.random else [],
                           analysis.csv_blocks(columns))


def fixture_path():
    import importlib.resources

    return importlib.resources.files("treeca") / "data" / "table1.csv"  # a Path in a directory


def cmd_table1(args):
    from pathlib import Path

    path = Path(args.fixture) if args.fixture else fixture_path()
    return treeca.analysis.csv_blocks(treeca.analysis.table1_check(path.read_text()))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="treeca",
                                 description="Linear CA on the order-2 Cayley tree over Z_p")
    sp = ap.add_subparsers(dest="command", required=True)
    ap.subcommands = sp.choices  # name -> subparser

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
        text = args.func(args)
        parts = [text] if isinstance(text, str) else text  # an iterable's strings, as they are made
        if args.out:
            with open(args.out, "w") as f:
                f.writelines(parts)
        else:
            sys.stdout.writelines(parts)
        return EXIT_OK
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
    # a size past the address range (a bytearray or 3 << n at n = 10^20) is an OverflowError
    except (MemoryError, OverflowError) as exc:  # NumPy names the allocation; Python's own is bare
        sys.stderr.write(f"error out-of-memory: {str(exc) or 'not enough memory'}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
