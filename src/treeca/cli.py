"""Command-line front end.

Every subcommand is a thin adapter over the library: it parses flags,
calls one library routine, serializes the result, and exits. Exit codes
are stable: 0 success, 2 usage error, 3 domain error, 4 fixture mismatch.
"""
from __future__ import annotations

import argparse
import importlib.resources
import json
import os
import sys
from pathlib import Path

from . import analysis, dynamics, rulematrix
from .dynamics import DEFAULT_ENUMERATION_CAP
from .errors import FixtureMismatch, TreecaError
from .field import PrimeField
from .rulematrix import Params, build_rule_matrix
from .tree import TreeShape

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_FIXTURE = 4


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _params(args) -> Params:
    field = PrimeField(args.p)
    return Params(a=args.a, b=args.b, c=args.c, d=args.d, field=field,
                  allow_zero=args.allow_zero_coeffs)


def _matrix(args) -> rulematrix.RuleMatrix:
    return build_rule_matrix(TreeShape(args.n), _params(args))


def _add_param_flags(sub, steps=False, seed=False):
    sub.add_argument("-a", type=int, required=True)
    sub.add_argument("-b", type=int, required=True)
    sub.add_argument("-c", type=int, required=True)
    sub.add_argument("-d", type=int, required=True)
    sub.add_argument("-n", type=int, required=True, help="tree level count")
    sub.add_argument("-p", type=int, required=True, help="prime modulus")
    if steps:
        sub.add_argument("--steps", type=int, default=1)
    if seed:
        sub.add_argument("--seed", type=int, default=0)


def _add_common(sub):
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=["csv", "json", "text"], default=None)
    sub.add_argument("--allow-zero-coeffs", action="store_true")
    sub.add_argument("--enumeration-cap", type=int, default=DEFAULT_ENUMERATION_CAP)


def cmd_matrix(args) -> int:
    m = _matrix(args)
    _emit(rulematrix.format_matrix(m, sparse=args.sparse), args.out)
    return EXIT_OK


def cmd_det(args) -> int:
    rep = rulematrix.linalg_report_for(TreeShape(args.n), _params(args))
    _emit(f"{rep.det}\n", args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    rec = analysis.classify(args.a, args.b, args.c, args.d, args.n, args.p,
                            allow_zero=args.allow_zero_coeffs)
    fmt = args.format or "text"
    if fmt == "json":
        text = analysis.records_to_json([rec]) + "\n"
    elif fmt == "csv":
        text = analysis.records_to_csv([rec])
    else:
        text = (
            f"a={rec.a} b={rec.b} c={rec.c} d={rec.d} n={rec.n} p={rec.p} "
            f"det={rec.det} rank={rec.rank} verdict={rec.verdict}\n"
        )
    _emit(text, args.out)
    return EXIT_OK


def cmd_evolve(args) -> int:
    if args.input:
        cfg = dynamics.parse_config(Path(args.input).read_text())
    else:
        cfg = dynamics.parse_config(sys.stdin.read())
    if cfg.shape.n != args.n or cfg.p != args.p:
        raise TreecaError(
            f"input configuration (n={cfg.shape.n}, p={cfg.p}) does not match "
            f"flags (n={args.n}, p={args.p})"
        )
    trace = dynamics.evolve(cfg, _params(args), args.steps)
    if (args.format or "json") == "text":
        text = dynamics.format_config(trace.configurations[-1])
    else:
        text = dynamics.trace_to_json(trace) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_garden(args) -> int:
    rep = dynamics.garden_report(_matrix(args), samples=args.samples, seed=args.seed)
    payload = {
        "order": rep.order,
        "rank": rep.rank,
        "p": rep.p,
        "image_size": rep.image_size,
        "garden_count": rep.garden_count,
        "seed": args.seed,
        "sample_garden_configs": [c.values.tolist() for c in rep.sample_garden_configs],
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
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
    probe = analysis.partition_atom_count(
        _params(args), steps=args.steps, truncation=TreeShape(args.n),
        mode=args.mode, cap=args.enumeration_cap,
    )
    text = (
        f"steps={probe.steps} truncation_level={probe.truncation_level} p={probe.p} "
        f"mode={probe.mode}\n"
        f"observed_atom_count={probe.atom_count}\n"
        f"claimed_atom_count={probe.claimed_atom_count}\n"
    )
    _emit(text, args.out)
    return EXIT_OK


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t.strip())


def cmd_sweep(args) -> int:
    if args.random:
        spec = analysis.SweepSpec(
            n_values=_parse_int_list(args.n_values),
            p_values=_parse_int_list(args.p_values),
            random_count=args.random,
            seed=args.seed,
        )
    else:
        spec = analysis.SweepSpec(
            a_values=_parse_int_list(args.a_values),
            b_values=_parse_int_list(args.b_values),
            c_values=_parse_int_list(args.c_values),
            d_values=_parse_int_list(args.d_values),
            n_values=_parse_int_list(args.n_values),
            p_values=_parse_int_list(args.p_values),
        )
    records = analysis.sweep(spec, threads=args.threads)
    if args.format == "json":
        text = json.dumps({"seed": args.seed if args.random else None,
                           "records": [r._asdict() for r in records]}, indent=2) + "\n"
    else:
        text = (f"# seed={args.seed}\n" if args.random else "") + analysis.records_to_csv(records)
    _emit(text, args.out)
    return EXIT_OK


def fixture_path() -> Path:
    return Path(importlib.resources.files("treeca") / "data" / "table1.csv")


def cmd_table1(args) -> int:
    path = Path(args.fixture) if args.fixture else fixture_path()
    records = analysis.table1_check(path.read_text())
    _emit(analysis.records_to_csv(records), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="treeca",
                                 description="Linear CA on the order-2 Cayley tree over Z_p")
    sp = ap.add_subparsers(dest="command", required=True)

    m = sp.add_parser("matrix", help="print the rule matrix")
    _add_param_flags(m)
    _add_common(m)
    m.add_argument("--sparse", action="store_true", help="COO triples instead of dense rows")
    m.set_defaults(func=cmd_matrix)

    d = sp.add_parser("det", help="determinant of the rule matrix mod p")
    _add_param_flags(d)
    _add_common(d)
    d.set_defaults(func=cmd_det)

    c = sp.add_parser("classify", help="reversibility verdict for one parameter tuple")
    _add_param_flags(c)
    _add_common(c)
    c.set_defaults(func=cmd_classify)

    e = sp.add_parser("evolve", help="evolve a configuration file")
    _add_param_flags(e, steps=True)
    _add_common(e)
    e.add_argument("--input", default=None, help="treeca-config file (default: stdin)")
    e.set_defaults(func=cmd_evolve)

    g = sp.add_parser("garden", help="Garden-of-Eden census")
    _add_param_flags(g, seed=True)
    _add_common(g)
    g.add_argument("--samples", type=int, default=0)
    g.set_defaults(func=cmd_garden)

    en = sp.add_parser("entropy", help="entropy growth sequence H_n, H_n/n")
    en.add_argument("-p", type=int, required=True)
    en.add_argument("--max-n", type=int, required=True)
    _add_common(en)
    en.set_defaults(func=cmd_entropy)

    pr = sp.add_parser("probe", help="partition refinement atom count (observability rank)")
    _add_param_flags(pr, steps=True)
    _add_common(pr)
    pr.add_argument("--mode", choices=["root", "ball"], default="root")
    pr.set_defaults(func=cmd_probe)

    sw = sp.add_parser("sweep", help="reversibility sweep over parameter ranges")
    sw.add_argument("--a-values", default="")
    sw.add_argument("--b-values", default="")
    sw.add_argument("--c-values", default="")
    sw.add_argument("--d-values", default="")
    sw.add_argument("--n-values", default="2")
    sw.add_argument("--p-values", required=True)
    sw.add_argument("--random", type=int, default=0,
                    help="sample this many tuples per (p, n) instead of a cartesian sweep")
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--threads", type=int,
                    default=int(os.environ.get("TREECA_THREADS", "1")))
    _add_common(sw)
    sw.set_defaults(func=cmd_sweep)

    t1 = sp.add_parser("table1", help="regenerate the reversibility table and diff the fixture")
    t1.add_argument("--fixture", default=None, help="alternate fixture path")
    _add_common(t1)
    t1.set_defaults(func=cmd_table1)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error invalid-input: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
