"""Seeded question sets for the three workloads.

A workload is a fixed list of questions made from the seed; the timed
loop asks the whole list again and again. The program sees only the
generated argv, stdin and arrays, never the seed itself.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks
from checks import order
from treeca import cli, dynamics
from treeca.field import PrimeField
from treeca.rulematrix import Params, build_rule_matrix
from treeca.tree import TreeShape

M31 = 2**31 - 1
PRIMES = (2, 17, 65521, M31)
SINGULAR_PRIMES = (17, 101, M31)
NPROC = len(os.sched_getaffinity(0))


@dataclass
class Question:
    """One timed call. run() returns (exit code, output, stderr text), the
    output being stdout text or, for preimages, the SolutionSet; check(output)
    returns failure strings."""

    key: str
    op: str
    n: int
    p: int
    run: Callable[[], tuple[int, str, str]]
    check: Callable[[str], list[str]]
    work: int = 1  # tuples for sweep, steps for evolve


@dataclass
class Workload:
    name: str
    questions: list[Question]
    warm_ns: tuple[int, ...]
    properties: dict[str, Any] = field(default_factory=dict)


def run_cli(argv: list[str], stdin: str | None = None) -> tuple[int, str, str]:
    """treeca.cli.main(argv) in-process with stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def _tuple(rng: random.Random, p: int) -> tuple[int, int, int, int]:
    return tuple(rng.randrange(1, p) for _ in range(4))


def _singular_tuple(rng: random.Random, p: int) -> tuple[int, int, int, int]:
    """c = d^2 / (a+b) mod p makes q_{n-1} = d^2 - (a+b)c vanish, so det = 0."""
    while True:
        a, b, d = (rng.randrange(1, p) for _ in range(3))
        if (a + b) % p:
            return a, b, d * d * pow(a + b, -1, p) % p, d


def _flags(a, b, c, d, n, p) -> list[str]:
    return ["-a", str(a), "-b", str(b), "-c", str(c), "-d", str(d), "-n", str(n), "-p", str(p)]


def _cli_question(op, n, p, argv, check, stdin=None, **kw) -> Question:
    key = " ".join(argv)
    if stdin is not None:
        key += " stdin=" + hashlib.sha256(stdin.encode()).hexdigest()[:12]
    return Question(key=key, op=op, n=n, p=p, run=lambda: run_cli(argv, stdin),
                    check=check, **kw)


def large_n(seed: int) -> Workload:
    """Dense elimination at n = 6..9: det/rank dominate, and the n = 8, 9
    matrices (4.7 MB, 18.8 MB of int64) exceed the 4 MB L2."""
    rng = random.Random(f"large-n:{seed}")
    plan = [("classify", 6, p) for p in PRIMES]
    plan += [("classify", 7, 17), ("classify", 7, M31), ("classify", 8, 65521),
             ("det", 9, M31), ("matrix", 8, 2), ("matrix", 8, 17)]
    qs, singular = [], 0
    for op, n, p in plan:
        t = _tuple(rng, p)
        fn = {"classify": checks.check_classify, "det": checks.check_det,
              "matrix": checks.check_matrix}[op]
        qs.append(_cli_question(op, n, p, [op] + _flags(*t, n, p),
                                lambda out, t=t, n=n, p=p, fn=fn: fn(out, *t, n, p)))
        singular += checks.continuant_det(*t, n, p) == 0
    props = {
        "n_ladder": "classify n=6,7,8; det n=9; matrix n=8",
        "primes": list(PRIMES),
        "singular_share": f"{singular}/{len(qs)}",
        "dense_bytes": {f"n={n}": order(n) ** 2 * 8 for n in (6, 7, 8, 9)},
    }
    return Workload("large-n", qs, (6, 7, 8, 9), props)


def _sweep_question(op: str, count: int, n_values, sweep_seed: int, threads: int) -> Question:
    argv = ["sweep", "--random", str(count), "--n-values", ",".join(map(str, n_values)),
            "--p-values", ",".join(map(str, PRIMES)), "--seed", str(sweep_seed),
            "--threads", str(threads)]
    return Question(key=" ".join(argv), op=op, n=max(n_values), p=M31, run=lambda: run_cli(argv),
                    check=lambda out: checks.check_sweep(out, count, n_values, PRIMES, sweep_seed),
                    work=count * len(n_values) * len(PRIMES))


def sweep_small_n(seed: int) -> Workload:
    """Thousands of tiny N <= 22 classifications, plus the table1 fixture
    check. The large sweep runs on one thread: on a host whose other vCPU
    is shared, a two-thread sweep's wall time follows the neighbours' load
    (wall/CPU from 1.0 to 1.4 between passes). A smaller sweep goes
    through the thread pool with --threads = nproc."""
    rng = random.Random(f"sweep-small-n:{seed}")
    n_values = (2, 3)
    qs = [
        _sweep_question("sweep", 200, n_values, rng.randrange(2**31), 1),
        _sweep_question("sweep-pool", 25, n_values, rng.randrange(2**31), NPROC),
        Question(key="table1", op="table1", n=3, p=0, run=lambda: run_cli(["table1"]),
                 check=checks.check_table1),
    ]
    props = {"n_ladder": list(n_values), "primes": list(PRIMES),
             "tuples": {"threads=1": qs[0].work, f"threads={NPROC}": qs[1].work}}
    return Workload("sweep-small-n", qs, n_values, props)


def _config_text(n: int, p: int, x: list[int]) -> str:
    return f"treeca-config 1 {n} {p}\n{' '.join(map(str, x))}\n"


def _preimage_question(rng: random.Random, n: int, p: int) -> Question:
    a, b, c, d = _singular_tuple(rng, p)
    shape = TreeShape(n)
    params = Params(a=a, b=b, c=c, d=d, field=PrimeField(p))
    m = build_rule_matrix(shape, params)
    x = [rng.randrange(p) for _ in range(order(n))]
    y = dynamics.step_local(dynamics.Configuration(shape, p, np.array(x, dtype=np.int64)), params)

    def run():
        sol = dynamics.preimages(y, m)
        return 0, sol, ""

    def local(values):
        cfg = dynamics.Configuration(shape, p, np.array(values, dtype=np.int64))
        return [int(v) for v in dynamics.step_local(cfg, params).values]

    y_values = [int(v) for v in y.values]
    return Question(
        key=f"preimages a={a} b={b} c={c} d={d} n={n} p={p}", op="preimages", n=n, p=p,
        run=run,
        check=lambda sol: checks.check_preimages(sol, x, y_values, local, a, b, c, d, n, p))


def render(out) -> str:
    """Stdout text, or a canonical text form of a preimage SolutionSet."""
    if isinstance(out, str):
        return out
    lines = [f"consistent={int(out.consistent)} kernel={len(out.kernel)}"]
    if out.consistent:
        lines.append(" ".join(str(int(v)) for v in out.particular))
        lines += [" ".join(str(int(v)) for v in k) for k in out.kernel]
    return "\n".join(lines) + "\n"


def singular_dynamics(seed: int) -> Workload:
    """Rank-deficient rules: solve-heavy garden sampling and preimages,
    the forward local rule with JSON traces, and exhaustive probes."""
    rng = random.Random(f"singular-dynamics:{seed}")
    qs = []
    samples, steps = 2, 100
    for n in (6, 7, 8):
        for p in SINGULAR_PRIMES:
            t = _singular_tuple(rng, p)
            gseed = rng.randrange(2**16)
            qs.append(_cli_question(
                "garden", n, p, ["garden"] + _flags(*t, n, p) + ["--samples", str(samples),
                                                               "--seed", str(gseed)],
                lambda out, t=t, n=n, p=p, s=gseed: checks.check_garden(out, *t, n, p, samples, s)))
    qs += [_preimage_question(rng, 7, p) for p in SINGULAR_PRIMES]
    for p in SINGULAR_PRIMES:
        t = _singular_tuple(rng, p)
        x = [rng.randrange(p) for _ in range(order(10))]
        qs.append(_cli_question(
            "evolve", 10, p, ["evolve"] + _flags(*t, 10, p) + ["--steps", str(steps)],
            lambda out, t=t, x=x, p=p: checks.check_evolve(out, x, *t, 10, p, steps),
            stdin=_config_text(10, p, x), work=steps))
    t = _singular_tuple(rng, 3)
    for mode in ("root", "ball"):
        qs.append(_cli_question(
            "probe", 2, 3, ["probe"] + _flags(*t, 2, 3) + ["--steps", "3", "--mode", mode],
            lambda out, mode=mode: checks.check_probe(out, *t, 2, 3, 3, mode)))
    props = {
        "garden": f"n=6,7,8 x p={list(SINGULAR_PRIMES)}, --samples {samples}",
        "preimages": "n=7", "evolve": f"n=10, {steps} steps, JSON", "probe": "n=2 p=3, root+ball",
        "singular_share": f"{len(qs)}/{len(qs)}",
    }
    return Workload("singular-dynamics", qs, (2, 6, 7, 8, 10), props)


WORKLOADS = {"large-n": large_n, "sweep-small-n": sweep_small_n,
             "singular-dynamics": singular_dynamics}
