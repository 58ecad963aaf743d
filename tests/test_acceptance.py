"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. All checks are exact (integer arithmetic mod p); no tolerances
apply except where a criterion is about printed significant digits.
"""
import functools
import itertools
import math

import numpy as np

from treeca.analysis import (
    classify,
    det_formula_n2,
    det_formula_n3,
    entropy_sequence,
    partition_atom_count,
    primes_between,
    table1_check,
    table1_expected,
)
from treeca.cli import fixture_path
from treeca.dynamics import (
    Configuration,
    bijectivity_oracle,
    evolve,
    exhaustive_image_size,
    garden_report,
    step_local,
    step_matrix,
)
from treeca.field import PrimeField
from treeca.rulematrix import Params, build_rule_matrix, det_mod_p, invert
from treeca.tree import TreeShape

from test_rulematrix import GRID_N2, GRID_N3, label_grid, parse_grid


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return run

    return wrap


def params_for(p, a, b, c, d):
    return Params(a=a, b=b, c=c, d=d, field=PrimeField(p))


@criterion("1 table reproduction")
def test_criterion_1_table1():
    table, reversible = table1_check(fixture_path().read_text())
    assert table.shape == (8, len(reversible)) and len(reversible) == len(table1_expected()) == 38


@criterion("2 explicit matrix reproduction")
def test_criterion_2_explicit_matrices():
    m2 = build_rule_matrix(TreeShape(2), params_for(7, 2, 3, 4, 5))
    assert label_grid(m2) == parse_grid(GRID_N2)
    m3 = build_rule_matrix(TreeShape(3), params_for(7, 2, 3, 4, 5))
    assert label_grid(m3) == parse_grid(GRID_N3)


@criterion("3 determinant-formula equivalence")
def test_criterion_3_det_formulas():
    rng = np.random.default_rng(20240801)
    primes = primes_between(2, 101)
    for _ in range(1000):
        p = int(rng.choice(primes))
        a, b, c, d = (int(x) for x in rng.integers(1, p, 4))
        pr = params_for(p, a, b, c, d)
        assert det_formula_n2(a, b, c, d, p) == det_mod_p(
            build_rule_matrix(TreeShape(2), pr)
        ), (a, b, c, d, p)
        assert det_formula_n3(a, b, c, d, p) == det_mod_p(
            build_rule_matrix(TreeShape(3), pr)
        ), (a, b, c, d, p)


@criterion("4 oracle equivalence")
def test_criterion_4_oracle():
    cases = [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3)]
    for n, p in cases:
        shape = TreeShape(n)
        for a, b, c, d in itertools.product(range(1, p), repeat=4):
            pr = params_for(p, a, b, c, d)
            det = det_mod_p(build_rule_matrix(shape, pr))
            assert bijectivity_oracle(shape, pr) == (det != 0), (n, p, a, b, c, d)


@criterion("5 local-rule/matrix agreement")
def test_criterion_5_local_vs_matrix():
    rng = np.random.default_rng(20240802)
    primes = primes_between(2, 101)
    total = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        p = int(rng.choice(primes))
        a, b, c, d = (int(x) for x in rng.integers(1, p, 4))
        pr = params_for(p, a, b, c, d)
        shape = TreeShape(n)
        m = build_rule_matrix(shape, pr)
        for _ in range(50):
            cfg = Configuration(shape, p, rng.integers(0, p, shape.total_vertices))
            assert (step_local(cfg, pr).values == step_matrix(cfg, m).values).all()
            total += 1
    assert total == 10_000


@criterion("6 inverse round-trip")
def test_criterion_6_inverse_round_trip():
    rng = np.random.default_rng(20240803)
    for a, b, c, d, n, p, verdict in table1_expected():
        if verdict != "reversible":
            continue
        shape = TreeShape(n)
        m = build_rule_matrix(shape, params_for(p, a, b, c, d))
        inv = invert(m)
        ident = np.eye(m.order, dtype=np.int64)
        assert ((m.dense() @ inv) % p == ident).all()
        assert ((inv @ m.dense()) % p == ident).all()
        pr = params_for(p, a, b, c, d)
        for _ in range(100):
            cfg = Configuration(shape, p, rng.integers(0, p, shape.total_vertices))
            forward = evolve(cfg, pr, 5).configurations[-1].values
            back = forward
            for _ in range(5):
                back = (inv @ back) % p
            assert (back == cfg.values).all()


@criterion("7 Garden-of-Eden count")
def test_criterion_7_garden_count():
    shape = TreeShape(2)
    pr = params_for(2, 1, 1, 1, 1)
    rep = garden_report(build_rule_matrix(shape, pr))
    assert rep.garden_count == 2**10 - 2**rep.rank
    assert rep.garden_count == 2**10 - exhaustive_image_size(shape, pr)


@criterion("8 entropy growth")
def test_criterion_8_entropy_growth():
    seq = entropy_sequence(2, 30)
    values = [h for _, h, _ in seq.terms]
    assert values[:4] == [4.0, 10.0, 22.0, 46.0]
    for n, h, _ in seq.terms:
        assert h == (1 + 3 * (2**n - 1)) * math.log2(2)
    rates = [hn for _, _, hn in seq.terms]
    for k in range(1, len(rates) - 1):  # strictly increasing for n >= 2
        assert rates[k + 1] > rates[k]
    assert rates[29] > 1e6
    assert f"{rates[29]:.12g}" == f"{(1 + 3 * (2**30 - 1)) / 30:.12g}"


@criterion("9 partition probe")
def test_criterion_9_partition_probe():
    probe = partition_atom_count(params_for(2, 1, 1, 1, 1), steps=2, truncation=TreeShape(2))
    # exhaustive over all 1024 configurations; both counts reported, no
    # equality asserted between them
    assert probe.atom_count >= 1
    assert probe.claimed_atom_count == 2**10
    print(
        f"  probe: observed_atom_count={probe.atom_count} "
        f"claimed_atom_count={probe.claimed_atom_count}"
    )
