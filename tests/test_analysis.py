import contextlib
import decimal
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeca.analysis import (
    ReversibilityRecord,
    SweepSpec,
    TABLE1_ROWS,
    ball_size,
    classify,
    det_formula_n2,
    det_formula_n3,
    entropy_csv,
    entropy_sequence,
    partition_atom_count,
    primes_between,
    records_to_csv,
    records_to_json,
    sweep,
    table1_check,
    table1_expected,
)
from treeca import analysis, dynamics
from treeca.cli import main
from treeca.dynamics import _all_configurations, _apply_local
from treeca.errors import (
    FixtureMismatch,
    FormatError,
    InvalidLevel,
    ModulusOutOfRange,
    NonPrimeModulus,
)
from treeca.field import PrimeField
from treeca.rulematrix import Params, _reduce, build_rule_matrix, det_mod_p
from treeca.tree import TreeShape


def params_for(p, a, b, c, d):
    return Params(a=a, b=b, c=c, d=d, field=PrimeField(p))


def as_records(columns):
    """The columns (table, reversible) of sweep or table1_check as records."""
    table, reversible = columns
    return [ReversibilityRecord(*t, r) for t, r in zip(zip(*table.tolist()), reversible.tolist())]


def table1_fixture_csv() -> str:
    """The reference table's expanded rows as fixture text."""
    lines = ["a,b,c,d,n,p,reversibility"]
    lines += [f"{a},{b},{c},{d},{n},{p},{v}" for a, b, c, d, n, p, v in table1_expected()]
    return "\n".join(lines) + "\n"


def test_classify_reference_rows():
    assert classify(1, 1, 1, 1, 2, 2).verdict == "irreversible"
    assert classify(2, 1, 3, 2, 2, 17).verdict == "reversible"
    assert classify(2, 2, 3, 3, 3, 5).verdict == "irreversible"


def test_classify_invariant():
    rec = classify(1, 1, 1, 1, 2, 3)
    assert rec.reversible == (rec.det != 0)
    assert rec.det == 2 and rec.rank == 10


def test_classify_nonprime():
    with pytest.raises(NonPrimeModulus):
        classify(1, 1, 1, 1, 2, 6)


def test_table1_all_rows_match():
    for a, b, c, d, n, p, verdict in table1_expected():
        assert classify(a, b, c, d, n, p).verdict == verdict, (a, b, c, d, n, p)


def test_table1_row_counts():
    assert len(TABLE1_ROWS) == 9
    expanded = table1_expected()
    assert len(expanded) == 38
    assert len(primes_between(3, 101)) == 25


def test_table1_check_passes_and_detects_tamper():
    fixture = table1_fixture_csv()
    records = as_records(table1_check(fixture))
    assert records == [classify(*row[:6]) for row in table1_expected()]  # in fixture order
    tampered = fixture.replace("2,1,3,2,2,17,reversible", "2,1,3,2,2,17,irreversible")
    assert tampered != fixture
    with pytest.raises(FixtureMismatch) as exc:
        table1_check(tampered)
    assert exc.value.diffs == [
        "(a=2,b=1,c=3,d=2,n=2,p=17): computed reversible, fixture says irreversible"]


def test_table1_check_rejects_missing_column_and_field():
    fixture = table1_fixture_csv()
    with pytest.raises(FormatError):
        table1_check(fixture.replace("a,b,c,d,", "b,c,d,", 1))
    short = fixture.splitlines()
    short[3] = short[3].rsplit(",", 2)[0]
    with pytest.raises(FormatError):
        table1_check("\n".join(short) + "\n")


def test_det_formula_n2_examples():
    assert det_formula_n2(1, 1, 1, 1, 3) == 2
    assert det_formula_n2(1, 1, 1, 1, 2) == 0
    assert det_formula_n2(2, 1, 5, 2, 17) == 0


def test_det_formula_n3_examples():
    assert det_formula_n3(1, 1, 1, 1, 3) == 0
    assert det_formula_n3(1, 1, 1, 1, 3) == det_mod_p(
        build_rule_matrix(TreeShape(3), params_for(3, 1, 1, 1, 1))
    )
    assert det_formula_n3(2, 1, 1, 3, 5) != 0


def test_det_formulas_match_elimination_randomized():
    rng = np.random.default_rng(2024)
    primes = primes_between(2, 101)
    for _ in range(300):
        p = int(rng.choice(primes))
        a, b, c, d = (int(x) for x in rng.integers(1, p, 4))
        pr = params_for(p, a, b, c, d)
        assert det_formula_n2(a, b, c, d, p) == det_mod_p(build_rule_matrix(TreeShape(2), pr))
        assert det_formula_n3(a, b, c, d, p) == det_mod_p(build_rule_matrix(TreeShape(3), pr))


def test_unit_coeffs_n3_irreversible_for_all_small_primes():
    # the degree-22 polynomial vanishes identically at a=b=c=d=1
    for p in primes_between(2, 47):
        assert classify(1, 1, 1, 1, 3, p).verdict == "irreversible"


def test_sweep_cartesian_row2():
    spec = SweepSpec(
        a_values=(1,), b_values=(1,), c_values=(1,), d_values=(1,),
        n_values=(2,), p_values=tuple(primes_between(3, 101)),
    )
    records = as_records(sweep(spec))
    assert len(records) == 25
    assert all(r.reversible for r in records)


def test_sweep_row9():
    spec = SweepSpec(
        a_values=(2,), b_values=(2,), c_values=(3,), d_values=(3,),
        n_values=(3,), p_values=(7, 11, 13, 19, 23, 29),
    )
    assert all(r.reversible for r in as_records(sweep(spec)))


def test_sweep_canonical_order_and_thread_independence():
    spec = SweepSpec(
        a_values=(2, 1), b_values=(1,), c_values=(2, 1), d_values=(2,),
        n_values=(2,), p_values=(5, 3),
    )
    records = as_records(sweep(spec))
    assert [r.sort_key() for r in records] == sorted(r.sort_key() for r in records)


def test_sweep_random_deterministic():
    spec = SweepSpec(n_values=(2,), p_values=(7,), random_count=5, seed=11)
    assert as_records(sweep(spec)) == as_records(sweep(spec))


@st.composite
def sweep_specs(draw):
    """A small cartesian spec over one prime, n = 1..4, with a random c and,
    when a+b != 0 mod p, the singular c = d^2/(a+b), which zeroes q_(n-1)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 17, 101, 65521, 2**31 - 1]))
    a, b, c, d = (draw(st.integers(1, p - 1)) for _ in range(4))
    cs = (c, d * d * pow(a + b, -1, p) % p) if (a + b) % p else (c,)
    ns = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)))
    return SweepSpec(a_values=(a,), b_values=(b,), c_values=cs, d_values=(d,),
                     n_values=ns, p_values=(p,))


@settings(max_examples=60, deadline=None)
@given(sweep_specs())
def test_sweep_matches_closed_forms_and_dense_rank(spec):
    """Each sweep record against oracles that share no code with the level
    recursion: det against the n = 2, 3 closed forms (dense elimination at
    n = 1, 4), rank against the pivot count of dense elimination."""
    records = as_records(sweep(spec))
    assert len(records) == len(spec.c_values) * len(spec.n_values)
    for r in records:
        _, pivots, det = _reduce(
            build_rule_matrix(TreeShape(r.n), params_for(r.p, r.a, r.b, r.c, r.d)).dense(), r.p)
        formula = {2: det_formula_n2, 3: det_formula_n3}.get(r.n)
        assert r.det == (formula(r.a, r.b, r.c, r.d, r.p) if formula else det)
        assert r.rank == len(pivots)
        assert r.reversible == (r.det != 0) == (r.rank == ball_size(r.n))


@pytest.fixture
def digit_limit():
    """Python's int-to-str digit limit, lowered to its minimum for the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit in this Python")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(saved)


def test_classify_and_sweep_reject_levels_whose_rank_would_not_print(digit_limit):
    deepest = ((10**digit_limit + 1) // 3).bit_length() - 1  # 3*2^n - 2 < 10^limit
    assert ball_size(deepest) < 10**digit_limit <= ball_size(deepest + 1)
    # a + b = 0 mod p and c^2 != d^2: reversible at every level
    rec = classify(1, 16, 2, 3, deepest, 17)
    assert rec.reversible and str(rec.rank) == str(ball_size(deepest))
    with pytest.raises(InvalidLevel):
        classify(1, 16, 2, 3, deepest + 1, 17)
    with pytest.raises(InvalidLevel):
        sweep(SweepSpec(n_values=(2, deepest + 1), p_values=(17,), random_count=1))


def test_deep_level_is_rejected_before_its_vertex_count_is_formed(monkeypatch, digit_limit):
    """TreeShape(n) is O(1), so the screen may build it; |V_n| = 3*2^n - 2, read
    through ball_size or total_vertices, is never formed at a level past the budget."""
    def no_count(*args):
        raise AssertionError("|V_n| formed")

    monkeypatch.setattr(analysis, "ball_size", no_count)
    monkeypatch.setattr(TreeShape, "total_vertices", property(no_count))
    for n in (20000, 10**12):
        with pytest.raises(InvalidLevel):
            classify(1, 1, 1, 1, n, 5)
        with pytest.raises(InvalidLevel):
            sweep(SweepSpec(a_values=(1,), b_values=(1,), c_values=(1,), d_values=(1,),
                            n_values=(n,), p_values=(5,)))


def test_sweep_of_every_unit_tuple_matches_classify():
    """Every tuple of (Z_5^*)^4 at n = 1, 2, 3, one array pass per n,
    record by record against classify's scalar recursion."""
    units = (1, 2, 3, 4)
    spec = SweepSpec(a_values=units, b_values=units, c_values=units, d_values=units,
                     n_values=(3, 1, 2), p_values=(5,))
    want = sorted((classify(a, b, c, d, n, 5) for n in (1, 2, 3) for a in units
                   for b in units for c in units for d in units),
                  key=ReversibilityRecord.sort_key)
    assert as_records(sweep(spec)) == want


def unit_spec(**kwargs):
    return SweepSpec(**{"a_values": (1,), "b_values": (1,), "c_values": (1,), "d_values": (1,),
                        "n_values": (2,), "p_values": (5,), **kwargs})


@pytest.mark.parametrize("spec,error,match", [
    # a = 6 is a coefficient mod 7 but not mod 5, whose group comes second
    pytest.param(unit_spec(a_values=(6,), p_values=(7, 5)), ValueError,
                 r"^coefficient a=6 outside \[0, 5\)$", id="coefficient-bad-for-a-later-p"),
    pytest.param(unit_spec(n_values=(2, 0)), InvalidLevel, "got 0", id="bad-n-after-a-good-one"),
    # the n = 2 group, and its bad second tuple, come before the n = 0 group
    pytest.param(unit_spec(d_values=(1, 6), n_values=(2, 0)), ValueError, "coefficient d=6",
                 id="earlier-group-first"),
    # the first tuple of the n = 0 group is good, so its level comes before d = 6
    pytest.param(unit_spec(d_values=(1, 6), n_values=(0, 2)), InvalidLevel, "got 0",
                 id="first-tuple-level-before-second-tuple"),
    pytest.param(unit_spec(d_values=(6, 1), n_values=(0,)), ValueError, "coefficient d=6",
                 id="coefficients-before-level"),
    pytest.param(unit_spec(b_values=(1, 2**70)), ValueError, f"coefficient b={2**70} outside",
                 id="coefficient-past-int64"),
    # the modulus comes before the draws, which could not be made for p < 2
    pytest.param(SweepSpec(p_values=(5, 1), random_count=2), NonPrimeModulus,
                 "^modulus 1 is not prime$", id="random-p-below-2"),
    pytest.param(SweepSpec(p_values=(2**31,), random_count=2), ModulusOutOfRange, "not below 2",
                 id="random-p-out-of-range"),
])
def test_sweep_raises_the_first_bad_tuples_error(spec, error, match):
    with pytest.raises(error, match=match):
        sweep(spec)


@pytest.mark.parametrize("spec", [
    pytest.param(unit_spec(a_values=(), b_values=(0,), n_values=(0,), p_values=(4,)),
                 id="empty-coefficient-list"),
    pytest.param(unit_spec(n_values=(), p_values=(1,)), id="empty-n-list"),
    pytest.param(SweepSpec(n_values=(), p_values=(1,), random_count=2), id="random-empty-n-list"),
    pytest.param(SweepSpec(n_values=(0,), p_values=(), random_count=2), id="random-empty-p-list"),
])
def test_sweep_with_an_empty_value_list_checks_nothing(spec):
    assert as_records(sweep(spec)) == []


def test_random_sweep_draws_as_before():
    """One generator across the (p, n) groups in generation order, drawing
    (random_count, 4) from [1, p) per group."""
    spec = SweepSpec(n_values=(3, 1), p_values=(17, 2, 101), random_count=7, seed=9)
    rng = np.random.default_rng(9)
    tuples = [(a, b, c, d, n, p) for p in (17, 2, 101) for n in (3, 1)
              for a, b, c, d in rng.integers(1, p, size=(7, 4)).tolist()]
    assert [(r.a, r.b, r.c, r.d, r.n, r.p) for r in as_records(sweep(spec))] == sorted(
        tuples, key=lambda t: (t[5], t[4], *t[:4]))


def test_records_serialization():
    recs = [classify(1, 1, 1, 1, 2, 3)]
    csv_text = records_to_csv(recs)
    assert csv_text.splitlines()[0] == "a,b,c,d,n,p,det,rank,reversible"
    assert csv_text.splitlines()[1] == "1,1,1,1,2,3,2,10,true"
    parsed = json.loads(records_to_json(recs))
    assert parsed[0]["det"] == 2 and parsed[0]["reversible"] is True


# The per-record writers that the columnar ones replaced, kept as their oracles.
def old_records_to_csv(records):
    lines = [",".join(ReversibilityRecord._fields)]
    lines += [f"{a},{b},{c},{d},{n},{p},{det},{rank},{str(rev).lower()}"
              for a, b, c, d, n, p, det, rank, rev in records]
    return "\n".join(lines) + "\n"


def old_sweep_text(records, fmt, seed):
    """What `treeca sweep` printed from its records: seed is None for a cartesian sweep."""
    if fmt == "json":
        return json.dumps({"seed": seed, "records": [r._asdict() for r in records]},
                          indent=2) + "\n"
    return (f"# seed={seed}\n" if seed is not None else "") + old_records_to_csv(records)


def cli_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def spec_argv(spec):
    flags = [(f"--{k}-values", getattr(spec, f"{k}_values")) for k in "abcdnp"]
    return ["sweep", *(f for k, v in flags for f in (k, ",".join(map(str, v))))]


WRITER_PRIMES = (2, 3, 17, 2**31 - 1)
WRITER_LEVELS = (1, 2, 3, 31, 32, 61, 62, 63)  # ranks pass 10^10 from n = 32, 2^63 from n = 62


@st.composite
def writer_specs(draw):
    """A cartesian spec over one or two of WRITER_PRIMES and some of WRITER_LEVELS.
    Over p = 2 every tuple is singular (a + b = 0, c = d); otherwise c = d^2/(a+b)
    joins the c values when it is a unit for every prime (det 0 over the first, n >= 2)."""
    ps = draw(st.lists(st.sampled_from(WRITER_PRIMES), min_size=1, max_size=2, unique=True))
    top = min(ps) - 1
    a, b, d = (draw(st.integers(1, top)) for _ in range(3))
    cs = {draw(st.integers(1, top))}
    if (a + b) % ps[0] and 0 < (c := d * d * pow(a + b, -1, ps[0]) % ps[0]) <= top:
        cs.add(c)
    ns = draw(st.lists(st.sampled_from(WRITER_LEVELS), min_size=1, max_size=3, unique=True))
    return SweepSpec(a_values=(a,), b_values=(b, a), c_values=tuple(cs), d_values=(d,),
                     n_values=tuple(ns), p_values=tuple(ps))


@settings(max_examples=60, deadline=None)
@given(writer_specs())
def test_columnar_writers_match_the_record_oracles(spec):
    """sweep's array pass equals classify tuple by tuple, and the columnar CSV and
    JSON writers equal the per-record writers they replaced, in the library and
    in `treeca sweep` (both formats), at ranks past 10^10 and 2^63 and at det = 0."""
    records = as_records(sweep(spec))
    want = sorted((classify(a, b, c, d, n, p) for p in spec.p_values for n in spec.n_values
                   for a in spec.a_values for b in spec.b_values for c in spec.c_values
                   for d in spec.d_values), key=ReversibilityRecord.sort_key)
    assert records == want
    assert records_to_csv(records) == old_records_to_csv(records)
    assert records_to_json(records) == json.dumps([r._asdict() for r in records], indent=2)
    for fmt in ("csv", "json"):
        assert cli_text([*spec_argv(spec), "--format", fmt]) == old_sweep_text(records, fmt, None)


def test_columnar_writers_reach_their_edge_cases():
    """The ranks of n = 31, 32, 61, 62 and 63 and det = 0 rows all occur; an object
    rank column (n >= 62) and an int64 one give the same text."""
    spec = SweepSpec(a_values=(1,), b_values=(1, 2), c_values=(1, 2), d_values=(1,),
                     n_values=(1, 31, 32, 61, 62, 63), p_values=(3, 2**31 - 1))
    records = as_records(sweep(spec))
    ranks = {r.n: r.rank for r in records if r.det}
    assert ranks[32] > 10**10 and ranks[61] < 2**63 <= ranks[62]
    assert any(r.det == 0 for r in records) and any(r.det for r in records)
    assert records_to_csv(records) == old_records_to_csv(records)
    low = [r for r in records if r.n < 62]
    assert records_to_csv(low) == old_records_to_csv(low)


def near_digit_groups(top):
    """Ints in [0, top], many at the edges of the four-digit groups the writer
    makes (10^4k - 1, 10^4k, 10^4k + 1, 10^4k + 90, 2 * 10^4k), the rest anywhere."""
    edges = sorted({v for k in range(1, 6) for v in (10**(4 * k) - 1, 10**(4 * k),
                                                     10**(4 * k) + 1, 10**(4 * k) + 90,
                                                     2 * 10**(4 * k)) if v <= top})
    return st.one_of(st.sampled_from([0, 1, 9, 10, 999, *edges, top]), st.integers(0, top))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[near_digit_groups(2**63 - 1)] * 7,
                          st.one_of(near_digit_groups(2**63 - 1), near_digit_groups(10**40)),
                          st.booleans()), max_size=12))
def test_writers_at_digit_group_edges(rows):
    """records_to_csv and records_to_json of any records (int64 fields, a rank
    up to 10^40) against the per-record writers."""
    records = [ReversibilityRecord(*row) for row in rows]
    assert records_to_csv(records) == old_records_to_csv(records)
    assert records_to_json(records) == json.dumps([r._asdict() for r in records], indent=2)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv,spec,seed", [
    (["--random", "7", "--seed", "3", "--n-values", "63,2", "--p-values", "3,2147483647"],
     SweepSpec(n_values=(63, 2), p_values=(3, 2**31 - 1), random_count=7, seed=3), 3),
    (["--random", "5", "--seed", "0", "--n-values", "1", "--p-values", "2,17"],
     SweepSpec(n_values=(1,), p_values=(2, 17), random_count=5), 0),
    (["--random", "3", "--seed", "9", "--n-values", "2", "--p-values", ""],
     SweepSpec(n_values=(2,), p_values=(), random_count=3, seed=9), 9),
    (["--p-values", "4", "--b-values", "1"], SweepSpec(b_values=(1,), p_values=(4,)), None),
    (["--p-values", "5", "--a-values", "1", "--b-values", "1", "--c-values", "1",
      "--d-values", "1", "--seed", "4"], unit_spec(), None),
])
def test_sweep_text_matches_the_record_oracles(fmt, argv, spec, seed):
    """A random sweep's `# seed=` line and "seed" key, an empty sweep's header
    and "records": [], and a cartesian sweep's null seed, as before."""
    records = as_records(sweep(spec))
    assert cli_text(["sweep", *argv, "--format", fmt]) == old_sweep_text(records, fmt, seed)


BAD_PRIMES = (1, 4, 5, 7, 2**31 - 1, 2**31)


@st.composite
def bad_specs(draw):
    """Cartesian specs over several (p, n) groups whose first bad modulus,
    coefficient or level may sit in any group, or in none."""
    values = st.lists(st.sampled_from((0, 1, 2, 3, 4, 6, 8)), min_size=1, max_size=2)
    return SweepSpec(*(tuple(draw(values)) for _ in range(4)),
                     n_values=tuple(draw(st.lists(st.sampled_from((-1, 0, 1, 2, 3)),
                                                  min_size=1, max_size=3))),
                     p_values=tuple(draw(st.lists(st.sampled_from(BAD_PRIMES),
                                                  min_size=1, max_size=3))))


@settings(max_examples=150, deadline=None)
@given(bad_specs())
def test_sweep_raises_classifys_first_error_in_generation_order(spec):
    """The oracle classifies the tuples one by one in generation order (p, then n,
    then the cartesian product) and stops at the first error."""
    first = None
    for p, n, t in itertools.product(spec.p_values, spec.n_values, itertools.product(
            spec.a_values, spec.b_values, spec.c_values, spec.d_values)):
        try:
            classify(*t, n, p)
        except Exception as exc:
            first = exc
            break
    if first is None:
        assert len(as_records(sweep(spec))) == (len(spec.p_values) * len(spec.n_values)
                                    * math.prod(map(len, (spec.a_values, spec.b_values,
                                                          spec.c_values, spec.d_values))))
    else:
        with pytest.raises(type(first)) as got:
            sweep(spec)
        assert str(got.value) == str(first)

def test_entropy_sequence_p2():
    seq = entropy_sequence(2, 3)
    assert [(n, h) for n, h, _ in seq.terms] == [(1, 4.0), (2, 10.0), (3, 22.0)]
    rates = [hn for _, _, hn in seq.terms]
    assert rates[0] == 4.0 and rates[1] == 5.0
    assert math.isclose(rates[2], 22 / 3)


def test_entropy_growth_unbounded():
    seq = entropy_sequence(2, 30)
    rates = [hn for _, _, hn in seq.terms]
    for k in range(1, len(rates) - 1):  # strictly increasing from n=2 on
        assert rates[k + 1] > rates[k]
    assert rates[-1] > 1e6


def test_entropy_telescoping():
    for p in (2, 3, 5):
        seq = entropy_sequence(p, 10)
        for (n1, h1, _), (n2, h2, _) in zip(seq.terms, seq.terms[1:]):
            assert math.isclose(h2 - h1, 3 * 2**n1 * math.log2(p))


def test_entropy_csv_format():
    text = entropy_csv(entropy_sequence(2, 3))
    assert text.splitlines() == ["n,H_n,H_n_over_n", "1,4,4", "2,10,5", "3,22,7.33333333333"]


@pytest.mark.parametrize("p,last", [(2, 1022), (2**31 - 1, 1017)])
def test_entropy_refuses_levels_past_the_float_range(p, last):
    """The last level whose H_n is a finite float answers; the next, and any
    far deeper one (which must not form 2^n), raises InvalidLevel."""
    terms = entropy_sequence(p, last).terms
    assert len(terms) == last and all(math.isfinite(h) for _, h, _ in terms)
    assert terms[-1][1] == ball_size(last) * math.log2(p)
    for n in (last + 1, 10**18):
        with pytest.raises(InvalidLevel, match=f"level {n}: "):
            entropy_sequence(p, n)


def test_entropy_nonprime():
    with pytest.raises(NonPrimeModulus):
        entropy_sequence(4, 3)


def test_ball_size():
    assert [ball_size(n) for n in (1, 2, 3, 4)] == [4, 10, 22, 46]


def test_probe_one_step_has_p_atoms():
    for p in (2, 3):
        probe = partition_atom_count(params_for(p, 1, 1, 1, 1), 1, TreeShape(2))
        assert probe.atom_count == p
        assert probe.claimed_atom_count == p**4


def test_probe_two_steps_n2_p2():
    probe = partition_atom_count(params_for(2, 1, 1, 1, 1), 2, TreeShape(2))
    assert probe.atom_count <= 4
    assert probe.claimed_atom_count == 2**10
    # the probe reports both; no equality between them is asserted


def test_probe_ball_mode():
    probe = partition_atom_count(params_for(2, 1, 1, 1, 1), 2, TreeShape(2), mode="ball")
    assert probe.atom_count <= 2**8
    assert probe.mode == "ball"


def stepped_rank(params, steps, shape, mode):
    """The observability rank by the route the closed form replaced: the
    identity stepped by the local rule (row j of stepped[t] is M^t e_j), its
    observed columns side by side, reduced by dense elimination."""
    stepped = [np.eye(shape.total_vertices, dtype=np.int64)]
    while len(stepped) < steps:
        stepped.append(_apply_local(stepped[-1], shape, params))
    observed = [0] if mode == "root" else [0, 1, 2, 3]
    return len(_reduce(np.hstack([x[:, observed] for x in stepped]), params.p)[1])


def test_probe_cap():
    """5^|V_3| configurations were past the old enumeration cap; the probe
    enumerates none, so it answers."""
    pr, shape = params_for(5, 1, 1, 1, 1), TreeShape(3)
    assert partition_atom_count(pr, 2, shape).atom_count == 5**2 == 5 ** stepped_rank(
        pr, 2, shape, "root")


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), p=st.sampled_from([2, 3, 5, 7, 65521, 2**31 - 1]),
       mode=st.sampled_from(["root", "ball"]), ab_zero=st.booleans(), data=st.data())
def test_probe_closed_form_matches_stepped_elimination(n, p, mode, ab_zero, data):
    """The closed-form rank against the stepped identity and dense elimination,
    steps up to n + 3, zero coefficients included (a = b = 0 in half the cases)."""
    coeff = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    a, b, c, d = (0 if ab_zero and k < 2 else data.draw(coeff) for k in range(4))
    pr = Params(a=a, b=b, c=c, d=d, field=PrimeField(p), allow_zero=True)
    steps = data.draw(st.integers(1, n + 3))
    shape = TreeShape(n)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # p^|V_9| has over 4300 digits at p = 2^31 - 1
    try:
        probe = partition_atom_count(pr, steps, shape, mode=mode)
    finally:
        sys.set_int_max_str_digits(saved)
    assert probe.atom_count == p ** stepped_rank(pr, steps, shape, mode)
    assert probe.claimed_atom_count == p ** ball_size(steps)


@pytest.mark.parametrize("n", [40, 1000])
def test_probe_exact_answers_at_deep_levels(n):
    """p^rank at n = 40 and n = 1000, where |V_n| is far past any dense route:
    the rank grows by 1 (root) or 3 (ball) per step up to n steps."""
    p = 2**31 - 1
    pr = params_for(p, 1, 2, 3, 4)
    shape = TreeShape(n)
    for steps in (1, 2, 3, 7):  # p^|V_8| would have more than 4300 digits
        assert partition_atom_count(pr, steps, shape).atom_count == p**steps
        ball = partition_atom_count(pr, steps, shape, mode="ball")
        assert ball.atom_count == p ** (3 * steps + 1)
    zero = Params(a=0, b=0, c=3, d=4, field=PrimeField(p), allow_zero=True)
    assert partition_atom_count(zero, 1, shape).atom_count == p
    assert partition_atom_count(zero, 7, shape).atom_count == p**2
    assert partition_atom_count(zero, 7, shape, mode="ball").atom_count == p**4


@pytest.mark.parametrize("mode", ["root", "ball"])
@pytest.mark.parametrize("p,n,steps", [(2, 1, 1), (2, 2, 3), (3, 1, 2), (3, 2, 3), (5, 1, 3)])
def test_probe_atom_count_equals_unique_rows(p, n, steps, mode):
    pr = params_for(p, 1, p - 1, 1, 1)
    shape = TreeShape(n)
    cur = _all_configurations(shape.total_vertices, p, 2**20)
    observations = []
    for _ in range(steps):
        observations.append(cur[:, [0] if mode == "root" else [0, 1, 2, 3]])
        cur = _apply_local(cur, shape, pr)
    want = len(np.unique(np.hstack(observations), axis=0))
    assert partition_atom_count(pr, steps, shape, mode=mode).atom_count == want


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 2), p=st.sampled_from([2, 3, 5, 7]), steps=st.integers(1, 5),
       mode=st.sampled_from(["root", "ball"]), kind=st.sampled_from(["random", "singular", "zero"]),
       data=st.data())
def test_probe_rank_matches_exhaustive_refinement(n, p, steps, mode, kind, data):
    low = 0 if kind == "zero" else 1
    a, b, c, d = (data.draw(st.integers(low, p - 1)) for _ in range(4))
    if kind == "singular" and (a + b) % p:
        c = d * d * pow(a + b, -1, p) % p
    pr = Params(a=a, b=b, c=c, d=d, field=PrimeField(p), allow_zero=kind == "zero")
    shape = TreeShape(n)
    if p**shape.total_vertices > 2**20:  # too many to refine: the stepped elimination decides
        assert partition_atom_count(pr, steps, shape, mode=mode).atom_count == p ** stepped_rank(
            pr, steps, shape, mode)
        return
    # refine by the rule matrix over every configuration, not by the local rule
    m = build_rule_matrix(shape, pr).dense()
    cur = _all_configurations(shape.total_vertices, p, 2**20)
    observations = []
    for _ in range(steps):
        observations.append(cur[:, [0] if mode == "root" else [0, 1, 2, 3]])
        cur = cur @ m.T % p
    want = len(np.unique(np.hstack(observations), axis=0))
    assert partition_atom_count(pr, steps, shape, mode=mode).atom_count == want


def test_probe_enumerates_no_configurations(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("configurations enumerated")

    monkeypatch.setattr(dynamics, "_all_configurations", no_enumeration)
    monkeypatch.setattr(analysis, "_all_configurations", no_enumeration, raising=False)
    probe = partition_atom_count(params_for(3, 1, 2, 1, 1), 3, TreeShape(2), mode="ball")
    # the ball sees each pair of leaves only through a*x_left + b*x_right
    assert probe.atom_count == 3**7
    # 5^10 configurations, past the old enumeration cap
    assert partition_atom_count(params_for(5, 1, 1, 1, 1), 2, TreeShape(2)).atom_count == 5**2


def test_probe_rejects_steps_past_print_limit():
    pr = params_for(2, 1, 1, 1, 1)
    assert partition_atom_count(pr, 12, TreeShape(1)).claimed_atom_count == 2**12286
    with pytest.raises(ValueError, match="4300 digits"):
        partition_atom_count(pr, 13, TreeShape(1))
    # the live limit decides, in a process started with it (0: no limit)
    argv = [sys.executable, "-m", "treeca.cli", "probe", *"-n 1 -p 2 -a 1 -b 1 -c 1 -d 1".split(),
            "--steps"]
    src = str(Path(analysis.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    low = subprocess.run([*argv, "12"], capture_output=True, text=True,
                         env={**env, "PYTHONINTMAXSTRDIGITS": "640"})
    assert (low.returncode, low.stdout, low.stderr) == (3, "", (
        "error invalid-input: claimed count p^|V_steps| exceeds 640 digits at steps=12, p=2\n"))
    free = subprocess.run([*argv, "13"], capture_output=True, text=True,
                          env={**env, "PYTHONINTMAXSTRDIGITS": "0"})
    assert (free.returncode, free.stderr) == (0, "")
    # 2^24574 has 7398 digits, more than this process prints: decimal writes it
    claimed = decimal.Context(prec=8000).power(2, ball_size(13))
    assert free.stdout.splitlines()[1:] == ["observed_atom_count=4",
                                            f"claimed_atom_count={claimed}"]
