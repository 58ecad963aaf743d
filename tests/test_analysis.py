import math
import sys

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
    partition_entropy,
    primes_between,
    records_to_csv,
    records_to_json,
    sweep,
    table1_check,
    table1_expected,
    table1_fixture_csv,
)
from treeca import analysis, dynamics
from treeca.dynamics import _all_configurations, _apply_local
from treeca.errors import (
    EnumerationTooLarge,
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
    records = table1_check(fixture)
    assert len(records) == 38
    tampered = fixture.replace("2,1,3,2,2,17,reversible", "2,1,3,2,2,17,irreversible")
    assert tampered != fixture
    with pytest.raises(FixtureMismatch) as exc:
        table1_check(tampered)
    assert len(exc.value.diffs) == 1


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
    records = sweep(spec)
    assert len(records) == 25
    assert all(r.reversible for r in records)


def test_sweep_row9():
    spec = SweepSpec(
        a_values=(2,), b_values=(2,), c_values=(3,), d_values=(3,),
        n_values=(3,), p_values=(7, 11, 13, 19, 23, 29),
    )
    assert all(r.reversible for r in sweep(spec))


def test_sweep_canonical_order_and_thread_independence():
    spec = SweepSpec(
        a_values=(2, 1), b_values=(1,), c_values=(2, 1), d_values=(2,),
        n_values=(2,), p_values=(5, 3),
    )
    records = sweep(spec)
    assert [r.sort_key() for r in records] == sorted(r.sort_key() for r in records)


def test_sweep_random_deterministic():
    spec = SweepSpec(n_values=(2,), p_values=(7,), random_count=5, seed=11)
    assert sweep(spec) == sweep(spec)


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
    records = sweep(spec)
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


def test_deep_level_is_rejected_before_any_tree_is_built(monkeypatch, digit_limit):
    def no_shape(n):
        raise AssertionError(f"TreeShape({n}) built")

    monkeypatch.setattr(analysis, "TreeShape", no_shape)
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
    assert sweep(spec) == want


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
    assert sweep(spec) == []


def test_random_sweep_draws_as_before():
    """One generator across the (p, n) groups in generation order, drawing
    (random_count, 4) from [1, p) per group."""
    spec = SweepSpec(n_values=(3, 1), p_values=(17, 2, 101), random_count=7, seed=9)
    rng = np.random.default_rng(9)
    tuples = [(a, b, c, d, n, p) for p in (17, 2, 101) for n in (3, 1)
              for a, b, c, d in rng.integers(1, p, size=(7, 4)).tolist()]
    assert [(r.a, r.b, r.c, r.d, r.n, r.p) for r in sweep(spec)] == sorted(
        tuples, key=lambda t: (t[5], t[4], *t[:4]))


def test_records_serialization():
    recs = [classify(1, 1, 1, 1, 2, 3)]
    csv_text = records_to_csv(recs)
    assert csv_text.splitlines()[0] == "a,b,c,d,n,p,det,rank,reversible"
    assert csv_text.splitlines()[1] == "1,1,1,1,2,3,2,10,true"
    import json

    parsed = json.loads(records_to_json(recs))
    assert parsed[0]["det"] == 2 and parsed[0]["reversible"] is True


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


def test_partition_entropy():
    assert partition_entropy([1.0] + [0.0] * 4) == 0.0
    assert math.isclose(partition_entropy([0.5, 0.5]), 1.0)
    assert math.isclose(partition_entropy([1 / 8] * 8), 3.0)


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


def test_probe_cap():
    with pytest.raises(EnumerationTooLarge):
        partition_atom_count(params_for(5, 1, 1, 1, 1), 2, TreeShape(3))


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
    if p**shape.total_vertices > 2**20:
        with pytest.raises(EnumerationTooLarge):
            partition_atom_count(pr, steps, shape, mode=mode)
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
    with pytest.raises(EnumerationTooLarge, match=r"5\^10 = 9765625 configurations exceed cap"):
        partition_atom_count(params_for(5, 1, 1, 1, 1), 2, TreeShape(2))


def test_probe_rejects_steps_past_print_limit():
    pr = params_for(2, 1, 1, 1, 1)
    assert partition_atom_count(pr, 12, TreeShape(1)).claimed_atom_count == 2**12286
    with pytest.raises(ValueError, match="4300 digits"):
        partition_atom_count(pr, 13, TreeShape(1))
