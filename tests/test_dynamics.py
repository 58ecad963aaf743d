import itertools
import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeca.dynamics import (
    Configuration,
    _all_configurations,
    _apply_local,
    bijectivity_oracle,
    enumerate_preimages,
    evolve,
    evolve_last,
    exhaustive_image_size,
    format_config,
    garden_report,
    parse_config,
    preimages,
    step_local,
    step_matrix,
    trace_blocks,
    trace_to_json,
)
from treeca.errors import DimensionMismatch, EnumerationTooLarge, FormatError
from treeca.field import PrimeField
from treeca.cli import main
from treeca.rulematrix import (
    Params,
    RuleMatrix,
    build_rule_matrix,
    det_mod_p,
    invert,
    linalg_report,
    rref_mod,
)
from treeca.tree import TreeShape


def params_for(p, a, b, c, d):
    return Params(a=a, b=b, c=c, d=d, field=PrimeField(p))


def config(shape, p, values):
    return Configuration(shape, p, np.array(values, dtype=np.int64))


def test_configuration_copies_the_callers_array():
    shape = TreeShape(1)
    values = np.array([1, 0, 2, 1], dtype=np.int64)
    cfg = Configuration(shape, 3, values)
    assert values.flags.writeable
    values[0] = 2
    assert cfg.values.tolist() == [1, 0, 2, 1]
    base = np.zeros(8, dtype=np.int64)
    from_view = Configuration(shape, 3, base[:4])
    base[:4] = 7  # outside [0, 3): a shared buffer would bypass the range check
    assert from_view.values.tolist() == [0, 0, 0, 0]
    assert not cfg.values.flags.writeable


def test_step_local_zero_fixed():
    shape = TreeShape(2)
    pr = params_for(3, 1, 1, 1, 1)
    out = step_local(Configuration.zero(shape, 3), pr)
    assert (out.values == 0).all()


def test_step_local_root_delta():
    # delta at the root: children each see c * x_parent; root sees d * x_0
    shape = TreeShape(2)
    pr = params_for(3, 1, 1, 1, 1)
    cfg = config(shape, 3, [1] + [0] * 9)
    out = step_local(cfg, pr)
    assert list(out.values) == [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]


def test_step_local_leaf_delta():
    # delta at leaf x_11 (index 4): parent x_1 sees a, the leaf itself sees d
    shape = TreeShape(2)
    pr = params_for(3, 1, 1, 1, 1)
    cfg = config(shape, 3, [0, 0, 0, 0, 1, 0, 0, 0, 0, 0])
    out = step_local(cfg, pr)
    assert list(out.values) == [0, 1, 0, 0, 1, 0, 0, 0, 0, 0]


def test_step_matrix_basis_vectors_give_columns():
    shape = TreeShape(2)
    pr = params_for(5, 2, 3, 4, 1)
    m = build_rule_matrix(shape, pr)
    for v in range(shape.total_vertices):
        e = np.zeros(shape.total_vertices, dtype=np.int64)
        e[v] = 1
        out = step_matrix(Configuration(shape, 5, e), m)
        assert (out.values == m.dense()[:, v] % 5).all()


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 4),
    p=st.sampled_from([2, 3, 5, 7, 13, 2**31 - 1]),
    data=st.data(),
)
def test_step_local_equals_step_matrix(n, p, data):
    shape = TreeShape(n)
    coeffs = [data.draw(st.integers(1, p - 1)) for _ in range(4)]
    pr = params_for(p, *coeffs)
    m = build_rule_matrix(shape, pr)
    values = np.array(
        [data.draw(st.integers(0, p - 1)) for _ in range(shape.total_vertices)],
        dtype=np.int64,
    )
    cfg = Configuration(shape, p, values)
    assert (step_local(cfg, pr).values == step_matrix(cfg, m).values).all()


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), data=st.data())
def test_step_local_linearity(p, data):
    shape = TreeShape(3)
    pr = params_for(p, *(data.draw(st.integers(1, p - 1)) for _ in range(4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.integers(0, p, shape.total_vertices)
    y = rng.integers(0, p, shape.total_vertices)
    k = data.draw(st.integers(0, p - 1))
    fx = step_local(Configuration(shape, p, x), pr).values
    fy = step_local(Configuration(shape, p, y), pr).values
    fxy = step_local(Configuration(shape, p, (x + y) % p), pr).values
    fkx = step_local(Configuration(shape, p, k * x % p), pr).values
    assert (fxy == (fx + fy) % p).all()
    assert (fkx == k * fx % p).all()


def exact_step(shape, coeffs, x, p):
    """The local rule in Python ints, from the digit-string address maps."""
    a, b, c, d = coeffs
    out = []
    for v in range(shape.total_vertices):
        parent = shape.parent_index(v)
        total = d * x[v] + (0 if parent is None else c * x[parent])
        kids = shape.child_indices(v)
        total += sum(k * x[i] for k, i in zip((a, b, c), kids))
        out.append(total % p)
    return out


def test_steps_exact_at_largest_supported_prime():
    # every product is just below 2^62: four of them overflow an int64 sum
    p = 2**31 - 1
    shape = TreeShape(3)
    pr = params_for(p, p - 1, p - 1, p - 1, p - 1)
    x = [p - 1] * shape.total_vertices
    cfg = config(shape, p, x)
    want = exact_step(shape, (p - 1,) * 4, x, p)
    assert [int(v) for v in step_local(cfg, pr).values] == want
    assert [int(v) for v in step_matrix(cfg, build_rule_matrix(shape, pr)).values] == want


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), p=st.sampled_from([2, 17, 2**31 - 1]), rows=st.integers(0, 3),
       data=st.data())
def test_apply_local_matches_exact_rule(n, p, rows, data):
    # rows == 0: one 1-D configuration; otherwise a 2-D stack of them
    shape = TreeShape(n)
    size = shape.total_vertices
    top = st.one_of(st.just(p - 1), st.integers(1, p - 1))  # p - 1 maximises every product
    coeffs = [data.draw(top) for _ in range(4)]
    flat = data.draw(st.lists(st.one_of(top, st.just(0)), min_size=size * max(rows, 1),
                              max_size=size * max(rows, 1)))
    x = np.array(flat, dtype=np.int64).reshape(-1, size)
    want = [exact_step(shape, coeffs, row, p) for row in x.tolist()]
    got = _apply_local(x if rows else x[0], shape, params_for(p, *coeffs))
    assert got.dtype == np.int64
    assert got.tolist() == (want if rows else want[0])
    assert _apply_local(x.view(np.uint64), shape, params_for(p, *coeffs)).tolist() == want


def test_step_mismatched_modulus():
    shape = TreeShape(2)
    cfg = Configuration.zero(shape, 3)
    with pytest.raises(DimensionMismatch):
        step_local(cfg, params_for(5, 1, 1, 1, 1))
    with pytest.raises(DimensionMismatch):
        step_matrix(cfg, build_rule_matrix(shape, params_for(5, 1, 1, 1, 1)))


def test_evolve_zero_steps():
    shape = TreeShape(2)
    cfg = Configuration.zero(shape, 3)
    trace = evolve(cfg, params_for(3, 1, 1, 1, 1), 0)
    assert trace.configurations == [cfg]


def test_evolve_reversible_round_trip():
    shape = TreeShape(2)
    pr = params_for(3, 1, 1, 1, 1)
    m = build_rule_matrix(shape, pr)
    inv = invert(m)
    rng = np.random.default_rng(1)
    cfg = Configuration(shape, 3, rng.integers(0, 3, 10))
    trace = evolve(cfg, pr, 5)
    back = trace.configurations[-1].values
    for _ in range(5):
        back = (inv @ back) % 3
    assert (back == cfg.values).all()


def test_evolve_eventually_cycles():
    shape = TreeShape(2)
    pr = params_for(2, 1, 1, 1, 1)
    cfg = Configuration(shape, 2, np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0]))
    trace = evolve(cfg, pr, 2**10)
    seen = {}
    for t, c in enumerate(trace.configurations):
        key = tuple(int(v) for v in c.values)
        if key in seen:
            assert t - seen[key] <= 2**10
            break
        seen[key] = t
    else:
        pytest.fail("no repeat within the full state-space bound")


def test_preimages_invertible_unique():
    shape = TreeShape(2)
    pr = params_for(3, 1, 1, 1, 1)
    m = build_rule_matrix(shape, pr)
    rng = np.random.default_rng(2)
    y = Configuration(shape, 3, rng.integers(0, 3, 10))
    pre = enumerate_preimages(y, m)
    assert len(pre) == 1
    assert (step_local(pre[0], pr).values == y.values).all()


def test_preimages_singular_case():
    shape = TreeShape(2)
    pr = params_for(2, 1, 1, 1, 1)
    m = build_rule_matrix(shape, pr)
    nullity = m.order - linalg_report(m).rank
    x = Configuration(shape, 2, np.array([1, 1, 0, 0, 1, 0, 1, 0, 0, 1]))
    y = step_local(x, pr)
    pre = enumerate_preimages(y, m)
    assert len(pre) == 2**nullity
    for q in pre:
        assert (step_local(q, pr).values == y.values).all()


def test_preimages_garden_witness_inconsistent():
    shape = TreeShape(2)
    pr = params_for(2, 1, 1, 1, 1)
    m = build_rule_matrix(shape, pr)
    image = set()
    for bits in itertools.product(range(2), repeat=10):
        cfg = Configuration(shape, 2, np.array(bits, dtype=np.int64))
        image.add(tuple(int(v) for v in step_local(cfg, pr).values))
    outside = next(v for v in itertools.product(range(2), repeat=10) if v not in image)
    sols = preimages(Configuration(shape, 2, np.array(outside, dtype=np.int64)), m)
    assert not sols.consistent


def test_enumerate_preimages_cap():
    shape = TreeShape(2)
    m = build_rule_matrix(shape, params_for(2, 1, 1, 1, 1))
    y = Configuration.zero(shape, 2)
    with pytest.raises(EnumerationTooLarge):
        enumerate_preimages(y, m, cap=1)


def test_garden_report_invertible():
    rep = garden_report(build_rule_matrix(TreeShape(2), params_for(3, 1, 1, 1, 1)))
    assert rep.garden_count == 0
    assert rep.image_size == 3**10


def test_garden_report_exhaustive_n2_p2():
    shape = TreeShape(2)
    pr = params_for(2, 1, 1, 1, 1)
    rep = garden_report(build_rule_matrix(shape, pr), samples=3, seed=0)
    assert rep.garden_count == 2**10 - 2**rep.rank
    assert rep.garden_count == 2**10 - exhaustive_image_size(shape, pr)
    assert len(rep.sample_garden_configs) == 3
    for c in rep.sample_garden_configs:
        assert not preimages(c, build_rule_matrix(shape, pr)).consistent


def test_garden_report_exhaustive_n1_p3_all_tuples():
    shape = TreeShape(1)
    for a, b, c, d in itertools.product(range(1, 3), repeat=4):
        pr = params_for(3, a, b, c, d)
        rep = garden_report(build_rule_matrix(shape, pr))
        assert rep.garden_count == 3**4 - exhaustive_image_size(shape, pr)


def test_bijectivity_oracle_table_rows():
    assert not bijectivity_oracle(TreeShape(2), params_for(2, 1, 1, 1, 1))
    assert bijectivity_oracle(TreeShape(2), params_for(3, 1, 1, 1, 1))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_oracle_matches_det_n1(p):
    shape = TreeShape(1)
    for a, b, c, d in itertools.product(range(1, p), repeat=4):
        pr = params_for(p, a, b, c, d)
        det = det_mod_p(build_rule_matrix(shape, pr))
        assert bijectivity_oracle(shape, pr) == (det != 0)


def test_oracle_cap():
    with pytest.raises(EnumerationTooLarge):
        bijectivity_oracle(TreeShape(3), params_for(5, 1, 1, 1, 1))


def test_config_format_roundtrip():
    shape = TreeShape(2)
    cfg = config(shape, 5, [0, 1, 2, 3, 4, 0, 1, 2, 3, 4])
    text = format_config(cfg)
    assert text == "treeca-config 1 2 5\n0 1 2 3 4 0 1 2 3 4\n"
    back = parse_config(text)
    assert back.shape.n == 2 and back.p == 5
    assert (back.values == cfg.values).all()


def test_parse_config_rejects_level_beyond_body(monkeypatch):
    import treeca.dynamics

    def guarded_shape(n):  # TreeShape(10**6) would need ~60 GB of level sizes
        assert n <= 64, f"TreeShape({n}) built before the header was checked"
        return TreeShape(n)

    monkeypatch.setattr(treeca.dynamics, "TreeShape", guarded_shape)
    with pytest.raises(FormatError):
        parse_config("treeca-config 1 1000000 3\n0 0 0 0\n")
    with pytest.raises(FormatError):
        parse_config("treeca-config 1 2 3\n0 0 0 0\n")


@pytest.mark.parametrize("residue", [
    2**63, 99999999999999999999999, -2**63 - 1,
    pytest.param("7" * 5000, id="5000-digits"), pytest.param("0" * 20 + "1", id="21-characters"),
])
def test_parse_config_rejects_residues_past_int64(residue):
    with pytest.raises(FormatError, match=r"outside \[0, 5\)"):
        parse_config(f"treeca-config 1 1 5\n1 2 3 {residue}\n")


@pytest.mark.parametrize("head", [f"1 {'1' * 5000} 5", f"1 1 {'1' * 5000}"],
                         ids=["level", "modulus"])
def test_parse_config_refuses_oversized_header_numbers(head):
    """A header token longer than 20 characters is refused before int()
    meets it, and the process-wide digit limit (Python 3.11+) is left
    alone; 20 characters still parse."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    with pytest.raises(FormatError, match="header numbers outside int64"):
        parse_config(f"treeca-config {head}\n1 2 3 4\n")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    twenty = parse_config("treeca-config 1 1 5\n1 2 3 00000000000000000004\n")
    assert twenty.values.tolist() == [1, 2, 3, 4]


def test_parse_config_reads_what_int_reads():
    """The residues parse as int() parses each token, int()'s own messages
    included, and reach the Configuration as int64."""
    cfg = parse_config("treeca-config 1 +1 5\n+4 0_3 \u0663 00\n")
    assert cfg.shape.n == 1 and cfg.values.tolist() == [4, 3, 3, 0]
    for token in ("abc", "1.5"):
        message = rf"^invalid literal for int\(\) with base 10: '{token}'$"
        with pytest.raises(ValueError, match=message):
            parse_config(f"treeca-config 1 1 5\n1 2 3 {token}\n")


def test_enumeration_cap_forms_no_unprintable_count():
    """Past cap.bit_length() configurations the cap is exceeded with no p^size
    formed, so n = 26 fails at once; the count is printed while Python prints
    it, and p^size alone past that."""
    from treeca.dynamics import _check_enumeration
    from treeca.tree import ball_size

    with pytest.raises(EnumerationTooLarge, match=r"^3\^201326590 configurations exceed cap 2$"):
        _check_enumeration(ball_size(26), 3, 2)
    with pytest.raises(EnumerationTooLarge, match=r"^5\^10 = 9765625 configurations exceed cap 2$"):
        _check_enumeration(10, 5, 2)
    _check_enumeration(20, 2, 2**20)  # p^size = cap passes
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # 10^(limit-1) has limit digits, the most Python prints
        with pytest.raises(EnumerationTooLarge, match=rf"^10\^{limit - 1} = 10{{{limit - 1}}} "):
            _check_enumeration(limit - 1, 10, 2**20)
        with pytest.raises(EnumerationTooLarge, match=rf"^10\^{limit} configurations "):
            _check_enumeration(limit, 10, 2**20)


def test_trace_json():
    shape = TreeShape(1)
    pr = params_for(2, 1, 1, 1, 1)
    trace = evolve(config(shape, 2, [1, 0, 0, 0]), pr, 2)
    import json

    arr = json.loads(trace_to_json(trace))
    assert len(arr) == 3
    assert arr[0] == [1, 0, 0, 0]


def dense_garden_samples(m, samples, seed):
    """The seeded attempt loop of garden_report, each draw tested by the
    reduction of the dense [M | y]."""
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(10000):
        if len(found) == samples:
            break
        y = rng.integers(0, m.p, size=m.order, dtype=np.int64)
        if m.order in rref_mod(np.hstack([m.dense(), y.reshape(-1, 1)]), m.p)[1]:
            found.append(y)
    return found


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 17, 2**31 - 1]), n=st.integers(1, 4),
       seed=st.integers(0, 2**16), data=st.data())
def test_garden_samples_match_dense_attempt_loop(p, n, seed, data):
    a, b, c, d = (data.draw(st.integers(1, p - 1)) for _ in range(4))
    if (a + b) % p and data.draw(st.booleans()):
        c = d * d * pow(a + b, -1, p) % p  # singular: a garden exists
    m = build_rule_matrix(TreeShape(n), params_for(p, a, b, c, d))
    rep = garden_report(m, samples=3, seed=seed)
    want = dense_garden_samples(m, 3, seed) if rep.garden_count else []
    assert [cfg.values.tolist() for cfg in rep.sample_garden_configs] == [y.tolist() for y in want]


def test_garden_and_preimages_build_no_dense_matrix(capsys, monkeypatch):
    def no_dense(self):
        raise AssertionError("dense rule matrix assembled")

    monkeypatch.setattr(RuleMatrix, "dense", no_dense)
    flags = ["-a", "1", "-b", "1", "-c", "1", "-d", "1", "--samples", "2"]
    assert main(["garden", "-n", "12", "-p", "2", *flags]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 12285  # root pivot d - c(a+b+c)/d = 0 mod 2
    assert len(payload["sample_garden_configs"]) == 2
    m = build_rule_matrix(TreeShape(12), params_for(2, 1, 1, 1, 1))
    for y in payload["sample_garden_configs"]:
        assert not preimages(config(m.shape, 2, y), m).consistent

    p, a, b, d = 2**31 - 1, 5, 7, 11
    pr = params_for(p, a, b, d * d * pow(a + b, -1, p) % p, d)
    shape = TreeShape(10)
    x = np.random.default_rng(0).integers(0, p, size=shape.total_vertices)
    y = step_local(config(shape, p, x), pr)
    m = build_rule_matrix(shape, pr)
    sols = preimages(y, m)
    assert sols.consistent
    assert len(sols.kernel) == m.order - linalg_report(m).rank
    assert (step_local(config(shape, p, sols.particular), pr).values == y.values).all()
    kernel = np.array(sols.kernel)
    assert not _apply_local(kernel, shape, pr).any()


@pytest.mark.parametrize("p,size", [(2, 1), (2, 10), (3, 4), (5, 5), (7, 3)])
def test_all_configurations_in_product_order(p, size):
    want = np.array(list(itertools.product(range(p), repeat=size)), dtype=np.int64)
    assert (_all_configurations(size, p, p**size) == want).all()


def test_trace_json_text_unchanged():
    p = 2**31 - 1
    for n, t in ((3, 4), (10, 100)):
        shape = TreeShape(n)
        x = np.random.default_rng(1).integers(0, p, size=shape.total_vertices)
        trace = evolve(config(shape, p, x), params_for(p, 3, 5, 7, 11), t)
        assert trace_to_json(trace) == json.dumps(
            [[int(v) for v in c.values] for c in trace.configurations])


def assert_same_text(got, want):
    """got == want, reporting the first difference rather than a full diff,
    which for megabyte texts takes minutes."""
    if got != want:
        g, w = (np.frombuffer(t.encode(), dtype=np.uint8) for t in (got, want))
        size = min(g.size, w.size)
        differs = np.flatnonzero(g[:size] != w[:size])
        at = int(differs[0]) if differs.size else size
        window = slice(max(at - 40, 0), at + 40)
        raise AssertionError(f"texts differ at {at}: {got[window]!r} != {want[window]!r}")


# residues where the decimal width changes, and the ends of the range
DIGIT_BOUNDARIES = sorted({0, 2**31 - 1} | {10**k + e for k in range(1, 10) for e in (-1, 0, 1)})


# the largest residue picks the slot width: one word below 10^5, two from it
WIDTH_SWITCH = [99_999, 100_000, 100_001]


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(4, 6000), seed=st.integers(0, 2**32 - 1),
       top=st.sampled_from([10, 100, 100_000, 2**31]),
       largest=st.sampled_from([None, *WIDTH_SWITCH]),
       boundary_share=st.sampled_from([0.0, 0.5, 1.0]))
# 11 rows of 3070 cells: three blocks of whole rows, the last one short
@example(rows=11, cols=3070, seed=0, top=2**31, largest=None, boundary_share=0.5)
@example(rows=11, cols=3070, seed=0, top=100_000, largest=None, boundary_share=0.5)
@example(rows=1, cols=4, seed=0, top=100_000, largest=99_999, boundary_share=0.5)
@example(rows=1, cols=4, seed=0, top=100_000, largest=100_000, boundary_share=0.5)
@example(rows=1, cols=4, seed=1, top=10, largest=100_001, boundary_share=0.0)
def test_trace_json_matches_json_dumps(rows, cols, seed, top, largest, boundary_share):
    # residues below top, one cell raised to largest: either side of the width switch
    rng = np.random.default_rng(seed)
    uniform = rng.integers(0, top, size=(rows, cols))
    boundary = rng.choice([v for v in DIGIT_BOUNDARIES if v < top], size=(rows, cols))
    values = np.where(rng.random((rows, cols)) < boundary_share, boundary, uniform)
    if largest is not None:
        values[rng.integers(rows), rng.integers(cols)] = largest
    trace = SimpleNamespace(values=values)
    assert_same_text(trace_to_json(trace), json.dumps(values.tolist()))
    blocks = list(trace_blocks(trace))
    assert blocks[0] == "[[" and "".join(blocks) == trace_to_json(trace)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 10), p=st.sampled_from([17, 101, 2**31 - 1]), t=st.integers(0, 24),
       seed=st.integers(0, 2**16), data=st.data())
def test_evolve_trace_json_matches_json_dumps(n, p, t, seed, data):
    # n = 10 traces of a few steps span several encoder blocks, rows across their ends
    pr = params_for(p, *(data.draw(st.integers(1, p - 1)) for _ in range(4)))
    shape = TreeShape(n)
    x = np.random.default_rng(seed).integers(0, p, shape.total_vertices)
    trace = evolve(config(shape, p, x), pr, t)
    assert_same_text(trace_to_json(trace), json.dumps(trace.values.tolist()))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), p=st.sampled_from([2, 3, 17, 2**31 - 1]), t=st.integers(0, 20),
       seed=st.integers(0, 2**16), data=st.data())
def test_evolve_rows_are_repeated_local_steps(n, p, t, seed, data):
    a, b, c, d = (data.draw(st.integers(1, p - 1)) for _ in range(4))
    pr = params_for(p, a, b, c, d)
    shape = TreeShape(n)
    cur = config(shape, p, np.random.default_rng(seed).integers(0, p, shape.total_vertices))
    trace = evolve(cur, pr, t)
    assert trace.values.shape == (t + 1, shape.total_vertices)
    assert not trace.values.flags.writeable
    want = [cur]
    for _ in range(t):
        cur = step_local(cur, pr)
        want.append(cur)
    assert (trace.values == np.array([w.values for w in want])).all()
    steps, configurations = trace.steps, trace.configurations
    assert len(steps) == t and configurations[0] is want[0]
    for got, w in zip((*steps, configurations[-1]), (*want[1:], want[-1])):
        assert isinstance(got, Configuration) and (got.values == w.values).all()
    assert trace_to_json(trace) == json.dumps(
        [[int(v) for v in c.values] for c in configurations])


def test_evolve_rejects_params_of_another_modulus():
    cfg = Configuration.zero(TreeShape(1), 3)
    for t in (0, 2):
        with pytest.raises(DimensionMismatch):
            evolve(cfg, params_for(5, 1, 1, 1, 1), t)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), p=st.sampled_from([2, 17, 2**31 - 1]), t=st.integers(0, 12),
       seed=st.integers(0, 2**16), data=st.data())
def test_evolve_last_is_the_traces_last_row(n, p, t, seed, data):
    pr = params_for(p, *(data.draw(st.integers(1, p - 1)) for _ in range(4)))
    shape = TreeShape(n)
    cfg = config(shape, p, np.random.default_rng(seed).integers(0, p, shape.total_vertices))
    last = evolve_last(cfg, pr, t)
    assert isinstance(last, Configuration)
    assert (last.values == evolve(cfg, pr, t).values[-1]).all()
    with pytest.raises(ValueError):
        evolve_last(cfg, pr, -1)
    with pytest.raises(DimensionMismatch):
        evolve_last(cfg, params_for(5, 1, 1, 1, 1), t)
