import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeca.dynamics import (
    Configuration,
    bijectivity_oracle,
    enumerate_preimages,
    evolve,
    exhaustive_image_size,
    format_config,
    garden_report,
    parse_config,
    preimages,
    step_local,
    step_matrix,
    trace_to_json,
)
from treeca.errors import DimensionMismatch, EnumerationTooLarge, FormatError
from treeca.field import PrimeField
from treeca.rulematrix import Params, build_rule_matrix, det_mod_p, invert, linalg_report
from treeca.tree import TreeShape


def params_for(p, a, b, c, d):
    return Params(a=a, b=b, c=c, d=d, field=PrimeField(p))


def config(shape, p, values):
    return Configuration(shape, p, np.array(values, dtype=np.int64))


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
    nullity = linalg_report(m).nullity
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
    assert text.startswith("treeca-config 1 2 5\n")
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


def test_trace_json():
    shape = TreeShape(1)
    pr = params_for(2, 1, 1, 1, 1)
    trace = evolve(config(shape, 2, [1, 0, 0, 0]), pr, 2)
    import json

    arr = json.loads(trace_to_json(trace))
    assert len(arr) == 3
    assert arr[0] == [1, 0, 0, 0]
