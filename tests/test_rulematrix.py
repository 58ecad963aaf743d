import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeca.cli import main
from treeca.dynamics import _apply_local
from treeca.errors import DimensionMismatch, FormatError, SingularMatrix
from treeca.field import PrimeField
from treeca.rulematrix import (
    _BLOCK,
    Params,
    RuleMatrix,
    _digit_table,
    _level_recursion,
    _level_schedule,
    _positions,
    _reduce,
    _row_blocks,
    _tree_back,
    _tree_solve,
    _tree_sweep,
    build_rule_matrix,
    det_mod,
    det_mod_p,
    format_matrix,
    invert,
    kernel_basis,
    linalg_report,
    matrix_blocks,
    parse_matrix,
    rank_mod_p,
    rref_mod,
    solve,
)
from treeca.tree import TreeShape, ball_size

# Coefficient-label grids transcribed from the published 10x10 and 22x22
# displays; one row per line, labels space-separated.
GRID_N2 = """
d a b c 0 0 0 0 0 0
c d 0 0 a b 0 0 0 0
c 0 d 0 0 0 a b 0 0
c 0 0 d 0 0 0 0 a b
0 c 0 0 d 0 0 0 0 0
0 c 0 0 0 d 0 0 0 0
0 0 c 0 0 0 d 0 0 0
0 0 c 0 0 0 0 d 0 0
0 0 0 c 0 0 0 0 d 0
0 0 0 c 0 0 0 0 0 d
"""

GRID_N3 = """
d a b c 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
c d 0 0 a b 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
c 0 d 0 0 0 a b 0 0 0 0 0 0 0 0 0 0 0 0 0 0
c 0 0 d 0 0 0 0 a b 0 0 0 0 0 0 0 0 0 0 0 0
0 c 0 0 d 0 0 0 0 0 a b 0 0 0 0 0 0 0 0 0 0
0 c 0 0 0 d 0 0 0 0 0 0 a b 0 0 0 0 0 0 0 0
0 0 c 0 0 0 d 0 0 0 0 0 0 0 a b 0 0 0 0 0 0
0 0 c 0 0 0 0 d 0 0 0 0 0 0 0 0 a b 0 0 0 0
0 0 0 c 0 0 0 0 d 0 0 0 0 0 0 0 0 0 a b 0 0
0 0 0 c 0 0 0 0 0 d 0 0 0 0 0 0 0 0 0 0 a b
0 0 0 0 c 0 0 0 0 0 d 0 0 0 0 0 0 0 0 0 0 0
0 0 0 0 c 0 0 0 0 0 0 d 0 0 0 0 0 0 0 0 0 0
0 0 0 0 0 c 0 0 0 0 0 0 d 0 0 0 0 0 0 0 0 0
0 0 0 0 0 c 0 0 0 0 0 0 0 d 0 0 0 0 0 0 0 0
0 0 0 0 0 0 c 0 0 0 0 0 0 0 d 0 0 0 0 0 0 0
0 0 0 0 0 0 c 0 0 0 0 0 0 0 0 d 0 0 0 0 0 0
0 0 0 0 0 0 0 c 0 0 0 0 0 0 0 0 d 0 0 0 0 0
0 0 0 0 0 0 0 c 0 0 0 0 0 0 0 0 0 d 0 0 0 0
0 0 0 0 0 0 0 0 c 0 0 0 0 0 0 0 0 0 d 0 0 0
0 0 0 0 0 0 0 0 c 0 0 0 0 0 0 0 0 0 0 d 0 0
0 0 0 0 0 0 0 0 0 c 0 0 0 0 0 0 0 0 0 0 d 0
0 0 0 0 0 0 0 0 0 c 0 0 0 0 0 0 0 0 0 0 0 d
"""


def parse_grid(text):
    return [line.split() for line in text.strip().splitlines()]


def position_rows(n):
    """The rule matrix's rows as _positions places them: rows[r] lists
    (column, label) pairs, label in {a, b, c, d}, in the table's order."""
    rows = [[] for _ in range(ball_size(n))]
    for r, col, k in zip(*(a.tolist() for a in _positions(n))):
        rows[r].append((col, "abcd"[k]))
    return tuple(map(tuple, rows))


def label_grid(m):
    """The coefficient label of every entry of m: '0', 'a', 'b', 'c' or 'd'."""
    grid = [["0"] * m.order for _ in range(m.order)]
    for r, row in enumerate(position_rows(m.shape.n)):
        for col, label in row:
            grid[r][col] = label
    return grid


def params_for(p, a, b, c, d, allow_zero=False):
    return Params(a=a, b=b, c=c, d=d, field=PrimeField(p), allow_zero=allow_zero)


def brute_force_det(mat, p):
    """Laplace expansion over rows, nonzero entries only. Independent of
    the elimination path."""
    n = mat.shape[0]

    def expand(r, used):
        if r == n:
            return 1
        total = 0
        skipped = 0
        for c in range(n):
            if used >> c & 1:
                continue
            if mat[r, c]:
                sign = -1 if skipped % 2 else 1
                total += sign * int(mat[r, c]) * expand(r + 1, used | 1 << c)
            skipped += 1
        return total

    return expand(0, 0) % p


@pytest.mark.parametrize("n,grid", [(2, GRID_N2), (3, GRID_N3)])
def test_matrix_matches_published_grid(n, grid):
    m = build_rule_matrix(TreeShape(n), params_for(7, 2, 3, 4, 5))
    assert label_grid(m) == parse_grid(grid)


def test_n1_rows():
    m = build_rule_matrix(TreeShape(1), params_for(2, 1, 1, 1, 1))
    expected = np.array(
        [[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], dtype=np.int64
    )
    assert (m.dense() == expected).all()


def test_row_sparsity_and_diagonal():
    for n in (1, 2, 3, 4):
        m = build_rule_matrix(TreeShape(n), params_for(5, 1, 2, 3, 4))
        shape = m.shape
        for r, row in enumerate(position_rows(n)):
            assert len(row) <= 4
            if shape.level_offsets[n] <= r:  # boundary level: parent + self only
                assert len(row) == 2
        assert (np.diag(m.dense()) == 4).all()


@pytest.mark.parametrize("n", range(1, 9))
def test_nonzero_pattern_matches_tree_maps(n):
    shape = TreeShape(n)
    rows = position_rows(n)
    for u in range(shape.total_vertices):
        allowed = {u, *shape.child_indices(u)}
        pi = shape.parent_index(u)
        if pi is not None:
            allowed.add(pi)
        assert {col for col, _ in rows[u]} <= allowed


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_det_against_brute_force(n, p):
    for a, b, c, d in itertools.product(range(1, p), repeat=4):
        m = build_rule_matrix(TreeShape(n), params_for(p, a, b, c, d))
        assert det_mod_p(m) == brute_force_det(m.dense(), p)


def test_det_examples():
    assert det_mod_p(build_rule_matrix(TreeShape(2), params_for(2, 1, 1, 1, 1))) == 0
    assert det_mod_p(build_rule_matrix(TreeShape(2), params_for(3, 1, 1, 1, 1))) == 2
    assert det_mod_p(build_rule_matrix(TreeShape(2), params_for(17, 2, 1, 5, 2))) == 0


def test_rank_examples():
    assert rank_mod_p(build_rule_matrix(TreeShape(2), params_for(3, 1, 1, 1, 1))) == 10
    singular = build_rule_matrix(TreeShape(2), params_for(2, 1, 1, 1, 1))
    assert rank_mod_p(singular) < 10
    assert rank_mod_p(singular) == 9  # golden value from brute-force row reduction
    ident = build_rule_matrix(TreeShape(2), params_for(5, 0, 0, 0, 1, allow_zero=True))
    assert rank_mod_p(ident) == 10


def test_invert_round_trip():
    m = build_rule_matrix(TreeShape(2), params_for(3, 1, 1, 1, 1))
    inv = invert(m)
    assert ((m.dense() @ inv) % 3 == np.eye(10, dtype=np.int64)).all()
    assert ((inv @ m.dense()) % 3 == np.eye(10, dtype=np.int64)).all()


def test_invert_singular_raises():
    with pytest.raises(SingularMatrix):
        invert(build_rule_matrix(TreeShape(2), params_for(2, 1, 1, 1, 1)))


def test_invert_n3():
    m = build_rule_matrix(TreeShape(3), params_for(5, 2, 1, 1, 3))
    inv = invert(m)
    assert ((m.dense() @ inv) % 5 == np.eye(22, dtype=np.int64)).all()


def dense_invert(m):
    """The former invert, kept as its oracle: rref_mod of the dense [M | I]."""
    mat, p, n = m.dense(), m.p, m.order
    aug = np.hstack([mat, np.eye(n, dtype=np.int64)])
    red, pivots = rref_mod(aug, p)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix(f"rule matrix is singular mod {p}")
    return red[:, n:]


@st.composite
def invert_cases(draw):
    """(p, n, coeffs), each coefficient 0 about a third of the time, so D is drawn too."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 101]))
    zero_or_any = st.one_of(st.just(0), st.integers(1, p - 1), st.integers(1, p - 1))
    return p, draw(st.integers(1, 4)), tuple(draw(zero_or_any) for _ in range(4))


@settings(max_examples=150, deadline=None)
@given(invert_cases())
@example((5, 3, (1, 2, 0, 0)))  # D: d = 0 and c = 0
@example((7, 2, (0, 0, 3, 0)))  # D: d = 0 and a = b = 0
@example((7, 1, (0, 0, 0, 0)))  # M = 0
@example((101, 4, (2, 3, 0, 7)))  # c = 0, d != 0: triangular, invertible
@example((17, 4, (2, 1, 3, 3)))  # c = d^2/(a+b): zero levels
@example((17, 4, (1, 16, 3, 2)))  # full rank
def test_invert_matches_the_dense_oracle(case):
    """invert, by solve over the unit columns, returns the dense oracle's array,
    or raises SingularMatrix with its message, zero coefficients and D included."""
    p, n, coeffs = case
    m = build_rule_matrix(TreeShape(n), params_for(p, *coeffs, allow_zero=True))
    try:
        want = dense_invert(m)
    except SingularMatrix as exc:
        with pytest.raises(SingularMatrix) as got:
            invert(m)
        assert str(got.value) == str(exc) == f"rule matrix is singular mod {p}"
        return
    got = invert(m)
    assert got.dtype == np.int64 and got.shape == want.shape and (got == want).all()


def test_solve_unique():
    m = build_rule_matrix(TreeShape(2), params_for(3, 1, 1, 1, 1))
    x = np.arange(10, dtype=np.int64) % 3
    y = (m.dense() @ x) % 3
    sols = solve(m, y)
    assert sols.consistent and sols.count() == 1
    assert (sols.particular == x).all()


def test_solve_kernel_and_inconsistent():
    m = build_rule_matrix(TreeShape(2), params_for(2, 1, 1, 1, 1))
    zero = np.zeros(10, dtype=np.int64)
    sols = solve(m, zero)
    rep = linalg_report(m)
    assert sols.count() == 2**(m.order - rep.rank)
    all_sols = list(sols.enumerate())
    assert any((s == 0).all() for s in all_sols)
    for s in all_sols:
        assert ((m.dense() @ s) % 2 == 0).all()
    # brute-force the image of all 2^10 inputs, pick a vector outside it
    image = set()
    for bits in itertools.product(range(2), repeat=10):
        image.add(tuple((m.dense() @ np.array(bits)) % 2))
    outside = next(
        v for v in itertools.product(range(2), repeat=10) if v not in image
    )
    assert not solve(m, np.array(outside, dtype=np.int64)).consistent


def test_solve_dimension_mismatch():
    m = build_rule_matrix(TreeShape(2), params_for(3, 1, 1, 1, 1))
    with pytest.raises(DimensionMismatch):
        solve(m, np.zeros(4, dtype=np.int64))


def test_kernel_basis():
    assert kernel_basis(build_rule_matrix(TreeShape(2), params_for(3, 1, 1, 1, 1))) == []
    m = build_rule_matrix(TreeShape(2), params_for(2, 1, 1, 1, 1))
    basis = kernel_basis(m)
    assert len(basis) == m.order - linalg_report(m).rank
    for v in basis:
        assert ((m.dense() @ v) % 2 == 0).all()
    zero = build_rule_matrix(TreeShape(2), params_for(3, 0, 0, 0, 0, allow_zero=True))
    assert len(kernel_basis(zero)) == 10


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    p=st.sampled_from([2, 3, 5, 7, 11]),
    data=st.data(),
)
def test_rank_plus_nullity_is_order(n, p, data):
    coeffs = [data.draw(st.integers(1, p - 1)) for _ in range(4)]
    m = build_rule_matrix(TreeShape(n), params_for(p, *coeffs))
    rep = linalg_report(m)
    assert rep.rank + len(kernel_basis(m)) == m.order
    assert rep.invertible == (rep.det != 0) == (rep.rank == m.order)


@pytest.mark.parametrize("sparse", [False, True])
def test_matrix_format_roundtrip(sparse):
    m = build_rule_matrix(TreeShape(3), params_for(7, 2, 3, 4, 5))
    text = format_matrix(m, sparse=sparse)
    n, p, dense = parse_matrix(text)
    assert (n, p) == (3, 7)
    assert (dense == m.dense()).all()
    # byte-exact round trip through format again
    assert format_matrix(m, sparse=sparse) == text


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p,coeffs", [(5, (1, 2, 3, 4)), (7, (0, 3, 0, 5)), (3, (1, 1, 1, 0)),
                                      (2**31 - 1, (2**31 - 2, 0, 12345, 7))])
def test_format_matrix_matches_dense_text(n, p, coeffs):
    """The row-built text equals the text written from the dense matrix,
    zero coefficients included."""
    m = build_rule_matrix(TreeShape(n), params_for(p, *coeffs, allow_zero=True))
    dense = m.dense()
    want = [f"treeca-matrix 1 {n} {p}"] + [" ".join(str(int(v)) for v in row) for row in dense]
    assert format_matrix(m) == "\n".join(want) + "\n"
    triples = [f"{r} {c} {int(dense[r, c])}"
               for r, row in enumerate(position_rows(n)) for c, _ in row if dense[r, c]]
    want = [f"treeca-matrix-coo 1 {n} {p} {len(triples)}"] + triples
    assert format_matrix(m, sparse=True) == "\n".join(want) + "\n"


def first_difference(got: str, want: str):
    """None, or the first (line number, got line, wanted line) that differ: a
    short failure message where a diff of two long texts would take minutes."""
    pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
    return next(((i, g, w) for i, (g, w) in enumerate(pairs) if g != w), None)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), p=st.sampled_from([2, 3, 17, 101, 99_991, 100_003, 2**31 - 1]),
       block=st.sampled_from(["one cell", "one row", "a few rows", "default"]), data=st.data())
def test_matrix_blocks_are_whole_rows_of_the_dense_text(n, p, block, data):
    """The blocks, joined, are the text printed from m.dense(), which is checked
    against the address-built rows, with zero, one-digit and multi-digit (up to
    10-digit) coefficients, often all in one matrix; no marker byte 1-4 of a
    multi-digit coefficient survives. After the header each block holds whole
    rows: dense, as many as _BLOCK cells allow (at least one); COO, the triples
    of each nonempty window of _BLOCK // 4 rows (at least one)."""
    from treeca import rulematrix

    one, many = st.integers(1, min(p, 10) - 1), st.integers(min(10, p - 1), p - 1)
    if p > 10 and data.draw(st.booleans()):  # a zero, a one-digit and a multi-digit coefficient
        coeffs = data.draw(st.permutations([0, data.draw(one), data.draw(many),
                                            data.draw(st.integers(0, p - 1))]))
    else:
        coeffs = [data.draw(st.sampled_from([0, 1, p - 1]) | one | many) for _ in "abcd"]
    m = build_rule_matrix(TreeShape(n), params_for(p, *coeffs, allow_zero=True))
    cells = {"one cell": 1, "one row": m.order, "a few rows": 3 * m.order + 1,
             "default": rulematrix._BLOCK}[block]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rulematrix, "_BLOCK", cells)
        dense_blocks, coo_blocks = (list(rulematrix.matrix_blocks(m, s)) for s in (False, True))
    dense = np.zeros((m.order, m.order), dtype=np.int64)
    for r, row in enumerate(address_rows(m.shape)):
        for c, label in row:
            dense[r, c] = m.params.coeff(label)
    assert (m.dense() == dense).all()
    want = [f"treeca-matrix 1 {n} {p}\n"] + [" ".join(map(str, row)) + "\n" for row in dense.tolist()]
    assert dense_blocks[0] == want[0]
    assert not set("".join(dense_blocks)) & set("\x01\x02\x03\x04")
    assert first_difference("".join(dense_blocks), "".join(want)) is None
    step = max(cells // m.order, 1)
    assert [b.count("\n") for b in dense_blocks[1:]] == [
        min(step, m.order - start) for start in range(0, m.order, step)]
    triples = [f"{r} {c} {v}\n" for (r, c), v in np.ndenumerate(dense) if v]
    assert coo_blocks[0] == f"treeca-matrix-coo 1 {n} {p} {len(triples)}\n"
    assert first_difference("".join(coo_blocks[1:]), "".join(triples)) is None
    for blocks in dense_blocks, coo_blocks:
        assert all(b.endswith("\n") for b in blocks[1:])
    rows = [[int(t.split()[0]) for t in b.splitlines()] for b in coo_blocks[1:]]
    step = max(cells // 4, 1)
    windows = [{r // step for r in block_rows} for block_rows in rows]
    assert all(len(w) == 1 for w in windows)  # no block spans two windows of step rows
    assert [w.pop() for w in windows] == sorted({int(t.split()[0]) // step for t in triples})


def test_positions_are_kept_for_one_level():
    """A library process keeps only the latest level's entry tables: after COO writes
    at n = 13 and then n = 12, less traced memory is held than after n = 13 alone."""
    params = params_for(5, 1, 2, 3, 4)
    _positions.cache_clear()
    tracemalloc.start()
    try:
        held = []
        for n in (13, 12):
            for _ in matrix_blocks(build_rule_matrix(TreeShape(n), params), sparse=True):
                pass
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held[1] < held[0]


# ---------------------------------------------------------------------------
# The one elimination route against independent references

PRIMES = [2, 3, 5, 7, 17, 2**31 - 1]


def continuant_det(a, b, c, d, n, p):
    """Leaf-to-root three-term continuant: q_{n+1}=1, q_n=d,
    q_l = d q_{l+1} - s c q_{l+2}, q_0 = d q_1 - c(s+c) q_2, s = a+b;
    det = q_0 q_1^2 prod_{l>=2} q_l^(3 2^(l-2))."""
    s = a + b
    q = {n + 1: 1, n: d}
    for l in range(n - 1, 0, -1):
        q[l] = d * q[l + 1] - s * c * q[l + 2]
    det = (d * q[1] - c * (s + c) * q[2]) * q[1] ** 2
    for l in range(2, n + 1):
        det *= pow(q[l], 3 * 2 ** (l - 2), p)
    return det % p


def python_rref(rows, p):
    """Gauss-Jordan in Python ints: (rref rows, pivot columns)."""
    m = [[v % p for v in row] for row in rows]
    pivots = []
    for col in range(len(m[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(u - f * v) % p for u, v in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def mat_vec(mat, x, p):
    return [sum(int(u) * int(v) for u, v in zip(row, x)) % p for row in mat]


@st.composite
def rule_tuples(draw, max_n):
    """(p, n, a, b, c, d); about half singular via c = d^2/(a+b) when a+b != 0."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, max_n))
    a, b, c, d = (draw(st.integers(1, p - 1)) for _ in range(4))
    if (a + b) % p and draw(st.booleans()):
        c = d * d * pow(a + b, -1, p) % p
    return p, n, a, b, c, d


@settings(max_examples=80, deadline=None)
@given(rule_tuples(max_n=5))
def test_det_equals_continuant(t):
    p, n, a, b, c, d = t
    m = build_rule_matrix(TreeShape(n), params_for(p, a, b, c, d))
    det = det_mod_p(m)
    assert det == continuant_det(a, b, c, d, n, p) == linalg_report(m).det
    if n <= 2:
        assert det == brute_force_det(m.dense(), p)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_det_mod_random_square_matches_laplace(p, data):
    size = data.draw(st.integers(1, 6))
    entries = st.integers(0, p - 1) | st.just(0)
    mat = np.array(data.draw(st.lists(st.lists(entries, min_size=size, max_size=size),
                                      min_size=size, max_size=size)), dtype=np.int64)
    assert det_mod(mat, p) == brute_force_det(mat, p)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_rref_mod_random_matches_python(p, data):
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 7))
    entries = st.integers(0, p - 1) | st.just(0)
    mat = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    red, pivots = rref_mod(np.array(mat, dtype=np.int64), p)
    want, want_pivots = python_rref(mat, p)
    assert pivots == want_pivots
    assert red.tolist() == want


@settings(max_examples=60, deadline=None)
@given(rule_tuples(max_n=3), st.data())
def test_rref_mod_rule_matrix_matches_python(t, data):
    p, n, a, b, c, d = t
    m = build_rule_matrix(TreeShape(n), params_for(p, a, b, c, d))
    y = data.draw(st.lists(st.integers(0, p - 1), min_size=m.order, max_size=m.order))
    aug = np.hstack([m.dense(), np.array(y, dtype=np.int64).reshape(-1, 1)])
    red, pivots = rref_mod(aug, p)
    assert (red.tolist(), pivots) == python_rref(aug.tolist(), p)
    assert rank_mod_p(m) == len(python_rref(m.dense().tolist(), p)[1])


@settings(max_examples=60, deadline=None)
@given(rule_tuples(max_n=4), st.data())
def test_solve_satisfies_system(t, data):
    p, n, a, b, c, d = t
    m = build_rule_matrix(TreeShape(n), params_for(p, a, b, c, d))
    mat = m.dense().tolist()
    vec = st.lists(st.integers(0, p - 1), min_size=m.order, max_size=m.order)
    x0 = data.draw(vec)
    y = mat_vec(mat, x0, p) if data.draw(st.booleans()) else data.draw(vec)
    sols = solve(m, np.array(y, dtype=np.int64))
    rank = len(python_rref(mat, p)[1])
    consistent = m.order not in python_rref([r + [v] for r, v in zip(mat, y)], p)[1]
    assert sols.consistent == consistent
    if consistent:
        assert mat_vec(mat, sols.particular, p) == y
        assert len(sols.kernel) == m.order - rank
        for k in sols.kernel:
            assert mat_vec(mat, k, p) == [0] * m.order


def address_rows(shape):
    """Rule-matrix rows built from the digit-string address maps."""
    rows = []
    for v in range(shape.total_vertices):
        pi = shape.parent_index(v)
        labels = ("a", "b", "c") if pi is None else ("a", "b")
        entries = [(v, "d")] + list(zip(shape.child_indices(v), labels))
        if pi is not None:
            entries.append((pi, "c"))
        rows.append(tuple(sorted(entries)))
    return tuple(rows)


@pytest.mark.parametrize("n", range(1, 9))
def test_rows_match_address_route(n):
    shape = TreeShape(n)
    assert position_rows(n) == address_rows(shape)


# ---------------------------------------------------------------------------
# The rule matrix as a view of (shape, params)


def test_views_of_equal_shape_and_params_are_equal():
    m, other = (build_rule_matrix(TreeShape(3), params_for(7, 1, 2, 3, 4)) for _ in range(2))
    m.dense()  # one view's dense form is built, the other's is not
    assert set(vars(other)) == {"shape", "params"}
    assert m == other and hash(m) == hash(other)
    assert m != build_rule_matrix(TreeShape(3), params_for(7, 1, 2, 3, 5))


def test_det_rank_and_solve_build_neither_form(capsys, monkeypatch):
    """classify, det, garden and a tree-route solve/kernel_basis read no form
    of any view they make or are given; one at n = 60 could not be built."""
    from treeca.analysis import classify
    from treeca.dynamics import garden_report

    views = []
    monkeypatch.setattr(RuleMatrix, "__post_init__", lambda self: views.append(self))
    classify(2, 1, 3, 3, 6, 17)
    flags = ["-a", "2", "-b", "1", "-c", "3", "-d", "3", "-p", "17"]  # c = d^2/(a+b)
    assert main(["det", "-n", "60", *flags]) == 0
    assert main(["garden", "-n", "5", *flags, "--samples", "2"]) == 0
    assert len(json.loads(capsys.readouterr().out.split("\n", 1)[1])["sample_garden_configs"]) == 2
    m = build_rule_matrix(TreeShape(5), params_for(17, 2, 1, 3, 3))
    assert garden_report(m, samples=2).rank == linalg_report(m).rank < m.order
    assert solve(m, np.zeros(m.order, dtype=np.int64)).consistent and kernel_basis(m)
    assert len(views) == 4
    for view in views:
        assert set(vars(view)) == {"shape", "params"}
    assert linalg_report(build_rule_matrix(TreeShape(60), params_for(17, 2, 1, 3, 3))).rank > 0


def test_linalg_report_at_n_200000():
    m = build_rule_matrix(TreeShape(200_000), params_for(2**31 - 1, 2, 3, 5, 7))
    assert linalg_report(m).det == 2899329  # as the det command printed it before the view
    assert set(vars(m)) == {"shape", "params"}


def test_zero_coefficient_garden_builds_its_dense_form_once(monkeypatch):
    """With b = 0 the census and every seeded draw take the tree route."""
    from functools import cached_property

    from treeca.dynamics import garden_report

    built = []
    dense = RuleMatrix.__dict__["_dense"].func

    def counting(self):
        built.append(self)
        return dense(self)

    prop = cached_property(counting)
    prop.__set_name__(RuleMatrix, "_dense")
    monkeypatch.setattr(RuleMatrix, "_dense", prop)
    m = build_rule_matrix(TreeShape(3), params_for(3, 1, 0, 1, 1, allow_zero=True))
    rep = garden_report(m, samples=3)
    assert rep.rank < m.order and len(rep.sample_garden_configs) == 3
    assert built == []


def test_parse_matrix_names_the_token_past_int64():
    with pytest.raises(FormatError, match=r"^COO triples outside int64$"):
        parse_matrix("treeca-matrix-coo 1 1 5 1\n0 0 99999999999999999999\n")
    with pytest.raises(FormatError, match=r"^residues outside \[0, 5\)$"):
        parse_matrix("treeca-matrix 1 1 5\n99999999999999999999 0 0 0\n" + "0 0 0 0\n" * 3)
    assert parse_matrix("treeca-matrix-coo 1 +1 5 1\n0 0_0 +3\n")[2][0, 0] == 3


@pytest.mark.parametrize("text", [
    "treeca-matrix-coo 1 1 5 1\n-1 -1 3\n",  # numpy would wrap round to (3, 3)
    "treeca-matrix-coo 1 1 5 1\n0 4 3\n",
    "treeca-matrix-coo 1 0 5 0\n",
    "treeca-matrix-coo 1 11 5 0\n",
    "treeca-matrix-coo 1 1000000 5 0\n",
    "treeca-matrix 1 1000000 5\n0\n",
    "treeca-matrix\n",
    # residues that int64 cannot hold
    f"treeca-matrix 1 1 5\n{2**63} 0 0 0\n" + "0 0 0 0\n" * 3,
    f"treeca-matrix 1 1 5\n{-2**63 - 1} 0 0 0\n" + "0 0 0 0\n" * 3,
    "treeca-matrix-coo 1 1 5 1\n0 0 99999999999999999999999\n",
    # tokens that int() would refuse past its 4300-digit limit
    pytest.param(f"treeca-matrix-coo 1 1 5 1\n0 0 {'7' * 5000}\n", id="coo-entry-5000-digits"),
    pytest.param(f"treeca-matrix-coo 1 1 5 1\n{'1' * 5000} 0 3\n", id="coo-index-5000-digits"),
    pytest.param(f"treeca-matrix 1 1 5\n{'7' * 5000} 0 0 0\n" + "0 0 0 0\n" * 3,
                 id="dense-entry-5000-digits"),
    pytest.param(f"treeca-matrix 1 1 {'1' * 5000}\n" + "0 0 0 0\n" * 4, id="header-5000-digits"),
])
def test_parse_matrix_rejects_out_of_range(text, monkeypatch):
    real_zeros = np.zeros

    def guarded_zeros(shape, *args, **kwargs):
        assert np.prod(shape) <= 10**7, f"np.zeros({shape}) before the header was checked"
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded_zeros)
    with pytest.raises(FormatError):
        parse_matrix(text)


# ---------------------------------------------------------------------------
# The level recursion against the dense reduction and the continuant


@st.composite
def level_tuples(draw):
    """(p, n, a, b, c, d) for n = 1..6 with d = 0 allowed; some singular
    via c = d^2/(a+b), some with zeros among a, b, c."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 6))
    a, b, c = (draw(st.integers(1, p - 1)) for _ in range(3))
    d = draw(st.just(0) | st.integers(0, p - 1))
    kind = draw(st.sampled_from(["any", "singular", "zeros"]))
    if kind == "singular" and (a + b) % p and d:
        c = d * d * pow(a + b, -1, p) % p
    elif kind == "zeros":
        a, b, c = (draw(st.sampled_from([0, v])) for v in (a, b, c))
    return p, n, a, b, c, d


@settings(max_examples=150, deadline=None)
@given(level_tuples())
def test_level_recursion_matches_dense_reduction(t):
    p, n, a, b, c, d = t
    shape = TreeShape(n)
    params = params_for(p, a, b, c, d, allow_zero=True)
    m = build_rule_matrix(shape, params)
    rep = linalg_report(m)
    _, pivots, det = _reduce(m.dense(), p)
    assert (rep.det, rep.rank) == (det, len(pivots))
    assert rep.det == continuant_det(a, b, c, d, n, p)
    assert rep.invertible == (rep.rank == shape.total_vertices)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_linalg_report_for_every_small_tuple(n, p):
    """Every (a, b, c, d) in Z_p^4 against the dense reduction of a second
    view: the recursion outside D, the closed form on D (the recursion is
    wrong there, e.g. at c = d = 0), and no dense form of the view asked."""
    shape = TreeShape(n)
    for coeffs in itertools.product(range(p), repeat=4):
        params = params_for(p, *coeffs, allow_zero=True)
        m, oracle = (build_rule_matrix(shape, params) for _ in range(2))
        rep = linalg_report(m)
        _, pivots, det = _reduce(oracle.dense(), p)
        assert (rep.det, rep.rank) == (det, len(pivots)) and "_dense" not in vars(m), coeffs


def table_recursion(n, a, b, c, d, p):
    """(det, rank) read off the full level-size table, det as a product of
    Fermat-reduced powers prod num_l^(S_l - S_(l-1)): a known level
    (den == 0) adds twice its size to the rank, a pivot level its size and
    a zero level (num == 0) nothing."""
    sizes = (1,) + tuple(3 * 2 ** (l - 1) for l in range(1, n + 1))
    det, rank, above = 1, 0, 0
    for size, (num, den) in zip(sizes, _level_schedule(n, a, b, c, d, p)):
        if not den:
            rank += 2 * size
        elif num:
            rank += size
            det = det * pow(num, (size - above) % (p - 1), p) % p
        above = size
    return (det if rank == sum(sizes) else 0), rank


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(PRIMES), n=st.integers(1, 60), data=st.data())
def test_level_recursion_matches_level_tables(p, n, data):
    a, b, c = (data.draw(st.integers(1, p - 1)) for _ in range(3))
    d = data.draw(st.integers(0, p - 1))
    if (a + b) % p and d and data.draw(st.booleans()):
        c = d * d * pow(a + b, -1, p) % p  # a zero level at the leaves' parents
    m = build_rule_matrix(TreeShape(n), params_for(p, a, b, c, d, allow_zero=True))
    rep = linalg_report(m)
    assert (rep.det, rep.rank) == table_recursion(n, a, b, c, d, p)
    assert rep.det == continuant_det(a, b, c, d, n, p)


@st.composite
def level_groups(draw):
    """(p, n, rows) for one array pass: rows (a, b, c, d) in [1, p), some with
    c = d^2/(a+b) (a zero level at the leaves' parents), a + b = 0 or
    a + b + c = 0 mod p; n up to 80, so ranks pass 2^63 from n = 62."""
    p = draw(st.sampled_from([2, 3, 5, 17, 65521, 2**31 - 1]))
    n = draw(st.integers(1, 80))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        a, b, c, d = (draw(st.integers(1, p - 1)) for _ in range(4))
        kind = draw(st.sampled_from(["any", "singular", "a+b", "a+b+c"]))
        if kind == "singular" and (a + b) % p:
            c = d * d * pow(a + b, -1, p) % p
        elif kind == "a+b":
            b = p - a
        elif kind == "a+b+c" and (a + b) % p:
            c = -(a + b) % p
        rows.append((a, b, c, d))
    return p, n, rows


def batch_pass(n, rows, p):
    """_level_recursion over int64 arrays of the rows, as (det, rank) pairs;
    it must equal the one-tuple calls."""
    det, rank = _level_recursion(n, *np.array(rows, dtype=np.int64).T, p)
    pairs = list(zip(det.tolist(), rank.tolist()))
    assert all(type(r) is int for _, r in pairs)
    assert pairs == [_level_recursion(n, *r, p) for r in rows]
    return pairs


def level_oracle(n, row, p):
    """(det, rank) by the dense reduction for n <= 4, above that by
    continuant_det and table_recursion."""
    if n <= 4:
        _, pivots, det = _reduce(build_rule_matrix(TreeShape(n), params_for(p, *row)).dense(), p)
        return det, len(pivots)
    det, rank = table_recursion(n, *row, p)
    assert det == continuant_det(*row, n, p)
    return det, rank


@settings(max_examples=200, deadline=None)
@given(level_groups())
def test_level_recursion_batch_matches_scalar(group):
    p, n, rows = group
    assert batch_pass(n, rows, p) == [level_oracle(n, r, p) for r in rows]


@st.composite
def mixed_moduli(draw):
    """(n, rows, moduli): the rows of several level_groups, each over its own
    prime, shuffled together at one n."""
    n, rows, moduli = draw(st.integers(1, 80)), [], []
    for _ in range(draw(st.integers(1, 4))):
        p, _, group = draw(level_groups())
        rows += group
        moduli += [p] * len(group)
    order = draw(st.permutations(range(len(rows))))
    return n, [rows[i] for i in order], [moduli[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(mixed_moduli())
def test_level_recursion_over_mixed_moduli_matches_each_tuple(case):
    """One array pass with p an array too, as sweep and table1 make one per level
    count, against the one-tuple recursion; the ranks are int64 exactly while
    |V_n| < 2^63 (n <= 61)."""
    n, rows, moduli = case
    det, rank = _level_recursion(n, *np.array(rows, dtype=np.int64).T,
                                 np.array(moduli, dtype=np.int64))
    assert rank.dtype == (np.int64 if n <= 61 else object)
    assert list(zip(det.tolist(), rank.tolist())) == [
        _level_recursion(n, *row, p) for row, p in zip(rows, moduli)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_level_recursion_batch_restarts_after_zero_levels(p):
    """Every tuple of (Z_p^*)^4 at n = 1..12 in one pass per n, against
    level_oracle; the set includes tuples with several zero levels
    (a restart above each) and with a zero level 1 under a known root.
    (Z_2^*)^4 has one tuple, whose only zero level is the root's."""
    rows = list(itertools.product(range(1, p), repeat=4))
    restarts = known_root = 0
    for n in range(1, 13):
        assert batch_pass(n, rows, p) == [level_oracle(n, r, p) for r in rows]
        for r in rows:
            sched = _level_schedule(n, *r, p)
            restarts += sum(not num for num, _ in sched) >= 2
            known_root += not sched[0][1]
    assert restarts and known_root


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_reversibility_on_the_papers_domain_at_every_n(p):
    """README's scope note, on every tuple of (Z_p^*)^4 at n <= 2(p+2), in the
    sweep's array pass: a + b = 0 gives det = d^(|V_n|-2) (d^2 - c^2); a + b != 0
    is singular at every n >= p, and at no smaller n for all of them; at n >= p
    exactly (p-3)(p-1)^2 tuples are reversible."""
    a, b, c, d = np.array(list(itertools.product(range(1, p), repeat=4)), dtype=np.int64).T
    opposite = (a + b) % p == 0
    for n in range(1, 2 * (p + 2) + 1):
        det = _level_recursion(n, a, b, c, d, p)[0]
        dn = np.array([pow(v, ball_size(n) - 2, p) for v in range(p)])[d]
        assert (det == dn * ((d * d - c * c) % p) % p)[opposite].all()
        if n >= p:
            assert not det[~opposite].any()
            assert np.count_nonzero(det) == (p - 3) * (p - 1) ** 2
        else:  # the bound is sharp: below it some tuple with a + b != 0 is reversible
            assert det[~opposite].any()


@pytest.mark.parametrize("n", [64, 80])
def test_level_recursion_rank_past_int64_with_a_zero_level(n):
    """One tuple whose rank passes 2^63, with c = d^2/(a+b): the leaves'
    parents are a zero level."""
    coeffs = (2, 1, C31, 3)
    assert not _level_schedule(n, *coeffs, P31)[n - 1][0]
    det, rank = _level_recursion(n, *coeffs, P31)
    assert type(det) is int and type(rank) is int and 2**63 < rank < ball_size(n)
    assert (det, rank) == table_recursion(n, *coeffs, P31)
    assert det == continuant_det(*coeffs, n, P31) == 0


def test_det_at_n_20000_builds_no_level_tables(capsys, monkeypatch):
    def unbuilt(self):
        raise AssertionError("level table built")

    monkeypatch.setattr(TreeShape, "level_offsets", property(unbuilt))
    flags = ["-a", "2", "-b", "3", "-c", "5", "-d", "7"]
    assert main(["det", "-n", "20000", "-p", str(2**31 - 1), *flags]) == 0
    assert capsys.readouterr().out == "1014424148\n"  # as read off the level tables


def test_large_levels_never_form_the_vertex_count(capsys, monkeypatch):
    """TreeShape forms |V_n| only when it is read: det at n = 20000 (whose
    rank still forms it once), classify at n = 2000 and the probe at n = 10^12
    answer without reading it."""
    def unread(self):
        raise AssertionError("TreeShape.total_vertices read")

    monkeypatch.setattr(TreeShape, "total_vertices", property(unread))
    flags = ["-a", "2", "-b", "3", "-c", "5", "-d", "7"]
    assert main(["det", "-n", "20000", "-p", str(2**31 - 1), *flags]) == 0
    assert capsys.readouterr().out == "1014424148\n"
    assert main(["classify", "-n", "2000", "-p", "17", *flags]) == 0
    assert capsys.readouterr().out.startswith("a=2 b=3 c=5 d=7 n=2000 p=17 det=")
    units = ["-a", "1", "-b", "1", "-c", "1", "-d", "1"]
    assert main(["probe", "-n", str(10**12), "-p", "3", *units, "--steps", "3"]) == 0
    assert capsys.readouterr().out == (f"steps=3 truncation_level={10**12} p=3 mode=root\n"
                                       "observed_atom_count=27\nclaimed_atom_count=31381059609\n")


def test_tree_route_reads_no_neighbour_table(monkeypatch):
    """Outside D, solve, kernel_basis, garden_report and invert read each level's
    children as the next level's rows: no per-vertex table of the matrix's entries
    (_positions) is built. Each answer is checked by the local rule."""
    from treeca import rulematrix
    from treeca.dynamics import garden_report

    def unbuilt(*args):
        raise AssertionError("neighbour table built")

    monkeypatch.setattr(rulematrix, "_positions", unbuilt)
    rng = np.random.default_rng(5)
    for coeffs in ((1, 16, 3, 2), (2, 1, 3, 3), (1, 1, 1, 0)):  # full rank, zero levels, d = 0
        m = build_rule_matrix(TreeShape(5), params_for(17, *coeffs, allow_zero=True))
        rank = linalg_report(m).rank
        y = _apply_local(rng.integers(0, 17, m.order)[None], m.shape, m.params)[0]
        sols = solve(m, y)
        assert (_apply_local(sols.particular[None], m.shape, m.params)[0] == y).all()
        kernel = np.array(kernel_basis(m), dtype=np.int64).reshape(-1, m.order)
        assert len(kernel) == m.order - rank and not _apply_local(kernel, m.shape, m.params).any()
        rep = garden_report(m, samples=2)
        assert rep.rank == rank
        assert len(rep.sample_garden_configs) == (0 if rank == m.order else 2)
        if rank == m.order:
            inv = invert(m)
            assert (_apply_local(inv.T, m.shape, m.params) == np.eye(m.order)).all()


def test_level_recursion_rank_with_zero_pivot_level():
    # level 1 has a zero pivot: d - (a+b)c/d = 4 - 3*2/4 = 0 mod 5; a sum of
    # per-level ranks over symmetry blocks gives 7
    m = build_rule_matrix(TreeShape(2), params_for(5, 2, 1, 2, 4))
    assert (linalg_report(m).det, rank_mod_p(m)) == (0, 8)
    assert len(_reduce(m.dense(), 5)[1]) == 8


def test_classify_det_matrix_assemble_no_dense_matrix(capsys, monkeypatch):
    p, coeffs = 2**31 - 1, (2, 1, 3, 2)
    flags = ["-a", "2", "-b", "1", "-c", "3", "-d", "2"]
    want = build_rule_matrix(TreeShape(6), params_for(p, *coeffs)).dense().copy()

    def no_dense(self):
        raise AssertionError("dense rule matrix assembled")

    monkeypatch.setattr(RuleMatrix, "dense", no_dense)
    assert main(["classify", "-n", "12", "-p", str(p), *flags]) == 0
    out = capsys.readouterr().out
    assert f"det={continuant_det(*coeffs, 12, p)} rank=12286 verdict=reversible" in out
    assert main(["det", "-n", "64", "-p", str(p), *flags]) == 0
    assert capsys.readouterr().out == f"{continuant_det(*coeffs, 64, p)}\n"
    for sparse in ([], ["--sparse"]):
        assert main(["matrix", "-n", "6", "-p", str(p), *flags, *sparse]) == 0
        assert (parse_matrix(capsys.readouterr().out)[2] == want).all()


# ---------------------------------------------------------------------------
# The tree solve against the dense reduction of [M | y]


def dense_solve(m, y):
    """(consistent, particular, kernel) from rref_mod of [M | y]: the
    particular solution is 0 at the free columns, and kernel vector f is 1
    at free column f and 0 at the others."""
    n, p = m.order, m.p
    red, pivots = rref_mod(np.hstack([m.dense(), y.reshape(-1, 1)]), p)
    if n in pivots:
        return False, None, []
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = red[: len(pivots), n]
    free = [f for f in range(n) if f not in pivots]
    kernel = []
    for f in free:
        k = np.zeros(n, dtype=np.int64)
        k[f] = 1
        k[pivots] = -red[: len(pivots), f] % p
        kernel.append(k)
    return True, x, kernel


@st.composite
def solve_cases(draw):
    """(p, n, a, b, c, d, y): a*b*c != 0 mod p, d = 0 allowed, about a
    third singular via c = d^2/(a+b); y = M x half of the time, else random
    (mostly outside the image when M is singular)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 2**31 - 1]))
    n = draw(st.integers(1, 6))
    a, b, c = (draw(st.integers(1, p - 1)) for _ in range(3))
    d = draw(st.just(0) | st.integers(0, p - 1))
    if (a + b) % p and d and draw(st.integers(0, 2)) == 0:
        c = d * d * pow(a + b, -1, p) % p
    m = build_rule_matrix(TreeShape(n), params_for(p, a, b, c, d, allow_zero=True))
    vec = st.lists(st.integers(0, p - 1), min_size=m.order, max_size=m.order)
    y = draw(vec)
    if draw(st.booleans()):
        y = mat_vec(m.dense().tolist(), y, p)
    return m, np.array(y, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(solve_cases())
def test_tree_solve_matches_dense_reduction(case):
    m, y = case
    consistent, x, kernel = dense_solve(m, y)
    sols = solve(m, y)
    assert sols.consistent == consistent
    if consistent:
        assert (sols.particular == x).all()
        assert len(sols.kernel) == len(kernel)
        for got, want in zip(sols.kernel, kernel):
            assert (got == want).all()
    assert [k.tolist() for k in kernel_basis(m)] == [k.tolist() for k in dense_solve(m, 0 * y)[2]]


@pytest.mark.parametrize("p", [2, 3])
def test_solve_every_small_tuple(p):
    """Every (a, b, c, d) in Z_p^4 at n = 1, 2, 3 (the tree route outside D,
    the direct one on D) against the dense reduction of [M | y], for y = 0,
    two y = M x (inside the image), and e_0 and a random y (mostly outside
    it when M is singular); each view is solved before any dense form of it
    is built."""
    rng = np.random.default_rng(p)
    for n, coeffs in itertools.product((1, 2, 3), itertools.product(range(p), repeat=4)):
        params = params_for(p, *coeffs, allow_zero=True)
        m, oracle = build_rule_matrix(TreeShape(n), params), build_rule_matrix(TreeShape(n), params)
        x = rng.integers(0, p, (2, m.order))
        ys = [np.zeros(m.order, dtype=np.int64), *_apply_local(x, m.shape, params),
              np.eye(1, m.order, 0, dtype=np.int64)[0], rng.integers(0, p, m.order)]
        got = [solve(m, y) for y in ys] + [kernel_basis(m)]
        assert "_dense" not in vars(m), coeffs
        assert [k.tolist() for k in got[-1]] == [k.tolist() for k in dense_solve(oracle, ys[0])[2]]
        for y, sols in zip(ys, got):
            consistent, want, kernel = dense_solve(oracle, y)
            assert sols.consistent == consistent, (n, coeffs, y)
            if consistent:
                assert (sols.particular == want).all()
                assert [k.tolist() for k in sols.kernel] == [k.tolist() for k in kernel]


P31 = 2**31 - 1
C31 = 9 * pow(3, -1, P31) % P31  # c = d^2/(a+b) for (a, b, d) = (2, 1, 3)
B31 = (24 * pow(10, -1, P31) - 2) % P31  # b = (d^2 - c^2)/(2c) - a for (a, c, d) = (2, 5, 7)


# ---------------------------------------------------------------------------
# Zero coefficients: the tree route outside D, closed forms and a direct pass on
# D = {d = 0, and c = 0 or a = b = 0}

ZERO_PATTERNS = ["b = 0", "a = 0", "c = 0, d != 0", "D: c = d = 0", "D: a = b = d = 0", "n = 1"]


@st.composite
def zero_pattern_cases(draw):
    """(p, n, (a, b, c, d), seed, inside) for one zero pattern: b = 0 or a = 0
    (a third of them with c = d^2/(a+b), a zero level at the leaves' parents,
    and a third with d = 0, zero leaves), c = 0 with d != 0, each branch of
    D, or n = 1 with any zeros. y = M x if inside, else random."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, P31]))
    n = draw(st.integers(1, 6))
    a, b, c, d = (draw(st.integers(1, p - 1)) for _ in range(4))
    kind = draw(st.sampled_from(ZERO_PATTERNS))
    if kind == "n = 1":
        n, (a, b, c, d) = 1, (draw(st.sampled_from([0, v])) for v in (a, b, c, d))
    elif kind == "D: c = d = 0":
        c, d, a, b = 0, 0, draw(st.sampled_from([0, a])), draw(st.sampled_from([0, b]))
    elif kind == "D: a = b = d = 0":
        a, b, d = 0, 0, 0
    elif kind == "c = 0, d != 0":
        c = 0
    else:
        a, b = (0, b) if kind == "a = 0" else (a, 0)
        level = draw(st.sampled_from(["any", "c = d^2/(a+b)", "d = 0"]))
        c = d * d * pow(a + b, -1, p) % p if level == "c = d^2/(a+b)" else c
        d = 0 if level == "d = 0" else d
    return p, n, (a, b, c, d), draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(zero_pattern_cases())
@example((P31, 6, (2, 0, 3, 0), 1, True))  # b = 0, zero leaves: a fixes each c1
@example((P31, 5, (0, 2, 9 * pow(2, -1, P31) % P31, 3), 2, True))  # a = 0, zero level 4 and 1
@example((P31, 4, (2, 3, 0, 7), 3, False))  # c = 0, d != 0: upper triangular, invertible
@example((P31, 5, (2, 3, 0, 0), 4, True))  # D, c = d = 0
@example((P31, 5, (2, 3, 0, 0), 4, False))
@example((P31, 5, (0, 0, 5, 0), 5, True))  # D, a = b = d = 0
@example((P31, 1, (0, 0, 5, 0), 6, True))  # ... at n = 1, where column 3 is a leaf
@example((P31, 1, (0, 0, 0, 0), 7, False))  # M = 0
def test_zero_patterns_match_the_dense_oracle(case):
    """det, rank and solve for every zero pattern equal the dense reduction
    of M and of [M | y], which is read off a separate view of (shape, params)."""
    m, y = canonical_case(case)
    oracle = build_rule_matrix(m.shape, m.params)
    rep = linalg_report(m)
    _, pivots, det = _reduce(oracle.dense(), m.p)
    assert (rep.det, rep.rank) == (det, len(pivots))
    consistent, x, kernel = dense_solve(oracle, y)
    sols = solve(m, y)
    assert sols.consistent == consistent >= case[4]
    if consistent:
        assert (sols.particular == x).all()
        assert [k.tolist() for k in sols.kernel] == [k.tolist() for k in kernel]
    assert "_dense" not in vars(m)


def test_no_zero_pattern_reads_a_dense_form_or_eliminates(monkeypatch):
    """With RuleMatrix._dense, _reduce and rref_mod refusing, linalg_report and
    solve answer for each of the 16 zero patterns of (a, b, c, d) at n = 1, 2, 4:
    y = M x is in the image, each particular solution maps to its y and each
    kernel vector to 0, and there are |V_n| - rank of them."""
    from treeca import rulematrix

    def refuse(*args):
        raise AssertionError("dense form or general elimination")

    for name in ("_reduce", "rref_mod"):
        monkeypatch.setattr(rulematrix, name, refuse)
    monkeypatch.setattr(RuleMatrix, "_dense", property(refuse))
    rng = np.random.default_rng(0)
    for n, keep in itertools.product((1, 2, 4), itertools.product((0, 1), repeat=4)):
        coeffs = [v * k for v, k in zip((1, 1, 2, 2), keep)]  # c = d^2/(a+b): a zero level
        m = build_rule_matrix(TreeShape(n), params_for(7, *coeffs, allow_zero=True))
        rank = linalg_report(m).rank
        inside = _apply_local(rng.integers(0, 7, (1, m.order)), m.shape, m.params)[0]
        assert solve(m, inside).consistent, (n, coeffs)
        for y in (inside, np.zeros(m.order, dtype=np.int64), rng.integers(0, 7, m.order)):
            sols = solve(m, y)
            if sols.consistent:
                kernel = np.array(sols.kernel, dtype=np.int64).reshape(-1, m.order)
                assert len(kernel) == m.order - rank, (n, coeffs)
                assert not _apply_local(kernel, m.shape, m.params).any()
                assert (_apply_local(sols.particular[None], m.shape, m.params)[0] == y).all()


@pytest.mark.parametrize("coeffs,rank", [
    ((1, 1, 0, 0), ball_size(39)),  # c = d = 0: each inner row a x_c1 + b x_c2
    ((0, 2, 0, 0), ball_size(39)),
    ((0, 0, 3, 0), ball_size(39)),  # a = b = d = 0: each row c x_parent, the root's c x_3
    ((0, 0, 0, 0), 0),
])
def test_degenerate_det_and_rank_at_n_40_build_no_tables(coeffs, rank, capsys, monkeypatch):
    """On D, det and rank are closed forms: no level table, no per-vertex
    table (_positions), and a traced peak below 64 kB; classify prints them at n = 40."""
    from treeca import rulematrix

    def unbuilt(*args):
        raise AssertionError("table built")

    monkeypatch.setattr(TreeShape, "level_offsets", property(unbuilt))
    monkeypatch.setattr(rulematrix, "_positions", unbuilt)
    m = build_rule_matrix(TreeShape(40), params_for(5, *coeffs, allow_zero=True))
    tracemalloc.start()
    try:
        rep = linalg_report(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.det, rep.rank, rep.invertible) == (0, rank, False) and peak < 1 << 16
    flags = [f"-{k}={v}" for k, v in zip("abcd", coeffs)]
    assert main(["classify", "-n", "40", "-p", "5", *flags, "--allow-zero-coeffs"]) == 0
    assert capsys.readouterr().out.endswith(f"det=0 rank={rank} verdict=irreversible\n")


def test_tree_back_sums_a_zero_level_in_place():
    """d = 0 at n = 10 (p = 17, (1, 1, 1, 0)): zero levels 10, 8, ..., 2 and
    the root, and 1025 kernel rows. _tree_back's traced peak is its basis
    plus at most 2 MB: the zero levels' sums are made in the basis itself."""
    n, coeffs = 10, (1, 1, 1, 0, 17)
    shape, y = TreeShape(n), np.zeros(ball_size(n), dtype=np.int64)
    sched = _level_schedule(n, *coeffs)
    w = _tree_sweep(shape, sched, 1, 1, 1, 17, y)
    tracemalloc.start()
    try:
        x = _tree_back(shape, sched, w, coeffs, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (1025, ball_size(n)) and peak < x.nbytes + (2 << 20)


def test_kernel_basis_builds_no_dense_matrix(monkeypatch):
    """kernel_basis takes the tree route whenever a*b*c != 0 mod p."""
    def no_dense(self):
        raise AssertionError("dense rule matrix assembled")

    m = build_rule_matrix(TreeShape(10), params_for(P31, 2, 1, C31, 3))
    monkeypatch.setattr(RuleMatrix, "dense", no_dense)
    basis = np.array(kernel_basis(m))
    assert basis.shape == (m.order - linalg_report(m).rank, m.order) and basis.shape[0] > 0
    assert not _apply_local(basis, m.shape, m.params).any()


def test_consistent_singular_solve_builds_one_level_schedule(monkeypatch):
    """_tree_solve reads the nullity off the schedule it sweeps with."""
    from treeca import rulematrix

    built = []
    schedule = rulematrix._level_schedule

    def counting_schedule(*args):
        built.append(args)
        return schedule(*args)

    m = build_rule_matrix(TreeShape(5), params_for(17, 2, 1, 3, 3))  # c = d^2/(a+b)
    y = mat_vec(m.dense().tolist(), list(range(m.order)), 17)
    nullity = m.order - linalg_report(m).rank
    monkeypatch.setattr(rulematrix, "_level_schedule", counting_schedule)
    sols = solve(m, np.array(y, dtype=np.int64))
    assert sols.consistent and len(sols.kernel) == nullity > 0
    assert len(built) == 1


@pytest.mark.parametrize("n,coeffs", [
    (2, (2, 1, C31, 3)),  # level 1 zero: the root row fixes vertex 3
    (3, (2, 1, C31, 3)),  # level 2 zero: each level-1 row fixes its second child
    (5, (2, 1, C31, 3)),  # zero levels 1 and 4
    (6, (2, 1, C31, 3)),  # zero levels 2 and 5
    (2, (2, B31, 5, 7)),  # only the root's pivot is zero
    (4, (2, 3, 5, 7)),  # full rank
])
def test_tree_back_branches_match_dense_reduction(n, coeffs):
    """Each branch of the one back-substitution pass, for y inside and
    (when M is singular) outside the image."""
    m = build_rule_matrix(TreeShape(n), params_for(P31, *coeffs))
    rank = linalg_report(m).rank
    rng = np.random.default_rng(n)
    inside = mat_vec(m.dense().tolist(), rng.integers(0, P31, m.order).tolist(), P31)
    for y, in_image in ((np.array(inside, dtype=np.int64), True),
                        (rng.integers(0, P31, m.order), rank == m.order)):
        consistent, x, kernel = dense_solve(m, y)
        sols = solve(m, y)
        assert sols.consistent == consistent == in_image
        if consistent:
            assert len(sols.kernel) == len(kernel) == m.order - rank
            assert (sols.particular == x).all()
            for got, want in zip(sols.kernel, kernel):
                assert (got == want).all()


# ---------------------------------------------------------------------------
# The canonical basis by zero levels against the general RREF it replaced


def rref_tree_solve(m, y):
    """The former _tree_solve: rref_mod of _tree_back's rows, with the unit
    column of [M | -y] appended ((particular, 1), then (kernel vector, 0)), with
    the columns reversed, read backwards."""
    a, b, c, d, p = m.params.a, m.params.b, m.params.c, m.params.d, m.p
    sched = _level_schedule(m.shape.n, a, b, c, d, p)
    w = _tree_sweep(m.shape, sched, a, b, c, p, y)
    if w is None:
        return None
    rows = _tree_back(m.shape, sched, w, (a, b, c, d, p), y)
    span = np.hstack([rows, np.eye(len(rows), 1, dtype=np.int64)])
    return rref_mod(span[:, ::-1], p)[0][::-1, ::-1]


@functools.lru_cache(maxsize=None)
def zero_level_tuples(p, n, level):
    """Every (a, b, c, d) in (Z_p^*)^4 whose level-n schedule is zero at level."""
    return [t for t in itertools.product(range(1, p), repeat=4)
            if not _level_schedule(n, *t, p)[level][0]]


@st.composite
def canonical_cases(draw):
    """(p, n, (a, b, c, d), seed, inside) with a*b*c != 0 mod p: random,
    c = d^2/(a+b) (zero levels n-1, n-4, ...), d = 0 (zero leaves), a zero at
    level 1 or a zero root. For p < 100 the last two are drawn from every
    such tuple; for 2^31-1 level 1 is zero at n = 2, 5, 8 with c = d^2/(a+b),
    and the root at n = 1 with a+b = (d^2 - c^2)/c, at n = 2 with
    a+b = (d^2 - c^2)/(2c). y = M x if inside, else random (mostly outside
    the image of a singular M)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, P31]))
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["random", "c = d^2/(a+b)", "d = 0", "zero level 1", "zero root"]))
    a, c, d = (draw(st.integers(1, p - 1)) for _ in range(3))
    b = draw(st.integers(1, p - 1).filter(lambda b: p == 2 or (a + b) % p))
    if kind == "d = 0":
        d = 0
    elif kind.startswith("zero") and p < 100:
        pool = zero_level_tuples(p, n, 1 if kind == "zero level 1" else 0)
        a, b, c, d = draw(st.sampled_from(pool)) if pool else (a, b, c, d)
    elif kind == "zero root":
        n = draw(st.sampled_from([1, 2]))
        b = ((d * d - c * c) * pow(n * c, -1, p) - a) % p or b
    elif kind != "random" and (a + b) % p:  # c = d^2/(a+b); for level 1, n = 2, 5 or 8
        n = draw(st.sampled_from([2, 5, 8])) if kind == "zero level 1" else n
        c = d * d * pow(a + b, -1, p) % p
    return p, n, (a, b, c, d), draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


def canonical_case(case):
    """The rule matrix and target y of a canonical_cases draw."""
    p, n, coeffs, seed, inside = case
    m = build_rule_matrix(TreeShape(n), params_for(p, *coeffs, allow_zero=True))
    y = np.random.default_rng(seed).integers(0, p, m.order)
    return m, _apply_local(y[None], m.shape, m.params)[0] if inside else y


@settings(max_examples=250, deadline=None)
@given(canonical_cases())
@example((P31, 5, (2, 1, C31, 3), 1, True))  # zero levels 4 and 1
@example((P31, 5, (2, 1, C31, 3), 1, False))
@example((P31, 2, (2, B31, 5, 7), 2, True))  # only the root's pivot is zero
@example((P31, 2, (2, B31, 5, 7), 2, False))
@example((7, 9, (1, 1, 2, 1), 3, True))  # a zero root over zero levels 3 and 7
@example((7, 9, (1, 1, 2, 1), 3, False))
def test_tree_solve_matches_the_rref_route(case):
    """The canonical basis by zero levels equals the general RREF route,
    row for row, and both find y outside the image alike."""
    m, y = canonical_case(case)
    want, got = rref_tree_solve(m, y), _tree_solve(m, y)
    assert (got is None) == (want is None)
    assert case[4] <= (got is not None)  # y = M x is always in the image
    if want is not None:
        particular, kernel = got
        basis = [np.r_[k, 0] for k in kernel] + [np.r_[particular, 1]]
        assert np.array_equal(np.array(basis), want)


def assert_canonical(m, y):
    """solve(m, y) without a dense oracle: each kernel vector is 1 at its
    last nonzero entry, its free column, and every other kernel vector is 0
    there; each maps to 0, and there are |V_n| - rank of them; the
    particular solution maps to y and is 0 at the free columns. A null space
    basis with these properties, ordered by free column, is unique, so this
    is kernel_basis_mod's basis of [M | -y]."""
    sols = solve(m, y)
    assert sols.consistent
    kernel = np.array(sols.kernel).reshape(-1, m.order)
    assert len(kernel) == m.order - linalg_report(m).rank > 0
    free = m.order - 1 - (kernel[:, ::-1] != 0).argmax(axis=1)
    assert (np.diff(free) > 0).all()
    assert (kernel[:, free] == np.eye(len(free), dtype=np.int64)).all()
    assert not _apply_local(kernel, m.shape, m.params).any()
    assert (_apply_local(sols.particular[None], m.shape, m.params)[0] == y).all()
    assert not sols.particular[free].any()
    return free


@pytest.mark.parametrize("n,p,coeffs", [
    (10, P31, (2, 1, C31, 3)),  # zero levels 9, 6, 3
    (11, P31, (2, 1, C31, 3)),  # zero levels 10, 7, 4, 1
    (10, P31, (2, 1, 3, 0)),  # d = 0: zero levels 10, 8, ..., 2 and the root
    (11, 11, (1, 1, 8, 5)),  # zero levels 8, 3 and the root
    (10, 11, (1, 1, 2, 4)),  # level 1 alone
])
def test_tree_solve_is_canonical_at_n_10_and_11(n, p, coeffs):
    m = build_rule_matrix(TreeShape(n), params_for(p, *coeffs, allow_zero=True))
    x = np.random.default_rng(n).integers(0, p, m.order)
    free = assert_canonical(m, _apply_local(x[None], m.shape, m.params)[0])
    assert (free >= m.shape.level_offsets[n]).all()  # the free columns are leaves


def test_singular_tree_solve_runs_no_general_elimination(monkeypatch):
    """With a*b*c != 0 mod p, solve and kernel_basis call neither rref_mod
    nor _reduce, and build no dense matrix."""
    from treeca import rulematrix

    m = build_rule_matrix(TreeShape(8), params_for(P31, 2, 1, C31, 3))  # zero levels 7, 4, 1
    x = np.random.default_rng(8).integers(0, P31, m.order)
    y = _apply_local(x[None], m.shape, m.params)[0]

    def refuse(*args):
        raise AssertionError("general elimination on the tree route")

    for name in ("rref_mod", "_reduce"):
        monkeypatch.setattr(rulematrix, name, refuse)
    monkeypatch.setattr(RuleMatrix, "dense", refuse)
    assert_canonical(m, y)
    assert len(kernel_basis(m)) == m.order - linalg_report(m).rank
    assert not solve(m, np.random.default_rng(9).integers(0, P31, m.order)).consistent


def test_no_route_reaches_the_dense_oracle(monkeypatch):
    """With rref_mod, _reduce, det_mod, kernel_basis_mod and the dense form
    raising, invert, solve, garden_report and preimages answer, on a full-rank
    tuple, one with zero levels and two on D, and so do the commands that build
    a rule matrix: only step_matrix, the dense oracle, reads the dense form."""
    from treeca import rulematrix
    from treeca.dynamics import Configuration, garden_report, preimages

    def refuse(*args):
        raise AssertionError("the dense oracle on a production route")

    for name in ("rref_mod", "_reduce", "det_mod", "kernel_basis_mod"):
        monkeypatch.setattr(rulematrix, name, refuse)
    monkeypatch.setattr(RuleMatrix, "dense", refuse)
    monkeypatch.setattr(RuleMatrix, "_dense", property(refuse))
    rng = np.random.default_rng(4)
    for coeffs, invertible in (((1, 16, 3, 2), True), ((2, 1, 3, 3), False),
                               ((1, 2, 0, 0), False), ((0, 0, 3, 0), False)):
        m = build_rule_matrix(TreeShape(4), params_for(17, *coeffs, allow_zero=True))
        if invertible:
            inv = invert(m)
            assert (_apply_local(inv.T, m.shape, m.params) == np.eye(m.order)).all()
        else:
            with pytest.raises(SingularMatrix):
                invert(m)
        x = rng.integers(0, 17, m.order)
        y = _apply_local(x[None], m.shape, m.params)[0]
        assert solve(m, y).consistent
        sols = preimages(Configuration(m.shape, 17, y), m)
        assert (_apply_local(sols.particular[None], m.shape, m.params)[0] == y).all()
        rep = garden_report(m, samples=2)
        assert rep.rank == linalg_report(m).rank
        assert len(rep.sample_garden_configs) == (0 if invertible else 2)
    flags = ["-n", "4", "-p", "17", "-a", "2", "-b", "1", "-c", "3", "-d", "3"]
    for argv in (["det", *flags], ["classify", *flags], ["garden", *flags, "--samples", "2"],
                 ["matrix", *flags], ["matrix", *flags, "--sparse"], ["probe", *flags],
                 ["sweep", "--p-values", "17", "--n-values", "2,3", "--random", "5"],
                 ["table1"]):
        assert main(argv) == 0, argv


def test_level_recursion_at_n_100000_keeps_no_level_list():
    """The recursion folds its levels as it goes: at n = 10^5 its traced
    peak stays below 1 MB (a list of the levels' (num, den) took about 7).
    With c = d^2/(a+b) the zero levels are 3, 6, ..., n - 1."""
    n = 10**5
    tracemalloc.start()
    try:
        det, rank = _level_recursion(n, 2, 1, C31, 3, P31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert det == 0 and rank == ball_size(n) - sum(3 << (l - 2) for l in range(3, n, 3))


# residues of every decimal width and either side of 2^32 and 2^63
_EDGE_INTS = sorted({10**k + e for k in range(19) for e in (-1, 0, 1)}
                    | {2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1})
_WORDS = st.text(st.sampled_from('ab,:[]{} "\n'), max_size=9)  # heads and ends of 0-9 characters


@st.composite
def _row_tables(draw):
    """(table, heads, ends, end, cuts): an int64 table of edge values and small ones, or an
    object table with ints past 2^63; heads and ends per column, all empty at times."""
    cols, rows = draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 7, 40, _BLOCK // 36 + 3]))
    if draw(st.booleans()):
        ints = st.one_of(st.sampled_from(_EDGE_INTS), st.integers(0, 2**63 - 1), st.integers(0, 200))
        dtype = np.int64
    else:
        ints = st.one_of(st.integers(0, 10**30), st.sampled_from([2**63, 2**64 + 1, 10**19, 0]))
        dtype = object
    seed = draw(st.integers(0, 2**32 - 1))
    pool = np.array(draw(st.lists(ints, min_size=1, max_size=8)), dtype=dtype)
    table = pool[np.random.default_rng(seed).integers(0, len(pool), (cols, rows))]
    heads = draw(st.one_of(st.just([""]), st.lists(_WORDS, min_size=1, max_size=cols)))
    ends = draw(st.one_of(st.just([""]), st.lists(_WORDS, min_size=1, max_size=3)))
    end = None if draw(st.booleans()) else np.random.default_rng(seed).integers(0, len(ends), rows)
    inner = draw(st.sets(st.integers(1, rows - 1), max_size=4)) if rows > 1 else set()
    cuts = None if draw(st.booleans()) else [0, *sorted(inner), rows]
    return table, heads, ends, end, cuts


@settings(max_examples=300, deadline=None)
@given(case=_row_tables())
@example(case=(np.array([[1, 3], [3, 3], [3, 2], [2, 4]]), [""], [""], None, None))
def test_row_blocks_is_the_text_of_its_heads_values_and_ends(case):
    """Each block of _row_blocks is its whole rows as plain Python writes them: the
    column's head (the last head for every later column) and str(value), then the row's end."""
    table, heads, ends, end, cuts = case
    rows = ["".join(heads[min(j, len(heads) - 1)] + str(int(table[j, i])) for j in range(len(table)))
            + ends[0 if end is None else int(end[i])] for i in range(table.shape[1])]
    bounds = [*range(0, len(rows), _BLOCK // 36), len(rows)] if cuts is None else cuts
    want = ["".join(rows[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert list(_row_blocks(table, heads, ends, end, cuts)) == want


@pytest.mark.parametrize("top,bound", [(17, 300_000), (2**31, 650_000)])
def test_row_blocks_slot_buffer_stays_small(top, bound):
    """One trace block of 3070 x 5 residues holds a slot of ceil((2 + D) / 4) words per
    cell: below 17 one word, below 2^31 three, so the traced peak stays under the bound
    (two and four words per cell, with a NUL word in each row end, peaked at 370 and 739 kB)."""
    table = np.random.default_rng(0).integers(0, top, size=(3070, 5))
    _digit_table()
    tracemalloc.start()
    try:
        text = "".join(_row_blocks(table, ("", ", "), ("], [", "]]")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("], [") == 5 and peak < bound
