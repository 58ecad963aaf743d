"""Rule matrix construction, exact mod-p linear algebra, and the text writers.

The rule matrix realizes one CA time step on the flattened configuration
vector: row 0 couples the root to itself (d) and its three children
(a, b, c); every other row couples a vertex to its parent (c), itself (d)
and, below the boundary level, its two children (a, b). Each entry is
tagged with its coefficient label so the block pattern can be checked
symbolically, independent of the residues a,b,c,d happen to take.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, FormatError, SingularMatrix
from .field import PrimeField
from .tree import TreeShape, ball_size


@dataclass(frozen=True)
class Params:
    """Local-rule coefficients over Z_p.

    a, b weight the two children, c the parent, d the cell itself
    (at the root, a, b, c weight the three children). All four must be
    nonzero unless allow_zero is set.
    """

    a: int
    b: int
    c: int
    d: int
    field: PrimeField
    allow_zero: bool = False

    def __post_init__(self):
        p = self.field.p
        for name in "abcd":
            v = getattr(self, name)
            if not 0 <= v < p:
                raise ValueError(f"coefficient {name}={v} outside [0, {p})")
            if v == 0 and not self.allow_zero:
                raise ValueError(f"coefficient {name} must be nonzero")

    @property
    def p(self) -> int:
        return self.field.p

    def coeff(self, label: str) -> int:
        return getattr(self, label)


@dataclass(frozen=True)
class RuleMatrix:
    """Square mod-p matrix of order 1+3(2^n-1), a view of (shape, params),
    which fix it completely: its entries are _positions(n) with their
    labels' coefficients, and its dense form, the oracle that step_matrix
    multiplies by, is built on first use and cached.
    """

    shape: TreeShape
    params: Params

    def __post_init__(self):
        """Nothing to check; perfbench/spans.py counts the views here."""

    @property
    def order(self) -> int:
        return self.shape.total_vertices

    @property
    def p(self) -> int:
        return self.params.p

    @cached_property
    def _dense(self) -> np.ndarray:
        rows, cols, labels = _positions(self.shape.n)
        dense = np.zeros((self.order, self.order), dtype=np.int64)
        dense[rows, cols] = _coeffs(self.params)[labels]
        dense.setflags(write=False)
        return dense

    def dense(self) -> np.ndarray:
        """Dense residue matrix (read-only), built on first use."""
        return self._dense


def build_rule_matrix(shape: TreeShape, params: Params) -> RuleMatrix:
    """The rule matrix of (shape, params); nothing is assembled until read."""
    return RuleMatrix(shape, params)


def _coeffs(q: Params) -> np.ndarray:
    """a, b, c, d as an array, so that _coeffs(q)[labels] is the value of each entry."""
    return np.array([q.coeff(k) for k in "abcd"])


@lru_cache(maxsize=1)  # only the latest level's tables are kept
def _positions(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (row, column, label 0-3 for a-d) of each entry, by row and column: d a b c
    at columns 0-3 of row 0, and c d a b in row v >= 1 at its parent max((v-2)//2, 0), v
    and its children 2v+2, 2v+3, which a leaf (2v+2 >= |V_n|) does not have."""
    size = TreeShape(n).total_vertices
    if size > np.iinfo(np.intp).max // 32:  # NumPy would refuse the columns as a ValueError
        raise MemoryError(f"Unable to allocate the level-{n} rule-matrix positions: "
                          f"{4 * size} int64 columns are past the address range")
    v = np.arange(size)
    cols = np.stack([np.maximum((v - 2) // 2, 0), v, 2 * v + 2, 2 * v + 3], axis=1)
    cols[0] = 0, 1, 2, 3
    rows, k = np.divmod(np.flatnonzero(cols < size), 4)  # k: slot c d a b (row 0: d a b c)
    tables = rows, cols[rows, k], ((k + 2 + (rows == 0)) % 4).astype(np.int8)
    for a in tables:
        a.setflags(write=False)
    return tables


# ---------------------------------------------------------------------------
# Exact linear algebra over Z_p. The dense form of the rule matrix is built for
# neither det, rank, solve nor invert, at any coefficient tuple. Outside the degenerate set
# D = {d = 0, and c = 0 or a = b = 0} (_degenerate), linalg_report's det,
# rank and reversibility verdict come from the leaf-to-root level recursion
# (_level_recursion, O(n) field operations, no modular inverse and no
# per-level list: _levels carries each level's pivot as a fraction num/den,
# and det telescopes to a product of powers of the nums; the same code runs
# one tuple in Python ints or a sweep's (p, n) group in int64 arrays), and
# solve from the same elimination schedule (_level_schedule) carried out on a
# right-hand side (_tree_sweep, leaf to root over each level's vertices, then
# _tree_back, one root-to-leaf pass that also picks the free vertices and
# returns the particular solution with one kernel row per free vertex; one
# inverse per level, den * num^-1).
# _tree_solve brings those rows to the canonical particular solution and kernel
# basis zero level by zero level, deepest first, with no general elimination.
# On D each row of M has at most two nonzero entries, and only sibling rows share
# a column, so det is 0, the rank a closed form, and _direct_solve reads the same
# canonical basis off the entries of _positions in one pass. kernel_basis is the
# kernel of solve(m, 0), and invert stacks solve's particular solutions of the unit
# columns. The forward reduction _reduce (pivot: first nonzero residue,
# lowest row), rref_mod's single back-substitution pass, det_mod and
# kernel_basis_mod are the dense oracle that the tests check these routes
# against; no route here calls them.


def _reduce(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """Column-skipping forward elimination over Z_p on a copy of mat, with
    each pivot row normalised. Returns (echelon, pivot columns, det); det
    is 0 unless mat is square of full rank."""
    m = np.asarray(mat, dtype=np.int64) % p
    n_rows, n_cols = m.shape
    pivots: list[int] = []
    det = 1
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:  # the old row r is zero in column c, so the swap keeps nz[1:]
            m[[r, r + nz[0]]] = m[[r + nz[0], r]]
            det = -det
        pv = int(m[r, c])
        det = det * pv % p
        row = slice(c, c + 1 + np.flatnonzero(m[r, c:])[-1])  # to the last nonzero
        m[r, row] = m[r, row] * pow(pv, -1, p) % p
        below = r + nz[1:]
        m[below, row] = (m[below, row] - np.outer(m[below, c], m[r, row])) % p
        pivots.append(c)
    return m, pivots, det % p if len(pivots) == n_rows == n_cols else 0


def det_mod(mat: np.ndarray, p: int) -> int:
    """Determinant of a square matrix over Z_p."""
    return _reduce(mat, p)[2]


def rref_mod(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over Z_p; returns (rref, pivot columns)."""
    m, pivots, _ = _reduce(mat, p)
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        above = np.flatnonzero(m[:r, c])
        m[above, c:] = (m[above, c:] - np.outer(m[above, c], m[r, c:])) % p
    return m, pivots


def _levels(n: int, a, b, c, d, p: int) -> Iterator[tuple]:
    """The leaf-to-root elimination of the level-n rule matrix, for a tuple
    outside D (_degenerate): yields (l, num, den) for l = n, ..., 0, in Python
    ints (one tuple) or int64 arrays (one residue per tuple; every product
    of two residues stays below 2^62).

    Every vertex of a level heads an identical subtree, so one state per
    level suffices. The level's pivot is the Schur complement
    e = d - s*c/q, with q the pivot of the level below and s = a+b (s+c at
    the root, which has three children), kept as num/den with no inverse:
    num = d*q_num - s*c*q_den, den = q_num, from q = 1/0 below the leaves.
    On a zero level (num == 0) each parent pivots on one child's c entry
    and on its own a/b entry (two ranks) and drops out of its parent's row,
    leaving the other children as empty rows and columns. The parents form
    a known level (den == 0), consumed by it: its state is reset to 1/0, as
    below the leaves, so the level above starts afresh. Any other level is
    a pivot level.
    """
    sc = (a + b) % p * c % p
    num, den = 1, 0
    for l in range(n, -1, -1):
        s = (sc + c * c) % p if l == 0 else sc
        # (num != 0) and (num == 0) select the reset over a zero level
        num, den = (d * num - s * den) % p * (num != 0) + (num == 0), num
        yield l, num, den


def _level_schedule(n: int, a, b, c, d, p: int) -> list[tuple]:
    """_levels as a list of (num, den), index 0 = root, for solve."""
    return [(num, den) for _, num, den in _levels(n, a, b, c, d, p)][::-1]


def _cost(l: int) -> int:
    """The nullity of a zero level l, |L_l| - |L_(l-1)|: its free vertices."""
    return 3 << (l - 2) if l >= 2 else 2 if l else 1


def _level_recursion(n: int, a, b, c, d, p: int) -> tuple:
    """(det, rank) of the level-n rule matrix over Z_p, for a tuple outside D,
    folded from _levels in one leaf-to-root pass with no list, as Python ints
    or as arrays (p too, one modulus per tuple), like the operands. Level l >= 1 has
    S_l = 3*2^(l-1) vertices. At full rank every level is a pivot level whose
    den is the num below, so det = prod e_l^S_l telescopes to
    prod num_l^(S_l - S_(l-1)), S_(-1) = 0. The exponents are 1, 2 and then
    3*2^(l-2), so det = num_0 num_1^2 q^3 with q = prod_(l>=2) num_l^(2^(l-2)),
    which Horner's rule gives from the leaves in two products per level; the
    root's den is num_1. Any zero level makes det 0 through num_0, num_1 or q.
    Only diagonal pivots multiply det, so there is no sign.

    A zero level l adds no rank and its known parents add twice their number
    (their vertices and one child each), so it costs _cost(l). With the zero
    levels as the bits of z = sum 2^l, the nullity is 3*(z >> 2) + (z & 3).
    One tuple sets z's bits in a bytearray, one bit per level and no big-int
    sum; arrays add to an array of z where some tuple has a zero level, int64
    while |V_n| < 2^63 (n <= 61) and Python ints past that.
    """
    one = isinstance(d, int)
    q, bits = 1, bytearray(n // 8 + 1)
    z = 0 if one else np.zeros(np.shape(d), dtype=np.int64 if n < 62 else object)
    for l, num, den in _levels(n, a, b, c, d, p):
        if l >= 2:
            q = q * q % p * num % p
        if one and not num:
            bits[l >> 3] |= 1 << (l & 7)
        elif not one and not num.all():
            z = z + ((num == 0).astype(z.dtype) << l)
    z = int.from_bytes(bits, "little") if one else z
    det = num * (den * den % p) % p * (q * q % p * q % p) % p
    return det, ball_size(n) - 3 * (z >> 2) - (z & 3)


def _tree_sweep(shape: TreeShape, sched, a: int, b: int, c: int, p: int,
                y: np.ndarray) -> Optional[np.ndarray]:
    """Forward sweep of M x = y, leaf to root, along the schedule of
    _level_schedule. Returns w over the vertices, or None at the first failed
    consistency check, that is when y lies outside the image. On a level that is
      pivot  x_v = w_v - (c/e) x_parent(v);
      zero   the rows read c x_parent(v) = w_v, so sibling w's must agree,
             and at the root 0 = w_0;
      known  x_v = w_v, fixed by the zero level below.
    A level's children are the next level, one row of them per vertex: the
    root's three, weighted a, b, c, two per inner vertex, and none at the leaves.
    """
    bounds = shape.level_offsets + (shape.total_vertices,) * 2  # leaves: an empty slice of kids
    w = np.zeros(shape.total_vertices, dtype=np.int64)
    for l in range(shape.n, -1, -1):
        num, den = sched[l]
        here = slice(bounds[l], bounds[l + 1])
        kids = w[bounds[l + 1]:bounds[l + 2]].reshape(bounds[l + 1] - bounds[l], -1)
        if not den:  # known
            if (kids != kids[:, :1]).any():
                return None
            w[here] = kids[:, 0] * pow(c, -1, p) % p  # only over a zero level, so c != 0
        else:
            weights = np.array([a, b, c][:kids.shape[1]], dtype=np.int64)
            rhs = (y[here] - (kids * weights % p).sum(axis=1)) % p
            w[here] = rhs * (den * pow(num, -1, p) % p) % p if num else rhs
    if not sched[0][0] and w[0]:
        return None
    return w


def _tree_back(shape: TreeShape, sched, w: np.ndarray, coeffs: tuple[int, int, int, int, int],
               y: np.ndarray) -> np.ndarray:
    """Back-substitution of a forward sweep (sched, w) of M x = y, root to
    leaf, in one pass. Returns 1 + nullity rows over the vertices: row 0 is a
    solution that is 0 at the free vertices, and row i >= 1 is the kernel
    vector that is 1 at the i-th free vertex and 0 at the other free
    vertices. Each zero level chooses its free vertices as it is
    reached: the root when its pivot is zero, the first two root children
    when level 1 is zero (the root row then fixes the third by c), and the
    first child of each parent over a deeper zero level (the parent's row
    fixes the second by b; when b = 0 it fixes the first by a, and the
    second is free). w and y enter row 0 only, and a kernel row is zero
    above its free vertex, so each level works on the rows begun so far."""
    a, b, c, d, p = coeffs
    bounds = shape.level_offsets + (shape.total_vertices,)
    nullity = sum(_cost(l) for l, (num, _) in enumerate(sched) if not num)
    x = np.zeros((1 + nullity, shape.total_vertices), dtype=np.int64)
    r = 1  # rows begun: the particular solution and one per free vertex so far
    for l, (num, den) in enumerate(sched):
        here = slice(bounds[l], bounds[l + 1])
        if not den or (num and l == 0):  # a known level, or the root's pivot
            x[0, here] = w[here]
        elif num:  # a pivot level: x_v = w_v - (c/e) x_parent(v), in place
            kids = x[:r, here].reshape(r, bounds[l] - bounds[l - 1], -1)  # a view: row per parent
            kids[:] = x[:r, bounds[l - 1]:bounds[l], None] * (p - c * den * pow(num, -1, p) % p) % p
            x[0, here] = (x[0, here] + w[here]) % p
        elif l == 0:  # a zero root
            x[r, 0] = 1
            r += 1
        else:  # row of parent u: g x_fixed = y_u - d x_u - c x_parent(u) - h x_free, where
            # x_u is nonzero in row 0 only (u is known) and x_free in the new rows only
            u, new = slice(bounds[l - 1], bounds[l]), np.arange(r, r + _cost(l))
            r, gi = r + _cost(l), pow(b or a if l > 1 else c, -1, p)
            if l == 1:  # root row: d x_0 + a x_1 + b x_2 + c x_3 = y_0
                free, fix, h, at = [1, 2], x[:r, 3:4], np.array([a, b]), [0, 0]
            else:  # a x_c1(u) + b x_c2(u) + ...: b fixes c2(u), or a fixes c1(u) when b = 0
                free = np.arange(bounds[l] + (not b), bounds[l + 1], 2)
                fix, h, at = x[:r, bounds[l] + bool(b):bounds[l + 1]:2], a if b else 0, new - new[0]
                gp = x[:r, bounds[l - 2]:bounds[l - 1], None]  # x_parent(u), for u's siblings alike
                np.multiply(gp, (p - c) * gi % p, out=fix.reshape(gp.shape[:2] + (-1,)))  # in place
                fix %= p
            x[new, free] = 1
            fix[0] = (fix[0] + (y[u] - d * x[0, u]) % p * gi) % p
            fix[new, at] = (fix[new, at] - h * gi) % p
    return x


@dataclass(frozen=True)
class LinAlgReport:
    det: int
    rank: int
    invertible: bool


def _degenerate(q: Params) -> bool:
    """Whether (a, b, c, d) lies in D: d = 0, and c = 0 or a = b = 0."""
    return not q.d and not (q.c and (q.a or q.b))


def linalg_report(m: RuleMatrix) -> LinAlgReport:
    """det, rank and invertibility of m, reading no entry of m: by the
    level recursion, or on D (_degenerate) in closed form."""
    a, b, c, d, p, n = m.params.a, m.params.b, m.params.c, m.params.d, m.p, m.shape.n
    if not _degenerate(m.params):
        det, rank = _level_recursion(n, a, b, c, d, p)
    else:  # unless M = 0, one independent row per inner vertex v: a x_c1 + b x_c2 when
        # c = 0, and c x_v in the rows of v's children when a = b = 0, where at n = 1
        # the root's row c x_3 adds one more, as vertex 3 is then a leaf
        det, rank = 0, (ball_size(n - 1) + (n == 1 and c != 0) if a or b or c else 0)
    return LinAlgReport(det=det, rank=rank, invertible=det != 0)


def det_mod_p(m: RuleMatrix) -> int:
    return linalg_report(m).det


def rank_mod_p(m: RuleMatrix) -> int:
    return linalg_report(m).rank


def invert(m: RuleMatrix) -> np.ndarray:
    """Inverse matrix over Z_p; raises SingularMatrix if det = 0. Column j is
    solve(m, e_j).particular: |V_n| tree sweeps of O(|V_n|) each, no dense form."""
    if not linalg_report(m).invertible:
        raise SingularMatrix(f"rule matrix is singular mod {m.p}")
    return np.stack([solve(m, e).particular for e in np.eye(m.order, dtype=np.int64)], axis=1)


def kernel_basis_mod(mat: np.ndarray, p: int) -> list[np.ndarray]:
    """Canonical basis of the null space of mat over Z_p: one vector per
    free column f of rref(mat), in ascending order, 1 at f and 0 at the
    other free columns."""
    red, pivots = rref_mod(mat, p)
    free = np.setdiff1d(np.arange(mat.shape[1]), pivots)
    basis = np.zeros((free.size, mat.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-red[: len(pivots), free].T) % p
    return list(basis)


def kernel_basis(m: RuleMatrix) -> list[np.ndarray]:
    """Canonical null-space basis of m (kernel_basis_mod's form), as the
    kernel of solve(m, 0): by the tree route, or on D by the direct pass."""
    return list(solve(m, np.zeros(m.order, dtype=np.int64)).kernel)


@dataclass(frozen=True)
class SolutionSet:
    """Affine solution set of M x = y over Z_p.

    Either inconsistent (y outside the column space) or the coset
    particular + span(kernel), of size p^len(kernel).
    """

    p: int
    order: int
    consistent: bool
    particular: Optional[np.ndarray] = None
    kernel: tuple[np.ndarray, ...] = ()

    def count(self) -> int:
        return self.p ** len(self.kernel) if self.consistent else 0

    def enumerate(self) -> Iterable[np.ndarray]:
        """Yield every solution (caller is responsible for capping)."""
        if not self.consistent:
            return
        for coeffs in itertools.product(range(self.p), repeat=len(self.kernel)):
            x = self.particular.copy()
            for k, v in zip(coeffs, self.kernel):
                x = (x + k * v) % self.p
            yield x


Solution = tuple[np.ndarray, tuple[np.ndarray, ...]]  # (particular, kernel)


def _tree_solve(m: RuleMatrix, y: np.ndarray) -> Optional[Solution]:
    """The particular solution and kernel basis that kernel_basis_mod reads off
    [M | -y], by the tree sweep, for a tuple outside D, or None when the sweep
    finds y outside the image: the kernel vectors by ascending free column. No
    general elimination, and no temporary the size of the basis."""
    coeffs = a, b, c, d, p = m.params.a, m.params.b, m.params.c, m.params.d, m.p
    sched = _level_schedule(m.shape.n, a, b, c, d, p)
    w = _tree_sweep(m.shape, sched, a, b, c, p, y)
    if w is None:
        return None
    # A free column of rref(M) is the last nonzero entry of a kernel vector: a
    # leaf, since a column above the leaves has a c in its child's row, where no
    # earlier column has an entry. So the kernel is put in reduced form with its
    # columns reversed, one group of _tree_back's rows per zero level, deepest
    # first: each vector is scaled to 1 at its last nonzero entry, its pivot, and
    # the group's pivots are cleared from every other row nonzero there: shallower
    # rows, the particular one, and deeper rows too, which can be nonzero at a
    # shallower pivot below their own. At a zero level l >= 2 the vectors lie
    # on their parents' subtrees, which are disjoint, so the group is one
    # vectorised step with one term per cell (exact in int64); at level 1 the
    # two vectors share subtree(3), so they go one at a time, as the root's does.
    x = _tree_back(m.shape, sched, w, coeffs, y)
    bounds, piv, r = m.shape.level_offsets + (m.order,), np.zeros(len(x), dtype=np.intp), len(x)
    for l in (l for l in range(m.shape.n, -1, -1) if not sched[l][0]):
        r -= _cost(l)
        cols = np.arange(m.order)[None] if l < 2 else np.hstack([
            np.arange(*bounds[k:k + 2]).reshape(_cost(l), -1) for k in range(l, len(sched))])
        for rows in np.arange(r, r + _cost(l)).reshape(2 if l == 1 else 1, -1):
            vec = x[rows[:, None], cols]
            at = np.arange(len(rows)), cols.shape[1] - 1 - (vec[:, ::-1] != 0).argmax(axis=1)
            inv = {v: pow(v, -1, p) for v in set(vec[at].tolist())}  # one per pivot value
            vec = vec * np.array([inv[v] for v in vec[at].tolist()])[:, None] % p
            x[rows[:, None], cols], piv[rows] = vec, cols[at]
            hit, i = np.nonzero(x[:, piv[rows]])
            chunks = 1 + (hit.size * vec.shape[1] >> 20)  # about 2^20 cells per update
            for s in np.array_split(np.flatnonzero(hit != rows[i]), chunks):
                cell = hit[s, None], cols[i[s]]
                x[cell] = (x[cell] - x[hit[s], piv[rows][i[s]]][:, None] * vec[i[s]]) % p
    return x[0], tuple(x[i] for i in 1 + np.argsort(piv[1:]))


def _direct_solve(m: RuleMatrix, y: np.ndarray) -> Optional[Solution]:
    """_tree_solve's (particular, kernel) on D, or None when y is outside the image, read
    off M's nonzero entries (_positions): each row is g x_u, plus h x_w when present, with
    u < w and one g in every row (a, else b, else c). The pivot u, its first nonzero column,
    is shared by sibling rows alone (c x_parent(v) when a = b = 0), whose y must then agree;
    w is a free column (a x_c1(v) + b x_c2(v) when c = 0, so a leaf's row is 0)."""
    p, order = m.p, m.order
    rows, cols, labels = _positions(m.shape.n)
    vals = _coeffs(m.params)[labels]
    rows, cols, vals = (t[vals != 0] for t in (rows, cols, vals))
    hw = np.flatnonzero(np.diff(rows, prepend=-1) == 0)  # each h x_w, after its row's g x_u
    piv = np.full(order, order)  # order: no pivot, so y_v must be 0
    piv[np.delete(rows, hw)] = np.delete(cols, hw)
    val = np.zeros(order + 1, dtype=np.int64)
    val[piv] = y
    if val[order] or (val[piv] != y).any():
        return None
    free, gi = np.setdiff1d(np.arange(order), piv), pow(int(vals[0]) if len(vals) else 1, -1, p)
    kernel = np.zeros((len(free), order), dtype=np.int64)
    kernel[np.arange(len(free)), free] = 1
    kernel[np.searchsorted(free, cols[hw]), cols[hw - 1]] = (p - vals[hw]) * gi % p  # -h/g at u
    return val[:order] * gi % p, tuple(kernel)


def solve(m: RuleMatrix, y: np.ndarray) -> SolutionSet:
    """Full preimage set of y under the matrix map, as read off the canonical
    null-space basis of [M | -y] (kernel_basis_mod's form), where y is in the
    image exactly when the last column is free: the particular solution is 0
    at the free columns of rref(M), and the kernel is kernel_basis_mod(M).
    They come from the tree route (_tree_solve) or, on D, from _direct_solve;
    neither builds a dense matrix or runs a general RREF."""
    y = np.asarray(y, dtype=np.int64) % m.p
    if y.shape != (m.order,):
        raise DimensionMismatch(f"expected vector of length {m.order}, got shape {y.shape}")
    found = (_direct_solve if _degenerate(m.params) else _tree_solve)(m, y)
    if found is None:
        return SolutionSet(p=m.p, order=m.order, consistent=False)
    return SolutionSet(p=m.p, order=m.order, consistent=True, particular=found[0], kernel=found[1])


# ---------------------------------------------------------------------------
# Text formats

_MAGIC_DENSE = "treeca-matrix"
_MAGIC_COO = "treeca-matrix-coo"
_BLOCK = 1 << 14  # cells per block of whole rows of matrix text (at least one) and trace text
# parse_matrix builds a dense matrix: level 10 is 3070x3070 int64, 75 MB
_MAX_PARSE_LEVEL = 10


@lru_cache(maxsize=None)
def _digit_table() -> np.ndarray:
    """ASCII digits of 0 .. 9999 as uint32 words, leading zeros as NUL bytes, built by
    broadcasting with no division, in two rows: row 1, for a number's last word, has 0 as
    "0". A digit byte has the bits of "0" set, so OR-ing "0000" pads an entry with zeros."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
    table = np.zeros((2, 1), dtype=np.uint32)
    for k in range(4):
        table = (table[..., None] | digit << np.uint32(8 * k)).reshape(2, -1)
    for k in range(4):  # byte k is a leading zero below 10^(3-k), bar row 1's "0"
        table[: 2 - k // 3, : 10 ** (3 - k)] &= ~np.uint32(0xFF << (8 * k))
    table.setflags(write=False)
    return table


def _digit_words(v: np.ndarray, out: np.ndarray) -> None:
    """Write the digits of v's ints in [0, 10^(4k)) (int64, or Python ints in an object
    array, divided in uint32 for k > 1 below 2^32) to out[..., :k] as k _digit_table words,
    most significant first, each zero-padded behind a nonzero one; leading zeros are NUL."""
    table, pad, last = _digit_table(), np.uint32(0x30303030), out.shape[-1] - 1  # "0000"
    v = v.astype(np.uint32) if last and v.dtype == np.int64 and v.max() < 1 << 32 else v
    for j in range(last, 0, -1):
        q = v // 10_000
        out[..., j] = table[int(j == last)][(v - q * 10_000).astype(np.intp)] | (q > 0) * pad
        v = q
    out[..., 0] = table[int(not last)][v.astype(np.intp)]


def _row_blocks(table, heads: Sequence[str], ends: Sequence[str], end: Optional[np.ndarray] = None,
                cuts: Optional[Sequence[int]] = None) -> Iterator[str]:
    """The text of table's columns (int64, or Python ints in an object array) in blocks of
    whole rows, no Python object per cell: row i is heads[0], table[0, i], heads[1], ..,
    ends[end[i]] (ends[0] with no end), the last head heading every later column. A cell is
    one slot of max(ceil((h + D) / 4), e) uint32 words for h-byte heads, D digits and e-word
    row ends: digits right-aligned, the head first, OR-ed into the top digit word where they
    meet. NUL bytes are dropped; blocks end at the cuts, by default every _BLOCK // 36 rows."""
    h, we = max(map(len, heads)), -(-max(map(len, ends)) // 4)
    heads, ends = (np.frombuffer("".join(t.ljust(4 * w, "\0") for t in x).encode(), np.uint32)
                   .reshape(len(x), w) for x, w in ((heads, max(-(-h // 4), we)), (ends, we)))
    cuts = [*range(0, table.shape[1], _BLOCK // 36), table.shape[1]] if cuts is None else cuts
    for start, stop in zip(cuts, cuts[1:]):
        v = table[:, start:stop]
        d = len(str(v.max()))  # digits of the block's largest value
        own = max(-(-(h + d) // 4), we) + d // -4  # the words before the top digit word
        slots = np.zeros((stop - start, len(v) + 1, own - d // -4), dtype=np.uint32)
        _digit_words(v.T, slots[:, :-1, own:])
        slots[:, :len(heads), :own], slots[:, len(heads):-1, :own] = heads[:, :own], heads[-1, :own]
        if h > 4 * own:
            slots[:, :len(heads), own] |= heads[:, own]
            slots[:, len(heads):-1, own] |= heads[-1, own]
        slots[:, -1, :we] = ends[0] if end is None else ends[end[start:stop].astype(np.intp)]
        yield slots.tobytes().translate(None, b"\0").decode("ascii")


def matrix_blocks(m: RuleMatrix, sparse: bool = False) -> Iterator[str]:
    """The v1 text of m (dense by default, COO if sparse): its header line, then
    blocks of whole rows, _BLOCK cells (COO: _BLOCK // 4 rows) each, from tables made
    before the first block, so a failure writes nothing. COO is _row_blocks of the
    columns (row, column, value) of the nonzero entries. Dense: while its rows are
    copied out, a block of "<u2" cell words gets each entry's word at its flat position:
    its low byte the coefficient's digit, or a marker 1-4 (a-d) for bytes.replace."""
    rows, cols, labels = _positions(m.shape.n)
    coeffs, order = _coeffs(m.params), m.order
    step = max(_BLOCK // (4 if sparse else order), 1)
    bounds = [*range(0, order, step), order]
    if sparse:
        # a zero coefficient is no triple
        table = np.stack([rows, cols, coeffs[labels]]).compress(coeffs[labels] != 0, axis=1)
        cuts = np.unique(np.searchsorted(table[0], bounds)).tolist()  # no empty block
        return itertools.chain([f"{_MAGIC_COO} 1 {m.shape.n} {m.p} {table.shape[1]}\n"],
                               _row_blocks(table, ("", " "), ("\n",), cuts=cuts))
    block = np.full(step * order, 0x2030, dtype="<u2")  # "0 " in every cell, "0\n" last in a row
    block[order - 1::order] = 0x0A30
    at = rows % step * order + cols  # each entry's flat position in its block
    blank = block[at]
    # a coefficient's own digit, or for two or more digits its marker 1-4
    low = np.where(coeffs < 10, coeffs + ord("0"), np.arange(1, 5)).astype("<u2")
    words = blank & 0xFF00 | low[labels]
    long = [(bytes([k]), str(v).encode()) for k, v in enumerate(coeffs.tolist(), 1) if v >= 10]
    cuts = np.searchsorted(rows, bounds).tolist()

    def dense() -> Iterator[str]:
        for start, stop, i, j in zip(bounds, bounds[1:], cuts, cuts[1:]):
            block[at[i:j]] = words[i:j]
            text = block[:(stop - start) * order].tobytes()
            block[at[i:j]] = blank[i:j]
            for marker, digits in long:
                text = text.replace(marker, digits)
            yield text.decode("ascii")

    return itertools.chain([f"{_MAGIC_DENSE} 1 {m.shape.n} {m.p}\n"], dense())


def format_matrix(m: RuleMatrix, sparse: bool = False) -> str:
    """Serialize in the v1 text format: the matrix_blocks joined."""
    return "".join(matrix_blocks(m, sparse))


def _parsed_order(n: int) -> int:
    """|V_n| for a header level, checked before anything is allocated."""
    if not 1 <= n <= _MAX_PARSE_LEVEL:
        raise FormatError(f"level {n} outside [1, {_MAX_PARSE_LEVEL}]")
    return ball_size(n)


def _int64s(tokens: list[str], message: str) -> np.ndarray:
    """The tokens as int64, each parsed as int() parses it. One past int64 is a
    FormatError(message), and one longer than 20 characters (19 digits and a
    sign) is one before int()'s digit limit meets it."""
    if max(map(len, tokens), default=0) > 20:
        raise FormatError(message)
    try:
        return np.array(tokens, dtype=np.int64)
    except OverflowError:
        raise FormatError(message) from None


def parse_matrix(text: str) -> tuple[int, int, np.ndarray]:
    """Parse either v1 text format; returns (n, p, dense matrix).

    Levels 1 to 10 are accepted, and COO indices must lie in [0, |V_n|).
    An entry or header number that int64 cannot hold is a FormatError, like
    an entry outside [0, p).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty matrix text")
    head = lines[0].split()
    if len(head) == 4 and head[:2] == [_MAGIC_DENSE, "1"]:
        n, p = _int64s(head[2:], "header numbers outside int64").tolist()
        order = _parsed_order(n)
        if len(lines) - 1 != order:
            raise FormatError(f"expected {order} rows, got {len(lines) - 1}")
        mat = np.array([_int64s(ln.split(), f"residues outside [0, {p})") for ln in lines[1:]])
        if mat.shape != (order, order):
            raise FormatError(f"expected {order}x{order} matrix, got {mat.shape}")
    elif len(head) == 5 and head[:2] == [_MAGIC_COO, "1"]:
        n, p, nnz = _int64s(head[2:], "header numbers outside int64").tolist()
        order = _parsed_order(n)
        if len(lines) - 1 != nnz:
            raise FormatError(f"expected {nnz} triples, got {len(lines) - 1}")
        mat = np.zeros((order, order), dtype=np.int64)
        for ln in lines[1:]:
            r, c, v = _int64s(ln.split(), "COO triples outside int64").tolist()
            if not (0 <= r < order and 0 <= c < order):
                raise FormatError(f"entry ({r}, {c}) outside the {order}x{order} matrix")
            mat[r, c] = v
    else:
        raise FormatError(f"unrecognized matrix header {lines[0]!r}")
    if (mat < 0).any() or (mat >= p).any():
        raise FormatError(f"entries outside [0, {p})")
    return n, p, mat
