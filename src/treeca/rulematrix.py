"""Rule matrix construction and exact mod-p linear algebra.

The rule matrix realizes one CA time step on the flattened configuration
vector: row 0 couples the root to itself (d) and its three children
(a, b, c); every other row couples a vertex to its parent (c), itself (d)
and, below the boundary level, its two children (a, b). Each entry is
tagged with its coefficient label so the block pattern can be checked
symbolically, independent of the residues a,b,c,d happen to take.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    FormatError,
    SingularMatrix,
)
from .field import PrimeField
from .tree import TreeShape, neighbor_tables


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
                raise ValueError(f"coefficient {name} must be nonzero (pass allow_zero to relax)")

    @property
    def p(self) -> int:
        return self.field.p

    def coeff(self, label: str) -> int:
        return getattr(self, label)


@dataclass(frozen=True)
class RuleMatrix:
    """Square mod-p matrix of order 1+3(2^n-1), stored row-sparse.

    rows[r] lists (column, label) pairs with label in {a,b,c,d}, by
    ascending column; iterating a row costs its nonzero count. The dense
    matrix is built on the first dense() call.
    """

    shape: TreeShape
    params: Params
    rows: tuple[tuple[tuple[int, str], ...], ...]
    _dense: Optional[np.ndarray] = dc_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.rows) != self.order:
            raise DimensionMismatch(f"expected {self.order} rows, got {len(self.rows)}")

    @property
    def order(self) -> int:
        return self.shape.total_vertices

    @property
    def p(self) -> int:
        return self.params.p

    def dense(self) -> np.ndarray:
        """Dense residue matrix (read-only), built on first use."""
        if self._dense is None:
            n = self.order
            dense = np.zeros((n, n), dtype=np.int64)
            for r, row in enumerate(self.rows):
                for col, label in row:
                    dense[r, col] = self.params.coeff(label)
            dense.setflags(write=False)
            object.__setattr__(self, "_dense", dense)
        return self._dense


def build_rule_matrix(shape: TreeShape, params: Params) -> RuleMatrix:
    """Assemble the rule matrix from the tree's neighbour table."""
    size = shape.total_vertices
    par, c1, c2 = (a.tolist() for a in neighbor_tables(shape.n))
    rows = [((0, "d"), (1, "a"), (2, "b"), (3, "c"))]  # root: three children a, b, c
    for v in range(1, size):
        row = ((par[v], "c"), (v, "d"))
        if c1[v] != size:
            row += ((c1[v], "a"), (c2[v], "b"))
        rows.append(row)
    return RuleMatrix(shape=shape, params=params, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Exact linear algebra over Z_p. Whenever a*b*c != 0 mod p, no matrix is
# built: det, rank and the reversibility verdict come from the leaf-to-root
# level recursion (_level_recursion, O(n) field operations and no modular
# inverse: the schedule carries each level's pivot as a fraction num/den,
# and det telescopes to a product of powers of the nums), and solve from
# the same elimination schedule (_level_schedule) carried out on a
# right-hand side (_tree_sweep, leaf to root over each level's vertices,
# then _tree_back, root to leaf; one inverse per level, den * num^-1).
# Inverse, kernel, and solve/det/rank for a zero among a, b, c, come from
# the dense forward reduction _reduce (pivot: first nonzero residue,
# lowest row); rref_mod adds a single back-substitution pass.


def _as_matrix(m) -> tuple[np.ndarray, int]:
    if isinstance(m, RuleMatrix):
        return m.dense(), m.p
    raise TypeError(f"expected RuleMatrix, got {type(m).__name__}")


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


def _level_schedule(n: int, a: int, b: int, c: int, d: int, p: int) -> list[tuple[str, int, int]]:
    """The leaf-to-root elimination of the level-n rule matrix, for
    a*b*c != 0 mod p: one (kind, num, den) per level, index 0 = root.

    Every vertex of a level heads an identical subtree, so one state per
    level suffices. The level's pivot is the Schur complement
    e = d - s*c/q, with q the pivot of the level below and s = a+b (s+c at
    the root, which has three children), kept as num/den with no inverse:
    num = d*q_num - s*c*q_den, den = q_num, from q = 1/0 below the leaves. kind is
      "pivot"  num != 0;
      "zero"   num == 0: each parent pivots on one child's c entry and on
               its own a/b entry (two ranks) and drops out of its parent's
               row, leaving the other children as empty rows and columns;
      "known"  the parents of a zero level, consumed by it (num, den unused).
    The level above a known level starts afresh, as the leaves do.
    """
    sc = (a + b) * c % p
    sched: list[tuple[str, int, int]] = [("known", 0, 1)] * (n + 1)
    num, den = 1, 0
    for l in range(n, -1, -1):
        if not num:  # a zero level below: this level is known, the next starts afresh
            num, den = 1, 0
            continue
        num, den = (d * num - (sc + c * c if l == 0 else sc) * den) % p, num
        sched[l] = ("pivot" if num else "zero", num, den)
    return sched


def _level_recursion(shape: TreeShape, a: int, b: int, c: int, d: int, p: int) -> tuple[int, int]:
    """(det, rank) of the rule matrix of shape over Z_p, for a*b*c != 0 mod p,
    from _level_schedule. A pivot level of size S adds S to the rank, a known
    level 2S (its vertices and one child each), a zero level nothing. At
    full rank every level is a pivot level whose den is the num below, so
    det = prod e_l^S_l telescopes to prod num_l^(S_l - S_(l-1)), S_(-1) = 0.
    Only diagonal pivots multiply det, so there is no sign.
    """
    det, rank, above = 1, 0, 0
    for size, (kind, num, _) in zip(shape.level_sizes, _level_schedule(shape.n, a, b, c, d, p)):
        if kind == "pivot":
            rank += size
            det = det * pow(num, (size - above) % (p - 1), p) % p  # by Fermat
        elif kind == "known":
            rank += 2 * size
        above = size
    return (det if rank == shape.total_vertices else 0), rank


def _tree_sweep(shape: TreeShape, sched, a: int, b: int, c: int, p: int,
                y: np.ndarray) -> Optional[np.ndarray]:
    """Forward sweep of M x = y, leaf to root, along the schedule of
    _level_schedule. Returns w over the vertices, plus neighbor_tables'
    zero sentinel slot, or None at the first failed consistency check,
    that is when y lies outside the image. On a level of kind
      pivot  x_v = w_v - (c/e) x_parent(v);
      zero   the rows read c x_parent(v) = w_v, so sibling w's must agree,
             and at the root 0 = w_0;
      known  x_v = w_v, fixed by the zero level below.
    """
    _, c1, c2 = neighbor_tables(shape.n)
    bounds = shape.level_offsets + (shape.total_vertices,)
    ci = pow(c, -1, p)
    w = np.zeros(shape.total_vertices + 1, dtype=np.int64)
    for l in range(shape.n, -1, -1):
        kind, num, den = sched[l]
        here = slice(bounds[l], bounds[l + 1])
        kids = [w[c1[here]], w[c2[here]]] + ([w[3:4]] if l == 0 else [])
        if kind == "known":
            if any((k != kids[0]).any() for k in kids[1:]):
                return None
            w[here] = kids[0] * ci % p
        else:
            rhs = (y[here] - sum(wi * k % p for wi, k in zip((a, b, c), kids))) % p
            w[here] = rhs * (den * pow(num, -1, p) % p) % p if kind == "pivot" else rhs
    if sched[0][0] == "zero" and w[0]:
        return None
    return w


def _free_vertices(shape: TreeShape, sched) -> list[int]:
    """The vertices whose values parametrise the solutions: the root when
    its pivot is zero, the first two root children when level 1 is zero
    (the root row then fixes the third), and the first child of each
    parent over a deeper zero level (the parent's row fixes the second)."""
    c1, c2 = neighbor_tables(shape.n)[1:]
    free: list[int] = []
    for l, (kind, *_) in enumerate(sched):
        if kind != "zero":
            continue
        if l == 0:
            free.append(0)
        elif l == 1:
            free += [int(c1[0]), int(c2[0])]
        else:
            free += c1[shape.level_offsets[l - 1]:shape.level_offsets[l]].tolist()
    return free


def _tree_back(shape: TreeShape, sched, w: np.ndarray, coeffs: tuple[int, int, int, int, int],
               y: np.ndarray, x: np.ndarray) -> None:
    """Back-substitution of a forward sweep (sched, w) of M x = y, root to
    leaf, into each row of x, whose free vertices (_free_vertices) are
    already set; a zero pivot at the root leaves x_0 as set."""
    a, b, c, d, p = coeffs
    par, c1, c2 = neighbor_tables(shape.n)
    bounds = shape.level_offsets + (shape.total_vertices,)
    for l, (kind, num, den) in enumerate(sched):
        here = slice(bounds[l], bounds[l + 1])
        if kind == "known" or (kind == "pivot" and l == 0):
            x[:, here] = w[here]
        elif kind == "pivot":
            x[:, here] = (w[here] - c * den * pow(num, -1, p) % p * x[:, par[here]] % p) % p
        elif l == 1:  # root row: d x_0 + a x_1 + b x_2 + c x_3 = y_0
            x[:, 3] = ((y[0] - d * x[:, 0] % p - a * x[:, c1[0]] % p - b * x[:, c2[0]] % p) % p
                       * pow(c, -1, p) % p)
        elif l > 1:  # row of parent u: a x_c1(u) + b x_c2(u) = y_u - c x_parent(u) - d x_u
            u = slice(bounds[l - 1], bounds[l])
            rhs = (y[u] - c * x[:, par[u]] % p - d * x[:, u] % p) % p
            x[:, c2[u]] = (rhs - a * x[:, c1[u]] % p) % p * pow(b, -1, p) % p


def linalg_report_for(shape: TreeShape, params: Params) -> "LinAlgReport":
    """det, rank and invertibility of the rule matrix of (shape, params).

    Runs the level recursion and assembles no matrix, unless a zero among
    a, b, c breaks the vertex pairing it relies on; then the matrix is
    built and eliminated densely.
    """
    a, b, c, d, p = params.a, params.b, params.c, params.d, params.p
    if a * b * c % p:
        det, rank = _level_recursion(shape, a, b, c, d, p)
    else:
        _, pivots, det = _reduce(build_rule_matrix(shape, params).dense(), p)
        rank = len(pivots)
    return LinAlgReport(det=det, rank=rank, nullity=shape.total_vertices - rank,
                        invertible=det != 0)


def det_mod_p(m: RuleMatrix) -> int:
    return linalg_report_for(m.shape, m.params).det


def rank_mod_p(m: RuleMatrix) -> int:
    return linalg_report_for(m.shape, m.params).rank


def linalg_report(m: RuleMatrix) -> "LinAlgReport":
    return linalg_report_for(m.shape, m.params)


@dataclass(frozen=True)
class LinAlgReport:
    det: int
    rank: int
    nullity: int
    invertible: bool


def invert(m: RuleMatrix) -> np.ndarray:
    """Inverse matrix over Z_p; raises SingularMatrix if det = 0."""
    mat, p = _as_matrix(m)
    n = mat.shape[0]
    aug = np.hstack([mat, np.eye(n, dtype=np.int64)])
    red, pivots = rref_mod(aug, p)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix(f"rule matrix is singular mod {p}")
    return red[:, n:]


def _kernel_from_rref(red: np.ndarray, pivots: list[int], n_cols: int, p: int) -> list[np.ndarray]:
    """Null-space basis of red[:, :n_cols] (an RREF whose pivots lie in
    those columns), one vector per free column."""
    free = np.setdiff1d(np.arange(n_cols), pivots)
    basis = np.zeros((free.size, n_cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-red[: len(pivots), free].T) % p
    return list(basis)


def kernel_basis_mod(mat: np.ndarray, p: int) -> list[np.ndarray]:
    """Basis of the null space of mat over Z_p (one vector per free column)."""
    red, pivots = rref_mod(mat, p)
    return _kernel_from_rref(red, pivots, mat.shape[1], p)


def kernel_basis(m: RuleMatrix) -> list[np.ndarray]:
    return kernel_basis_mod(*_as_matrix(m))


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
        import itertools

        for coeffs in itertools.product(range(self.p), repeat=len(self.kernel)):
            x = self.particular.copy()
            for k, v in zip(coeffs, self.kernel):
                x = (x + k * v) % self.p
            yield x


def _target(m: RuleMatrix, y: np.ndarray) -> np.ndarray:
    """y reduced mod p, checked against the order of m."""
    if not isinstance(m, RuleMatrix):
        raise TypeError(f"expected RuleMatrix, got {type(m).__name__}")
    y = np.asarray(y, dtype=np.int64) % m.p
    if y.shape != (m.order,):
        raise DimensionMismatch(f"expected vector of length {m.order}, got shape {y.shape}")
    return y


def _tree_solve(m: RuleMatrix, y: np.ndarray) -> SolutionSet:
    """solve by the tree sweep and back-substitution, for a*b*c != 0 mod p.

    The back-substitution gives a particular solution and, run again with
    zero values on the same schedule, one kernel vector per free vertex.
    The dense route's kernel vector for a free column f of rref(M) is the
    kernel element whose last nonzero entry is a 1 at f and which is 0 at
    the other free columns, so the RREF of the basis with its columns
    reversed yields those vectors, its pivots (reversed) being the free
    columns. The particular solution is then made 0 at the free columns.
    """
    pr, shape, order = m.params, m.shape, m.order
    coeffs = a, b, c, d, p = pr.a, pr.b, pr.c, pr.d, pr.p
    sched = _level_schedule(shape.n, a, b, c, d, p)
    w = _tree_sweep(shape, sched, a, b, c, p, y)
    if w is None:
        return SolutionSet(p=p, order=order, consistent=False)
    x = np.zeros((1, order), dtype=np.int64)
    _tree_back(shape, sched, w, coeffs, y, x)
    x = x[0]
    free = _free_vertices(shape, sched)
    if not free:
        return SolutionSet(p=p, order=order, consistent=True, particular=x)
    basis = np.zeros((len(free), order), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    _tree_back(shape, sched, np.zeros_like(w), coeffs, np.zeros_like(y), basis)
    red, pivots = rref_mod(basis[:, ::-1], p)
    kern = np.ascontiguousarray(red[::-1, ::-1])  # rows by ascending free column
    for f, k in zip(order - 1 - np.array(pivots[::-1]), kern):
        x = (x - x[f] * k % p) % p
    return SolutionSet(p=p, order=order, consistent=True, particular=x, kernel=tuple(kern))


def solve(m: RuleMatrix, y: np.ndarray) -> SolutionSet:
    """Full preimage set of y under the matrix map.

    The particular solution is 0 at the free columns of rref(M), and the
    kernel has one vector per free column f, in ascending order, equal to
    1 at f and 0 at the other free columns. When a*b*c != 0 mod p they come
    from the tree sweep (_tree_solve), with no dense matrix. Otherwise from
    one reduction of [M | y]: its first N columns are rref(M).
    """
    y = _target(m, y)
    if m.params.a * m.params.b * m.params.c % m.p:
        return _tree_solve(m, y)
    mat, p, n = m.dense(), m.p, m.order
    red, pivots = rref_mod(np.hstack([mat, y.reshape(-1, 1)]), p)
    if n in pivots:  # pivot in the augmented column: inconsistent
        return SolutionSet(p=p, order=n, consistent=False)
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = red[: len(pivots), n]
    kern = tuple(_kernel_from_rref(red, pivots, n, p))
    return SolutionSet(p=p, order=n, consistent=True, particular=x, kernel=kern)


# ---------------------------------------------------------------------------
# Text formats

_MAGIC_DENSE = "treeca-matrix"
_MAGIC_COO = "treeca-matrix-coo"
# parse_matrix builds a dense matrix: level 10 is 3070x3070 int64, 75 MB
_MAX_PARSE_LEVEL = 10


def format_matrix(m: RuleMatrix, sparse: bool = False) -> str:
    """Serialize in the v1 text format (dense by default, COO if sparse),
    straight from the rows: a zero coefficient prints as 0 in a dense row
    and is left out of the COO triples. Dense rows are cut from one run of
    zero cells, with the row's coefficients spliced in."""
    coeff = {label: m.params.coeff(label) for label in "abcd"}
    if not sparse:
        lines = [f"{_MAGIC_DENSE} 1 {m.shape.n} {m.p}"]
        zeros = " ".join("0" * m.order)  # k zero cells: zeros[:2k - 1]
        text = {label: str(v) for label, v in coeff.items()}
        for row in m.rows:
            chunks, at = [], 0
            for col, label in row:
                if col > at:
                    chunks.append(zeros[:2 * (col - at) - 1])
                chunks.append(text[label])
                at = col + 1
            if at < m.order:
                chunks.append(zeros[:2 * (m.order - at) - 1])
            lines.append(" ".join(chunks))
    else:
        triples = [f"{r} {col} {coeff[label]}"
                   for r, row in enumerate(m.rows) for col, label in row if coeff[label]]
        lines = [f"{_MAGIC_COO} 1 {m.shape.n} {m.p} {len(triples)}"] + triples
    return "\n".join(lines) + "\n"


def _parsed_order(n: int) -> int:
    """|V_n| for a header level, checked before anything is allocated."""
    if not 1 <= n <= _MAX_PARSE_LEVEL:
        raise FormatError(f"level {n} outside [1, {_MAX_PARSE_LEVEL}]")
    return 1 + 3 * (2**n - 1)


def parse_matrix(text: str) -> tuple[int, int, np.ndarray]:
    """Parse either v1 text format; returns (n, p, dense matrix).

    Levels 1 to 10 are accepted, and COO indices must lie in [0, |V_n|).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty matrix text")
    head = lines[0].split()
    if len(head) == 4 and head[:2] == [_MAGIC_DENSE, "1"]:
        n, p = int(head[2]), int(head[3])
        order = _parsed_order(n)
        if len(lines) - 1 != order:
            raise FormatError(f"expected {order} rows, got {len(lines) - 1}")
        mat = np.array([[int(v) for v in ln.split()] for ln in lines[1:]], dtype=np.int64)
        if mat.shape != (order, order):
            raise FormatError(f"expected {order}x{order} matrix, got {mat.shape}")
    elif len(head) == 5 and head[:2] == [_MAGIC_COO, "1"]:
        n, p, nnz = int(head[2]), int(head[3]), int(head[4])
        order = _parsed_order(n)
        if len(lines) - 1 != nnz:
            raise FormatError(f"expected {nnz} triples, got {len(lines) - 1}")
        mat = np.zeros((order, order), dtype=np.int64)
        for ln in lines[1:]:
            r, c, v = (int(t) for t in ln.split())
            if not (0 <= r < order and 0 <= c < order):
                raise FormatError(f"entry ({r}, {c}) outside the {order}x{order} matrix")
            mat[r, c] = v
    else:
        raise FormatError(f"unrecognized matrix header {lines[0]!r}")
    if (mat < 0).any() or (mat >= p).any():
        raise FormatError(f"entries outside [0, {p})")
    return n, p, mat
