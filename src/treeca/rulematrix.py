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

    rows[r] lists (column, label) pairs with label in {a,b,c,d};
    iterating a row costs its nonzero count.
    """

    shape: TreeShape
    params: Params
    rows: tuple[tuple[tuple[int, str], ...], ...]
    _dense: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.order
        dense = np.zeros((n, n), dtype=np.int64)
        for r, row in enumerate(self.rows):
            for col, label in row:
                dense[r, col] = self.params.coeff(label)
        dense.setflags(write=False)
        object.__setattr__(self, "_dense", dense)

    @property
    def order(self) -> int:
        return self.shape.total_vertices

    @property
    def p(self) -> int:
        return self.params.p

    def dense(self) -> np.ndarray:
        """Dense residue matrix (read-only view)."""
        return self._dense

    def label_at(self, r: int, c: int) -> str:
        """Coefficient label of entry (r, c): one of '0', 'a', 'b', 'c', 'd'."""
        for col, label in self.rows[r]:
            if col == c:
                return label
        return "0"

    def label_grid(self) -> list[list[str]]:
        n = self.order
        return [[self.label_at(r, c) for c in range(n)] for r in range(n)]


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
# Exact linear algebra over Z_p by one elimination route: det, rank, inverse,
# kernel and solve all come from the forward reduction _reduce (pivot: first
# nonzero residue, lowest row) on a dense working copy; rref_mod adds a single
# back-substitution pass.


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


def det_mod_p(m: RuleMatrix) -> int:
    return det_mod(*_as_matrix(m))


def rank_mod_p(m: RuleMatrix) -> int:
    return len(_reduce(*_as_matrix(m))[1])


def linalg_report(m: RuleMatrix) -> "LinAlgReport":
    _, pivots, det = _reduce(*_as_matrix(m))
    rank = len(pivots)
    return LinAlgReport(det=det, rank=rank, nullity=m.order - rank, invertible=det != 0)


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


def solve(m: RuleMatrix, y: np.ndarray) -> SolutionSet:
    """Full preimage set of y under the matrix map.

    One reduction of [M | y]: its first N columns are rref(M), so the
    particular solution and the kernel both come from it.
    """
    mat, p = _as_matrix(m)
    y = np.asarray(y, dtype=np.int64) % p
    n = mat.shape[0]
    if y.shape != (n,):
        raise DimensionMismatch(f"expected vector of length {n}, got shape {y.shape}")
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
    """Serialize in the v1 text format (dense by default, COO if sparse)."""
    dense = m.dense()
    if not sparse:
        lines = [f"{_MAGIC_DENSE} 1 {m.shape.n} {m.p}"]
        lines += [" ".join(str(int(v)) for v in row) for row in dense]
    else:
        triples = [
            (r, c, int(dense[r, c]))
            for r in range(m.order)
            for c, _ in m.rows[r]
            if dense[r, c] != 0
        ]
        lines = [f"{_MAGIC_COO} 1 {m.shape.n} {m.p} {len(triples)}"]
        lines += [f"{r} {c} {v}" for r, c, v in triples]
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
