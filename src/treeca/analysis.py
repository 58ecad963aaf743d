"""Reversibility sweeps, closed-form determinants, entropy growth, probes.

The reversibility verdict for one parameter tuple comes from the exact
leaf-to-root level recursion of rulematrix.linalg_report: O(n) field
operations, no modular inverse, no rule matrix assembled (closed forms where
d = 0, and c = 0 or a = b = 0). sweep and table1 run it once per level count
over int64 arrays (p one of them), and return the columns (table, reversible).
The closed-form degree-10 and degree-22 determinant polynomials are
evaluated mod p as an independent check.
Entropy quantities are analytic: H_n = |V_n| * log2(p) grows like 2^n,
so H_n / n is unbounded. The partition probe counts the atoms actually
distinguishable by repeated observation of the root cell (or the radius-1
ball): the observation is linear, so the count is p^rank of the
observability matrix, and that rank is a closed form of the tree's levels:
no configuration is enumerated and no matrix is built.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from concurrent.futures import ThreadPoolExecutor  # unused; perfbench/spans.py patches this name
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import FixtureMismatch, FormatError, InvalidLevel, ModulusOutOfRange, NonPrimeModulus
from .field import MR_EXACT_BELOW, PrimeField, is_prime
from .rulematrix import Params, _level_recursion, _row_blocks, build_rule_matrix, linalg_report
from .tree import TreeShape, ball_size, digit_budget, printable


class ReversibilityRecord(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    n: int
    p: int
    det: int
    rank: int
    reversible: bool

    @property
    def verdict(self) -> str:
        return "reversible" if self.reversible else "irreversible"

    def sort_key(self):
        return (self.p, self.n, self.a, self.b, self.c, self.d)


def _printable_shape(n: int) -> TreeShape:
    """TreeShape(n), or InvalidLevel if |V_n| = 3*2^n - 2, the largest rank, is not printable."""
    shape = TreeShape(n)  # first: it refuses n < 1, where 3 << n has no meaning
    if printable(2, n, lambda: ball_size(n)) is None:
        raise InvalidLevel(f"level {n}: |V_n| = 3*2^n - 2 has more than {digit_budget()} digits")
    return shape


def classify(a: int, b: int, c: int, d: int, n: int, p: int,
             allow_zero: bool = False) -> ReversibilityRecord:
    """Judge reversibility of one parameter tuple from det and rank of its
    rule matrix."""
    params = Params(a=a, b=b, c=c, d=d, field=PrimeField(p), allow_zero=allow_zero)
    rep = linalg_report(build_rule_matrix(_printable_shape(n), params))
    return ReversibilityRecord(a, b, c, d, n, p, rep.det, rep.rank, rep.invertible)


# ---------------------------------------------------------------------------
# Parameter sweeps


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep over explicit value lists, or seeded random sampling.

    With random_count set, (a, b, c, d) are drawn uniformly from Z_p^* for
    each (p, n) combination instead of taking the cartesian product.
    """

    a_values: tuple[int, ...] = ()
    b_values: tuple[int, ...] = ()
    c_values: tuple[int, ...] = ()
    d_values: tuple[int, ...] = ()
    n_values: tuple[int, ...] = (2,)
    p_values: tuple[int, ...] = ()
    random_count: int = 0
    seed: int = 0


def _verdict_columns(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, reversible) of checked int64 columns (a, b, c, d, n, p), with det and
    rank added by one array pass of the level recursion per n: int64 while every
    n <= 61 (|V_n| < 2^63), else object. The records are its columns."""
    table = np.empty((8, cols.shape[1]), dtype=np.int64 if cols[4].max(initial=0) < 62 else object)
    table[:6] = cols
    for n in set(cols[4].tolist()):  # np.unique would load more of NumPy: 1.6 MB of RSS
        at = cols[4] == n
        table[6:, at] = _level_recursion(n, *cols[:4, at], cols[5, at])
    return table, table[6] != 0


def sweep(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """classify every tuple of the spec, in canonical order (ReversibilityRecord.sort_key), as
    the columns (table, reversible) of _verdict_columns, which build no record. The
    (p, n) groups are seeded draws from Z_p^* or the cartesian product; the first bad tuple in
    generation order raises classify's error (modulus, coefficients, level), an empty group none.
    The product is formed once, as int64 columns, when a group has passed its checks."""
    lists = (spec.a_values, spec.b_values, spec.c_values, spec.d_values)
    rng = np.random.default_rng(spec.seed) if spec.random_count else None
    count = spec.random_count if rng else math.prod(map(len, lists))  # a group's tuples
    grid, parts = None, []
    # an empty cartesian product makes no group, so it checks no modulus or level
    for p, n in itertools.product(spec.p_values, spec.n_values if count else ()):
        field = PrimeField(p)  # before the draws: rng.integers(1, p) needs p >= 2
        if not rng and not all(0 < v < p for v in itertools.chain(*lists)):
            # the product's first bad tuple: its first tuple, if that is bad, else the
            # fastest-varying list's first bad value with every other list at its first
            first = [values[0] for values in lists]
            if all(0 < v < p for v in first):
                k = max(k for k, values in enumerate(lists) if not all(0 < v < p for v in values))
                first[k] = next(v for v in lists[k] if not 0 < v < p)
                _printable_shape(n)  # the group's first tuple is good, so its level comes first
            Params(*first, field=field)  # raises the coefficient's error
        _printable_shape(n)
        if count > np.iinfo(np.intp).max // 48:  # NumPy would refuse it as a ValueError
            raise MemoryError(f"Unable to allocate a sweep's columns: 6 arrays of {count} int64 "
                              f"values are past the address range")
        if not rng and grid is None:
            grid = np.stack(np.broadcast_arrays(*np.ix_(*lists))).reshape(4, -1)
        parts.append(np.empty((6, count), dtype=np.int64))
        parts[-1][:4] = rng.integers(1, p, size=(count, 4)).T if rng else grid
        parts[-1][4:] = [[n], [p]]
    cols = np.hstack(parts) if parts else np.empty((6, 0), dtype=np.int64)
    del parts, grid  # a sweep's memory is a few copies of its columns at most
    cols = cols[:, np.lexsort((*cols[3::-1], cols[4], cols[5]))]
    return _verdict_columns(cols)


def _columns(records: Iterable[ReversibilityRecord]) -> tuple[np.ndarray, np.ndarray]:
    # records as _verdict_columns lays them out; a rank past int64 makes the table object
    records = list(records)
    big = max((r.rank for r in records), default=0) >> 63
    return (np.array([r[:8] for r in records], dtype=object if big else np.int64).reshape(-1, 8).T,
            np.array([r.reversible for r in records], dtype=bool))


def csv_blocks(columns) -> Iterator[str]:
    """records_to_csv of columns (table, reversible), in blocks of whole lines."""
    yield ",".join(ReversibilityRecord._fields) + "\n"
    yield from _row_blocks(columns[0], ("", ","), (",false\n", ",true\n"), columns[1])


def json_blocks(columns, indent: str = "") -> Iterator[str]:
    """json.dumps(records, indent=2) of columns, a list indent deep, in blocks."""
    (table, reversible), inner, keys = columns, indent + "  ", ReversibilityRecord._fields
    heads = [f',\n{inner}{{\n{inner}  "a": '] + [f',\n{inner}  "{k}": ' for k in keys[1:8]]
    ends = [f',\n{inner}  "reversible": {v}\n{inner}}}' for v in ("false", "true")]
    yield "["
    for i, block in enumerate(_row_blocks(table, heads, ends, reversible)):
        yield block[1:] if i == 0 else block  # no comma before the first record
    yield f"\n{indent}]" if table.shape[1] else "]"


def records_to_csv(records: Iterable[ReversibilityRecord]) -> str:
    """One CSV line per record; ints and true/false need no quoting."""
    return "".join(csv_blocks(_columns(records)))


def records_to_json(records: Iterable[ReversibilityRecord]) -> str:
    return "".join(json_blocks(_columns(records)))


# ---------------------------------------------------------------------------
# Closed-form determinants for n = 2 and n = 3


def det_formula_n2(a: int, b: int, c: int, d: int, p: int) -> int:
    """Degree-10 determinant polynomial of the level-2 rule matrix, mod p."""
    v = -(d**4) * (c * (2 * (a + b) + c) - d**2) * (-(a + b) * c + d**2) ** 2
    return v % p


def det_formula_n3(a: int, b: int, c: int, d: int, p: int) -> int:
    """Degree-22 determinant polynomial of the level-3 rule matrix, mod p."""
    s = a + b
    v = (
        -(d**8)
        * (s * c - d**2) ** 3
        * (-2 * s * c + d**2) ** 2
        * (s * c**2 * (s + c) - c * (3 * s + c) * d**2 + d**4)
    )
    return v % p


# ---------------------------------------------------------------------------
# Entropy growth


@dataclass(frozen=True)
class EntropySequence:
    p: int
    terms: tuple[tuple[int, float, float], ...]  # (n, H_n, H_n / n)


def entropy_sequence(p: int, max_n: int) -> EntropySequence:
    """H_n = |V_n| * log2(p): the entropy of the n-step refinement of the
    root partition under the uniform Bernoulli measure, and its growth
    rate H_n / n. InvalidLevel if H_max_n is not a finite float; 2^n is formed
    only for n <= 1022, since |V_1023| alone passes the float range. p must be
    below MR_EXACT_BELOW, where is_prime stops being exact (ModulusOutOfRange)."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if p >= MR_EXACT_BELOW:
        raise ModulusOutOfRange(f"modulus {p} is not below psi_13 = {MR_EXACT_BELOW}")
    if not is_prime(p):
        raise NonPrimeModulus(f"modulus {p} is not prime")
    log2p = math.log2(p)
    if max_n > 1022 or math.isinf(ball_size(max_n) * log2p):
        raise InvalidLevel(f"level {max_n}: H_n = |V_n| * log2({p}) is past the float range")
    terms = tuple((n, ball_size(n) * log2p, ball_size(n) * log2p / n) for n in range(1, max_n + 1))
    return EntropySequence(p=p, terms=terms)


def entropy_csv(seq: EntropySequence) -> str:
    lines = ["n,H_n,H_n_over_n"]
    lines += [f"{n},{h:.12g},{hn:.12g}" for n, h, hn in seq.terms]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Partition probe


@dataclass(frozen=True)
class PartitionProbe:
    steps: int
    truncation_level: int
    p: int
    a: int
    b: int
    c: int
    d: int
    mode: str  # "root" or "ball"
    atom_count: int
    claimed_atom_count: int


def partition_atom_count(params: Params, steps: int, truncation: TreeShape,
                         mode: str = "root") -> PartitionProbe:
    """Count the atoms of the joined partition of all configurations on the
    truncation obtained by observing the root cell (or the radius-1 ball)
    at times 0 .. steps-1. The observation is linear, so the count is p^rank
    of the observability map x -> (e_obs M^t x)_{t<steps}: the dimension of
    the span of the rows e_obs M^t, a closed form of the tree's levels (the
    Krylov argument of Martin, Odlyzko and Wolfram for linear CA, on the tree).

    Let rho_l = sum of w_v e_v over level l, w_v the product of the child
    weights on the path from the root to v (a or b at each step; a, b or c at
    the root). Then rho_0 = e_0 and rho_l M = rho_{l+1} + d rho_l + c(a+b) rho_{l-1},
    with c(a+b+c) in place of c(a+b) at l = 1. So e_0 M^t is rho_t plus lower
    levels, and span{rho_0 .. rho_n} is invariant: with (a, b) != (0, 0) no
    rho_l is 0, and the rank is min(steps, n+1). In ball mode each root child's
    subtree adds such a chain of n levels. With a = b = 0, span{e_0, e_3} and
    span{e_0 .. e_3} are invariant, and e_0 M = d e_0 + c e_3.

    The claimed count p^(1+3(2^steps-1)) is reported alongside, with no equality
    asserted; steps at which it is not printable (tree.printable) are rejected.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if mode not in ("root", "ball"):
        raise ValueError(f"mode must be 'root' or 'ball', got {mode!r}")
    p, n = params.p, truncation.n
    # min() keeps 2^steps small: from steps = 32 on, |V_steps| > 4 budget (a C int), so
    # printable refuses on the bit bound alone and never forms p^|V_64| for p^|V_steps|
    if (claimed := printable(p, ball_size(min(steps, 64)))) is None:
        raise ValueError(f"claimed count p^|V_steps| exceeds {digit_budget()} digits "
                         f"at steps={steps}, p={p}")
    if params.a or params.b:
        rank = min(steps, n + 1) if mode == "root" else 3 * min(steps, n) + 1
    else:
        rank = 1 + (params.c != 0 and steps >= 2) if mode == "root" else 4
    return PartitionProbe(
        steps=steps,
        truncation_level=n,
        p=p,
        a=params.a, b=params.b, c=params.c, d=params.d,
        mode=mode,
        atom_count=p**rank,
        claimed_atom_count=claimed,
    )


# ---------------------------------------------------------------------------
# Reversibility reference table (fixture-backed)


def primes_between(lo: int, hi: int) -> list[int]:
    return [q for q in range(lo, hi + 1) if is_prime(q)]

# Reference rows: (a, b, c, d, n, list of primes, expected verdict).
# The p=3..101 row expands to every prime in [3, 101].
TABLE1_ROWS: tuple[tuple[int, int, int, int, int, tuple[int, ...], str], ...] = (
    (1, 1, 1, 1, 2, (2,), "irreversible"),
    (1, 1, 1, 1, 2, tuple(primes_between(3, 101)), "reversible"),
    (2, 1, 5, 2, 2, (17,), "irreversible"),
    (2, 1, 3, 2, 2, (17,), "reversible"),
    (2, 3, 4, 3, 2, (11,), "irreversible"),
    (1, 1, 1, 1, 3, (3,), "irreversible"),
    (2, 2, 3, 3, 3, (5,), "irreversible"),
    (2, 1, 1, 3, 3, (5,), "reversible"),
    (2, 2, 3, 3, 3, (7, 11, 13, 19, 23, 29), "reversible"),
)


def table1_expected() -> list[tuple[int, int, int, int, int, int, str]]:
    """Expanded fixture rows (a, b, c, d, n, p, verdict) in table order."""
    out = []
    for a, b, c, d, n, ps, verdict in TABLE1_ROWS:
        out += [(a, b, c, d, n, p, verdict) for p in ps]
    return out


def table1_check(fixture_text: str) -> tuple[np.ndarray, np.ndarray]:
    """Recompute every fixture row and diff verdicts; raises FixtureMismatch
    with per-row diffs if anything disagrees, FormatError if a column is missing,
    a row lacks one of its fields or has more fields than the header, or a number
    field is not an integer or is longer than int64's 20 characters. Each row
    is checked as classify checks it, in fixture order; then the rows are answered
    in one pass per level count, as the columns (table, reversible) in fixture order."""
    reader = csv.DictReader(io.StringIO(fixture_text))
    columns = ("a", "b", "c", "d", "n", "p", "reversibility")
    if missing := [k for k in columns if k not in (reader.fieldnames or ())]:
        raise FormatError(f"fixture has no column {', '.join(missing)}")
    rows, verdicts = [], []
    for row in reader:
        if None in row:  # DictReader files the fields past the header under the key None
            raise FormatError(f"fixture line {reader.line_num} has more fields than the header")
        if any(row[k] is None for k in columns):
            raise FormatError(f"fixture line {reader.line_num} has fewer fields than the header")
        values = []
        for k in columns[:6]:  # past 20 characters (19 digits and a sign) is past int64
            if len(row[k]) > 20:
                raise FormatError(f"fixture line {reader.line_num} field {k} is outside int64")
            try:
                values.append(int(row[k]))
            except ValueError:
                raise FormatError(f"fixture line {reader.line_num} field {k} is not an integer: "
                                  f"{row[k]!r}") from None
        a, b, c, d, n, p = values
        Params(a=a, b=b, c=c, d=d, field=PrimeField(p))
        rows.append((a, b, c, d, _printable_shape(n).n, p))
        verdicts.append(row["reversibility"])
    table, reversible = _verdict_columns(np.array(rows, dtype=np.int64).reshape(-1, 6).T)
    computed = np.where(reversible, "reversible", "irreversible")
    diffs = [f"(a={a},b={b},c={c},d={d},n={n},p={p}): computed {got}, fixture says {v}"
             for (a, b, c, d, n, p), got, v in zip(rows, computed, verdicts) if got != v]
    if diffs:
        raise FixtureMismatch(diffs)
    return table, reversible
