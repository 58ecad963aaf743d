"""Reversibility sweeps, closed-form determinants, entropy growth, probes.

The reversibility verdict for one parameter tuple comes from the exact
leaf-to-root level recursion of rulematrix.linalg_report: O(n) field
operations, no modular inverse, no rule matrix assembled (dense elimination
only when a zero among a, b, c is allowed). A sweep runs it as one array
pass per (p, n) group, the same rulematrix._level_recursion over int64 arrays.
The closed-form degree-10 and degree-22 determinant polynomials are
evaluated mod p as an independent check.
Entropy quantities are analytic: H_n = |V_n| * log2(p) grows like 2^n,
so H_n / n is unbounded. The partition probe counts the atoms actually
distinguishable by repeated observation of the root cell (or the radius-1
ball): the observation is linear, so the count is p^rank of the
observability matrix, with no enumeration of configurations.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor  # unused; perfbench/spans.py patches this name
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .dynamics import DEFAULT_ENUMERATION_CAP, _apply_local, _check_enumeration
from .errors import FixtureMismatch, FormatError, InvalidLevel, NonPrimeModulus
from .field import PrimeField, is_prime
from .rulematrix import Params, _level_recursion, _reduce, build_rule_matrix, linalg_report
from .tree import TreeShape, ball_size


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
    """TreeShape(n), or InvalidLevel if |V_n| = 3*2^n - 2, the largest rank, has
    more digits than Python prints (sys.get_int_max_str_digits, 0: no limit).
    2^(n+2) <= 2^(3.32 limit) < 10^limit < 2^(4 limit) < 2^n decide most n."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and n + 2 > 3.32 * limit and (n > 4 * limit or ball_size(n) >= 10**limit):
        raise InvalidLevel(f"level {n}: |V_n| = 3*2^n - 2 has more than {limit} digits")
    return TreeShape(n)


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


def _sweep_groups(spec: SweepSpec):
    """Each nonempty (p, n) group of the spec in generation order, as
    (PrimeField(p), n, rows (a, b, c, d), the values the rows are taken from):
    seeded draws from Z_p^*, made once the field is checked, or the
    cartesian product of the value lists."""
    if spec.random_count:
        rng = np.random.default_rng(spec.seed)
        for p in spec.p_values:
            for n in spec.n_values:
                field = PrimeField(p)  # before the draws: rng.integers(1, p) needs p >= 2
                yield field, n, rng.integers(1, p, size=(spec.random_count, 4)), ()
    else:
        lists = (spec.a_values, spec.b_values, spec.c_values, spec.d_values)
        rows = list(itertools.product(*lists))
        for p in spec.p_values:
            for n in spec.n_values:
                if rows:
                    yield PrimeField(p), n, rows, itertools.chain(*lists)


def sweep(spec: SweepSpec) -> list[ReversibilityRecord]:
    """classify every tuple of the spec, by one array pass of the level
    recursion per (p, n) group. The first bad tuple in generation order
    raises classify's error: its modulus, then its coefficients, then its
    level; an empty group checks nothing. Output order is canonical
    (lexicographic over (p, n, a, b, c, d))."""
    tables, ranks = [], []
    for field, n, rows, values in _sweep_groups(spec):
        p = field.p
        if not all(0 < v < p for v in values):
            first = next(t for t in rows if not all(0 < v < p for v in t))
            if first is not rows[0]:
                _printable_shape(n)  # the group's first tuple is good, so its level comes first
            Params(*first, field=field)  # raises the coefficient's error
        abcd = np.asarray(rows, dtype=np.int64)
        det, rank = _level_recursion(_printable_shape(n).n, *abcd.T, p)
        tables.append(np.column_stack([abcd, np.full((len(abcd), 2), (n, p)), det]))
        ranks += rank.tolist()
    if not tables:
        return []
    table = np.concatenate(tables)
    order = np.lexsort(table[:, [3, 2, 1, 0, 4, 5]].T).tolist()  # ReversibilityRecord.sort_key
    return [ReversibilityRecord(*row, ranks[i], row[6] != 0)
            for row, i in zip(table[order].tolist(), order)]


def records_to_csv(records: Iterable[ReversibilityRecord]) -> str:
    """One CSV line per record; ints and true/false need no quoting."""
    lines = [",".join(ReversibilityRecord._fields)]
    lines += [f"{a},{b},{c},{d},{n},{p},{det},{rank},{str(rev).lower()}"
              for a, b, c, d, n, p, det, rank, rev in records]
    return "\n".join(lines) + "\n"


def records_to_json(records: Iterable[ReversibilityRecord]) -> str:
    return json.dumps([r._asdict() for r in records], indent=2)


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
    only for n <= 1022, since |V_1023| alone passes the float range."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
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


def partition_entropy(pi: Sequence[float]) -> float:
    """Shannon entropy (base 2) of a probability vector; 0*log0 = 0."""
    total = sum(pi)
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError(f"probabilities sum to {total}, not 1")
    return -sum(q * math.log2(q) for q in pi if q > 0)


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


def partition_atom_count(
    params: Params,
    steps: int,
    truncation: TreeShape,
    mode: str = "root",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> PartitionProbe:
    """Count the atoms of the joined partition of all configurations on the
    truncation obtained by observing the root cell (or the radius-1 ball)
    at times 0 .. steps-1. The observation is linear, so the count is p^rank
    of the observability map x -> (e_obs M^t x)_{t<steps}, whose columns are
    the unit vectors stepped by the local rule; p^|V_n| must not exceed cap.

    The claimed count p^(1+3(2^steps-1)) is reported alongside, with no
    equality asserted; steps at which it exceeds 4300 digits are rejected.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if mode not in ("root", "ball"):
        raise ValueError(f"mode must be 'root' or 'ball', got {mode!r}")
    p, size = params.p, truncation.total_vertices
    _check_enumeration(size, p, cap)
    # min() keeps 2^steps small; every steps >= 13 is rejected anyway
    if ball_size(min(steps, 64)) * math.log10(p) > 4300:
        raise ValueError(f"claimed count p^|V_steps| exceeds 4300 digits at steps={steps}, p={p}")
    observed_cols = [0] if mode == "root" else [0, 1, 2, 3]
    stepped = [np.eye(size, dtype=np.int64)]  # row j of stepped[t]: M^t e_j
    while len(stepped) < steps:
        stepped.append(_apply_local(stepped[-1], truncation, params))
    atom_count = p ** len(_reduce(np.hstack([x[:, observed_cols] for x in stepped]), p)[1])
    return PartitionProbe(
        steps=steps,
        truncation_level=truncation.n,
        p=p,
        a=params.a, b=params.b, c=params.c, d=params.d,
        mode=mode,
        atom_count=atom_count,
        claimed_atom_count=p ** ball_size(steps),
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


def table1_fixture_csv() -> str:
    lines = ["a,b,c,d,n,p,reversibility"]
    lines += [f"{a},{b},{c},{d},{n},{p},{v}" for a, b, c, d, n, p, v in table1_expected()]
    return "\n".join(lines) + "\n"


def table1_check(fixture_text: str) -> list[ReversibilityRecord]:
    """Recompute every fixture row and diff verdicts; raises FixtureMismatch
    with per-row diffs if anything disagrees, FormatError if a column or a
    field is missing."""
    reader = csv.DictReader(io.StringIO(fixture_text))
    columns = ("a", "b", "c", "d", "n", "p", "reversibility")
    if missing := [k for k in columns if k not in (reader.fieldnames or ())]:
        raise FormatError(f"fixture has no column {', '.join(missing)}")
    diffs = []
    records = []
    for row in reader:
        if any(row[k] is None for k in columns):
            raise FormatError(f"fixture line {reader.line_num} has fewer fields than the header")
        a, b, c, d, n, p = (int(row[k]) for k in columns[:6])
        rec = classify(a, b, c, d, n, p)
        records.append(rec)
        if rec.verdict != row["reversibility"]:
            diffs.append(
                f"(a={a},b={b},c={c},d={d},n={n},p={p}): "
                f"computed {rec.verdict}, fixture says {row['reversibility']}"
            )
    if diffs:
        raise FixtureMismatch(diffs)
    return records
