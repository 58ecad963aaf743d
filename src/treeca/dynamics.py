"""Evolution of configurations, preimages, Garden of Eden, brute-force oracle.

step_local applies the local rule by level slices of the configuration
(vertex v >= 1 has children 2v+2, 2v+3) and never touches a rule matrix;
step_matrix is the matrix-action route, whose rows are the rule matrix's
entries as _positions places them. Their agreement is exactly what the
rule-matrix construction claims, so the two paths are kept strictly separate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionMismatch, EnumerationTooLarge, FormatError
from .rulematrix import (_BLOCK, Params, RuleMatrix, SolutionSet, _int64s, _row_blocks,
                          linalg_report, solve)
from .rulematrix import _positions as _neighbor_tables  # perfbench's set-up imports it from here
from .tree import TreeShape, digit_budget, printable

# Exhaustive operations refuse to run past this many configurations.
DEFAULT_ENUMERATION_CAP = 2**20
GARDEN_DRAWS = 10_000  # seeded draws garden_report makes at most


@dataclass(frozen=True)
class Configuration:
    """State vector over Z_p indexed by linear vertex index."""

    shape: TreeShape
    p: int
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.int64)  # a copy: the caller's array stays theirs
        if v.shape != (self.shape.total_vertices,):
            raise DimensionMismatch(
                f"expected {self.shape.total_vertices} values, got shape {v.shape}"
            )
        if (v < 0).any() or (v >= self.p).any():
            raise ValueError(f"values outside [0, {self.p})")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @staticmethod
    def zero(shape: TreeShape, p: int) -> "Configuration":
        return Configuration(shape, p, np.zeros(shape.total_vertices, dtype=np.int64))


def _local_rule(shape: TreeShape, params: Params, batch: tuple[int, ...] = ()):
    """step(v, out): one local-rule update of uint64 configurations v (shape
    batch + (|V_n|,)) into out, which must not overlap v, by level slices:
    vertex v >= 1 has children 2v+2, 2v+3. A vertex sums at most four products
    below 2^62, so one final reduction is exact. Constants and scratch are made once."""
    a, b, c, d, p = (np.uint64(k) for k in (params.a, params.b, params.c, params.d, params.p))
    inner = shape.level_offsets[shape.n]  # vertices 1 .. inner-1 have children
    part = np.empty((*batch, inner), dtype=np.uint64)
    kids = part[..., 1:]
    quot = np.empty((*batch, shape.total_vertices), dtype=np.uint64)

    def step(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(v, d, out=out)
        np.multiply(v[..., :inner], c, out=part)  # each inner vertex's term in its children
        out[..., 2::2] += part  # u's term in its children 2u+2, 2u+3 (the root's: 2, 3)
        out[..., 3::2] += part
        o, x = out.T, v.T  # vertex axis first: one configuration's cells index as scalars
        o[1] += part.T[0]  # the root's first child
        o[0] += a * x[1] + b * x[2] + c * x[3]  # root: three children
        out[..., 1:inner] += np.multiply(v[..., 4::2], a, out=kids)
        out[..., 1:inner] += np.multiply(v[..., 5::2], b, out=kids)
        # NumPy divides by a scalar much faster than it takes a remainder
        out -= np.multiply(np.floor_divide(out, p, out=quot), p, out=quot)
        return out

    return step


def _apply_local(values: np.ndarray, shape: TreeShape, params: Params) -> np.ndarray:
    """One local-rule step of an int64 or uint64 array of configurations (last
    axis = vertex), as a new int64 array."""
    v = np.asarray(values).view(np.uint64)
    return _local_rule(shape, params, v.shape[:-1])(v, np.empty_like(v)).view(np.int64)


def step_local(cfg: Configuration, params: Params) -> Configuration:
    """One synchronous update by the local rule (null boundary)."""
    return evolve_last(cfg, params, 1)


def _check_matrix(cfg: Configuration, m: RuleMatrix) -> None:
    if m.shape.n != cfg.shape.n or m.p != cfg.p:
        raise DimensionMismatch(f"matrix (n={m.shape.n}, p={m.p}) vs configuration "
                                f"(n={cfg.shape.n}, p={cfg.p})")


def step_matrix(cfg: Configuration, m: RuleMatrix) -> Configuration:
    """One update as a matrix-vector product mod p."""
    _check_matrix(cfg, m)
    # a row has at most four products < 2^62, so their sum is exact in uint64
    prod = m.dense().view(np.uint64) @ cfg.values.view(np.uint64)
    return Configuration(cfg.shape, cfg.p, (prod % m.p).astype(np.int64))


def _state_blocks(cfg: Configuration, params: Params, t: int, rows: int) -> Iterator[np.ndarray]:
    """States 0 .. t of cfg, stepped by one stepper into one reused (min(rows, t+1), |V_n|)
    uint64 array and yielded in blocks of up to rows states, each an int64 view that the next
    block overwrites. Past one block rows must be >= 2, as a block's row 0 is stepped from
    the row above it, row -1. Inputs are checked and the array made before the first block."""
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    if params.p != cfg.p:
        raise DimensionMismatch(f"params mod {params.p} vs configuration mod {cfg.p}")
    buf = np.empty((min(rows, t + 1), cfg.shape.total_vertices), dtype=np.uint64)
    buf[0] = cfg.values
    step = _local_rule(cfg.shape, params)

    def blocks() -> Iterator[np.ndarray]:
        for start in range(0, t + 1, len(buf)):
            count = min(len(buf), t + 1 - start)
            for k in range(start == 0, count):
                step(buf[k - 1], buf[k])
            yield buf[:count].view(np.int64)

    return blocks()


def evolve(cfg: Configuration, params: Params, t: int) -> np.ndarray:
    """Trace of t local-rule steps: a read-only (t+1, |V_n|) int64 array whose
    row k is the state after k steps, stepped as one block of t+1 rows."""
    values = next(_state_blocks(cfg, params, t, t + 1))
    values.setflags(write=False)
    return values


def evolve_last(cfg: Configuration, params: Params, t: int) -> Configuration:
    """The last configuration of evolve(cfg, params, t), stepped between two
    rows: no trace is kept."""
    for block in _state_blocks(cfg, params, t, 2):
        pass
    return Configuration(cfg.shape, cfg.p, block[-1])


def preimages(cfg: Configuration, m: RuleMatrix) -> SolutionSet:
    """All preimages of cfg under the matrix map, as a solution set."""
    _check_matrix(cfg, m)
    return solve(m, cfg.values)


def enumerate_preimages(
    cfg: Configuration, m: RuleMatrix, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Configuration]:
    sols = preimages(cfg, m)
    if sols.count() > cap:
        k = len(sols.kernel)  # the count is p^k, or 0 if inconsistent: written out if printable
        shown = printable(cfg.p, k, sols.count)
        total = f"{cfg.p}^{k}" if shown is None else shown
        raise EnumerationTooLarge(f"{total} preimages exceed cap {cap}")
    return [Configuration(cfg.shape, cfg.p, x) for x in sols.enumerate()]


@dataclass(frozen=True)
class GardenReport:
    order: int
    rank: int
    p: int
    image_size: int
    garden_count: int
    sample_garden_configs: tuple[Configuration, ...]


def garden_report(m: RuleMatrix, samples: int = 0, seed: int = 0) -> GardenReport:
    """Garden-of-Eden census via rank; optionally find sample configurations
    outside the image by deterministic seeded search.

    Each seeded draw y is tested with rulematrix.solve, which builds no
    matrix: a tree sweep that stops at its first failed consistency check,
    so a draw outside the image costs one partial sweep, or on the
    degenerate set D (d = 0, and c = 0 or a = b = 0) one direct pass."""
    rep = linalg_report(m)
    p, order = m.p, m.order
    # before any draw, ValueError as str() words it if image_size or garden_count would not
    # print; the larger is garden_count >= p^(order-1), or image_size = p^order if that is 0
    if (top := printable(p, order - 1, lambda: p**order - p**rep.rank or p**order)) is None:
        raise ValueError(f"Exceeds the limit ({digit_budget()} digits) for integer string "
                         "conversion; use sys.set_int_max_str_digits() to increase the limit")
    count = top if rep.rank < order else 0
    found: list[Configuration] = []
    if samples > 0 and count > 0:
        rng = np.random.default_rng(seed)
        attempts = 0
        while len(found) < samples and attempts < GARDEN_DRAWS:
            y = rng.integers(0, p, size=order, dtype=np.int64)
            if not solve(m, y).consistent:
                found.append(Configuration(m.shape, p, y))
            attempts += 1
    return GardenReport(
        order=order,
        rank=rep.rank,
        p=p,
        image_size=p**rep.rank,
        garden_count=count,
        sample_garden_configs=tuple(found),
    )


def _check_enumeration(size: int, p: int, cap: int) -> None:
    """EnumerationTooLarge if p^size > cap, known from bit lengths (p >= 2) when
    size >= cap.bit_length(). The message shows p^size only if it is printable."""
    if size >= cap.bit_length() or p**size > cap:
        shown = printable(p, size)
        total = f"{p}^{size}" + ("" if shown is None else f" = {shown}")
        raise EnumerationTooLarge(f"{total} configurations exceed cap {cap}")


def _all_configurations(size: int, p: int, cap: int) -> np.ndarray:
    _check_enumeration(size, p, cap)
    total = p**size
    # row i holds the base-p digits of i, most significant first: the
    # itertools.product order
    powers = p ** np.arange(size - 1, -1, -1, dtype=np.int64)
    return np.arange(total, dtype=np.int64)[:, None] // powers % p


def bijectivity_oracle(
    shape: TreeShape, params: Params, cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Exhaustive injectivity check of the local-rule global map.

    Ground-truth oracle: enumerates the whole configuration space and
    applies the local rule only, never the rule matrix.
    """
    return exhaustive_image_size(shape, params, cap) == params.p**shape.total_vertices


def exhaustive_image_size(
    shape: TreeShape, params: Params, cap: int = DEFAULT_ENUMERATION_CAP
) -> int:
    """Number of distinct images of the local-rule map, by enumeration."""
    size = shape.total_vertices
    p = params.p
    configs = _all_configurations(size, p, cap)
    images = _apply_local(configs, shape, params)
    powers = p ** np.arange(size, dtype=np.int64)
    return len(np.unique(images @ powers))


# ---------------------------------------------------------------------------
# Text formats

_MAGIC = "treeca-config"


def format_config(cfg: Configuration) -> str:
    body = " ".join(map(str, cfg.values.tolist()))
    return f"{_MAGIC} 1 {cfg.shape.n} {cfg.p}\n{body}\n"


def parse_config(text: str) -> Configuration:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty configuration text")
    head = lines[0].split()
    if len(head) != 4 or head[0] != _MAGIC or head[1] != "1":
        raise FormatError(f"unrecognized configuration header {lines[0]!r}")
    n, p = _int64s(head[2:], "header numbers outside int64").tolist()
    values = _int64s(" ".join(lines[1:]).split(), f"residues outside [0, {p})")
    # |V_n| >= 2^n: bound n by the body before TreeShape(n) forms 2^n
    if n > len(values).bit_length():
        raise FormatError(f"level {n} is too deep for {len(values)} residues")
    shape = TreeShape(n)
    if len(values) != shape.total_vertices:
        raise FormatError(f"expected {shape.total_vertices} residues, got {len(values)}")
    return Configuration(shape, p, values)


def _trace_rows(size: int) -> int:
    """States per block of trace text: _BLOCK cells, and at least 2 (see _state_blocks)."""
    return max(_BLOCK // size, 2)


def _json_blocks(blocks: Iterable[np.ndarray], total: int) -> Iterator[str]:
    """json.dumps of the total rows that the int blocks hold between them, one _row_blocks
    block of text per block of rows: a row ends in "], [" ("]]" for the last)."""
    yield "[["
    done = 0
    for block in blocks:
        done += len(block)
        yield from _row_blocks(block.T, ("", ", "), ("], [", "]]"),
                               np.arange(done - len(block), done) == total - 1, [0, len(block)])


def evolve_blocks(cfg: Configuration, params: Params, t: int) -> Iterator[str]:
    """json.dumps(evolve(cfg, params, t).tolist()) in blocks of text, each
    encoded as soon as its states are stepped: no (t+1) x |V_n| array is made, so the
    memory does not grow with t. The inputs are checked before the first block."""
    blocks = _state_blocks(cfg, params, t, _trace_rows(cfg.shape.total_vertices))
    return _json_blocks(blocks, t + 1)


def trace_to_json(values: np.ndarray) -> str:
    """json.dumps(values.tolist()) of a trace as evolve returns it, byte for byte:
    _json_blocks of its blocks of _trace_rows rows, joined."""
    rows = _trace_rows(values.shape[1])
    return "".join(_json_blocks((values[k:k + rows] for k in range(0, len(values), rows)),
                                len(values)))
