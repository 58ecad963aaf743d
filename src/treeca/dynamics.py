"""Evolution of configurations, preimages, Garden of Eden, brute-force oracle.

step_local applies the local rule by level slices of the configuration
(vertex v >= 1 has children 2v+2, 2v+3) and never touches a rule matrix;
step_matrix is the matrix-action route, whose rows are built from the
tree's neighbour table. Their agreement is exactly what the rule-matrix
construction claims, so the two paths are kept strictly separate.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, EnumerationTooLarge, FormatError
from .rulematrix import Params, RuleMatrix, SolutionSet, linalg_report, solve
from .tree import TreeShape
from .tree import neighbor_tables as _neighbor_tables  # perfbench imports it from here

# Exhaustive operations refuse to run past this many configurations.
DEFAULT_ENUMERATION_CAP = 2**20


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


@dataclass(frozen=True)
class EvolutionTrace:
    """values[k], row k of a read-only (t+1, |V_n|) int64 array, is the state
    after k steps; steps and configurations wrap rows as Configurations."""

    initial: Configuration
    values: np.ndarray
    params: Params

    @property
    def steps(self) -> tuple[Configuration, ...]:
        return tuple(Configuration(self.initial.shape, self.initial.p, r) for r in self.values[1:])

    @property
    def configurations(self) -> list[Configuration]:
        return [self.initial, *self.steps]


def _apply_local(values: np.ndarray, shape: TreeShape, params: Params,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """One local-rule step on an int64 or uint64 array of configurations
    (last axis = vertex), by level slices: vertex v >= 1 has children 2v+2,
    2v+3. A vertex sums at most four products below 2^62, so one final
    uint64 reduction is exact. out, a uint64 array of the same shape that
    does not overlap values, receives the step; the result is returned as
    an int64 view."""
    a, b, c, d, p = (np.uint64(k) for k in (params.a, params.b, params.c, params.d, params.p))
    v = np.asarray(values).view(np.uint64)
    inner = shape.level_offsets[shape.n]  # vertices 1 .. inner-1 have children
    out = np.multiply(d, v, out=out)
    out[..., 0] += a * v[..., 1] + b * v[..., 2] + c * v[..., 3]  # root: three children
    out[..., 1:4] += c * v[..., :1]
    below = c * v[..., 1:inner]  # each inner vertex's term in both its children
    out[..., 4::2] += below
    out[..., 5::2] += below
    out[..., 1:inner] += a * v[..., 4::2] + b * v[..., 5::2]
    out -= out // p * p  # NumPy divides by a scalar much faster than it takes a remainder
    return out.view(np.int64)


def step_local(cfg: Configuration, params: Params) -> Configuration:
    """One synchronous update by the local rule (null boundary)."""
    if params.p != cfg.p:
        raise DimensionMismatch(f"params mod {params.p} vs configuration mod {cfg.p}")
    return Configuration(cfg.shape, cfg.p, _apply_local(cfg.values, cfg.shape, params))


def step_matrix(cfg: Configuration, m: RuleMatrix) -> Configuration:
    """One update as a matrix-vector product mod p."""
    if m.shape.n != cfg.shape.n or m.p != cfg.p:
        raise DimensionMismatch(
            f"matrix (n={m.shape.n}, p={m.p}) vs configuration (n={cfg.shape.n}, p={cfg.p})"
        )
    # a row has at most four products < 2^62, so their sum is exact in uint64
    prod = m.dense().view(np.uint64) @ cfg.values.view(np.uint64)
    return Configuration(cfg.shape, cfg.p, (prod % m.p).astype(np.int64))


def evolve(cfg: Configuration, params: Params, t: int) -> EvolutionTrace:
    """Trace of t local-rule steps, each written in place into the next row
    of one array."""
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    if params.p != cfg.p:
        raise DimensionMismatch(f"params mod {params.p} vs configuration mod {cfg.p}")
    rows = np.empty((t + 1, cfg.shape.total_vertices), dtype=np.uint64)
    rows[0] = cfg.values
    for k in range(t):
        _apply_local(rows[k], cfg.shape, params, out=rows[k + 1])
    values = rows.view(np.int64)
    values.setflags(write=False)
    return EvolutionTrace(initial=cfg, values=values, params=params)


def preimages(cfg: Configuration, m: RuleMatrix) -> SolutionSet:
    """All preimages of cfg under the matrix map, as a solution set."""
    if m.shape.n != cfg.shape.n or m.p != cfg.p:
        raise DimensionMismatch(
            f"matrix (n={m.shape.n}, p={m.p}) vs configuration (n={cfg.shape.n}, p={cfg.p})"
        )
    return solve(m, cfg.values)


def enumerate_preimages(
    cfg: Configuration, m: RuleMatrix, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Configuration]:
    sols = preimages(cfg, m)
    if sols.count() > cap:
        raise EnumerationTooLarge(f"{sols.count()} preimages exceed cap {cap}")
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

    Each seeded draw y is tested with rulematrix.solve. When a*b*c != 0
    mod p that is a tree sweep with no matrix, which stops at its first
    failed consistency check, so a draw outside the image costs one
    partial sweep; otherwise it is a dense reduction of [M | y]."""
    rep = linalg_report(m)
    p, order = m.p, m.order
    count = p**order - p**rep.rank
    found: list[Configuration] = []
    if samples > 0 and count > 0:
        rng = np.random.default_rng(seed)
        attempts = 0
        while len(found) < samples and attempts < 10000:
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
    if p**size > cap:
        raise EnumerationTooLarge(f"{p}^{size} = {p**size} configurations exceed cap {cap}")


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
    n, p = int(head[2]), int(head[3])
    values = [int(t) for ln in lines[1:] for t in ln.split()]
    # |V_n| >= 2^n: bound n by the body before TreeShape(n) forms 2^n
    if n > len(values).bit_length():
        raise FormatError(f"level {n} is too deep for {len(values)} residues")
    shape = TreeShape(n)
    if len(values) != shape.total_vertices:
        raise FormatError(f"expected {shape.total_vertices} residues, got {len(values)}")
    return Configuration(shape, p, np.array(values, dtype=np.int64))


@lru_cache(maxsize=None)
def _digit_table() -> np.ndarray:
    """ASCII digits of 0 .. 99 999, five bytes packed into the low end of a
    uint64, most significant digit in byte 0, leading zeros as NUL bytes
    (0 is all NUL). Built from the ten digit bytes by broadcasting, with no
    division. Every digit byte has the bits of "0" set, so OR-ing an entry
    with "00000" pads it with zeros, and with "0" in byte 4 writes 0 as "0"."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
    table = np.zeros(1, dtype=np.uint64)
    for k in range(5):
        table = (table[:, None] | digit << np.uint64(8 * k)).ravel()
    for k in range(5):  # byte k is a leading zero below 10^(4-k)
        table[: 10 ** (4 - k)] &= ~np.uint64(0xFF << (8 * k))
    table.setflags(write=False)
    return table


def _packed(text: str, at: int) -> np.uint64:
    return np.uint64(int.from_bytes(text.encode(), "little") << 8 * at)


_PAD, _ZERO = _packed("00000", 0), _packed("0", 4)
# separators as they sit in bytes 2..5 of a cell's second word
_COMMA, _ROW_END, _TRACE_END = (_packed(sep, 2) for sep in (", ", "], [", "]]"))
_BLOCK = 1 << 14  # cells per block: about 2 MB of scratch arrays, small beside the text


def trace_to_json(trace: EvolutionTrace) -> str:
    """json.dumps(trace.values.tolist()), byte for byte, with no Python int
    per cell. Residues lie in [0, 2^31): a cell v = 10^5 hi + lo writes hi
    without leading zeros (nothing when hi = 0) and lo zero-padded (lo
    alone, unpadded, when hi = 0), then its separator, into a 16-byte slot
    of two uint64 words; the NUL bytes left in each slot are dropped block
    by block."""
    table = _digit_table()
    cols = trace.values.shape[1]
    flat = trace.values.reshape(-1)
    parts = ["[["]
    for start in range(0, flat.size, _BLOCK):
        hi, lo = np.divmod(flat[start:start + _BLOCK], 100_000)
        low = table[lo] | np.where(hi > 0, _PAD, _ZERO)
        sep = np.full(hi.size, _COMMA)
        sep[(cols - 1 - start) % cols::cols] = _ROW_END
        if start + hi.size == flat.size:
            sep[-1] = _TRACE_END
        slots = np.empty((hi.size, 2), dtype=np.uint64)
        slots[:, 0] = table[hi] | low << np.uint64(40)
        slots[:, 1] = low >> np.uint64(24) | sep
        text = slots.view(np.uint8)
        parts.append(text[text != 0].tobytes().decode("ascii"))
    return "".join(parts)
