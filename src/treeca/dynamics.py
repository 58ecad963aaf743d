"""Evolution of configurations, preimages, Garden of Eden, brute-force oracle.

step_local applies the local rule by level slices of the configuration
(vertex v >= 1 has children 2v+2, 2v+3) and never touches a rule matrix;
step_matrix is the matrix-action route, whose rows are built from the
tree's neighbour table. Their agreement is exactly what the rule-matrix
construction claims, so the two paths are kept strictly separate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

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


def _apply_local(values: np.ndarray, shape: TreeShape, params: Params) -> np.ndarray:
    """One local-rule step on an array of configurations (last axis = vertex),
    by level slices: vertex v >= 1 has children 2v+2, 2v+3. A vertex sums at
    most four products below 2^62, so one final uint64 reduction is exact."""
    a, b, c, d = (np.uint64(k) for k in (params.a, params.b, params.c, params.d))
    v = np.asarray(values).astype(np.uint64)
    inner = shape.level_offsets[shape.n]  # vertices 1 .. inner-1 have children
    out = d * v
    out[..., 0] += a * v[..., 1] + b * v[..., 2] + c * v[..., 3]  # root: three children
    out[..., 1:4] += c * v[..., :1]
    out[..., 4:] += c * np.repeat(v[..., 1:inner], 2, axis=-1)
    out[..., 1:inner] += a * v[..., 4::2] + b * v[..., 5::2]
    out %= np.uint64(params.p)
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
    """Trace of t local-rule steps, filled row by row into one array."""
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    if params.p != cfg.p:
        raise DimensionMismatch(f"params mod {params.p} vs configuration mod {cfg.p}")
    values = np.empty((t + 1, cfg.shape.total_vertices), dtype=np.int64)
    values[0] = cfg.values
    for k in range(t):
        values[k + 1] = _apply_local(values[k], cfg.shape, params)
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
    body = " ".join(str(int(v)) for v in cfg.values)
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


def trace_to_json(trace: EvolutionTrace) -> str:
    """json.dumps(trace.values.tolist()), byte for byte, one row's ints at a time."""
    return "[" + ", ".join(json.dumps(r.tolist()) for r in trace.values) + "]"
