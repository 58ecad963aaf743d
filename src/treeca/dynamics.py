"""Evolution of configurations, preimages, Garden of Eden, brute-force oracle.

step_local applies the local rule straight from the tree's neighbour
table and never touches a rule matrix; step_matrix is the matrix-action
route. Their agreement is exactly what the rule-matrix construction
claims, so the two paths are kept strictly separate. They share only the
tree's neighbour table, which the tests check against the address route.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EnumerationTooLarge, FormatError
from .rulematrix import Params, RuleMatrix, SolutionSet, linalg_report, solve
from .tree import TreeShape
from .tree import neighbor_tables as _neighbor_tables

# Exhaustive operations refuse to run past this many configurations.
DEFAULT_ENUMERATION_CAP = 2**20


@dataclass(frozen=True)
class Configuration:
    """State vector over Z_p indexed by linear vertex index."""

    shape: TreeShape
    p: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
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
    initial: Configuration
    steps: tuple[Configuration, ...]
    params: Params

    @property
    def configurations(self) -> list[Configuration]:
        return [self.initial, *self.steps]


def _apply_local(values: np.ndarray, shape: TreeShape, params: Params) -> np.ndarray:
    """One local-rule step on an array of configurations (last axis = vertex)."""
    par, c1, c2 = _neighbor_tables(shape.n)
    p = params.p
    ext = np.concatenate([values, np.zeros(values.shape[:-1] + (1,), dtype=np.int64)], axis=-1)
    # products of residues are below 2^62: reducing after the first two
    # keeps every partial sum below 2^63
    out = (
        (params.d * values + params.c * ext[..., par]) % p
        + params.a * ext[..., c1]
        + params.b * ext[..., c2]
    ) % p
    # root rule: third child carries coefficient c (the parent slot is empty)
    out[..., 0] = (out[..., 0] + params.c * values[..., 3]) % p
    return out


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
    """Trace of t steps; configurations[k] is the state after k steps."""
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    steps = []
    cur = cfg
    for _ in range(t):
        cur = step_local(cur, params)
        steps.append(cur)
    return EvolutionTrace(initial=cfg, steps=tuple(steps), params=params)


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
    outside the image by deterministic seeded search."""
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


def _all_configurations(size: int, p: int, cap: int) -> np.ndarray:
    total = p**size
    if total > cap:
        raise EnumerationTooLarge(f"{p}^{size} = {total} configurations exceed cap {cap}")
    return np.array(list(itertools.product(range(p), repeat=size)), dtype=np.int64)


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
    return json.dumps([[int(v) for v in c.values] for c in trace.configurations])
