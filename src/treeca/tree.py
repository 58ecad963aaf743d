"""Truncated order-2 Cayley tree: addressing, levels, linear indexing.

A vertex address is a digit string: "" for the root, otherwise a first
digit in {1,2,3} followed by digits in {1,2}. The root has 3 children,
every other vertex has 2; level l holds 3*2^(l-1) vertices. The linear
index flattens the ball of radius n level by level, addresses in
lexicographic order within each level, giving the basis used by all
matrices and configuration vectors.

Production code finds neighbours by index arithmetic (neighbor_tables);
the digit-string address methods of TreeShape are the independent
reference that the tests check it against.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import AddressOutOfShape, InvalidLevel

Address = str


def validate_address(addr: Address) -> None:
    if addr == "":
        return
    if addr[0] not in "123" or any(ch not in "12" for ch in addr[1:]):
        raise AddressOutOfShape(f"malformed address {addr!r}")


def level(addr: Address) -> int:
    return len(addr)


def parent(addr: Address) -> Optional[Address]:
    """Parent address, or None for the root."""
    validate_address(addr)
    if addr == "":
        return None
    return addr[:-1]


def ball_size(n: int) -> int:
    return 3 * 2**n - 2  # |V_n| = 1 + 3(2^n - 1), the vertex count up to level n


def digit_budget() -> int:
    """Python's int-to-str digit limit, or 100 000 where it is 0 (none): str() is quadratic."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 100_000


def printable(p: int, n: int, make: Optional[Callable[[], int]] = None) -> Optional[int]:
    """make(), by default p^n, if it has at most digit_budget() digits, else None. make() >= p^n
    is not called once n (bit_length(p) - 1) >= 4 budget: p^n >= 2^(4 budget) > 10^budget."""
    budget = digit_budget()
    if n * (p.bit_length() - 1) >= 4 * budget:
        return None
    x = make() if make else p**n
    return x if x < _power_of_ten(budget) else None


@lru_cache(maxsize=4)
def _power_of_ten(k: int) -> int:
    return 10**k  # 10^4300 alone takes longer than a classify


@dataclass(frozen=True)
class TreeShape:
    """Combinatorics of the tree truncated at level n."""

    n: int
    total_vertices: int = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidLevel(f"level count must be >= 1, got {self.n}")
        object.__setattr__(self, "total_vertices", ball_size(self.n))

    # The level tables hold O(n^2) bits, so they are built on first use:
    # det and rank at large n never read them.
    @cached_property
    def level_sizes(self) -> tuple[int, ...]:
        return (1,) + tuple(3 << (l - 1) for l in range(1, self.n + 1))

    @cached_property
    def level_offsets(self) -> tuple[int, ...]:
        # level l >= 1 starts at 3*2^(l-1) - 2, two below its size
        return (0,) + tuple((3 << (l - 1)) - 2 for l in range(1, self.n + 1))

    def check_level(self, l: int) -> None:
        if l > self.n:
            raise AddressOutOfShape(f"level {l} exceeds shape level {self.n}")

    def linear_index(self, addr: Address) -> int:
        """Position of addr in the level-by-level lexicographic flattening."""
        validate_address(addr)
        l = level(addr)
        self.check_level(l)
        if l == 0:
            return 0
        # first digit counts in base 3 over blocks of 2^(l-1); the rest in base 2
        pos = (int(addr[0]) - 1) * 2 ** (l - 1)
        for i, ch in enumerate(addr[1:], start=2):
            pos += (int(ch) - 1) * 2 ** (l - i)
        return self.level_offsets[l] + pos

    def address_of(self, index: int) -> Address:
        """Inverse of linear_index."""
        if not 0 <= index < self.total_vertices:
            raise AddressOutOfShape(f"index {index} outside [0, {self.total_vertices})")
        if index == 0:
            return ""
        l = max(k for k in range(self.n + 1) if self.level_offsets[k] <= index)
        pos = index - self.level_offsets[l]
        first, rest = divmod(pos, 2 ** (l - 1))
        digits = [str(first + 1)]
        for i in range(l - 2, -1, -1):
            bit, rest = divmod(rest, 2**i)
            digits.append(str(bit + 1))
        return "".join(digits)

    def children(self, addr: Address) -> list[Address]:
        """Children inside the shape; empty at level n (null boundary)."""
        validate_address(addr)
        l = level(addr)
        self.check_level(l)
        if l == self.n:
            return []
        if addr == "":
            return ["1", "2", "3"]
        return [addr + "1", addr + "2"]

    def parent_index(self, index: int) -> Optional[int]:
        p = parent(self.address_of(index))
        return None if p is None else self.linear_index(p)

    def child_indices(self, index: int) -> list[int]:
        return [self.linear_index(c) for c in self.children(self.address_of(index))]


@lru_cache(maxsize=None)
def neighbor_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (parent, child1, child2) index arrays of the level-n shape;
    absent neighbours point at a zero sentinel slot at total_vertices. The
    root's third child, 3, is left to callers.

    Level l >= 1 starts at 3*2^(l-1)-2 and position q of level l has
    children 2q, 2q+1 of level l+1, so vertex v >= 1 has children 2v+2, 2v+3.
    """
    shape = TreeShape(n)
    size = shape.total_vertices
    if size > np.iinfo(np.intp).max // 8:  # np.full would refuse it as a ValueError
        raise MemoryError(f"Unable to allocate the level-{n} neighbour tables: 3 arrays of "
                          f"{size} int64 values are past the address range")
    par, c1, c2 = (np.full(size, size, dtype=np.int64) for _ in range(3))
    par[1:4] = 0
    par[4:] = (np.arange(4, size) - 2) // 2
    c1[0], c2[0] = 1, 2
    inner = np.arange(1, shape.level_offsets[n])  # levels 1 .. n-1
    c1[inner] = 2 * inner + 2
    c2[inner] = 2 * inner + 3
    for a in (par, c1, c2):
        a.setflags(write=False)
    return par, c1, c2
