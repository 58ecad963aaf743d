"""Truncated order-2 Cayley tree: addressing, levels, linear indexing.

A vertex address is a digit string: "" for the root, otherwise a first
digit in {1,2,3} followed by digits in {1,2}. The root has 3 children,
every other vertex has 2; level l holds 3*2^(l-1) vertices. The linear
index flattens the ball of radius n level by level, addresses in
lexicographic order within each level, giving the basis used by all
matrices and configuration vectors.

Production code reads a level as an index slice (level_offsets) and a vertex's
neighbours by index arithmetic: vertex v >= 1 has parent max((v-2)//2, 0) and
children 2v+2, 2v+3. Tests check both against the digit-string addresses.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

from .errors import AddressOutOfShape, InvalidLevel

Address = str


def validate_address(addr: Address) -> None:
    if addr == "":
        return
    if addr[0] not in "123" or any(ch not in "12" for ch in addr[1:]):
        raise AddressOutOfShape(f"malformed address {addr!r}")


def parent(addr: Address) -> Optional[Address]:
    """Parent address, or None for the root."""
    validate_address(addr)
    if addr == "":
        return None
    return addr[:-1]


def ball_size(n: int) -> int:
    return (3 << n) - 2  # |V_n| = 1 + 3(2^n - 1), the vertex count up to level n


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

    def __post_init__(self):
        if self.n < 1:
            raise InvalidLevel(f"level count must be >= 1, got {self.n}")

    # |V_n| holds n bits and the level table O(n^2), so they are built on first
    # use: det, rank and the probe at large n never read them.
    @cached_property
    def total_vertices(self) -> int:
        return ball_size(self.n)

    @cached_property
    def level_offsets(self) -> tuple[int, ...]:
        # level l >= 1 starts at |V_(l-1)|, two below its size 3*2^(l-1)
        return (0,) + tuple(map(ball_size, range(self.n)))

    def _level(self, addr: Address) -> int:
        """The level of addr, a well-formed address inside the shape."""
        validate_address(addr)
        if len(addr) > self.n:
            raise AddressOutOfShape(f"level {len(addr)} exceeds shape level {self.n}")
        return len(addr)

    def linear_index(self, addr: Address) -> int:
        """Position of addr in the level-by-level lexicographic flattening."""
        l = self._level(addr)
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
        l = self._level(addr)
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

