"""Exact arithmetic in the prime field Z_p."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DivisionByZero, ModulusOutOfRange, NonPrimeModulus

# The first twelve primes as Miller-Rabin witnesses make the test
# deterministic for all n < 3.3e24, far past the supported range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=1024)  # every PrimeField(p) asks again; sweeps reuse a few primes
def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    # write n-1 = 2^s * d with d odd
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field Z_p for a prime modulus p < 2^31. Residues live in [0, p-1]."""

    p: int

    def __post_init__(self):
        if self.p >= 2**31:  # keeps every product of two residues below 2^62
            raise ModulusOutOfRange(f"modulus {self.p} is not below 2^31")
        if self.p < 2 or not is_prime(self.p):
            raise NonPrimeModulus(f"modulus {self.p} is not prime")

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.p

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.p

    def inv(self, x: int) -> int:
        """Multiplicative inverse of x, x != 0."""
        x %= self.p
        if x == 0:
            raise DivisionByZero(f"0 has no inverse mod {self.p}")
        return pow(x, -1, self.p)


def make_field(p: int) -> PrimeField:
    return PrimeField(p)


def field_inv(f: PrimeField, x: int) -> int:
    return f.inv(x)
