import itertools

import pytest

from treeca.errors import DivisionByZero, ModulusOutOfRange, NonPrimeModulus
from treeca.field import PrimeField, field_inv, is_prime, make_field


def test_make_field_accepts_primes():
    assert make_field(2).p == 2
    assert make_field(17).p == 17


@pytest.mark.parametrize("p", [4, 1, 0, 9, 15, 100])
def test_make_field_rejects_composites(p):
    with pytest.raises(NonPrimeModulus):
        make_field(p)


def test_is_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**31 - 1)  # Mersenne prime
    assert not is_prime(2**31 - 3)


def test_is_prime_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2 .. 23 respectively
    assert 3215031751 == 151 * 751 * 28351
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)


@pytest.mark.parametrize("p", [2**31, 2**31 + 11, 3215031751])
def test_modulus_range(p):
    with pytest.raises(ModulusOutOfRange):
        PrimeField(p)


def test_largest_supported_modulus():
    assert PrimeField(2**31 - 1).p == 2**31 - 1


def test_field_inv_examples():
    assert field_inv(make_field(5), 1) == 1
    assert field_inv(make_field(5), 2) == 3
    # exhaustive-search oracle: the unique y with 5y = 1 mod 17
    expected = next(y for y in range(1, 17) if 5 * y % 17 == 1)
    assert expected == 7
    assert field_inv(make_field(17), 5) == 7


def test_field_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        field_inv(make_field(7), 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_field_axioms_exhaustive(p):
    f = PrimeField(p)
    for x, y, z in itertools.product(range(p), repeat=3):
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    for x in range(1, p):
        assert f.mul(x, f.inv(x)) == 1
