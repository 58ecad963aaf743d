import pytest

from treeca.errors import ModulusOutOfRange, NonPrimeModulus
from treeca.field import PrimeField, is_prime


def test_make_field_accepts_primes():
    assert PrimeField(2).p == 2
    assert PrimeField(17).p == 17


@pytest.mark.parametrize("p", [4, 1, 0, 9, 15, 100])
def test_make_field_rejects_composites(p):
    with pytest.raises(NonPrimeModulus):
        PrimeField(p)


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
