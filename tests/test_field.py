import pytest

from treeca.errors import ModulusOutOfRange, NonPrimeModulus
from treeca.field import MR_EXACT_BELOW, PrimeField, is_prime


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


def test_is_prime_is_exact_below_its_bound():
    """psi_12, the least strong pseudoprime to the first twelve prime bases, is
    composite; psi_13, which passes the first thirteen, is the bound."""
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441 and psi_12 < MR_EXACT_BELOW
    assert not is_prime(psi_12)
    assert MR_EXACT_BELOW == 1287836182261 * 2575672364521


@pytest.mark.parametrize("p", [2**31, 2**31 + 11, 3215031751])
def test_modulus_range(p):
    with pytest.raises(ModulusOutOfRange):
        PrimeField(p)


def test_largest_supported_modulus():
    assert PrimeField(2**31 - 1).p == 2**31 - 1
