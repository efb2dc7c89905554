from fractions import Fraction

import pytest

from adelic.primes import (
    RHO_MAX_STEPS,
    factorize,
    is_prime,
    legendre_symbol,
    primes_up_to,
    rational_primes,
    require_prime,
)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == known


def test_is_prime_larger():
    assert is_prime(1_000_003)
    assert not is_prime(1_000_001)  # 101 * 9901
    assert is_prime(2**61 - 1)


def test_factorize_matches_product():
    for n in [2, 12, 360, 1_000_000, 999_983, 2**20 * 3**5 * 97]:
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_splits_two_ten_digit_primes():
    assert factorize(1_000_000_007 * 1_000_000_009) == {1_000_000_007: 1, 1_000_000_009: 1}


@pytest.mark.parametrize("n", [
    1000000001000040000000037000111,
    -10000000000100000015200000000039000004407,
], ids=["31-digit", "41-digit"])
def test_factorize_stops_at_the_rho_bound(n):
    with pytest.raises(ValueError, match=f"cannot factor {abs(n)} within {RHO_MAX_STEPS} "):
        factorize(n)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_rational_primes():
    assert rational_primes(Fraction(5, 6)) == [2, 3, 5]
    assert rational_primes(Fraction(-7)) == [7]
    with pytest.raises(ValueError):
        rational_primes(Fraction(0))


def test_primes_up_to():
    ps = primes_up_to(100)
    assert ps[:5] == [2, 3, 5, 7, 11]
    assert len(ps) == 25


def test_require_prime():
    assert require_prime(13) == 13
    with pytest.raises(ValueError):
        require_prime(15)
    with pytest.raises(ValueError):
        require_prime(1)


def test_legendre_symbol():
    # squares mod 7: {1, 2, 4}
    assert [legendre_symbol(a, 7) for a in range(1, 7)] == [1, 1, -1, 1, -1, -1]
    assert legendre_symbol(14, 7) == 0


def test_is_prime_rejects_the_strong_pseudoprime_to_bases_up_to_37():
    # 399165290221 * 798330580441 passes Miller-Rabin to every base 2..37;
    # base 41 exposes it, and 41 itself stays prime
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)
    assert factorize(n) == {399165290221: 1, 798330580441: 1}
    assert is_prime(41)
