import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from adelic.adeles import (
    Adele,
    Idele,
    norm_product,
    principal_adele,
    principal_idele,
    zero_adele,
)
from adelic.characters import pi_alpha

F = Fraction


def test_principal_adele_support():
    a = principal_adele(F(5, 6))
    assert a.listed_primes == [2, 3]
    assert principal_adele(7).listed_primes == []
    assert zero_adele().listed_primes == []


def test_component_lookup_uses_tail():
    a = principal_adele(F(5, 6))
    assert a.component(2) == F(5, 6)
    assert a.component(7) == F(5, 6)  # unlisted, from the tail
    assert a.norm_at(7) == 1


def test_canonicalization_drops_tail_equal_components():
    a = Adele(real=1.0, components={5: F(0)}, tail=F(0))
    assert a.listed_primes == []
    b = Adele(real=1.0, components={5: F(1, 2)}, tail=F(0))
    assert b.listed_primes == [5]  # differs from tail, must stay
    assert Adele(real=1.0, components={5: F(1, 2)}, tail=0) == b


def test_tail_integrality_enforced():
    with pytest.raises(ValueError):
        Adele(real=0.0, components={}, tail=F(1, 3))
    Adele(real=0.0, components={3: F(1, 3)}, tail=F(1, 3))  # listed: fine


def test_idele_constraints():
    with pytest.raises(ValueError):
        Idele(real=0, components={}, tail=F(1))
    with pytest.raises(ValueError):
        Idele(real=1.0, components={3: F(0)}, tail=F(1))
    with pytest.raises(ValueError):
        # tail 5 is not a 5-adic unit and 5 is unlisted
        Idele(real=1.0, components={}, tail=F(5))
    lam = principal_idele(F(3, 2))
    assert lam.listed_primes == [2, 3]


def test_norm_product_examples():
    assert norm_product(F(3, 2)) == 1
    assert norm_product(-7) == 1
    with pytest.raises(ValueError):
        norm_product(0)


@given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6).filter(lambda r: r != 0))
def test_norm_product_is_exactly_one(r):
    assert norm_product(r) == 1


def test_norm_product_thousand_random():
    rng = random.Random(20260810)
    for _ in range(1000):
        num = rng.randint(1, 10**6) * rng.choice([-1, 1])
        den = rng.randint(1, 10**6)
        assert norm_product(F(num, den)) == 1


def test_adele_norm_alpha_principal_exact():
    # |x|^alpha of an idele is characters.pi_alpha
    lam = principal_idele(10)
    assert pi_alpha(lam, 0.5 + 1j) == 1
    assert pi_alpha(lam, 2) == 1  # 100 * (1/4) * (1/25)


def test_adele_norm_alpha_generic():
    lam = Idele(real=2.0, components={}, tail=F(1))
    assert abs(pi_alpha(lam, 2) - 4) < 1e-14


def test_adele_norm_alpha_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        r1 = F(rng.randint(1, 400) * rng.choice([-1, 1]), rng.randint(1, 400))
        r2 = F(rng.randint(1, 400) * rng.choice([-1, 1]), rng.randint(1, 400))
        alpha = 0.7 + 0.3j
        lhs = pi_alpha(principal_idele(r1 * r2), alpha)
        rhs = pi_alpha(principal_idele(r1), alpha) * pi_alpha(principal_idele(r2), alpha)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), (r1, r2)


def test_equality_and_hash():
    a1 = principal_adele(F(5, 6))
    a2 = principal_adele(F(5, 6))
    assert a1 == a2
    assert hash(a1) == hash(a2)
    assert a1 != principal_adele(F(1, 6))
