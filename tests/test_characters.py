import random
from fractions import Fraction

from hypothesis import given, strategies as st

from adelic.adeles import principal_idele
from adelic.characters import (
    chi_inf,
    chi_inf_phase,
    chi_p,
    chi_principal,
    chi_principal_phase,
    pi_alpha,
)

F = Fraction

rationals = st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=10**4)


def test_chi_p_examples():
    assert chi_p(F(1, 2), 2).phase == F(1, 2)  # value -1
    assert chi_p(7, 5).phase == 0  # integers have zero fractional part
    assert chi_p(F(1, 3), 3).phase == F(1, 3)


def test_chi_inf_examples():
    assert abs(chi_inf(0) - 1) < 1e-15
    assert abs(chi_inf(0.5) - (-1)) < 1e-15
    assert abs(chi_inf(0.25) - (-1j)) < 1e-15


def test_chi_inf_phase_sign():
    assert chi_inf_phase(F(1, 4)).phase == F(3, 4)  # e^{-i pi/2} = -i


@given(rationals, rationals, st.sampled_from([2, 3, 5, 7]))
def test_chi_p_additivity_exact(x, y, p):
    assert chi_p(x + y, p).phase == (chi_p(x, p) * chi_p(y, p)).phase


def test_chi_principal_examples():
    # 5/6: phases -5/6 + 1/2 + 1/3 = 0
    assert chi_principal_phase(F(5, 6)).phase == 0
    assert chi_principal_phase(7).phase == 0
    assert chi_principal_phase(F(-9, 8)).phase == 0
    assert chi_principal(F(5, 6)) == 1


@given(rationals)
def test_chi_principal_trivial_exact(r):
    assert chi_principal_phase(r).phase == 0


def test_chi_principal_thousand_random():
    rng = random.Random(20260810)
    for _ in range(1000):
        r = F(rng.randint(1, 10**6) * rng.choice([-1, 1]), rng.randint(1, 10**6))
        assert chi_principal_phase(r).phase == 0


def test_chi_adele_principal_and_generic():
    from adelic.adeles import Adele, principal_adele
    from adelic.characters import chi_adele

    for r in (F(5, 6), F(-9, 8), F(7)):
        assert abs(chi_adele(principal_adele(r)) - 1) < 1e-12
    x = Adele(real=0.25, components={2: F(1, 2)}, tail=F(0))
    # phase: -0.25 (real) + 1/2 (2-adic) = 1/4
    assert abs(chi_adele(x) - 1j) < 1e-12


def test_pi_alpha_examples():
    # principal ideles give exactly 1; tests/test_adeles.py covers the
    # complex and alpha = 2 cases and an idele with a float real part
    assert pi_alpha(principal_idele(F(3, 2)), 1) == 1
    assert pi_alpha(principal_idele(-7), 1) == 1


def test_pi_alpha_multiplicativity():
    # a second seeded draw to the one in tests/test_adeles.py
    rng = random.Random(99)
    for _ in range(30):
        r1 = F(rng.randint(1, 200) * rng.choice([-1, 1]), rng.randint(1, 200))
        r2 = F(rng.randint(1, 200) * rng.choice([-1, 1]), rng.randint(1, 200))
        alpha = 1.5 - 0.25j
        lhs = pi_alpha(principal_idele(r1 * r2), alpha)
        rhs = pi_alpha(principal_idele(r1), alpha) * pi_alpha(principal_idele(r2), alpha)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), (r1, r2)
