import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from adelic import gauss
from adelic.adeles import Adele, principal_adele, principal_idele
from adelic.bruhat import Ball, ElementaryFunction, HermiteGaussian, PAdicTestFunction
from adelic.cyclotomic import Cyclo, UnitPhase
from adelic.gauss import (
    calibrate_lambda_p,
    gauss_integral_inf,
    gauss_integral_p_exact,
    gauss_polar,
    kernel_k,
    kernel_k_polar,
    lambda_inf_phase,
    lambda_local_transform,
    lambda_p,
    lambda_product_check,
    lambda_transform,
    sqrt_norm_2a_inv,
)
from adelic.integrate import Unstabilized, integrate_qp
from adelic.padic import padic_norm, valuation
from adelic.quadrature import fresnel_regularized

F = Fraction


class TestLambdaTable:
    def test_real_place_fresnel_oracle(self):
        # lam_inf(a)|2a|^{-1/2} must match the regularized Fresnel oracle
        for a in (1.0, 2.0, -1.0, 0.5, -3.0):
            oracle, est = fresnel_regularized(a)
            closed = lambda_inf_phase(a).value * abs(2 * a) ** -0.5
            assert est < 1e-4  # self-consistency estimate is conservative
            assert abs(oracle - closed) < 1e-6, a

    def test_lambda_inf_values(self):
        assert abs(lambda_inf_phase(1).value - cmath.exp(-1j * math.pi / 4)) < 1e-15
        assert abs(lambda_inf_phase(-2).value - cmath.exp(1j * math.pi / 4)) < 1e-15
        with pytest.raises(ValueError):
            lambda_inf_phase(0).value

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_odd_prime_unit_a_is_one(self, p):
        for u in range(1, p):
            assert lambda_p(p, F(u)).phase == 0

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_calibration_reproduces_frozen_table(self, p):
        table = calibrate_lambda_p(p)
        for a, measured in table.items():
            assert measured == lambda_p(p, a).as_cyclo(), (p, a)

    def test_lambda_2_is_eighth_root(self):
        assert lambda_p(2, F(1)).phase == F(1, 8)
        assert lambda_p(2, F(3)).phase == F(7, 8)
        assert lambda_p(2, F(2)).phase == F(1, 8)
        assert lambda_p(2, F(6)).phase == F(3, 8)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_square_invariance(self, p):
        rng = random.Random(31 + p)
        for _ in range(25):
            a = F(rng.randint(1, 50) * rng.choice([-1, 1]), rng.randint(1, 50))
            c = F(rng.randint(1, 30), rng.randint(1, 30))
            assert lambda_p(p, a * c * c) == lambda_p(p, a)

    def test_unit_modulus(self):
        rng = random.Random(8)
        for _ in range(20):
            a = F(rng.randint(1, 90) * rng.choice([-1, 1]), rng.randint(1, 90))
            for p in (2, 3, 5):
                assert lambda_p(p, a).as_cyclo().abs2() == Cyclo(1)
            assert abs(abs(lambda_inf_phase(a).value) - 1) < 1e-14


@st.composite
def gauss_cells(draw):
    """(p, a, b) with a = u p^v, u a unit and -3 <= v <= 3, and b = w p^-j."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    u = draw(st.integers(-9, 9)) * p + draw(st.integers(1, p - 1))
    a = u * F(p) ** draw(st.integers(-3, 3))
    b = F(draw(st.integers(-60, 60)), p ** draw(st.integers(0, 3)))
    return p, a, b


class TestClosedFormVsOracle:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(gauss_cells())
    def test_stabilized_oracle_equals_closed_form(self, cell):
        p, a, b = cell
        oracle = integrate_qp(p, quad=(a, b))
        assume(oracle.stabilized)  # an inconclusive cell is never a pass
        closed = gauss_integral_p_exact(p, a, b)
        assert oracle.value == closed
        # the value ``adelic gauss -p`` prints, read off the polar form
        ph, m2 = gauss_polar(p, a, b)
        exact = closed.to_complex()
        assert abs(ph.value * math.sqrt(m2) - exact) <= 1e-12 * abs(exact)

    def test_real_cases(self):
        for a in (1.0, -1.0, 2.0, 0.5):
            for b in (0.0, 1.0, 0.5):
                oracle, _ = fresnel_regularized(a, b)
                assert abs(oracle - gauss_integral_inf(a, b)) < 1e-6

    def test_gauss_integral_v_modulus(self):
        # |closed form| = |2a|_v^{-1/2}: |10|_5 = 1/5 so the factor is sqrt 5
        assert abs(abs(gauss_integral_p_exact(5, F(5), F(2)).to_complex()) - 5**0.5) < 1e-9
        assert abs(abs(gauss_integral_inf(2.0, 1.0)) - 0.5) < 1e-12


ONE = (UnitPhase(0), F(1))  # K in polar form: phase 0, squared modulus 1

# rationals with numerators and denominators up to 10**12
big_rationals = st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**12))


def product_formula(a, b):
    """The Gauss kernel K(a, b) at the principal points a and b, in polar form."""
    return kernel_k_polar(principal_idele(a), principal_adele(b))


class TestProductFormula:
    def test_simple_cases(self):
        assert product_formula(1, 0) == ONE
        assert product_formula(F(3, 4), F(1, 2)) == ONE
        assert product_formula(-5, 7) == ONE

    def test_random_pairs(self):
        rng = random.Random(20260810)
        for _ in range(100):
            a = F(rng.randint(1, 60) * rng.choice([-1, 1]), rng.randint(1, 60))
            b = F(rng.randint(0, 60) * rng.choice([-1, 1]), rng.randint(1, 60))
            assert product_formula(a, b) == ONE, (a, b)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(big_rationals.filter(lambda r: r != 0), big_rationals)
    def test_exact_on_large_rationals(self, r, s):
        assert product_formula(r, s) == ONE

    def test_large_primes_regression(self):
        # the surd product once grew with the product of the Gauss-sum
        # term counts of sqrt(9973) and sqrt(9967)
        assert product_formula(F(9973, 9967), 1) == ONE
        assert kernel_k(principal_idele(F(9973, 9967)), principal_adele(1)) == 1

    def test_lambda_product(self):
        assert lambda_product_check(1) == UnitPhase(0)
        assert lambda_product_check(2) == UnitPhase(0)
        rng = random.Random(7)
        for _ in range(100):
            a = F(rng.randint(1, 80) * rng.choice([-1, 1]), rng.randint(1, 80))
            assert lambda_product_check(a) == UnitPhase(0), a
            c = F(rng.randint(1, 20), rng.randint(1, 20))
            assert lambda_product_check(a * c * c) == lambda_product_check(a)


class TestKernel:
    def test_principal_is_one(self):
        res = kernel_k(principal_idele(1), principal_adele(0))
        assert res == 1

    def test_principal_pairs(self):
        rng = random.Random(11)
        for _ in range(20):
            a = F(rng.randint(1, 40) * rng.choice([-1, 1]), rng.randint(1, 40))
            b = F(rng.randint(0, 40), rng.randint(1, 40))
            res = kernel_k(principal_idele(a), principal_adele(b))
            assert res == 1, (a, b)

    def test_modulus_independent_of_b(self):
        lam = principal_idele(F(3, 2))
        m0 = kernel_k_polar(lam, principal_adele(0))[1]
        m1 = kernel_k_polar(lam, principal_adele(F(7, 4)))[1]
        assert m0 == m1

    def test_zero_component_rejected(self):
        with pytest.raises(ValueError):
            principal_idele(0)


class TestLambdaTransform:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_omega_tail_identity(self, p):
        # Lambda_p[Omega](b) = Omega(|b|_p), the key closure identity
        om = PAdicTestFunction.omega(p)
        for b in (F(0), F(1), F(1, 2) if p != 2 else F(1, 3), F(p)):
            got = lambda_local_transform(p, om, b)
            expect = Cyclo(1) if padic_norm(b, p) <= 1 else Cyclo(0)
            assert got == expect, (p, b)

    @pytest.mark.parametrize("p", [3, 5])
    def test_omega_tail_identity_deep_b(self, p):
        om = PAdicTestFunction.omega(p)
        assert lambda_local_transform(p, om, F(1, p * p)) == Cyclo(0)

    def test_shifted_ball_factor(self):
        # linearity and exactness on a two-ball combination
        p = 3
        f = PAdicTestFunction(
            p, [(2, Ball(p, F(0), 1), 0), (F(1, 2), Ball(p, F(1), 1), 0)]
        )
        b = F(1)
        direct = lambda_local_transform(p, f, b)
        parts = (
            lambda_local_transform(p, PAdicTestFunction.indicator(Ball(p, F(0), 1)), b) * 2
            + lambda_local_transform(p, PAdicTestFunction.indicator(Ball(p, F(1), 1)), b)
            * F(1, 2)
        )
        assert direct == parts

    def test_full_transform_omega_tails(self):
        phi = ElementaryFunction(HermiteGaussian.gaussian(), {})
        val_small = lambda_transform(phi, principal_adele(0))
        # b with |b_7|_7 = 7 at a tail prime kills the product
        bad = Adele(real=0.0, components={7: F(1, 7)}, tail=F(0))
        assert lambda_transform(phi, bad) == 0j
        assert abs(val_small) > 0.1

    def test_real_transform_closed_form_anchor(self):
        # Lambda_inf[2^(1/4) gaussian](0): substituting a = u^2 in the
        # kernel integral gives 2^(1/4) Gamma(1/4) / (2 pi^(1/4))
        phi = ElementaryFunction(HermiteGaussian.gaussian(F(2) ** F(1, 4)), {})
        got = lambda_transform(phi, principal_adele(0))
        expect = 2**0.25 * math.gamma(0.25) / (2 * math.pi**0.25)
        assert abs(got - expect) < 1e-8
        assert abs(got.imag) < 1e-8

    def test_linearity_in_phi(self):
        p = 5
        f = PAdicTestFunction.omega(p)
        phi = ElementaryFunction(HermiteGaussian.gaussian(), {p: f})
        phi2 = ElementaryFunction(HermiteGaussian.gaussian(F(3)), {p: f.scale(1)})
        b = principal_adele(F(1, 2))
        v1 = lambda_transform(phi, b)
        v2 = lambda_transform(phi2, b)
        assert abs(v2 - 3 * v1) < 1e-9


def _unit(rng, p):
    return rng.choice([u for u in range(1, p * p) if u % p])


class TestLambdaCertificates:
    """Each p-adic sum of the Lambda transform rests on a derived
    certificate: a constancy level away from 0, a sphere cut around it."""

    def test_derived_level_equals_the_sum_one_level_finer(self, monkeypatch):
        # every _lambda_ball sum at its derived level is checked against the
        # same point-value sum one level finer; the draws include balls
        # wider than Z_p with integral modulations, b = 0 and v(b) < 0
        real = gauss.stabilized_ball_sum
        levels = []

        def one_level_finer(p, ball, point_value, level):
            res = real(p, ball, point_value, level)
            finer = real(p, ball, point_value, level + 1)
            assert res.stabilized and finer.stabilized
            assert res.value == finer.value, (p, ball, level)
            levels.append(level)
            return res

        monkeypatch.setattr(gauss, "stabilized_ball_sum", one_level_finer)
        rng = random.Random(20261019)
        cells = []
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            v = rng.randint(-3, 2)
            ball = Ball(p, F(_unit(rng, p)) * F(p) ** v, v + rng.randint(1, 2))
            w = _unit(rng, p)
            b = rng.choice([F(0), F(1), F(w, p), F(w * p), F(rng.randint(2, 40))])
            mod = rng.choice([F(0), F(w), F(w, p), F(w, p * p), F(w * p)])
            gauss._lambda_ball(p, ball, b, mod)
            cells.append((p, ball.radius_exp, b, mod))
        assert len(levels) == len(cells)
        assert any(k < 0 and m != 0 and m.denominator == 1 for _, k, _, m in cells)
        assert any(b == 0 for _, _, b, _ in cells)
        assert any(b != 0 and valuation(b, p).value < 0 for p, _, b, _ in cells)

    @pytest.mark.parametrize(
        "p,k,mod,b", [(5, -2, 4, 1), (3, -2, 2, 0), (7, -2, 48, 42), (5, -2, 1, 0)]
    )
    def test_integral_modulation_on_a_ball_wider_than_zp(self, p, k, mod, b):
        # chi(mod*y) is trivial on p**L Z_p only for L >= -v(mod), so the
        # spheres of p**k Z_p with radius below 0 must be summed at level 0
        # or deeper
        f = PAdicTestFunction(p, [(1, Ball(p, F(0), k), F(mod))])
        assert lambda_local_transform(p, f, F(b)) == Cyclo(2)

    def test_spheres_past_the_cut(self):
        # the two spheres just past _lambda_ball_at_zero's cut sum to 0 when
        # b != 0, and for b = 0 to the change in the geometric tail
        # p**(-V/2), V the first even valuation past the cut; the transform
        # is the spheres up to the cut plus that tail.  A ball of sphere v
        # costs p**(v - v(beta) - 1) points, so p <= 5 and v(b) >= -1
        rng = random.Random(20261020)
        cells = []
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            k = rng.randint(-2, 0)
            w = _unit(rng, p)
            b = rng.choice([F(0), F(1), F(w, p), F(w * p), F(rng.randint(2, 40))])
            mod = rng.choice([F(0), F(w), F(w, p)])
            cells.append((p, k, b, mod))
        # cells where the modulation's term -v(mod) - 1 sets the cut alone:
        # chi(mod*a) is not 1 on the sphere -v(mod) - 1, and at p = 3 and 5
        # a cut one lower misses it
        binding = [(p, k, F(0), F(u, p**2)) for p in (2, 3, 5) for k in (-1, 0)
                   for u in (1, 2 * p - 1)]
        for p, k, b, mod in cells + binding:
            v_cut = k
            if b != 0:
                v_cut = max(v_cut, valuation(-b * b / 4, p).value + gauss.lambda_class_depth(p))
            if mod != 0:
                v_cut = max(v_cut, -valuation(mod, p).value - 1)
            sphere = {
                v: sum(
                    (gauss._lambda_ball(p, Ball(p, F(u) * F(p) ** v, v + 1), b, mod)
                     for u in range(1, p)),
                    Cyclo(),
                )
                for v in range(k, v_cut + 3)
            }
            # p**(-V/2), with V/2 = (v_cut + 2) // 2
            tail = Cyclo() if b != 0 else Cyclo(F(p) ** -((v_cut + 2) // 2))
            case = (p, k, b, mod)
            assert sphere[v_cut + 1] + sphere[v_cut + 2] == tail - tail * F(1, p), case
            inner = sum((sphere[v] for v in range(k, v_cut + 1)), Cyclo())
            assert gauss._lambda_ball_at_zero(p, k, b, mod) == inner + tail, case
        assert all(-valuation(mod, p).value - 1 > k for p, k, _, mod in binding)

    def test_over_budget_ball_raises_without_a_point(self, monkeypatch):
        # v(beta) = -40 puts the constancy level of the unit ball at 40
        seen = []
        real = gauss.gauss_polar
        monkeypatch.setattr(gauss, "gauss_polar", lambda *args: seen.append(args) or real(*args))
        f = PAdicTestFunction.indicator(Ball(3, F(1), 1))
        with pytest.raises(Unstabilized, match="Lambda transform"):
            lambda_local_transform(3, f, F(1, 3**20))
        assert seen == []


class TestSqrtNorm:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_exact_sqrt_norm(self, p):
        for a in (F(1), F(p), F(1, p), F(3 * p * p), F(2)):
            exact = sqrt_norm_2a_inv(p, a)
            expect = float(padic_norm(2 * a, p)) ** -0.5
            assert abs(exact.to_complex() - expect) < 1e-9


def test_gauss_grid_reports_first_cell_without_agreement(monkeypatch):
    # an unstabilized cell reads "inconclusive", and a later mismatch in
    # another unit class must not overwrite it
    from adelic import suite
    from adelic.integrate import QpIntegral

    first, later = (F(3, 2), F(1)), (F(4), F(0))

    def oracle(p, quad):
        if quad == first:
            return QpIntegral(Cyclo(), False)
        exact = gauss_integral_p_exact(p, *quad)
        return QpIntegral(exact + 1 if quad == later else exact, True)

    monkeypatch.setattr(suite, "integrate_qp", oracle)
    rep = suite.gauss_grid_checks()[0]
    assert not rep.passed
    assert rep.value == f"inconclusive at {first}"
