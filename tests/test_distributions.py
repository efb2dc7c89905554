import math
import random
from fractions import Fraction

import pytest

from adelic.adeles import Adele, principal_adele, principal_idele, zero_adele
from adelic.bruhat import (
    Ball,
    ElementaryFunction,
    HermiteGaussian,
    PAdicTestFunction,
    SchwartzBruhat,
    vacuum_state,
)
from adelic.distributions import (
    chi_distribution,
    chi_quadratic_distribution,
    delta_distribution,
    pair,
    pi_alpha_distribution,
)
from adelic.mellin import DomainError, phi_p

F = Fraction


def random_elementary(rng: random.Random, primes=(2, 3, 5)) -> ElementaryFunction:
    chosen = [p for p in primes if rng.random() < 0.7]
    factors = {}
    for p in chosen:
        terms = []
        for _ in range(rng.randint(1, 2)):
            coeff = F(rng.randint(-3, 3), rng.randint(1, 2))
            if coeff == 0:
                coeff = F(1)
            terms.append((coeff, Ball(p, F(rng.randint(-4, 4), p ** rng.randint(0, 1)),
                                      rng.randint(-1, 2)), F(0)))
        f = PAdicTestFunction(p, terms)
        if f.is_zero():
            f = PAdicTestFunction.omega(p)
        factors[p] = f
    real = HermiteGaussian([(rng.choice([0, 0, 2]), F(rng.randint(1, 3), 2))])
    return ElementaryFunction(real, factors)


class TestDelta:
    def test_sift_vacuum(self):
        psi0 = vacuum_state()
        assert pair(delta_distribution(), psi0) == psi0.evaluate(zero_adele())
        assert abs(pair(delta_distribution(), psi0) - 2**0.25) < 1e-15

    def test_vanishing_at_zero(self):
        # phi with a 2-adic factor supported away from 0
        f2 = PAdicTestFunction.indicator(Ball(2, F(1), 1))
        phi = ElementaryFunction(HermiteGaussian.gaussian(), {2: f2})
        assert pair(delta_distribution(), phi) == 0

    def test_linearity(self):
        psi0 = vacuum_state()
        doubled = SchwartzBruhat([(2, psi0)])
        assert pair(delta_distribution(), doubled) == 2 * pair(delta_distribution(), psi0)

    def test_sifting_exact_on_random_functions(self):
        rng = random.Random(20260810)
        d = delta_distribution()
        for _ in range(50):
            phi = random_elementary(rng)
            assert pair(d, phi) == phi.evaluate(zero_adele())

    @pytest.mark.parametrize("coeff, tol", [(1, 1e-14), (F(5, 2), 1e-13)],
                             ids=["vacuum", "scaled"])
    def test_shifted_delta_sifts(self, coeff, tol):
        # the t = 0 oscillator kernel delta(x - y), paired in y, gives phi(x)
        phi = SchwartzBruhat([(coeff, vacuum_state())])
        at_zero = pair(delta_distribution(shift=principal_adele(0)), phi)
        assert abs(at_zero - float(coeff) * 2**0.25) < tol
        for x in (F(0), F(1), F(1, 2), F(-2)):
            shift = principal_adele(x)
            assert pair(delta_distribution(shift=shift), phi) == phi.evaluate(shift)


class TestChi:
    def test_matches_fourier_at_one_vacuum(self):
        psi0 = vacuum_state()
        got = pair(chi_distribution(), psi0)
        # chi pairing = phi-hat(1) at the principal adele 1
        expect = psi0.fourier().evaluate(principal_adele(1))
        assert abs(got - expect) < 1e-10
        assert abs(got - 2**0.25 * math.exp(-math.pi)) < 1e-10

    def test_matches_fourier_random(self):
        rng = random.Random(77)
        d = chi_distribution()
        for _ in range(10):
            phi = random_elementary(rng)
            got = pair(d, phi)
            expect = phi.fourier().evaluate(principal_adele(1))
            assert abs(got - expect) < 1e-10


class TestChiQuadratic:
    def test_scaling(self):
        a, b = principal_idele(1), principal_adele(0)
        d = chi_quadratic_distribution(a, b)
        psi0 = vacuum_state()
        v1 = pair(d, psi0)
        v2 = pair(d, SchwartzBruhat([(F(3, 2), psi0)]))
        assert abs(v2 - 1.5 * v1) < 1e-12

    def test_vacuum_against_gauss_assembly(self):
        # all-Omega tails: real Fresnel-type factor times local Gauss factors;
        # closed form: 2^(1/4) int e^{-pi(1+2i)x^2} dx = 2^(1/4) (1+2i)^(-1/2),
        # and every local factor int_{Z_p} chi(x^2) dx = 1
        a, b = principal_idele(1), principal_adele(0)
        d = chi_quadratic_distribution(a, b)
        psi0 = vacuum_state()
        got = pair(d, psi0)
        expect = 2**0.25 * complex(1, 2) ** -0.5
        assert abs(got - expect) < 1e-9

    def test_linear_case_matches_transform(self):
        # a = 1/2 is listed at p = 2, so the 2-adic factor is computed even
        # though phi has no 2-adic factor, and it vanishes exactly:
        # int_{Z_2} chi_2(x^2/2 + 3x) dx = 1/2 - 1/2 = 0
        a, b = principal_idele(F(1, 2)), principal_adele(F(3))
        d = chi_quadratic_distribution(a, b)
        f3 = PAdicTestFunction.omega(3)
        phi = ElementaryFunction(HermiteGaussian.gaussian(), {3: f3})
        assert pair(d, phi) == 0

    def test_tail_zero_kills_pairing(self):
        a = principal_idele(1)
        b = Adele(real=0.0, components={7: F(1, 7)}, tail=F(0))
        d = chi_quadratic_distribution(a, b)
        psi0 = vacuum_state()
        assert pair(d, psi0) == 0


class TestPiAlpha:
    def test_delegates_to_mellin(self):
        psi0 = vacuum_state()
        d = pi_alpha_distribution(2.0)
        assert abs(pair(d, psi0) - phi_p(psi0, 2.0)) < 1e-15

    def test_pole_error(self):
        psi0 = vacuum_state()
        with pytest.raises(DomainError):
            pair(pi_alpha_distribution(1.0), psi0)
        with pytest.raises(DomainError):
            pair(pi_alpha_distribution(0.0), psi0)

    def test_local_factor_shape(self):
        # phi with phi_2 = indicator of 2 Z_2 at alpha = 2: factor 2^-2
        f2 = PAdicTestFunction.indicator(Ball(2, F(0), 1))
        phi = ElementaryFunction(HermiteGaussian.gaussian(F(2) ** F(1, 4)), {2: f2})
        v = pair(pi_alpha_distribution(2.0), phi)
        base = pair(pi_alpha_distribution(2.0), vacuum_state())
        assert abs(v - base * 0.25) < 1e-12


class TestSchwartzAsDistribution:
    def test_vacuum_self_pairing(self):
        # (psi0, psi0) = sqrt(2) int e^{-2 pi x^2} dx = 1
        from adelic.distributions import schwartz_function_distribution

        psi0 = vacuum_state()
        d = schwartz_function_distribution(psi0)
        assert abs(pair(d, psi0) - 1) < 1e-12

    def test_union_prime_set_reduction(self):
        from adelic.distributions import schwartz_function_distribution

        f2 = PAdicTestFunction.indicator(Ball(2, F(0), 1))  # 1_{2Z_2}
        g = ElementaryFunction(HermiteGaussian.gaussian(), {2: f2})
        d = schwartz_function_distribution(g)
        psi0 = vacuum_state()
        # real: 2^(1/4) int e^{-2 pi x^2} = 2^(-1/4); local 2-factor 1/2
        got = pair(d, psi0)
        assert abs(got - 2**-1.25) < 1e-10

    def test_pointwise_product_of_test_functions(self):
        p = 3
        f = PAdicTestFunction.omega(p)
        g = PAdicTestFunction.indicator(Ball(p, F(0), 1))
        prod = f * g
        assert prod == g  # Omega restricts to the smaller ball
        disjoint = PAdicTestFunction.indicator(Ball(p, F(1), 1))
        assert (g * disjoint).is_zero()

