import math
import random
from fractions import Fraction

import numpy as np
import pytest

from adelic.adeles import principal_adele
from adelic.bruhat import Ball, PAdicTestFunction, vacuum_state
from adelic.distributions import delta_distribution, pair
from adelic.gauss import lambda_p
from adelic.mellin import DomainError
from adelic.oscillator import (
    eigen_check,
    kernel_polar,
    padic_cos,
    padic_sin,
    real_state_orthonormality,
    unitarity_probe,
    vacuum_fourier_check,
)
from adelic.padic import PrecisionError, from_rational, padic_norm, valuation

F = Fraction

# t = 3 * 7^40 / 11^40: a 3-adic t of large height, summed at the top precision
TALL_T = F(3 * 7**40, 11**40)


class TestPAdicTrig:
    def test_sin_zero(self):
        t = from_rational(0, 5, 8)
        s = padic_sin(t)
        assert s.approximant == 0

    def test_sin_five_adic(self):
        # sin(5) = 5 mod 5^3: the next term 5^3/6 has valuation 3
        t = from_rational(5, 5, 3)
        s = padic_sin(t)
        assert s.congruent(from_rational(5, 5, 3))

    @pytest.mark.parametrize("p,tval,n", [(2, F(4, 7), 20), (3, F(3), 12), (5, F(10, 3), 8),
                                          (7, F(49, 11), 1), (3, TALL_T, 200)],
                             ids=["2", "3", "5", "7-zero-at-precision", "3-tall-t"])
    def test_integer_residue_approximant(self, p, tval, n):
        t = from_rational(tval, p, n)
        for value in (padic_sin(t), padic_cos(t)):
            assert value.precision == n
            assert value.approximant.denominator == 1
            assert 0 <= value.approximant < p**n

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            padic_sin(from_rational(1, 5, 6))
        with pytest.raises(DomainError):
            padic_sin(from_rational(2, 2, 6))  # |2|_2 = 1/2 not enough
        padic_sin(from_rational(4, 2, 6))  # |4|_2 = 1/4: fine

    @pytest.mark.parametrize("p,tvals,n", [
        *((p, (F(p), F(2 * p), F(p * p), F(p, 1 + p)), 12) for p in (3, 5, 7)),
        (3, (TALL_T,), 1000),
    ], ids=["3", "5", "7", "3-tall-t-1000"])
    def test_pythagorean_identity(self, p, tvals, n):
        for tval in tvals:
            t = from_rational(tval, p, n)
            s, c = padic_sin(t), padic_cos(t)
            lhs = s * s + c * c
            assert lhs.congruent(from_rational(1, p, lhs.precision)), (p, tval)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_norm_identity(self, p):
        # |sin t|_p = |t|_p on the convergence domain
        for tval in (F(p), F(3 * p), F(p * p)):
            t = from_rational(tval, p, 10)
            s = padic_sin(t)
            assert s.valuation().value == valuation(tval, p).value

    @pytest.mark.parametrize("p,tval,n", [(3, F(3), 12), (5, F(5), 12), (7, F(7), 12),
                                          (3, TALL_T, 1000)],
                             ids=["3", "5", "7", "3-tall-t-1000"])
    def test_double_angle(self, p, tval, n):
        t = from_rational(tval, p, n)
        t2 = from_rational(2 * tval, p, n)
        lhs = padic_sin(t2)
        rhs = padic_sin(t) * padic_cos(t) * 2
        assert lhs.congruent(rhs)


class TestKernel:
    def test_modulus_is_sqrt_norm(self):
        p = 5
        t = from_rational(5, p, 10)
        _, mod_sq = kernel_polar(p, t, F(1), F(2))
        # |sin t|_5 = 1/5 so |K|^2 = 5
        assert mod_sq == F(5)

    def test_zero_arguments(self):
        p = 5
        t = from_rational(5, p, 10)
        ph, _ = kernel_polar(p, t, F(0), F(0))
        # chi factor is 1: the phase is lambda(2 sin t)
        assert ph == lambda_p(5, 2 * padic_sin(t).approximant)

    def test_precision_guard(self):
        p = 5
        t = from_rational(5, p, 1)  # sin t known only mod 5: unit class unknown
        with pytest.raises(PrecisionError):
            kernel_polar(p, t, F(1), F(1))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_symmetric_with_modulus_inverse_norm_of_sin(self, p):
        rng = random.Random(20261018 + p)
        for tval in (F(p), F(p, 1 + p), F(p * p)):
            t = from_rational(tval, p, 10)
            inv_norm = 1 / padic_norm(padic_sin(t).approximant, p)
            for _ in range(10):
                x, y = (F(rng.randint(-60, 60), rng.choice([1, 2, p, p * p, 3 * p]))
                        for _ in range(2))
                kxy = kernel_polar(p, t, x, y)
                assert kxy == kernel_polar(p, t, y, x), (p, tval, x, y)
                assert kxy[1] == inv_norm


class TestEigen:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_vacuum_invariance_exact(self, p):
        t = from_rational(p, p, 10)
        omega = PAdicTestFunction.omega(p)
        samples = [F(0), F(1), F(1, p), F(p), F(2)]
        dev = eigen_check(p, t, omega, F(0), samples)
        assert dev == 0.0

    def test_outside_support_both_sides_vanish(self):
        p = 5
        t = from_rational(5, p, 10)
        omega = PAdicTestFunction.omega(p)
        dev = eigen_check(p, t, omega, F(0), [F(1, 25), F(3, 5)])
        assert dev == 0.0

    def test_scaled_state_scales_deviation(self):
        # deviation against a wrong energy is linear in the state's scale
        p = 5
        t = from_rational(5, p, 10)
        omega = PAdicTestFunction.omega(p)
        wrong_e = F(1, 25)  # E*t = 1/5 gives a genuine fifth-root phase
        d1 = eigen_check(p, t, omega, wrong_e, [F(0), F(1)])
        d2 = eigen_check(p, t, omega.scale(2), wrong_e, [F(0), F(1)])
        assert d1 > 1e-6  # wrong energy must show up
        assert abs(d2 - 2 * d1) < 1e-12

    def test_nonvacuum_state_fails_with_zero_energy(self):
        # indicator of pZ_p is not U(t)-invariant in general
        p = 5
        t = from_rational(5, p, 10)
        f = PAdicTestFunction.indicator(Ball(p, F(0), 1))
        dev = eigen_check(p, t, f, F(0), [F(0), F(1), F(1, 5)])
        assert dev > 1e-3

    def test_deviation_below_the_double_range_is_not_zero(self):
        # the exact deviation is about 1.2e-400, which rounds to 0.0 as a
        # double; it must still fail a tolerance of 0
        p = 5
        t = from_rational(5, p, 10)
        f = PAdicTestFunction(p, [(F(1, 10**400), Ball(p, F(0), 0))])
        dev = eigen_check(p, t, f, F(1, 25), [F(0), F(1)])
        assert dev == math.ulp(0.0)


class TestRealChecks:
    def test_vacuum_fourier(self):
        exact_ok, sup_err = vacuum_fourier_check()
        assert exact_ok
        assert sup_err < 1e-10

    def test_degree_one_multiplier(self):
        # transform of the degree-1 state is (-i) times itself
        from adelic.bruhat import HermiteGaussian
        from adelic.quadrature import real_fourier_transform

        h = HermiteGaussian([(1, 1)])
        xis = np.array([0.35, 1.1])
        got = real_fourier_transform(h.evaluate, xis)
        assert np.max(np.abs(got - (-1j) * h.evaluate(xis))) < 1e-10

    def test_orthonormality(self):
        assert real_state_orthonormality(8) < 1e-9

    def test_orthonormality_diagonal_normalization(self):
        # n = 0 diagonal: int sqrt(2) e^{-2 pi x^2} dx = 1
        assert real_state_orthonormality(0) < 1e-12

    def test_orthonormality_degree_cap(self):
        with pytest.raises(ValueError):
            real_state_orthonormality(13)

    def test_unitarity(self):
        norm_dev, phase = unitarity_probe(0.7)
        assert norm_dev < 1e-8
        assert abs(abs(phase) - 1) < 1e-8


class TestDeltaKernel:
    # the t = 0 kernel is delta(x - y): pairing it in y must give phi(x)
    def test_vacuum_at_zero(self):
        phi = vacuum_state()
        shift = principal_adele(F(0))
        value = pair(delta_distribution(shift=shift), phi)
        assert abs(value - 2**0.25) < 1e-14
        assert value == phi.evaluate(shift)

    def test_reproduces_at_samples(self):
        phi = vacuum_state()
        for x in (F(0), F(1), F(1, 2), F(-2)):
            shift = principal_adele(x)
            assert pair(delta_distribution(shift=shift), phi) == phi.evaluate(shift)
