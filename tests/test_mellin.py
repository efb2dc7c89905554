import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_rational, fzero, to_rational

from adelic.bruhat import (
    Ball,
    ElementaryFunction,
    HermiteGaussian,
    PAdicTestFunction,
    hermite_coefficients,
    vacuum_state,
)
from adelic.cyclotomic import Cyclo, phase
from adelic import mellin
from adelic.padic import valuation
from adelic.mellin import (
    _CTX,
    DomainError,
    _hermite_poly,
    _point,
    _record,
    _root,
    LocalMellinFactor,
    euler_product_zeta,
    functional_equation_residual,
    gamma_fn,
    gamma_mp,
    mellin_local,
    mellin_real_mp,
    phi_p,
    tate_check,
    zeta,
    zeta_mp,
)

F = Fraction


# -- the exact reference: stored working-precision values as Fractions -------


def exact(x):
    """A working-context mpf or mpc as its exact (re, im) Fraction pair."""
    raw = x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)
    return tuple(F(*to_rational(v)) for v in raw)


def gaussian_value(z):
    """An (X, Y, E) table entry as its exact (re, im) Fraction pair."""
    x, y, e = z
    scale = F(2) ** e
    return x * scale, y * scale


def cadd(z, w):
    return z[0] + w[0], z[1] + w[1]


def cmul(z, w):
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def exact_cyclo(c):
    """A Cyclo's value over the stored roots e(j/n), as an exact (re, im) pair."""
    n, den, numerators = c.coordinates()
    total = (F(0), F(0))
    for j, a in numerators.items():
        root = exact(_CTX.expjpi(_CTX.mpf(2 * j) / n))
        total = cadd(total, (root[0] * F(a, den), root[1] * F(a, den)))
    return total


def stored_poly(n, s):
    """P_n(s) = h_0 + s (h_2 + (s + 2) (h_4 + ...)) on exact Fractions,
    rounded once to the working precision."""
    h = hermite_coefficients(n)
    x, y = (F(*to_rational(v)) for v in s._mpc_)
    re, im = F(h[n // 2 * 2]), F(0)
    for r in range(n // 2 - 1, -1, -1):
        re, im = h[2 * r] + (x + 2 * r) * re - y * im, (x + 2 * r) * im + y * re
    return rounded((re, im))


def exact_local(f, s):
    """sum_e c_e u^e exactly, over the stored roots and the stored powers
    (p^-s)^e, recomputed without any memo."""
    u = _CTX.power(f.prime, -s)
    total = (F(0), F(0))
    for e, c in mellin_local(f).coeffs.items():
        total = cadd(total, cmul(exact_cyclo(c), exact(_CTX.power(u, e))))
    return total


def exact_real(h, s):
    """Gamma_R(s) sum_n c_n P_n(s) exactly, over the stored Gamma_R(s),
    P_n(s) and roots, recomputed without any memo."""
    total = (F(0), F(0))
    for n, c in h.coeffs.items():
        if n % 2 == 0:
            total = cadd(total, cmul(exact_cyclo(c), exact(stored_poly(n, s))))
    return cmul(exact(_CTX.power(_CTX.pi, -s / 2) * _CTX.gamma(s / 2)), total)


def rounded(z):
    """An exact (re, im) pair correctly rounded to the working precision."""
    prec, rnd = _CTX._prec_rounding
    return _CTX.make_mpc(tuple(from_rational(v.numerator, v.denominator, prec, rnd)
                               for v in z))


def exact_phi_p(phi, alpha):
    """The product of the correctly rounded factors and the stored zeta(s),
    exactly, rounded once to a double."""
    s = _CTX.mpc(alpha)
    product = exact(rounded(exact_real(phi.real_factor, s)))
    for f in phi.prime_factors.values():
        product = cmul(product, exact(rounded(exact_local(f, s))))
    product = cmul(product, exact(_CTX.zeta(s)))
    return complex(float(product[0]), float(product[1]))


class TestZeta:
    def test_zeta_two_against_pi_squared(self):
        with mpmath.workdps(40):
            expect = complex(mpmath.pi**2 / 6)
        got = zeta(2)
        assert abs(got - expect) / abs(expect) < 1e-13

    def test_zeta_half(self):
        with mpmath.workdps(100):
            ref = complex(mpmath.zeta(0.5))
        got = zeta(0.5)
        assert abs(got - ref) < 1e-12
        assert abs(got - (-1.4603545088095868)) < 1e-10

    def test_zeta_poles_and_domain(self):
        with pytest.raises(DomainError):
            zeta(1)
        with pytest.raises(DomainError):
            zeta(-0.5)
        with pytest.raises(DomainError):
            zeta(0)

    def test_zeta_height_bound(self):
        # the bound keeps zeta far below mpmath's Riemann-Siegel switch at 84,500
        with pytest.raises(DomainError):
            zeta(0.5 + 1e300j)
        with pytest.raises(DomainError):
            zeta(0.5 - 1001j)

    def test_euler_product_consistency(self):
        for alpha in (3.0, 4.0, 5.0):
            lhs = zeta(alpha)
            rhs = euler_product_zeta(alpha, 10**4)
            assert abs(lhs - rhs) < 1e-8, alpha

    def test_zeta_complex_strip(self):
        # zeta runs Borwein's series up to |alpha| = 169; Euler-Maclaurin
        # summation is an independent route at every point
        for alpha in (0.3, 0.4, 0.5 + 3j, 0.8 - 2j, 0.25 + 5j, 2.0 + 10j,
                      0.5 + 200j, 0.7 - 999.5j, 0.5 + 1000j):
            got = zeta(alpha)
            with mpmath.workdps(40):
                ref = complex(mpmath.zeta(mpmath.mpc(alpha), method="euler-maclaurin"))
            assert abs(got - ref) / abs(ref) < 1e-12, alpha

    def test_near_first_zero(self):
        val = zeta(0.5 + 14.134725j)
        assert abs(val) < 1e-3


class TestGamma:
    def test_classical_values(self):
        assert abs(gamma_fn(1) - 1) < 1e-14
        assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-14
        assert abs(gamma_fn(3) - 2) < 1e-13

    def test_poles(self):
        for z in (0, -1, -2.0):
            with pytest.raises(DomainError):
                gamma_fn(z)

    def test_recurrence(self):
        rng = random.Random(3)
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(-4, 4))
            if abs(z - round(z.real)) < 0.2 and abs(z.imag) < 0.2:
                continue
            lhs = gamma_fn(z + 1)
            rhs = z * gamma_fn(z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_against_mpmath(self):
        # gamma is mpmath's gamma; its log-gamma is a separate route
        for z in (0.25, 1.7 + 2.3j, 0.5 + 7.067j, -0.75 + 1j, 3.5 - 4j):
            got = gamma_fn(z)
            with mpmath.workdps(40):
                ref = complex(mpmath.exp(mpmath.loggamma(mpmath.mpc(z))))
            assert abs(got - ref) / abs(ref) < 1e-12, z


class TestMemo:
    """zeta, gamma and the local factors are memoized; no result may change."""

    def test_zeta_and_gamma_equal_fresh_values_exactly(self):
        # a 50-digit argument and its nearest double are distinct keys
        fine = _CTX.mpf(1) / 3 + _CTX.mpc(0, 2)
        coarse = complex(fine)
        assert _CTX.mpc(coarse) != fine
        for _ in range(2):
            for arg in (fine, coarse, 0.5 + 14.134725j, 2.5):
                z = _CTX.mpc(arg)
                assert zeta_mp(arg) == _CTX.zeta(z)
                assert gamma_mp(arg) == _CTX.gamma(z)
        assert zeta_mp(fine) != zeta_mp(coarse)
        assert gamma_mp(fine) != gamma_mp(coarse)

    def test_domain_errors_survive_the_memo(self):
        for _ in range(2):
            for alpha in (1, 1.0 + 0j, 0, -0.5 + 1j, 0.5 + 1001j):
                with pytest.raises(DomainError):
                    zeta_mp(alpha)
            for z in (0, -1, -2.0 + 0j):
                with pytest.raises(DomainError):
                    gamma_mp(z)

    def test_local_factor_is_kept_on_its_function(self):
        f = PAdicTestFunction(3, [(1, Ball(3, F(1), 1), F(1, 9)), (2, Ball(3, F(0), -1), 0)])
        assert mellin_local(f) is mellin_local(f)
        # the transform's factor is its own, computed from the transform
        fhat = f.fourier()
        assert fhat._mellin_local is None
        assert mellin_local(fhat) is not mellin_local(f)

    def test_tate_check_builds_each_transform_once(self, monkeypatch):
        factors = {
            2: PAdicTestFunction(2, [(1, Ball(2, F(0), 1), 0), (F(1, 2), Ball(2, F(1), 1), 0)]),
            3: PAdicTestFunction(3, [(phase(F(1, 4)), Ball(3, F(1, 3), 0), F(1, 9))]),
            5: PAdicTestFunction(5, [(F(-2, 3), Ball(5, F(2), -1), 0)]),
        }
        phi = ElementaryFunction(HermiteGaussian.gaussian(), factors)
        built = []
        init = PAdicTestFunction.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["prime"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(PAdicTestFunction, "__init__", counting_init)
        rng = random.Random(11)
        for _ in range(10):
            alpha = complex(rng.uniform(0.1, 0.9), rng.uniform(-5, 5))
            assert tate_check(phi, alpha) < 1e-6
        assert sorted(built) == [2, 3, 5]

    # the strip-point memo, and the roots of unity that coefficients are
    # read over
    MEMOS = (_record, _root)
    ALPHAS = (0.3 + 1.5j, 0.7 - 4j, 0.5, _CTX.mpf(1) / 3 + _CTX.mpc(0, 2))

    @staticmethod
    def _function():
        # degrees 0, 1, 2 and 4 reach the r > 0 terms of P_n
        real = HermiteGaussian([(0, 1), (1, F(1, 2)), (2, phase(F(1, 4))), (4, F(-1, 3))])
        return ElementaryFunction(real, {
            2: PAdicTestFunction(2, [(1, Ball(2, F(0), 1), 0), (F(1, 2), Ball(2, F(1), 1), 0)]),
            3: PAdicTestFunction(3, [(phase(F(1, 4)), Ball(3, F(1, 3), 0), F(1, 9))]),
            7: PAdicTestFunction(7, [(F(-2, 3), Ball(7, F(2), -1), 0), (1, Ball(7, F(0), 2), 0)]),
        })

    def _values(self, phi):
        return ([phi_p(phi, a) for a in self.ALPHAS]
                + [phi_p(phi.fourier(), 1 - a) for a in self.ALPHAS]
                + [tate_check(phi, complex(a)) for a in self.ALPHAS])

    def test_values_survive_clearing_every_memo(self):
        phi = self._function()
        before = self._values(phi)
        assert all(memo.cache_info().currsize for memo in self.MEMOS)
        for memo in self.MEMOS:
            memo.cache_clear()
        # the same function, whose coefficient rows are kept, and a fresh
        # one that builds them again
        assert self._values(phi) == before
        assert self._values(self._function()) == before

    def test_values_equal_the_unmemoized_expressions(self):
        phi = self._function()
        for _ in range(2):
            for a in self.ALPHAS:
                assert phi_p(phi, a) == exact_phi_p(phi, a)
                assert phi_p(phi.fourier(), 1 - a) == exact_phi_p(phi.fourier(), 1 - a)
                lhs = exact_phi_p(phi, complex(a))
                rhs = exact_phi_p(phi.fourier(), 1 - complex(a))
                assert tate_check(phi, complex(a)) == abs(lhs - rhs)

    def test_real_factor_of_every_degree_equals_its_unmemoized_sum(self):
        for degrees in ([0], [1], [2], [4], [0, 1, 2, 4]):
            h = HermiteGaussian([(n, F(n + 1, 3)) for n in degrees])
            for a in self.ALPHAS:
                s = _CTX.mpc(a)
                assert mellin_real_mp(h, a) == rounded(exact_real(h, s)), (degrees, a)
        # the r > 0 terms are present: H_4 = 16x^4 - 48x^2 + 12
        assert hermite_coefficients(4)[2] and hermite_coefficients(4)[4]
        # P_4(s) = 12 - 48 s + 16 s (s + 2)
        assert _hermite_poly(4, _CTX.mpc(2)) == 44

    def test_a_fine_argument_and_its_double_are_distinct_keys(self):
        fine = _CTX.mpf(1) / 3 + _CTX.mpc(0, 2)
        coarse = complex(fine)
        phi = self._function()
        h = phi.real_factor
        lf = mellin_local(phi.prime_factors[7])
        for _ in range(2):
            for arg in (fine, coarse):
                s = _CTX.mpc(arg)
                assert lf.evaluate_mp(arg) == rounded(exact_local(phi.prime_factors[7], s))
                assert mellin_real_mp(h, arg) == rounded(exact_real(h, s))
            assert lf.evaluate_mp(fine) != lf.evaluate_mp(coarse)
            assert mellin_real_mp(h, fine) != mellin_real_mp(h, coarse)

    def test_domain_errors_are_not_memoized(self):
        phi = self._function()
        for _ in range(2):
            with pytest.raises(DomainError):
                mellin_real_mp(phi.real_factor, -1 + 2j)
            for bad in (0, 1, -0.5):
                with pytest.raises(DomainError):
                    phi_p(phi, bad)
            with pytest.raises(DomainError):
                tate_check(phi, 1.5)
            # a pole of the memoized Gamma_R raises on every call
            with pytest.raises(DomainError):
                _point(_CTX.mpc(-2)).gamma_r

    def test_a_point_past_the_zeta_height_keeps_its_other_values(self):
        # |Im alpha| = 2000 is outside zeta's domain only: the real factor
        # has a value there, and neither order of first use poisons the
        # point or keeps the error
        phi = self._function()
        h = phi.real_factor
        for alpha, real_first in ((0.5 + 2000j, True), (0.25 - 2000j, False)):
            want = rounded(exact_real(h, _CTX.mpc(alpha)))
            for _ in range(2):
                if real_first:
                    assert mellin_real_mp(h, alpha) == want
                with pytest.raises(DomainError, match=r"\|Im alpha\| <= 1000"):
                    phi_p(phi, alpha)
                assert mellin_real_mp(h, alpha) == want
            assert "zeta" not in vars(_point(alpha))

    def test_point_values_equal_the_unmemoized_expressions(self):
        fine = _CTX.mpf(1) / 3 + _CTX.mpc(0, 2)
        coarse = complex(fine)
        for _ in range(2):
            for arg in (fine, coarse):
                s = _CTX.mpc(arg)
                point = _point(arg)
                assert point is _point(arg) and point.s == s
                assert point.zeta == _CTX.zeta(s)
                assert point.gamma_r == _CTX.power(_CTX.pi, -s / 2) * _CTX.gamma(s / 2)
                for n in (0, 2, 4, 10):
                    assert gaussian_value(point.polys[n]) == exact(stored_poly(n, s)), n
                for p in (2, 3, 7):
                    u = _CTX.power(p, -s)
                    for e in (-2, 0, 1, 3):
                        want = exact(_CTX.power(u, e))
                        assert gaussian_value(point.powers[p][e]) == want, (p, e)
        # a fine argument and its double are distinct records
        assert _point(fine).zeta != _point(coarse).zeta
        assert _point(fine).gamma_r != _point(coarse).gamma_r

    def test_elementary_fourier_is_built_once(self):
        phi = self._function()
        assert phi.fourier() is phi.fourier()
        assert phi.fourier().real_factor is phi.fourier().real_factor


@st.composite
def padic_test_functions(draw):
    """One to three modulated balls at p in {2, 3, 5, 7}, with Gaussian-
    rational coefficients, as the suite's random test functions plus a
    modulation."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    small = st.integers(-6, 6)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = (Cyclo(F(draw(st.integers(-4, 4)), draw(st.integers(1, 3))))
                 + phase(F(1, 4)) * draw(st.integers(-2, 2)))
        center = F(draw(small), p ** draw(st.integers(0, 2)))
        mod = F(draw(small), p ** draw(st.integers(0, 2)))
        terms.append((coeff, Ball(p, center, draw(st.integers(-2, 2))), mod))
    return PAdicTestFunction(p, terms)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(padic_test_functions())
def test_tate_local_identity_is_exact(f):
    # Tate's local functional equation N_f(u) = N_fhat(1/(p u)), u = p^-alpha,
    # compared coefficient by coefficient in exact arithmetic
    p = f.prime
    lhs, rhs = mellin_local(f).coeffs, mellin_local(f.fourier()).coeffs
    for k in set(lhs) | {-e for e in rhs}:
        assert lhs.get(k, Cyclo(0)) == rhs.get(-k, Cyclo(0)) * F(p) ** k, k


def chain_local_factor(f):
    """The local factor's coefficients by successive Cyclo adds, one per
    contribution, in the order in which the assembly reaches each exponent."""
    p = f.prime

    def acc(d, e, c):
        d[e] = d[e] + c if e in d else c

    n0, n1 = {}, {}
    for (ball, mod), coeff in f.terms.items():
        k = ball.radius_exp
        if not ball.contains(F(0)):
            if mod == 0:
                vc = valuation(ball.center, p)
                acc(n0, vc, coeff * F(p) ** (vc - k))
        elif mod == 0:
            acc(n1, k, coeff * (1 - F(1, p)))
        else:
            j0 = -valuation(mod, p)
            acc(n1, j0, coeff * (1 - F(1, p)))
            acc(n0, j0 - 1, coeff * F(-1, p))
    out = {}
    norm = 1 / (1 - F(1, p))
    for e, c in n0.items():
        acc(out, e, c * norm)
        acc(out, e + 1, -c * norm)
    for e, c in n1.items():
        acc(out, e, c * norm)
    return {e: c for e, c in out.items() if not c.is_zero()}


def _stored(c):
    n, den, numerators = c.coordinates()
    return n, den, dict(numerators)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(padic_test_functions())
def test_local_factor_equals_the_chain_of_adds_in_order(f):
    # the coefficients keep the assembly's order; the Mellin values no
    # longer depend on it, since evaluate_mp sums them exactly
    for g in (f, f.fourier()):
        got, want = mellin_local(g).coeffs, chain_local_factor(g)
        assert list(got) == list(want)
        assert [_stored(c) for c in got.values()] == [_stored(c) for c in want.values()]


def assert_within_an_ulp(got, want):
    """Each part of a working-precision mpc within one ulp of its exact
    (re, im) value."""
    for part, w in zip(got._mpc_, want):
        sign, man, exp, bc = part
        if not man:
            assert w == 0
        else:
            assert abs(F(*to_rational(part)) - w) <= F(2) ** (exp + bc - _CTX.prec)


def reference_phi_p(phi, alpha):
    """Phi_P(alpha) at 400 bits: pi^(-s/2) sum_n c_n sum_r h_2r 2^r
    Gamma(s/2 + r), each local factor's Laurent polynomial and zeta(s)."""
    with mpmath.workprec(400):
        s = mpmath.mpc(alpha)

        def cyclo(c):
            n, den, numerators = c.coordinates()
            return mpmath.fsum(mpmath.mpf(a) / den * mpmath.expjpi(mpmath.mpf(2 * j) / n)
                               for j, a in numerators.items())

        real = mpmath.fsum(
            cyclo(c) * mpmath.fsum(h[2 * r] * 2**r * mpmath.gamma(s / 2 + r)
                                   for r in range(n // 2 + 1))
            for n, c in phi.real_factor.coeffs.items() if n % 2 == 0
            for h in [hermite_coefficients(n)])
        product = mpmath.pi ** (-s / 2) * real * mpmath.zeta(s)
        for f in phi.prime_factors.values():
            u = mpmath.power(f.prime, -s)
            product *= mpmath.fsum(cyclo(c) * u**e for e, c in mellin_local(f).coeffs.items())
        return product


@st.composite
def real_factors(draw):
    """Up to three Hermite degrees with Gaussian-rational coefficients."""
    degrees = draw(st.lists(st.sampled_from((0, 1, 2, 4, 6)), min_size=1, max_size=3))
    return HermiteGaussian([
        (n, Cyclo(F(draw(st.integers(-5, 5)), draw(st.integers(1, 4))))
         + phase(F(1, 4)) * draw(st.integers(-2, 2)))
        for n in degrees])


strip_alphas = st.builds(complex, st.floats(0.05, 3.0), st.floats(-6.0, 6.0))


class TestExactDotProducts:
    """A factor is one exact integer dot product rounded once, and Phi_P
    one exact product rounded once to a double."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(padic_test_functions(), real_factors(), strip_alphas, st.booleans())
    def test_factors_lie_within_an_ulp_of_the_exact_value(self, f, h, alpha, fine):
        s = _CTX.mpc(alpha)
        if fine:  # a 50-digit argument that is no double
            s += _CTX.mpf(1) / 3 * 2.0**-40
        for g in (f, f.fourier()):
            assert_within_an_ulp(mellin_local(g).evaluate_mp(s), exact_local(g, s))
        assert_within_an_ulp(mellin_real_mp(h, s), exact_real(h, s))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.lists(padic_test_functions(), min_size=1, max_size=3), real_factors(),
           strip_alphas)
    def test_phi_p_is_within_2_52_of_a_400_bit_reference(self, factors, h, alpha):
        phi = ElementaryFunction(h, {f.prime: f for f in factors})
        got = phi_p(phi, alpha)
        ref = reference_phi_p(phi, alpha)
        assert abs(mpmath.mpc(got) - ref) <= 2.0**-52 * abs(ref)

    def test_reordered_terms_leave_phi_p_and_tate_bit_identical(self):
        # the same term dicts in another insertion order: the local factors'
        # coefficients come in another order, and every value is the same
        rng = random.Random(38)
        alphas = [complex(rng.uniform(0.1, 0.9), rng.uniform(-5, 5)) for _ in range(4)]
        reordered = 0
        for _ in range(40):
            factors, flipped = {}, {}
            for p in rng.sample((2, 3, 5, 7), rng.randint(1, 3)):
                f = PAdicTestFunction(p, [
                    (Cyclo(F(rng.randint(-4, 4), rng.randint(1, 3)))
                     + phase(F(1, 4)) * rng.randint(-2, 2),
                     Ball(p, F(rng.randint(-6, 6), p ** rng.randint(0, 2)), rng.randint(-2, 2)),
                     F(rng.randint(-6, 6), p ** rng.randint(0, 2)))
                    for _ in range(rng.randint(1, 4))])
                if f.is_zero():
                    continue
                g = PAdicTestFunction(p, [(c, ball, mod) for (ball, mod), c
                                          in reversed(list(f.terms.items()))])
                assert g.terms == f.terms
                reordered += (list(mellin_local(g).coeffs) != list(mellin_local(f).coeffs)
                              or list(mellin_local(g.fourier()).coeffs)
                              != list(mellin_local(f.fourier()).coeffs))
                factors[p], flipped[p] = f, g
            real = [(n, F(rng.randint(-3, 3), rng.randint(1, 3))) for n in (0, 2, 4)]
            phi = ElementaryFunction(HermiteGaussian(real), factors)
            phi_r = ElementaryFunction(HermiteGaussian(real[::-1]), flipped)
            for a in alphas:
                # the factors are the same to the last of their 169 bits
                for p, f in factors.items():
                    for g, h, b in ((flipped[p], f, a), (flipped[p].fourier(), f.fourier(), 1 - a)):
                        assert mellin_local(g).evaluate_mp(b) == mellin_local(h).evaluate_mp(b)
                assert mellin_real_mp(phi_r.real_factor, a) == mellin_real_mp(phi.real_factor, a)
                for got, want in ((phi_p(phi_r, a), phi_p(phi, a)),
                                  (phi_p(phi_r.fourier(), 1 - a), phi_p(phi.fourier(), 1 - a))):
                    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
                assert tate_check(phi_r, a).hex() == tate_check(phi, a).hex()
        assert reordered >= 10

    @pytest.mark.parametrize("gap", [1, 60, 120, 168, 200, 400])
    def test_a_term_far_below_the_largest(self, gap):
        # 1 + c u with u = 2^-gap at alpha = gap: within the working
        # precision the small term is kept exactly; beyond the guard it is
        # dropped from the real part, under an ulp, and the imaginary part,
        # which only it makes, stays exact
        c = phase(F(1, 3)) * F(1, 3)
        got = LocalMellinFactor(2, {0: Cyclo(1), 1: c}).evaluate_mp(gap)
        re, im = exact_cyclo(c)
        assert_within_an_ulp(got, (1 + re * F(2) ** -gap, im * F(2) ** -gap))

    def test_a_point_far_outside_the_strip_builds_no_huge_integer(self, monkeypatch):
        # at alpha = 10^6, 2^(-5 alpha) lies 5 million bits below 1: the
        # term is dropped, not shifted into a 5-million-bit integer
        seen = []
        rounded_once = mellin._rounded

        def spy(z, den):
            seen.append(max(abs(z[0]), abs(z[1])).bit_length())
            return rounded_once(z, den)

        monkeypatch.setattr(mellin, "_rounded", spy)
        lf = LocalMellinFactor(2, {0: Cyclo(1), 5: Cyclo(1)})
        assert lf.evaluate_mp(10**6) == 1
        assert lf.evaluate_mp(-10**6) == _CTX.power(_CTX.power(2, 10**6), 5)
        assert max(seen) <= 2 * _CTX.prec


class TestLocalMellin:
    def test_omega_factor_is_one(self):
        for p in (2, 3, 5, 7):
            lf = mellin_local(PAdicTestFunction.omega(p))
            assert lf.coeffs == {0: Cyclo(1)}

    def test_shifted_unit_ball(self):
        p = 5
        lf = mellin_local(PAdicTestFunction.indicator(Ball(p, F(0), 1)))
        assert set(lf.coeffs) == {1}
        assert lf.coeffs[1] == Cyclo(1)  # exactly u = p^-alpha

    def test_unit_coset(self):
        # indicator of 1 + pZ_p: (1-u)/(1-1/p) * p^-1
        p = 3
        lf = mellin_local(PAdicTestFunction.indicator(Ball(p, F(1), 1)))
        norm = 1 / (1 - F(1, p))
        assert lf.coeffs[0] == Cyclo(norm * F(1, p))
        assert lf.coeffs[1] == Cyclo(-norm * F(1, p))

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_against_direct_sphere_sum(self, alpha):
        # independent oracle: evaluate f on sphere representatives and sum
        # |x|^(alpha-1) against the sphere measures to depth 60
        p = 3
        f = PAdicTestFunction(
            p,
            [(2, Ball(p, F(0), 1), 0), (F(1, 2), Ball(p, F(2), 1), 0),
             (1, Ball(p, F(1, 3), 0), 0)],
        )
        lf = mellin_local(f)
        inner = 0.0
        for j in range(-1, 60):
            # sphere |x| = p**-j has measure p**-j (1 - 1/p); f is constant
            # per leading digit there, so average the representatives
            norm_pow = float(F(p) ** (-j)) ** (alpha - 1)
            sphere_measure = float(F(p) ** (-j)) * (1 - 1 / p)
            digit_avg = 0.0
            for u0 in range(1, p):
                x = F(u0) * F(p) ** j
                digit_avg += complex(f.evaluate(x).to_complex()).real
            digit_avg /= p - 1
            inner += norm_pow * sphere_measure * digit_avg
        expect = (1 - p ** -alpha) / (1 - 1 / p) * inner
        got = complex(lf.evaluate_mp(alpha))
        assert abs(got - expect) < 1e-9


class TestRealMellin:
    def test_gaussian_alpha_two(self):
        g = HermiteGaussian.gaussian()
        assert abs(complex(mellin_real_mp(g, 2)) - 1 / math.pi) < 1e-13

    def test_gaussian_alpha_one(self):
        g = HermiteGaussian.gaussian()
        assert abs(complex(mellin_real_mp(g, 1)) - 1) < 1e-13

    def test_scaled_gaussian_closed_form(self):
        g = HermiteGaussian.gaussian(F(2) ** F(1, 4))
        for alpha in (0.7, 2.0, 1.5 + 1j):
            expect = 2**0.25 * complex(
                (math.pi ** -(alpha / 2)) if not isinstance(alpha, complex)
                else cmath.exp(-alpha / 2 * cmath.log(math.pi))
            ) * gamma_fn(alpha / 2 if isinstance(alpha, complex) else alpha / 2)
            got = complex(mellin_real_mp(g, alpha))
            assert abs(got - expect) < 1e-12 * max(1.0, abs(expect))

    def test_odd_degrees_vanish(self):
        h = HermiteGaussian([(1, 1), (3, F(1, 2))])
        assert abs(complex(mellin_real_mp(h, 1.3))) < 1e-15

    def test_quadrature_oracle_even_degree(self):
        # independent check of the closed form by direct quadrature
        from adelic.quadrature import quad_scalar

        h = HermiteGaussian([(2, 1)])
        alpha = 2.5
        closed = complex(mellin_real_mp(h, alpha))
        numeric = quad_scalar(
            lambda x: abs(x) ** (alpha - 1) * h.evaluate(x), -8.0, 8.0, panels=200
        )
        assert abs(closed - numeric) < 1e-9

    def test_domain_error(self):
        # P_n reads alpha as binary fractions: a non-finite alpha has none
        for bad in (-1, math.inf, math.nan, complex(1, math.inf)):
            with pytest.raises(DomainError):
                mellin_real_mp(HermiteGaussian([(0, 1), (2, 1)]), bad)

    @pytest.mark.parametrize("n", [2, 20, 100, 180])
    def test_high_degree_against_a_400_digit_gamma_sum(self, n):
        # pi^(-s/2) sum_r h_2r 2^r Gamma(s/2 + r) cancels by about n/4
        # digits, so the reference sums it with 350 digits to spare
        h = hermite_coefficients(n)
        for alpha in (0.5, 0.3 + 1.5j, 0.7 - 4j, _CTX.mpf(1) / 3 + _CTX.mpc(0, 2)):
            got = mellin_real_mp(HermiteGaussian([(n, 1)]), alpha)
            with mpmath.workdps(400):
                s = mpmath.mpc(alpha)
                ref = mpmath.pi ** (-s / 2) * mpmath.fsum(
                    h[2 * r] * 2**r * mpmath.gamma(s / 2 + r) for r in range(n // 2 + 1))
                if n == 2 and alpha == 0.5:
                    # P_2(s) = 4s - 2 vanishes at 1/2
                    assert got == 0 and abs(ref) < mpmath.mpf(10) ** -390
                else:
                    assert abs(mpmath.mpc(got) - ref) < 1e-45 * abs(ref), (n, alpha)

    def test_hermite_polynomials_satisfy_the_local_functional_equation(self):
        # phi_n-hat = (-i)^n phi_n and Tate's real epsilon is 1, so
        # P_n(1 - s) = (-1)^(n/2) P_n(s), exactly on binary s
        rng = random.Random(5)
        points = [0.5, 0.3 + 1.5j, 0.7 - 4j, 2.0**-60 - 3j]
        points += [complex(rng.randint(-2**20, 2**20) / 2**12,
                           rng.randint(-2**20, 2**20) / 2**10) for _ in range(6)]
        for n in range(0, 41, 2):
            for a in points:
                s = _CTX.mpc(a)
                assert (-1) ** (n // 2) * _hermite_poly(n, 1 - s) == _hermite_poly(n, s), (n, a)

    @pytest.mark.parametrize("alpha", [2, 0.3 + 1.5j])
    def test_generic_profile_quadrature_matches_closed_form(self, alpha):
        # tanh-sinh quadrature of the Gaussian on the half-line pair, an
        # independent check of the gamma closed form, also inside the strip
        with mpmath.workdps(50):
            s = mpmath.mpc(alpha)
            half = mpmath.quad(lambda x: x ** (s - 1) * mpmath.exp(-mpmath.pi * x * x), [0, 8])
            numeric = complex(2 * half)
        closed = complex(mellin_real_mp(HermiteGaussian.gaussian(), alpha))
        assert abs(numeric - closed) < 1e-12


@pytest.mark.parametrize("factor", ["local", "real"])
@pytest.mark.parametrize("coeff", [1 + F(1, 2**80), F(2**2000)], ids=["1+2^-80", "2^2000"])
def test_exact_coefficients_enter_the_working_precision(factor, coeff):
    # no double in between: the 2^-80 digit survives, 2^2000 does not overflow
    def value(c):
        if factor == "local":
            return LocalMellinFactor(2, {0: Cyclo(c)}).evaluate_mp(2)
        return mellin_real_mp(HermiteGaussian.gaussian(c), 2)

    ratio = value(coeff) / value(1)
    assert abs(ratio / _CTX.mpf(coeff.numerator) * coeff.denominator - 1) < 1e-40


class TestPhiP:
    def test_vacuum_value_at_two(self):
        psi0 = vacuum_state()
        res = phi_p(psi0, 2)
        expect = 2**0.25 * math.pi / 6
        assert abs(res - expect) / expect < 1e-12

    def test_poles(self):
        psi0 = vacuum_state()
        for bad in (0, 1, 1.0 + 0j):
            with pytest.raises(DomainError):
                phi_p(psi0, bad)

    @pytest.mark.parametrize("alpha, primes", [
        (1e308, {}),
        (2, {2: PAdicTestFunction.indicator(Ball(2, F(0), -2000))}),
    ], ids=["real-factor", "local-factor"])
    def test_outside_double_range_is_a_domain_error(self, alpha, primes):
        # Gamma(alpha/2) and 2^(2000 alpha) overflow a double: no inf or NaN
        phi = ElementaryFunction(HermiteGaussian.gaussian(), primes)
        with pytest.raises(DomainError, match="outside the double range"):
            phi_p(phi, alpha)

    def test_local_factor_in_product(self):
        f2 = PAdicTestFunction.indicator(Ball(2, F(0), 1))
        phi = ElementaryFunction(HermiteGaussian.gaussian(F(2) ** F(1, 4)), {2: f2})
        res = phi_p(phi, 2)
        base = phi_p(vacuum_state(), 2)
        # local factor for 1_{2Z_2} is u = 2^-alpha = 1/4 at alpha = 2
        assert abs(res - base * 0.25) < 1e-12

    def test_measured_vacuum_constant(self):
        psi0 = vacuum_state()
        consts = []
        for alpha in (2.0, 3.0, 4.0):
            res = phi_p(psi0, alpha)
            denom = complex(gamma_fn(alpha / 2)) * math.pi ** (-alpha / 2) * zeta(alpha)
            consts.append(res / denom)
        c0 = consts[0]
        assert abs(c0 - 2**0.25) < 1e-10
        for c in consts[1:]:
            assert abs(c - c0) / abs(c0) < 1e-8


class TestTate:
    def test_self_dual_point_is_exactly_symmetric(self):
        psi0 = vacuum_state()
        assert tate_check(psi0, 0.5) == 0.0

    def test_vacuum_strip_points(self):
        psi0 = vacuum_state()
        for alpha in (0.3, 0.7, 0.4 + 1.5j, 0.25 - 2j):
            assert tate_check(psi0, alpha) < 1e-8, alpha

    def test_with_two_adic_factor(self):
        f2 = PAdicTestFunction(
            2, [(1, Ball(2, F(0), 1), 0), (F(1, 2), Ball(2, F(1), 1), 0)]
        )
        phi = ElementaryFunction(HermiteGaussian.gaussian(), {2: f2})
        assert tate_check(phi, 0.4 + 0.7j) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            tate_check(vacuum_state(), 1.5)


class TestFunctionalEquation:
    def test_symmetric_point(self):
        assert functional_equation_residual(0.5) == 0.0

    def test_strip_points(self):
        rng = random.Random(20260810)
        for _ in range(20):
            alpha = complex(rng.uniform(0.05, 0.95), rng.uniform(-5, 5))
            if abs(alpha - 0.5) < 1e-9:
                continue
            assert functional_equation_residual(alpha) < 1e-10, alpha

    def test_near_first_zero(self):
        alpha = 0.5 + 14.134725j
        assert functional_equation_residual(alpha) < 1e-8
        # the pairing of the pure Gaussian is Lambda(alpha) itself
        gaussian = ElementaryFunction(HermiteGaussian.gaussian(), {})
        assert abs(phi_p(gaussian, alpha)) < 1e-3

    def test_equivalence_with_vacuum_tate(self):
        # tate residual of the vacuum is the completed-zeta residual
        # scaled by the measured constant 2^(1/4)
        psi0 = vacuum_state()
        for alpha in (0.3, 0.6 + 1j):
            lhs = tate_check(psi0, alpha)
            rhs = 2**0.25 * functional_equation_residual(alpha)
            assert abs(lhs - rhs) < 1e-10
