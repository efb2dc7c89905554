import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from adelic import gauss, integrate
from adelic.adeles import Adele, principal_adele, principal_idele
from adelic.bruhat import Ball, ElementaryFunction, HermiteGaussian, PAdicTestFunction
from adelic.characters import chi_p
from adelic.cyclotomic import Cyclo, UnitPhase, phase
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
from adelic.integrate import Unstabilized, integrate_qp, stabilized_ball_sum
from adelic.padic import frac_part, padic_norm, valuation
from adelic.quadrature import fresnel_regularized

from cyclo_helpers import abs2

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
                assert abs2(lambda_p(p, a).as_cyclo()) == Cyclo(1)
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

    def test_polar_form_equals_its_fraction_composition(self):
        # the polar form read off integer numerators against its composition
        # in Fractions, and the exact closed form against the product of
        # its phase and |2a|_p^(-1/2)
        rng = random.Random(20261020)

        def draw(p):
            def unit():
                return rng.randint(0, 999) * p + rng.randint(1, p - 1)

            return F(rng.choice([-1, 1]) * unit(), unit()) * F(p) ** rng.randint(-4, 4)

        for _ in range(200):
            p = rng.choice([2, 3, 5, 7, 11])
            a = draw(p)
            b = draw(p) if rng.random() < 0.8 else F(0)
            polar = gauss_polar(p, a, b)
            assert polar == (lambda_p(p, a) * chi_p(-b * b / (4 * a), p),
                             1 / padic_norm(2 * a, p)), (p, a, b)
            assert gauss_integral_p_exact(p, a, b) == (
                polar[0].as_cyclo() * sqrt_norm_2a_inv(p, a)), (p, a, b)

    def test_closed_form_builds_no_unit_phase(self, monkeypatch):
        # the closed form reads the integer polar form e(s/m) p**(w/2) and
        # rewrites it onto the basis with no UnitPhase in between
        rng = random.Random(2028)
        calls = []
        real_post_init = UnitPhase.__post_init__
        monkeypatch.setattr(UnitPhase, "__post_init__",
                            lambda ph: calls.append(ph.phase) or real_post_init(ph))
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7, 11])
            a = F(rng.choice([-1, 1]) * _unit(rng, p), _unit(rng, p)) * F(p) ** rng.randint(-4, 4)
            b = F(_unit(rng, p), _unit(rng, p)) * F(p) ** rng.randint(-4, 4) if rng.random() < 0.8 else 0
            gauss_integral_p_exact(p, a, b)
        assert calls == []
        for p in (2, 3, 5):
            with pytest.raises(ValueError):
                gauss_integral_p_exact(p, 0, F(1, p))

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

    def test_equals_the_per_piece_sum(self):
        # the kept pieces are one sum of ball rows; the reference adds
        # coeff times each piece's integral as a Cyclo
        rng = random.Random(20261021)
        nonzero = 0
        for _ in range(60):
            p = rng.choice([2, 3, 5, 7])
            rows = [(F(rng.randint(-6, 6), rng.randint(1, 4)) or 1,
                     Ball(p, F(rng.randint(-p**2, p**2), p ** rng.randint(0, 2)),
                          rng.randint(-2, 2)),
                     F(rng.randint(0, 9), p ** rng.randint(0, 2)))
                    for _ in range(rng.randint(1, 3))]
            f = PAdicTestFunction(p, rows)
            b = F(rng.randint(-9, 9), p ** rng.randint(0, 3))
            want = Cyclo()
            for (ball, mod), coeff in f.fourier().terms.items():
                for piece in gauss._square_preimage(p, ball):
                    piece = gauss._stationary_part(p, piece, mod, b)
                    if piece is not None:
                        part = integrate.integrate_ball_character(p, piece, mod, b)
                        assert part.stabilized
                        want = want + coeff * part.value
            got = lambda_local_transform(p, f, b)
            assert got.coordinates() == want.coordinates(), (p, rows, b)
            nonzero += not got.is_zero()
        assert nonzero >= 30

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


def _constancy_level(p, v, b, mod):
    """A level on whose cosets gamma_p(a, b) chi_p(mod a) is constant, for
    v(a) = v: the unit class of lambda_p, chi_p(beta/a) for beta = -b**2/4
    and the modulation."""
    level = max(v + gauss.lambda_class_depth(p), -valuation(mod, p) if mod else 0)
    if b:
        level = max(level, 2 * v - valuation(b * b / 4, p))
    return level


def _check_against_the_definition(p, ball, v, b, mod):
    """Lambda_p of chi_p(mod a) 1_ball(a), for a ball of valuation v away
    from 0, equals the closed form summed over the ball point by point, at
    a level where the point values are constant and one level finer."""

    def point_value(a):
        return gauss_integral_p_exact(p, a, b) * phase(frac_part(mod * a, p))

    level = max(ball.radius_exp, _constancy_level(p, v, b, mod))
    sums = [stabilized_ball_sum(p, ball, point_value, lvl) for lvl in (level, level + 1)]
    assert all(s.stabilized for s in sums)
    assert sums[0].value == sums[1].value, (p, ball, b, mod)
    f = PAdicTestFunction(p, [(1, ball, mod)])
    assert lambda_local_transform(p, f, b) == sums[0].value, (p, ball, b, mod)


class TestLambdaCertificates:
    """Each p-adic sum of the Lambda transform rests on a certificate: the
    period of one residue count per ball of {x : x^2 in B}."""

    def test_square_preimage_is_exact_and_disjoint(self):
        # every ball B(t/p**2, k): x = s/p**2 with s mod p**(k+4) fixes x
        # mod p**(k+2), which fixes x**2 mod p**k and resolves each piece
        for p in (2, 3, 5):
            for k in range(-2, 4):
                grid = p ** (k + 4)
                by_square = {}
                for s in range(grid):
                    by_square.setdefault(s * s % grid, []).append(s)
                for t in range(p ** (k + 2)):
                    pieces = gauss._square_preimage(p, Ball(p, F(t, p * p), k))
                    addrs = []
                    for piece in pieces:
                        addr = piece.center * p * p
                        assert addr.denominator == 1 and piece.radius_exp <= k + 1
                        addrs.append((int(addr), p ** (piece.radius_exp + 2)))
                    inside = by_square.get(t * p * p, [])
                    for s in inside:
                        assert sum((s - a) % m == 0 for a, m in addrs) == 1, (p, k, t, s)
                    # the pieces hold no other grid point and do not overlap
                    assert sum(grid // m for _, m in addrs) == len(inside), (p, k, t)

    def test_balls_away_from_zero_equal_the_definition(self):
        rng = random.Random(20261021)
        cells = []
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            v = rng.randint(-3, 2)
            ball = Ball(p, F(_unit(rng, p)) * F(p) ** v, v + rng.randint(1, 2))
            w = _unit(rng, p)
            b = rng.choice([F(0), F(1), F(w, p), F(w * p), F(rng.randint(2, 40))])
            mod = rng.choice([F(0), F(w), F(w, p), F(w, p * p), F(w * p)])
            _check_against_the_definition(p, ball, v, b, mod)
            cells.append((p, ball.radius_exp, b, mod))
        assert any(k < 0 and m != 0 and m.denominator == 1 for _, k, _, m in cells)
        assert any(b == 0 for _, _, b, _ in cells)
        assert any(b != 0 and valuation(b, p) < 0 for p, _, b, _ in cells)

    def test_small_balls_and_deep_b_equal_the_definition(self):
        # radii up to 12 below the level where the closed form is constant
        # and b down to v(b) = -8, where the x-side integral spans balls far
        # wider than the one around the stationary point -b/2m that carries it
        rng = random.Random(20261022)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            v = rng.randint(-2, 1)
            w = _unit(rng, p)
            b = rng.choice([F(0), F(1), F(w, p ** rng.randint(2, 8))])
            mod = rng.choice([F(0), F(w), F(w, p)])
            level = _constancy_level(p, v, b, mod)
            k = rng.randint(max(v + 1, level - 3), max(v + 1, level) + 12)
            _check_against_the_definition(p, Ball(p, F(_unit(rng, p)) * F(p) ** v, k), v, b, mod)

    @pytest.mark.parametrize("p,k", [(3, 16), (5, 10), (7, 10)])
    @pytest.mark.parametrize("b", [0, 1])
    def test_small_ball_is_its_closed_form_times_its_measure(self, p, k, b):
        # the closed form is constant on c + p**k Z_p, whose transform is a
        # ball p**(-k) Z_p modulated by c; its preimage p**ceil(-k/2) Z_p
        # alone has a period of p**k residues or more, over the budget
        for c in (F(1), F(p), F(1, p), F(p - 1, p * p)):
            f = PAdicTestFunction.indicator(Ball(p, c, k))
            want = gauss_integral_p_exact(p, c, b) * F(p) ** (-k)
            assert lambda_local_transform(p, f, F(b)) == want, c

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_ball_around_zero_at_b_zero(self, p):
        # Lambda_p[1_(p**k Z_p)](0) = p**(-ceil(k/2))
        for k in range(-4, 5):
            f = PAdicTestFunction.indicator(Ball(p, F(0), k))
            assert lambda_local_transform(p, f, F(0)) == Cyclo(F(p) ** (k // -2)), k

    @pytest.mark.parametrize(
        "p,k,mod,b", [(5, -2, 4, 1), (3, -2, 2, 0), (7, -2, 48, 42), (5, -2, 1, 0)]
    )
    def test_integral_modulation_on_a_ball_wider_than_zp(self, p, k, mod, b):
        # chi(mod*y) is not 1 on the spheres of p**k Z_p with radius below 0
        f = PAdicTestFunction(p, [(1, Ball(p, F(0), k), F(mod))])
        assert lambda_local_transform(p, f, F(b)) == Cyclo(2)

    def test_over_budget_ball_raises_without_a_point(self, monkeypatch):
        # the piece Z_3 of f's transform carries chi_3(x**2/3), a period of
        # 3 residues that the oracle reads as 3**2: over a budget of 4, so
        # nothing is enumerated
        seen = []
        real = integrate.np.bincount
        monkeypatch.setattr(integrate.np, "bincount",
                            lambda *args, **kw: seen.append(args) or real(*args, **kw))
        monkeypatch.setattr(integrate, "_COSET_BUDGET", 4)
        f = PAdicTestFunction.indicator(Ball(3, F(1, 3), 0))
        with pytest.raises(Unstabilized, match="Lambda transform"):
            lambda_local_transform(3, f, F(0))
        assert seen == []
        # a prime over the budget is not scanned for square roots
        monkeypatch.setattr(gauss, "_COSET_BUDGET", 4)
        with pytest.raises(Unstabilized, match="square roots"):
            gauss._square_preimage(5, Ball(5, F(1), 1))


@st.composite
def stationary_cells(draw):
    """(p, ball, m, b): a ball c + p^k Z_p with -3 <= k <= 3, and m and b
    each 0 or u p^v with u a unit and -3 <= v <= 3."""
    p = draw(st.sampled_from([2, 3, 5, 7]))

    def zero_or_unit_power():
        if draw(st.integers(0, 3)) == 0:
            return F(0)
        u = draw(st.integers(-9, 9)) * p + draw(st.integers(1, p - 1))
        return u * F(p) ** draw(st.integers(-3, 3))

    center = F(draw(st.integers(-60, 60)), p ** draw(st.integers(0, 3)))
    ball = Ball(p, center, draw(st.integers(-3, 3)))
    return p, ball, zero_or_unit_power(), zero_or_unit_power()


class TestStationaryCut:
    """``gauss._stationary_part``, the one analytic step of the Lambda
    transform, keeps all of int chi_p(m x^2 + b x) dx over the ball.  A
    cut one level too tight (rho + 1) fails here; one level too loose
    (rho - 1) keeps cosets that integrate to 0, so it is sound and passes."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(stationary_cells())
    def test_the_kept_part_carries_the_whole_ball_integral(self, cell):
        p, ball, m, b = cell
        whole = integrate.integrate_ball_character(p, ball, m, b)
        assume(whole.stabilized)  # an inconclusive cell is never a pass
        kept = gauss._stationary_part(p, ball, m, b)
        if kept is None:
            assert whole.value.is_zero(), cell
        else:
            assert ball.contains_ball(kept), cell
            cut = integrate.integrate_ball_character(p, kept, m, b)
            assert cut.stabilized and cut.value == whole.value, cell


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
