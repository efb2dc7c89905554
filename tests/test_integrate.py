import cmath
import math
import random
from fractions import Fraction

import pytest

from adelic import integrate, quadrature
from adelic.bruhat import Ball, PAdicTestFunction
from adelic.characters import chi_p
from adelic.cyclotomic import Cyclo, phase
from adelic.integrate import (
    integrate_ball_character,
    integrate_qp,
    sphere_provably_zero,
    stabilized_ball_sum,
)
from adelic.gauss import gauss_integral_inf
from adelic.padic import frac_part, valuation
from adelic.quadrature import (
    _EPS_LADDER,
    _RADIUS,
    _centre,
    _richardson,
    fresnel_regularized,
    gauss_character_integral,
)

F = Fraction


class TestBallCharacter:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_haar_normalization(self, p):
        res = integrate_ball_character(p, Ball(p, F(0), 0), 0, 0)
        assert res.stabilized
        assert res.value == Cyclo(1)

    @pytest.mark.parametrize("p,b", [(3, F(1)), (5, F(2)), (7, F(1, 1))])
    def test_integral_unit_b(self, p, b):
        # |b|_p <= 1: character is trivial on Z_p
        res = integrate_ball_character(p, Ball(p, F(0), 0), 0, b)
        assert res.value == Cyclo(1)

    def test_oscillating_linear_character_cancels(self):
        res = integrate_ball_character(3, Ball(3, F(0), 0), 0, F(1, 3))
        assert res.stabilized
        assert res.value == Cyclo(0)

    def test_deep_linear_character_cancels(self):
        res = integrate_ball_character(5, Ball(5, F(0), 0), 0, F(2, 125))
        assert res.stabilized
        assert res.value == Cyclo(0)

    @pytest.mark.parametrize("k", range(-3, 4))
    def test_ball_measure_scaling(self, k):
        p = 3
        res = integrate_ball_character(p, Ball(p, F(0), k), 0, 0)
        assert res.value == Cyclo(Ball(p, 0, k).measure)

    def test_translation_invariance(self):
        # int over c + p^k Z_p of chi(b x) = chi(b c) * int over p^k Z_p
        p, k = 5, 1
        b = F(3, 25)
        c = F(2)
        shifted = integrate_ball_character(p, Ball(p, c, k), 0, b)
        base = integrate_ball_character(p, Ball(p, F(0), k), 0, b)
        assert shifted.value == chi_p(b * c, p).as_cyclo() * base.value

    def test_additivity_over_cosets(self):
        p = 3
        a, b = F(1, 9), F(2, 3)
        whole = integrate_ball_character(p, Ball(p, F(0), 0), a, b)
        parts = Cyclo(0)
        for t in range(p):
            part = integrate_ball_character(p, Ball(p, F(t), 1), a, b)
            parts = parts + part.value
        assert whole.value == parts

    def test_quadratic_character_gauss_sum(self):
        # int_{Z_p} chi(x^2/p) dx = (1/p) * sum_t e^{2 pi i t^2/p}
        p = 5
        res = integrate_ball_character(p, Ball(p, F(0), 0), F(1, p), 0)
        expect = Cyclo(0)
        for t in range(p):
            expect = expect + chi_p(F(t * t, p), p).as_cyclo()
        assert res.value == expect * F(1, p)

    def test_non_stabilization_flags(self):
        res = integrate_ball_character(3, Ball(3, F(0), 0), F(1, 3**40), 0)
        assert not res.stabilized

    def test_over_budget_ball_sum_enumerates_nothing(self):
        # the shallowest level m of Z_3 whose 3**m cosets are over the budget
        m = 0
        while 3**m <= integrate._COSET_BUDGET:
            m += 1
        seen = []

        def point_value(x):
            seen.append(x)
            return Cyclo(1)

        res = stabilized_ball_sum(3, Ball(3, F(0), 0), point_value, m)
        assert not res.stabilized
        assert seen == []

    def test_budget_bounds_the_summed_level(self, monkeypatch):
        monkeypatch.setattr(integrate, "_COSET_BUDGET", 8)
        seen = []

        def point_value(x):
            seen.append(x)
            return Cyclo(1)

        # level 3 of Z_2: one point in each of its 8 cosets, no deeper level
        res = stabilized_ball_sum(2, Ball(2, F(0), 0), point_value, 3)
        assert res.stabilized and res.value == Cyclo(1)
        assert sorted(seen) == [F(t) for t in range(8)]
        seen.clear()
        # level 4 has 16 cosets, over the budget
        assert not stabilized_ball_sum(2, Ball(2, F(0), 0), point_value, 4).stabilized
        assert seen == []

    def test_period_of_ball_larger_than_zp(self):
        # on 2**-3 Z_2, chi_2(x) = chi_2(t/8) has period 8 in t, not 1: the
        # period is read off b * 2**k, and the eight phases cancel
        res = integrate_ball_character(2, Ball(2, F(0), -3), F(0), F(1))
        assert res.stabilized
        assert res.value == Cyclo(0)

    def test_point_values_and_residue_recurrence_agree(self):
        # the point-value sum at the period's level k + d must agree with
        # the one-period residue count on the flag and on the value.
        # Centres of valuation down to -3, below the radius, put chi(A) in
        # front
        rng = random.Random(20260810)
        for _ in range(80):
            p = rng.choice([2, 3, 5])
            ball = Ball(p, F(rng.randint(0, p**3), p ** rng.randint(0, 3)), rng.randint(-1, 1))
            a = F(rng.randint(1, 9) * rng.choice([-1, 1]), p ** rng.randint(0, 2))
            b = F(rng.randint(0, 9), p ** rng.randint(0, 2))
            direct = integrate_ball_character(p, ball, a, b)
            k, c = ball.radius_exp, ball.center
            den = math.lcm(((2 * a * c + b) * F(p) ** k).denominator,
                           (a * F(p) ** (2 * k)).denominator)
            summed = stabilized_ball_sum(
                p,
                ball,
                lambda x: phase(frac_part(a * x * x + b * x, p)),
                k + valuation(den, p).value,
            )
            case = (p, ball, a, b)
            assert summed.stabilized == direct.stabilized, case
            assert summed.value == direct.value, case


class TestSphereSums:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_omega_integrates_to_one(self, p):
        res = integrate_qp(p, test_function=PAdicTestFunction.omega(p))
        assert res.stabilized
        assert res.value == Cyclo(1)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_unit_sphere_measure(self, p):
        f = PAdicTestFunction(
            p, [(1, Ball(p, F(0), 0), 0), (-1, Ball(p, F(0), 1), 0)]
        )
        res = integrate_qp(p, test_function=f)
        assert res.value == Cyclo(1 - F(1, p))

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_full_gauss_integral_unit_a_odd_p(self, p):
        # int over Q_p of chi(x^2) dx = 1 for odd p and unit a
        res = integrate_qp(p, quad=(F(1), F(0)))
        assert res.stabilized
        assert res.value == Cyclo(1)

    def test_full_gauss_integral_p2(self):
        # 1 + i^u for a = u = 1: the two-adic Gauss integral is 1 + i
        res = integrate_qp(2, quad=(F(1), F(0)))
        assert res.stabilized
        assert res.value == Cyclo(1) + Cyclo(1j)

    def test_full_gauss_with_negative_valuation(self):
        # a = 1/p^2: integral = |2a|^{-1/2} * lambda = p^{-1} for odd p, v even
        p = 5
        res = integrate_qp(p, quad=(F(1, p * p), F(0)))
        assert res.stabilized
        assert res.value == Cyclo(F(1, p))

    def test_requires_quadratic_term(self):
        with pytest.raises(ValueError):
            integrate_qp(5, quad=(F(0), F(1)))

    @pytest.mark.parametrize("p,test_function,quad", [
        # one ball whose period 5**d is over the budget
        (5, None, (F(1, 5), F(1, 5**6))),
        # the unit sphere: two terms, the first already over budget
        (3, PAdicTestFunction(3, [(1, Ball(3, F(0), 0), 0), (-1, Ball(3, F(0), 1), 0)]),
         (F(1, 3**40), F(0))),
    ], ids=["one-ball", "test-function"])
    def test_stops_at_first_unstabilized_ball(self, monkeypatch, p, test_function, quad):
        flags = []
        ball_integral = integrate.integrate_ball_character

        def counted(*args):
            res = ball_integral(*args)
            flags.append(res.stabilized)
            return res

        monkeypatch.setattr(integrate, "integrate_ball_character", counted)
        res = integrate_qp(p, test_function=test_function, quad=quad)
        assert not res.stabilized
        assert flags[-1] is False
        assert all(flags[:-1])

    def test_large_prime_is_unstabilized_without_enumeration(self):
        # the one ball is Z_p with period p, but p**max(1, 2) is over the
        # budget: no p-term Gauss sum is folded
        res = integrate_qp(1000003, quad=(F(1, 1000003), 1))
        assert not res.stabilized

    def test_tail_certificate_consistent_with_enumeration(self):
        # spheres declared zero by the certificate must enumerate to zero
        # (kept to valuations where brute enumeration is cheap)
        for p in (2, 3, 5):
            for a in (F(1), F(1, p), F(3, p * p), F(p)):
                for b in (F(0), F(1), F(1, p)):
                    for j in range(-2, 4 if p < 5 else 3):
                        if sphere_provably_zero(p, a, b, j):
                            total = Cyclo(0)
                            for u in range(1, p):
                                piece = integrate_ball_character(
                                    p, Ball(p, F(u) * F(p) ** (-j), -j + 1), a, b
                                )
                                assert piece.stabilized, (p, a, b, j)
                                total = total + piece.value
                            assert total == Cyclo(0), (p, a, b, j)


def _unfolded_fresnel(a, b) -> complex:
    """Richardson over one full-line uniform rule per eps of the damped
    integral centred at fresnel_regularized's x0, times chi_inf(A)."""
    import numpy as np

    a, b = F(a), F(b)
    af = float(a)
    A, B = _centre(a, b, _RADIUS * math.sqrt(abs(af)))
    front = cmath.exp(-2j * math.pi * float(A))
    return _richardson([
        front * gauss_character_integral(
            af, float(B), lambda y: np.exp(-abs(af) * eps * np.pi * y * y),
            radius=math.sqrt(40.0 / (math.pi * abs(af) * eps)))
        for eps in _EPS_LADDER
    ])


class TestRealQuadrature:
    def test_fresnel(self):
        val, est = fresnel_regularized(1.0)
        expect = 2**-0.5 * cmath.exp(-1j * math.pi / 4)
        assert abs(val - expect) < 1e-7
        assert est < 1e-6

    def test_fresnel_with_linear_term(self):
        # completes the square: chi(-b^2/4a) factor
        a, b = 1.0, 1.0
        val, _ = fresnel_regularized(a, b)
        expect = 2**-0.5 * cmath.exp(-1j * math.pi / 4) * cmath.exp(2j * math.pi * b * b / (4 * a))
        assert abs(val - expect) < 1e-6

    def test_gauss_character_integral_matches_closed_form(self):
        import numpy as np

        # with a Gaussian window: int e^{-pi x^2} e^{-2 pi i(ax^2+bx)} dx
        a, b = 0.5, 0.25
        val = gauss_character_integral(a, b, lambda x: np.exp(-np.pi * x * x))
        tau = complex(1, 2 * a)
        expect = tau**-0.5 * cmath.exp(-math.pi * b * b / tau)
        assert abs(val - expect) < 1e-10

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0, -0.5, -1.0, -2.0, -3.0])
    def test_fresnel_equals_the_unfolded_rule_at_every_eps(self, a):
        # the folded, graded rule in z = sqrt|a| (x - x0), shared by every
        # eps, against one full-line uniform rule per eps of the centred
        # damped integral chi_inf(A) int e^(-|a| eps pi y^2) chi_inf(a y^2 + B y) dy
        for b in (0.0, 0.5, -0.5, 1.0, 2.5):
            assert abs(fresnel_regularized(a, b)[0] - _unfolded_fresnel(a, b)) < 1e-12, (a, b)

    def test_fresnel_keeps_the_linear_term_of_a_non_dyadic_centre(self):
        # -b/(2a) = -1/6, 125/37 and -7/2000 are not dyadic, so x0 is not the
        # stationary point
        for a, b in ((F(3), F(1)), (F(37, 100), F(-5, 2)), (F(1000), F(7))):
            _, B = _centre(a, b, _RADIUS * math.sqrt(abs(a)))
            assert B != 0 and abs(B) * _RADIUS / math.sqrt(abs(a)) <= 2**-10, (a, b)
            assert abs(fresnel_regularized(a, b)[0] - _unfolded_fresnel(a, b)) < 1e-12, (a, b)

    def test_fresnel_rule_is_one_size_for_every_a_and_b(self, monkeypatch):
        # the rule lives in z = sqrt|a| (x - x0): a = 1e4, about 8e8 nodes on
        # a uniform rule in x, takes the same 40,920 nodes as a = 1/2, and
        # five calls build them once
        sizes = []
        composite = quadrature._composite

        def spy(edges, order):
            zs, ws = composite(edges, order)
            sizes.append(len(zs))
            return zs, ws

        quadrature._graded_rule.cache_clear()
        monkeypatch.setattr(quadrature, "_composite", spy)
        for a, b in ((1e4, 0.0), (0.5, 0.0), (-3.0, 2.5), (F(1, 100), F(1)), (1e307, 0.0)):
            oracle, _ = fresnel_regularized(a, b)
            closed = gauss_integral_inf(a, b)
            assert abs(oracle - closed) <= 1e-6, (a, b)
        assert sizes == [40_920]

    def test_fresnel_rule_is_read_only(self):
        zs, ws, cos, sin, windows = quadrature._graded_rule()
        assert len(windows) == len(_EPS_LADDER)
        for arr in (zs, ws, cos, sin, *(damp for _, damp in windows)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_a_call_leaves_the_next_one_bit_identical(self):
        # a < 0 and B != 0 (-b/(2a) = 1/6 is not dyadic) take every
        # per-call branch: the sign flip and the linear cos factor
        before = fresnel_regularized(F(2), F(1, 2))
        assert _centre(F(-3), F(1), _RADIUS * math.sqrt(3))[1] != 0
        fresnel_regularized(F(-3), F(1))
        assert fresnel_regularized(F(2), F(1, 2)) == before


class TestUnstabilized:
    """Every oracle that does not stabilize raises the one typed error."""

    def test_pairing_and_eigen_check_raise_it(self):
        from adelic.adeles import principal_adele, principal_idele
        from adelic.bruhat import parse_elementary
        from adelic.distributions import chi_quadratic_distribution, pair
        from adelic.oscillator import eigen_check
        from adelic.padic import from_rational

        gaussian = parse_elementary({"real": [[0, "1"]], "primes": {}})
        dist = chi_quadratic_distribution(principal_idele(F(1, 1000003)), principal_adele(F(1)))
        with pytest.raises(integrate.Unstabilized, match="local character pairing"):
            pair(dist, gaussian)
        t = from_rational(F(40009), 40009, 10)
        with pytest.raises(integrate.Unstabilized, match="eigen check integral"):
            eigen_check(40009, t, PAdicTestFunction.omega(40009), F(0), [F(0)])

    def test_lambda_oracles_raise_it(self, monkeypatch):
        from adelic import gauss

        def unstabilized(*args, **kwargs):
            return integrate.QpIntegral(Cyclo(), False)

        monkeypatch.setattr(gauss, "integrate_qp", unstabilized)
        monkeypatch.setattr(gauss, "integrate_ball_character", unstabilized)
        with pytest.raises(integrate.Unstabilized, match="oracle did not stabilize"):
            gauss.calibrate_lambda_p(3)
        away_from_0 = PAdicTestFunction.indicator(Ball(3, F(1), 1))
        with pytest.raises(integrate.Unstabilized, match="Lambda transform"):
            gauss.lambda_local_transform(3, away_from_0, F(1))
