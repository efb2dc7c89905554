import cmath
import math
import random
from fractions import Fraction

import pytest

from adelic import integrate, quadrature
from adelic.bruhat import Ball, PAdicTestFunction
from adelic.characters import chi_p
from adelic.cyclotomic import Cyclo, phase, phase_sum
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

    def test_linear_character_reads_its_period_as_it_is(self, monkeypatch):
        # a = 0 builds no Gauss sum and no sqrt(p) surd: the period p of
        # chi_p(x / p) on Z_p is p residues, within the budget past p = 2896
        res = integrate_qp(3001, PAdicTestFunction.omega(3001), (0, F(1, 3001)))
        assert res.stabilized and res.value.is_zero()
        # a quadratic period p is still read as p^2, over the budget
        assert 2897**2 > integrate._COSET_BUDGET
        res = integrate_ball_character(2897, Ball(2897, F(0), 0), F(1, 2897), 0)
        assert not res.stabilized
        # the linear period p**d itself is bounded: 7**2 over a budget of 8
        monkeypatch.setattr(integrate, "_COSET_BUDGET", 8)
        assert integrate_ball_character(7, Ball(7, F(0), 0), 0, F(1, 7)).stabilized
        assert not integrate_ball_character(7, Ball(7, F(0), 0), 0, F(1, 49)).stabilized

    def test_budget_reads_the_reduced_period(self, monkeypatch):
        # on 1/49 + 7^-1 Z_7 with a = 1 and b = -2/49, B = (2 a c + b) / 7
        # cancels to 0: the period is 7^2 residues, though the common
        # denominator of the unreduced B and C is 7^6
        p, a, b = 7, F(1), F(-2, 49)
        ball = Ball(p, F(1, 49), -1)
        reference = stabilized_ball_sum(
            p, ball, lambda x: phase(frac_part(a * x * x + b * x, p)), 2)
        assert reference.stabilized
        monkeypatch.setattr(integrate, "_COSET_BUDGET", 49)
        res = integrate_ball_character(p, ball, a, b)
        assert res.stabilized and res.value == reference.value
        monkeypatch.setattr(integrate, "_COSET_BUDGET", 48)
        assert not integrate_ball_character(p, ball, a, b).stabilized

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
                k + valuation(den, p),
            )
            case = (p, ball, a, b)
            assert summed.stabilized == direct.stabilized, case
            assert summed.value == direct.value, case


class TestCountingRegimes:
    """A period is counted in plain Python up to ``_PY_CUT`` residues, in
    one numpy pass up to ``_SLICE`` and in slices past it; each regime
    counts every residue of the period."""

    def test_python_and_numpy_counts_agree_across_the_cut(self):
        rng = random.Random(20261021)
        seen = set()
        for p in (2, 3, 5, 7, 11, 13):
            for d in range(1, 5):
                pd = p**d
                seen.add(pd <= integrate._PY_CUT)
                for quadratic in (False, True):
                    for draw in range(6):
                        # a reduced period: bi and ci not both divisible by p
                        ci = rng.randrange(pd) if quadratic else 0
                        bi = rng.randrange(pd)
                        if ci % p == 0 and bi % p == 0:
                            bi += 1
                        cell = (p, pd, bi, ci)
                        small = integrate._count_small(*cell)
                        assert small == integrate._count_numpy(*cell), cell
                        if draw == 0:
                            # the folded counts are the period's phase sum
                            direct = phase_sum([(Cyclo(1), (ci * t + bi) * t % pd, pd)
                                                for t in range(pd)])
                            folded = Cyclo.from_coordinates(pd, 1, dict(small))
                            assert folded.coordinates() == direct.coordinates(), cell
        assert seen == {True, False}

    @pytest.mark.parametrize("b, period", [(F(1, 1024), 2**21), (F(1, 2048), 2**23)],
                             ids=["2^21", "2^23"])
    def test_periods_past_the_slice_equal_the_closed_form(self, monkeypatch, b, period):
        from adelic.gauss import gauss_integral_p_exact

        periods = []
        count = integrate._count_numpy
        monkeypatch.setattr(integrate, "_count_numpy",
                            lambda p, pd, bi, ci: periods.append(pd) or count(p, pd, bi, ci))
        res = integrate_qp(2, quad=(F(1, 2), b))
        assert periods == [period] and period > integrate._SLICE
        assert res.stabilized
        assert res.value.coordinates() == gauss_integral_p_exact(2, F(1, 2), b).coordinates()

    def test_an_odd_period_past_the_slice_is_the_sum_over_its_cosets(self):
        # with ci near p**d, (ci t + bi) t overflows int64 past the slice
        # unless ci t is reduced first; an overflow wraps mod 2**64, which
        # keeps a period 2**d exact, so this cell is odd.  Each coset
        # t + 13 Z_13 has a period of 13**4 residues, counted in one pass
        p, a, b = 13, F(13**6 // 2, 13**6), F(5, 13**3)
        whole = integrate_ball_character(p, Ball(p, F(0), 0), a, b)
        assert whole.stabilized and 13**6 > integrate._SLICE
        parts = [integrate_ball_character(p, Ball(p, F(t), 1), a, b) for t in range(p)]
        assert all(part.stabilized for part in parts)
        want = phase_sum([(part.value, 0, 1) for part in parts])
        assert whole.value.coordinates() == want.coordinates()


def _seeded_test_functions(seed, count):
    """(p, f, a, b): test functions of one to four modulated balls with
    Gaussian-rational coefficients, and a quadratic character."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice([2, 3, 5, 7])
        rows = [(complex(rng.randint(-4, 4), rng.randint(-4, 4)) / rng.randint(1, 3) or 1,
                 Ball(p, F(rng.randint(-p**2, p**2), p ** rng.randint(0, 2)), rng.randint(-2, 2)),
                 F(rng.randint(0, 9), p ** rng.randint(0, 2)))
                for _ in range(rng.randint(1, 4))]
        a = F(rng.randint(-9, 9), p ** rng.randint(0, 2))
        b = F(rng.randint(-9, 9), p ** rng.randint(0, 3) * rng.choice([1, 1, 3]))
        yield p, PAdicTestFunction(p, rows), a, b


class TestOneSum:
    """``integrate_qp`` over a test function is one ``phase_sum`` of every
    ball's rows."""

    def test_equals_the_sum_of_ball_characters_with_no_cyclo_arithmetic(self, monkeypatch):
        from adelic import cyclotomic

        cells = []
        for p, f, a, b in _seeded_test_functions(20261021, 150):
            parts = [(coeff, integrate_ball_character(p, ball, a, b + mod))
                     for (ball, mod), coeff in f.terms.items()]
            if all(part.stabilized for _, part in parts):
                want = Cyclo()
                for coeff, part in parts:
                    want = want + coeff * part.value
                cells.append((p, f, a, b, want))
        assert len(cells) >= 100

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return call

        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            monkeypatch.setattr(Cyclo, name, forbidden(f"Cyclo.{name}"))
        monkeypatch.setattr(cyclotomic, "_from_exponents", forbidden("_from_exponents"))
        monkeypatch.setattr(integrate, "_from_exponents", forbidden("_from_exponents"))
        for p, f, a, b, want in cells:
            res = integrate_qp(p, test_function=f, quad=(a, b))
            assert res.stabilized
            assert res.value.coordinates() == want.coordinates(), (p, f, a, b)

    def test_an_unstabilized_ball_ends_the_sum(self, monkeypatch):
        # the second ball is over the budget: no further ball is counted
        calls = []
        ball_rows = integrate._ball_character

        def second_over_budget(*args):
            calls.append(args)
            return None if len(calls) == 2 else ball_rows(*args)

        monkeypatch.setattr(integrate, "_ball_character", second_over_budget)
        f = PAdicTestFunction(5, [(1, Ball(5, F(t), 1), 0) for t in range(4)])
        res = integrate_qp(5, test_function=f, quad=(F(1, 5), F(0)))
        assert not res.stabilized
        assert len(calls) == 2


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
        # the row function returns None for a ball over the budget
        flags = []
        ball_rows = integrate._ball_character

        def counted(*args):
            rows = ball_rows(*args)
            flags.append(rows is not None)
            return rows

        monkeypatch.setattr(integrate, "_ball_character", counted)
        res = integrate_qp(p, test_function=test_function, quad=quad)
        assert not res.stabilized
        assert flags[-1] is False
        assert all(flags[:-1])

    def test_large_prime_is_unstabilized_without_enumeration(self):
        # the one ball is Z_p with period p, but p**max(1, 2) is over the
        # budget: no p-term Gauss sum is folded
        res = integrate_qp(1000003, quad=(F(1, 1000003), 1))
        assert not res.stabilized

    def test_full_space_path_reads_integer_valuations(self, monkeypatch):
        # integrate_qp reads v(a) and v(b) off integer numerators, with no
        # valuation call and no checked Ball, and its one ball is the one
        # the Fraction walk over sphere_provably_zero gives
        def reference_ball(p, a, b):
            va = valuation(a, p)
            v2a = va + (1 if p == 2 else 0)
            vb = None if b == 0 else valuation(b, p)
            k_inner = max(0, -(va // 2), (-vb if vb is not None else 0))
            j_stop = max(v2a - va // 2, 1)
            if vb is not None:
                j_stop = max(j_stop, v2a - vb)
            while j_stop > -k_inner and sphere_provably_zero(p, a, b, j_stop):
                j_stop -= 1
            return Ball(p, F(0), min(k_inner, -j_stop))

        rng = random.Random(2028)

        def draw(p):
            def unit():
                return rng.randint(0, 999) * p + rng.randint(1, p - 1)

            return F(rng.choice([-1, 1]) * unit(), unit()) * F(p) ** rng.randint(-5, 5)

        calls, balls = [], []
        real_valuation, real_post_init = integrate.valuation, Ball.__post_init__
        monkeypatch.setattr(integrate, "valuation",
                            lambda *args: calls.append(args) or real_valuation(*args))
        monkeypatch.setattr(Ball, "__post_init__",
                            lambda ball: calls.append(ball) or real_post_init(ball))
        monkeypatch.setattr(integrate, "_ball_character",
                            lambda p, ball, a, b: balls.append((ball, a, b)) or (1, 1, []))
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7, 11])
            a = draw(p)
            b = draw(p) if rng.random() < 0.8 else F(0)
            want = reference_ball(p, a, b)
            calls.clear()
            integrate_qp(p, quad=(a, b))
            assert calls == [], (p, a, b)
            assert balls.pop() == (want, a, b), (p, a, b)

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
        zs, ws, cos, sin, windows, centred = quadrature._graded_rule()
        assert len(windows) == len(centred) == len(_EPS_LADDER)
        assert isinstance(centred, tuple) and all(type(v) is complex for v in centred)
        for arr in (zs, ws, cos, sin, *(damp for _, damp in windows)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @staticmethod
    def fresnel_cells():
        """Acceptance 3's twelve real pairs and 120 seeded rationals, with
        a of both signs: b = -2 a x0 for a dyadic x0 gives B = 0, a
        random b mostly gives B != 0."""
        rng = random.Random(31)
        cells = [(F(a), F(b)) for a in (1, -1, 2, F(1, 2)) for b in (0, 1, F(1, 2))]
        for _ in range(60):
            a = F(rng.choice([-1, 1]) * rng.randint(1, 999), rng.randint(1, 99))
            cells.append((a, -2 * a * F(rng.randint(-99, 99), 2 ** rng.randint(0, 6))))
            cells.append((-a, F(rng.randint(-99, 99), rng.randint(1, 99))))
        return cells

    @staticmethod
    def per_call_window_sum(a, b):
        """The oracle with every window sum taken per call: the linear
        factor cos(2 pi B' z) on the weights (all ones when B = 0) and the
        sine part negated for a < 0."""
        import numpy as np

        a, b = F(a), F(b)
        root = math.sqrt(abs(float(a)))
        A, B = _centre(a, b, _RADIUS * root)
        zs, ws, cos, sin, windows, _ = quadrature._graded_rule()
        ws = ws * np.cos(2.0 * np.pi * math.copysign(math.sqrt(float(B * B / abs(a))), B) * zs)
        wc = cos * ws
        wsin = sin * ws if a > 0 else -sin * ws
        vals = [complex(np.sum(damp * wc[:k]), -np.sum(damp * wsin[:k])) for k, damp in windows]
        front = cmath.exp(-2j * math.pi * float(A)) / root
        full, partial = _richardson(vals), _richardson(vals[:-1])
        return front * full, abs(front) * abs(full - partial)

    def test_fresnel_is_the_per_call_window_sum_bit_for_bit(self):
        def bits(value, estimate):
            return value.real.hex(), value.imag.hex(), estimate.hex()

        centred = 0
        for a, b in self.fresnel_cells():
            centred += _centre(a, b, _RADIUS * math.sqrt(abs(a)))[1] == 0
            want = bits(*self.per_call_window_sum(a, b))
            assert bits(*fresnel_regularized(a, b)) == want, (a, b)
            assert bits(*fresnel_regularized(float(a), float(b))) == bits(
                *self.per_call_window_sum(float(a), float(b))), (a, b)
        assert centred >= 72

    def test_a_centred_call_does_no_per_node_work(self, monkeypatch):
        # with B = 0 the six window sums are read off the rule: a call
        # touches no array once the rule is built
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"per-node work: np.{name}")

        quadrature._graded_rule()
        monkeypatch.setattr(quadrature, "np", NoArrays())
        for a, b in self.fresnel_cells():
            if _centre(a, b, _RADIUS * math.sqrt(abs(a)))[1] == 0:
                fresnel_regularized(a, b)
        with pytest.raises(AssertionError, match="per-node work"):
            fresnel_regularized(F(3), F(1))

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
        monkeypatch.setattr(gauss, "_character_sum", unstabilized)
        with pytest.raises(integrate.Unstabilized, match="oracle did not stabilize"):
            gauss.calibrate_lambda_p(3)
        away_from_0 = PAdicTestFunction.indicator(Ball(3, F(1), 1))
        with pytest.raises(integrate.Unstabilized, match="Lambda transform"):
            gauss.lambda_local_transform(3, away_from_0, F(1))
