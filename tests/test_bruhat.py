import collections
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adelic import bruhat, padic
from adelic.adeles import Adele, principal_adele, zero_adele
from adelic.bruhat import (
    Ball,
    ElementaryFunction,
    HermiteGaussian,
    PAdicTestFunction,
    SchwartzBruhat,
    hermite_coefficients,
    omega,
    parse_complex_rational,
    parse_schwartz_bruhat,
    serialize_elementary,
    vacuum_state,
)
from adelic.cyclotomic import Cyclo, phase
from adelic.mellin import mellin_local
from adelic.padic import frac_part, reduce_mod, valuation
from adelic.quadrature import panel_nodes, real_fourier_transform

from cyclo_helpers import abs2

F = Fraction


def random_test_function(rng: random.Random, p: int, nterms=3) -> PAdicTestFunction:
    terms = []
    for _ in range(rng.randint(1, nterms)):
        coeff = Cyclo(F(rng.randint(-4, 4), rng.randint(1, 3))) + phase(F(1, 4)) * F(
            rng.randint(-2, 2)
        )
        k = rng.randint(-2, 2)
        center = F(rng.randint(-6, 6), p ** rng.randint(0, 2))
        terms.append((coeff, Ball(p, center, k), F(0)))
    return PAdicTestFunction(p, terms)


def test_omega():
    assert omega(F(1, 2)) == 1
    assert omega(1) == 1
    assert omega(3) == 0
    with pytest.raises(ValueError):
        omega(-1)


class TestBall:
    def test_canonical_center(self):
        assert Ball(3, F(10), 1).center == F(1)
        assert Ball(3, F(1, 3), 0).center == F(1, 3)
        assert Ball(2, F(7, 2), -1) == Ball(2, F(3, 2), -1)

    def test_contains(self):
        b = Ball(2, F(1), 1)  # 1 + 2Z_2
        assert b.contains(F(3))
        assert not b.contains(F(2))
        assert not b.contains(F(1, 2))

    def test_nested_or_disjoint(self):
        big = Ball(5, F(0), 0)
        small = Ball(5, F(10), 1)
        assert big.contains_ball(small)
        other = Ball(5, F(1), 1)
        assert not small.contains_ball(other) and not other.contains_ball(small)

    def test_subdivide_partition(self):
        b = Ball(3, F(1, 3), -1)
        subs = b.subdivide(1)
        assert len(subs) == 9
        assert sum(s.measure for s in subs) == b.measure
        # each point of the parent is in exactly one child
        for x in (F(1, 3), F(2), F(7, 3)):
            assert sum(1 for s in subs if s.contains(x)) == (1 if b.contains(x) else 0)


class TestCanonicalForm:
    def test_sphere_combination(self):
        p = 3
        f = PAdicTestFunction(p, [(1, Ball(p, F(0), 0), 0), (-1, Ball(p, F(0), 1), 0)])
        # 1_{Z_3} - 1_{3Z_3} = sum of unit-digit balls
        g = PAdicTestFunction(p, [(1, Ball(p, F(1), 1), 0), (1, Ball(p, F(2), 1), 0)])
        assert f == g

    def test_zero_function(self):
        p = 5
        f = PAdicTestFunction(p, [(1, Ball(p, F(2), 1), 0), (-1, Ball(p, F(2), 1), 0)])
        assert f.is_zero()

    def test_modulation_folds_into_coefficient(self):
        # chi(m x) with v(m) >= -k is constant on the ball
        p = 5
        ball = Ball(p, F(1), 1)
        f = PAdicTestFunction(p, [(1, ball, F(1, 5))])
        ((key, coeff),) = f.terms.items()
        assert key == (ball, F(0))
        assert coeff == phase(F(1, 5))  # chi(c*m) = e^{2 pi i/5}

    def test_evaluate(self):
        p = 3
        f = PAdicTestFunction(p, [(2, Ball(p, F(0), 0), 0), (F(1, 2), Ball(p, F(1, 3), -1), 0)])
        assert f.evaluate(F(9)) == Cyclo(F(5, 2))
        assert f.evaluate(F(1, 3)) == Cyclo(F(1, 2))
        assert f.evaluate(F(1, 9)) == Cyclo(0)


def reference_value(f, x):
    """f(x) term by term, as a chain of ``Cyclo`` adds: membership by
    v(x - c) >= k through ``valuation`` and each modulated term times
    ``phase`` of the fractional part."""
    p, x = f.prime, F(x)
    total = Cyclo()
    for (ball, mod), coeff in f.terms.items():
        if x == ball.center or valuation(x - ball.center, p) >= ball.radius_exp:
            total = total + coeff * phase(frac_part(mod * x, p))
    return total


class TestEvaluate:
    """``evaluate`` reads x as integers and sums one ``phase_sum``, with
    the coordinates of the term-by-term chain."""

    @staticmethod
    def draws(count):
        """(f, x, kind) over p in {2, 3, 5, 7, 11}: functions with modulated
        terms (some modulations with a denominator prime to p), and points
        x = 0, on either side of a ball's edge (v(x - c) = k and k - 1),
        with a denominator prime to p, and integers."""
        rng = random.Random(4242)
        for _ in range(count):
            p = rng.choice([2, 3, 5, 7, 11])
            other = 3 if p == 2 else 2
            terms = []
            for _ in range(rng.randint(1, 5)):
                coeff = (Cyclo(F(rng.randint(-4, 4), rng.randint(1, 3)))
                         + phase(F(1, rng.choice([3, 4, 8, 9]))) * rng.randint(-1, 1))
                center = F(rng.randint(-p**3, p**3), p ** rng.randint(0, 3))
                mod = (F(rng.randint(-30, 30), rng.choice([1, other, p, p**2, p**4]))
                       if rng.random() < 0.7 else F(0))
                terms.append((coeff, Ball(p, center, rng.randint(-2, 3)), mod))
            f = PAdicTestFunction(p, terms)
            balls = [ball for ball, _ in f.terms] or [Ball(p, F(0), 0)]
            ball = rng.choice(balls)
            unit = rng.randint(1, p - 1) + p * rng.randint(0, 3)
            yield f, F(0), "zero"
            yield f, ball.center + unit * F(p) ** ball.radius_exp, "edge inside"
            yield f, ball.center + unit * F(p) ** (ball.radius_exp - 1), "edge outside"
            yield f, F(rng.randint(-p**4, p**4), p ** rng.randint(0, 3) * rng.choice([13, 17, 19])), "prime to p"
            yield f, F(rng.randint(-60, 60)), "integer"

    def test_values_equal_the_term_by_term_chain(self):
        seen = collections.Counter()
        for f, x, kind in self.draws(300):
            got = f.evaluate(x)
            assert coordinates(got) == coordinates(reference_value(f, x)), (f.terms, x)
            seen[kind] += 1
            seen["modulated, holding x"] += any(
                mod and (x == ball.center
                         or valuation(x - ball.center, f.prime) >= ball.radius_exp)
                for ball, mod in f.terms)
            seen["nonzero"] += not got.is_zero()
        assert seen["zero"] == 300 and min(seen.values()) >= 300, seen

    def test_membership_is_the_valuation_test(self):
        for f, x, _ in self.draws(100):
            for ball, _ in f.terms:
                assert ball.contains(x) == (
                    x == ball.center or valuation(x - ball.center, f.prime) >= ball.radius_exp)

    def test_no_valuation_call(self, monkeypatch):
        draws = list(self.draws(50))
        calls = []

        def counted(*args):
            calls.append(args)
            return valuation(*args)

        monkeypatch.setattr(padic, "valuation", counted)
        for f, x, _ in draws:
            f.evaluate(x)
        monkeypatch.undo()
        assert calls == []


@st.composite
def raw_terms(draw):
    """A prime and one to four modulated balls, often nested, so that the
    canonical form splits coarse balls and folds modulations."""
    p = draw(st.sampled_from((2, 3, 5)))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = (Cyclo(F(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))
                 + phase(F(1, 3)) * draw(st.integers(-1, 1)))
        center = F(draw(st.integers(-6, 6)), p ** draw(st.integers(0, 1)))
        mod = F(draw(st.integers(-4, 4)), p ** draw(st.integers(0, 2)))
        terms.append((coeff, Ball(p, center, draw(st.integers(-1, 2))), mod))
    return p, terms


scalars = st.sampled_from(
    [Cyclo(1), Cyclo(-1), Cyclo(F(-2, 5)), phase(F(1, 4)), phase(F(2, 3)) * F(3, 7),
     phase(F(1, 5)) + 1])


class TestScale:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(raw_terms(), scalars)
    def test_scaled_terms_are_the_canonical_form_of_the_scaled_input(self, raw, c):
        p, terms = raw
        f = PAdicTestFunction(p, terms)
        rebuilt = PAdicTestFunction(p, [(c * coeff, ball, mod) for coeff, ball, mod in terms])
        assert f.scale(c).terms == rebuilt.terms
        assert (-f).terms == f.scale(-1).terms

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(raw_terms())
    def test_zero_scalar_and_self_difference_are_zero(self, raw):
        f = PAdicTestFunction(*raw)
        for zero in (0, F(0), Cyclo(0)):
            assert f.scale(zero).is_zero() and f.scale(zero).terms == {}
        assert (f - f).is_zero()
        assert f.scale(2) == f + f

    def test_scale_leaves_its_function_unchanged(self):
        f = PAdicTestFunction(3, [(1, Ball(3, F(0), 0), F(1, 9)), (2, Ball(3, F(1), 1), 0)])
        before = dict(f.terms)
        g = f.scale(phase(F(1, 4)))
        assert f.terms == before and g.terms is not f.terms
        assert g._fourier is None and g._mellin_local is None


def reference_fold(coeff, ball, mod):
    """The modulation folded onto the ball, as the canonical form does."""
    mod_can = reduce_mod(mod, ball.prime, -ball.radius_exp)
    if mod_can != mod:
        coeff = coeff * phase(frac_part((mod - mod_can) * ball.center, ball.prime))
    return coeff, mod_can


def reference_terms(p, terms):
    """The canonical form by ``Ball`` refinement: groups keyed by the center
    mod p**k_min in order of first appearance, each region split by
    ``Ball.subdivide`` and each inner term placed by ``Ball.contains``."""
    raw = []
    for coeff, ball, mod in terms:
        coeff, mod = reference_fold(Cyclo(coeff), ball, F(mod))
        if not coeff.is_zero():
            raw.append((coeff, ball, mod))
    if not raw:
        return {}
    k_min = min(ball.radius_exp for _, ball, _ in raw)
    groups = {}
    for term in raw:
        groups.setdefault(reduce_mod(term[1].center, p, k_min), []).append(term)
    out = {}

    def refine(region, items):
        level = region.radius_exp
        covering = [t for t in items if t[1].radius_exp <= level]
        inner = [t for t in items if t[1].radius_exp > level]
        if not inner:
            for coeff, _, mod in covering:
                c, m = reference_fold(coeff, region, mod)
                out[region, m] = out[region, m] + c if (region, m) in out else c
            return
        for child in region.subdivide(level + 1):
            sub = covering + [t for t in inner if child.contains(t[1].center)]
            if sub:
                refine(child, sub)

    for key, members in groups.items():
        refine(Ball(p, key, k_min), members)
    return {key: c for key, c in out.items() if not c.is_zero()}


@st.composite
def deep_raw_terms(draw):
    """A prime in {2, 3, 7} and one to six modulated balls: coefficients
    with phases of conductor 4, 3, 5, 8 or 9 (so a leaf's sum lifts them
    and the p-power phases of its folds to one lcm), centers with
    denominators up to p**3 (deeper than many radii), radii from -3 to 3
    (chains several levels deep) and modulations whose denominators may be
    prime to p."""
    p = draw(st.sampled_from((2, 3, 7)))
    other = 3 if p != 3 else 2
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.sampled_from((4, 3, 5, 8, 9)))
        coeff = (Cyclo(F(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))
                 + phase(F(draw(st.integers(1, n - 1)), n)) * draw(st.integers(-1, 1)))
        center = F(draw(st.integers(-20, 20)), p ** draw(st.integers(0, 3)))
        mod = F(draw(st.integers(-9, 9)), draw(st.sampled_from((1, other, p, p * p, p**3))))
        terms.append((coeff, Ball(p, center, draw(st.integers(-3, 3))), mod))
    return p, terms


def coordinates(c):
    n, den, numerators = c.coordinates()
    return n, den, dict(numerators)


def assert_same_terms(f, want):
    """f's terms equal ``want`` in order, and so do the stored coordinates:
    the conductor and denominator of each one-shot leaf sum are those of
    the term-by-term reference sum."""
    assert list(f.terms.items()) == list(want.items())
    assert [coordinates(c) for c in f.terms.values()] == [coordinates(c) for c in want.values()]


def term_list(f):
    """f's canonical terms as the (coeff, ball, mod) rows of the constructor."""
    return [(c, ball, mod) for (ball, mod), c in f.terms.items()]


def mapped_reflection(f):
    """The canonical form of the raw terms of f(-x): each ball and
    modulation negated, canonicalized from scratch."""
    p = f.prime
    return PAdicTestFunction(
        p, [(c, Ball(p, -ball.center, ball.radius_exp), -mod) for (ball, mod), c in f.terms.items()]
    )


class TestCanonicalOrder:
    """The canonical form, its term order included, equals the one built by
    ``Ball`` refinement; ``mellin`` sums 50-digit coefficients in that order."""

    @staticmethod
    def assert_reference(p, terms):
        assert_same_terms(PAdicTestFunction(p, terms), reference_terms(p, terms))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(deep_raw_terms())
    def test_terms_and_order_equal_the_ball_refinement(self, raw):
        self.assert_reference(*raw)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(deep_raw_terms(), deep_raw_terms())
    def test_sums_products_and_transforms_equal_the_reference_in_order(self, raw1, raw2):
        p, terms = raw1
        f = PAdicTestFunction(p, terms)
        g = PAdicTestFunction(p, [(c, Ball(p, b.center, b.radius_exp), m) for c, b, m in raw2[1]])
        # the raw terms that the transform and the product canonicalize
        transform = [(c * F(p) ** -b.radius_exp * phase(frac_part(m * b.center, p)),
                      Ball(p, -m, -b.radius_exp), b.center) for (b, m), c in f.terms.items()]
        product = [(c1 * c2, b2 if b1.contains_ball(b2) else b1, m1 + m2)
                   for (b1, m1), c1 in f.terms.items() for (b2, m2), c2 in g.terms.items()
                   if b1.contains_ball(b2) or b2.contains_ball(b1)]
        for h, raw in ((f + g, term_list(f) + term_list(g)),
                       (f - g, term_list(f) + term_list(-g)),
                       (f * g, product), (f.fourier(), transform)):
            assert_same_terms(h, reference_terms(p, raw))

    @staticmethod
    def transform_rows(f):
        """The raw terms whose canonical form is the transform of f."""
        p = f.prime
        return [(c * F(p) ** -b.radius_exp * phase(frac_part(m * b.center, p)),
                 Ball(p, -m, -b.radius_exp), b.center) for (b, m), c in f.terms.items()]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(deep_raw_terms())
    def test_transforms_negation_and_differences_equal_the_reference_in_order(self, raw):
        p, terms = raw
        f = PAdicTestFunction(p, terms)
        fhat, reflected = f.fourier(), f.reflect()
        negated = [(-c, b, m) for c, b, m in term_list(f)]
        for h, rows in ((fhat.fourier(), self.transform_rows(fhat)),
                        (-f, negated),
                        (reflected.fourier(), self.transform_rows(reflected))):
            assert_same_terms(h, reference_terms(p, rows))
        assert reference_terms(p, term_list(f) + negated) == {}
        assert (f - f).terms == {} and (fhat - fhat).terms == {}
        # a transform whose terms are first read after an evaluation: its
        # own transform, its reflection, its norm and its Mellin factor
        # equal those of the reference terms, in order
        lazy = PAdicTestFunction(p, terms).fourier()
        lazy.evaluate(1)
        eager = PAdicTestFunction._of(p, reference_terms(p, self.transform_rows(f)))
        assert_same_terms(lazy.fourier(), eager.fourier().terms)
        assert_same_terms(lazy.reflect(), eager.reflect().terms)
        assert_same_terms(lazy, eager.terms)
        assert coordinates(lazy.l2_norm_sq()) == coordinates(eager.l2_norm_sq())
        assert ([(e, coordinates(c)) for e, c in mellin_local(lazy).coeffs.items()]
                == [(e, coordinates(c)) for e, c in mellin_local(eager).coeffs.items()])

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_center_deeper_than_its_radius(self, p):
        deep = Ball(p, F(1, p**3), -1)
        assert deep.center == F(1, p**3)
        self.assert_reference(p, [(1, deep, 0), (2, Ball(p, F(1, p**3) + p, 1), F(1, p))])
        self.assert_reference(p, [(2, Ball(p, F(0), -2), F(1, p)), (1, deep, 0),
                                  (-1, Ball(p, F(1, p**3), 2), 0)])

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_negative_radii_and_deep_chains(self, p):
        chain = [(1, Ball(p, F(0), -2), 0), (F(1, 2), Ball(p, F(1, p), -1), F(1, p**3)),
                 (-1, Ball(p, F(1, p) + 1, 0), 0), (3, Ball(p, F(1, p) + 1 + p, 1), F(1, p)),
                 (1, Ball(p, F(1, p) + 1 + p + p * p, 3), F(2, p**2))]
        self.assert_reference(p, chain)
        self.assert_reference(p, chain[::-1])
        # a leaf three or more levels below the coarsest ball, and siblings
        f = PAdicTestFunction(p, chain)
        assert max(b.radius_exp for b, _ in f.terms) - min(b.radius_exp for b, _ in f.terms) >= 3

    def test_modulation_with_a_denominator_prime_to_p(self):
        p = 2
        terms = [(1, Ball(p, F(0), 0), F(1, 3)), (1, Ball(p, F(1, 2), -1), F(1, 3)),
                 (2, Ball(p, F(2), 2), F(-5, 3)), (1, Ball(p, F(3, 8), -1), F(7, 12))]
        self.assert_reference(p, terms)
        f = PAdicTestFunction(p, terms)
        for x in (F(0), F(1), F(2), F(6), F(1, 2), F(3, 8), F(-5, 8)):
            expected = sum((Cyclo(c) * phase(frac_part(F(m) * x, p))
                            for c, b, m in terms if b.contains(x)), Cyclo(0))
            assert f.evaluate(x) == expected, x

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_inputs_that_cancel_to_zero(self, p):
        whole = [(1, Ball(p, F(0), 0), 0)]
        digits = [(-1, Ball(p, F(t), 1), 0) for t in range(p)]
        assert reference_terms(p, whole + digits) == {}
        assert PAdicTestFunction(p, whole + digits).terms == {}
        chain = [(1, Ball(p, F(0), -1), F(1, p**2)), (phase(F(1, 3)), Ball(p, F(1, p), 2), 0)]
        negated = [(-c, b, m) for c, b, m in chain]
        assert PAdicTestFunction(p, chain + negated).terms == {}
        # a cancelling leaf leaves its siblings in reference order
        self.assert_reference(p, chain + [(-phase(F(1, 3)), Ball(p, F(1, p), 2), 0)])

    def test_each_inner_term_goes_to_the_child_of_its_digit(self):
        # the finer balls differ only in the digit just below the coarse
        # level; a wrong digit merges or misplaces them
        p = 3
        terms = [(1, Ball(p, F(0), 0), 0)] + [
            (t + 1, Ball(p, F(t * p + 1), 2), 0) for t in range(p)]
        f = PAdicTestFunction(p, terms)
        assert list(f.terms.items()) == list(reference_terms(p, terms).items())
        for t in range(p):
            assert f.evaluate(F(t * p + 1)) == Cyclo(t + 2)
        assert f.evaluate(F(2)) == Cyclo(1)


class TestCanonicalWork:
    """The fold is integer arithmetic, and each leaf is one ``Cyclo`` built
    at once: the ring operations of canonicalizing do not grow with the
    number of leaves a coarse modulated term reaches."""

    def test_ring_operations_do_not_grow_with_the_chain_depth(self, monkeypatch):
        p = 7
        calls = []

        def counted(name):
            real = getattr(Cyclo, name)
            return lambda x, y: calls.append(name) or real(x, y)

        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            monkeypatch.setattr(Cyclo, name, counted(name))
        counts, built = [], []
        for depth in (2, 4, 8):
            # the modulation folds to 0 on every leaf at level 2 or deeper,
            # with a phase that changes from leaf to leaf
            terms = [(phase(F(1, 3)), Ball(p, F(0), -1), F(5, p**2)),
                     (F(1, 2), Ball(p, F(1), depth), F(0))]
            del calls[:]
            f = PAdicTestFunction(p, terms)
            counts.append(len(calls))
            built.append((terms, f))
        assert counts == [counts[0]] * 3
        monkeypatch.undo()
        for terms, f in built:
            # a leaf for each of the p - 1 siblings on levels 0 to depth,
            # and the chain's end, where the fine term meets the coarse one
            depth = terms[1][1].radius_exp
            assert len(f.terms) == (p - 1) * (depth + 1) + 1
            assert_same_terms(f, reference_terms(p, terms))

    def test_modulation_reductions_do_not_grow_with_the_chain_depth(self, monkeypatch):
        # each raw modulation is reduced once onto the call's lattice, not
        # once per level of the chain it is folded along
        p = 7
        chains = {depth: [(1, Ball(p, F(0), 0), F(3, p)), (2, Ball(p, F(p**depth), depth), F(0))]
                  for depth in (2, 4, 8)}
        calls = []

        def counted(*args):
            calls.append(args)
            return reduce_mod(*args)

        monkeypatch.setattr(bruhat, "reduce_mod", counted)
        counts, built = [], []
        for depth, terms in chains.items():
            del calls[:]
            built.append((terms, PAdicTestFunction(p, terms)))
            counts.append(len(calls))
        monkeypatch.undo()
        assert counts == [counts[0]] * 3
        for terms, f in built:
            assert_same_terms(f, reference_terms(p, terms))

    @staticmethod
    def integer_rows(p, terms, extra_j, extra_m):
        """The integer rows of public terms, each modulation reduced on the
        test side, over pj and pm times p**extra_j and p**extra_m."""
        k_min = min(ball.radius_exp for _, ball, _ in terms)
        pj = max(max(b.center.denominator for _, b, _ in terms), p ** max(-k_min, 0))
        mods = [reduce_mod(F(m), p, valuation(pj, p)) for _, _, m in terms]
        pm = max(q.denominator for q in mods)
        pj, pm = pj * p**extra_j, pm * p**extra_m
        rows = [(b.center.numerator * (pj // b.center.denominator), b.radius_exp,
                 (Cyclo(c), 0, 1), q.numerator * (pm // q.denominator))
                for (c, b, _), q in zip(terms, mods) if not Cyclo(c).is_zero()]
        return pj, pm, rows

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(deep_raw_terms(), st.integers(0, 3), st.integers(0, 3))
    def test_the_core_is_the_same_over_finer_lattices(self, raw, extra_j, extra_m):
        # grouping, digits and folds do not change when pj and pm carry
        # extra powers of p, and the modulation numerators need no
        # reduction: a numerator shifted by a multiple of pm * pj folds alike
        p, terms = raw
        want = PAdicTestFunction(p, terms).terms
        pj, pm, rows = self.integer_rows(p, terms, extra_j, extra_m)
        assert_same_terms(PAdicTestFunction._of(p, bruhat._canonical_terms(p, pj, pm, rows)),
                          want)
        shifted = [(n, k, part, a + (1 + i) * pm * pj) for i, (n, k, part, a) in enumerate(rows)]
        assert_same_terms(PAdicTestFunction._of(p, bruhat._canonical_terms(p, pj, pm, shifted)),
                          want)

    def test_transforms_and_sums_reduce_and_multiply_nothing(self, monkeypatch):
        # fourier, + and - write integer rows from canonical terms: no
        # modulation or center is reduced, and no coefficient is multiplied
        rng = random.Random(2034)
        pairs = []
        for p in (2, 3, 7):
            for _ in range(8):
                f, g = (PAdicTestFunction(p, [
                    (F(rng.randint(1, 4), rng.randint(1, 3)) * phase(F(rng.randint(0, 5), 6)),
                     Ball(p, F(rng.randint(-20, 20), p ** rng.randint(0, 3)), rng.randint(-3, 3)),
                     F(rng.randint(-9, 9), rng.choice([1, 5, p, p * p, p**3])))
                    for _ in range(rng.randint(1, 5))]) for _ in range(2))
                pairs.append((f, g, f.fourier().fourier() - f.reflect()))
        calls = []

        def counted(name, real):
            return lambda *args: calls.append(name) or real(*args)

        monkeypatch.setattr(bruhat, "reduce_mod", counted("reduce_mod", reduce_mod))
        monkeypatch.setattr(padic, "reduce_mod", counted("reduce_mod", reduce_mod))
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(Cyclo, name, counted(name, getattr(Cyclo, name)))
        built = [(f.fourier(), f + g, f - g, g - f, -f) for f, g, _ in pairs]
        for fhat, *_ in built:
            fhat.terms  # the transform canonicalizes its rows on this first read
        monkeypatch.undo()
        assert calls == []
        for (f, g, zero), (fhat, total, diff, back, neg) in zip(pairs, built):
            assert zero.is_zero()
            assert fhat.terms == PAdicTestFunction(
                f.prime, TestCanonicalOrder.transform_rows(f)).terms
            assert total.terms == PAdicTestFunction(f.prime, term_list(f) + term_list(g)).terms
            assert diff.terms == (f + g.scale(-1)).terms and (diff + back).is_zero()
            assert neg.terms == f.scale(-1).terms

class TestExactSums:
    """``l2_norm_sq`` and ``integral`` are each one rewrite onto the basis,
    with the coordinates of the term-by-term ``Cyclo`` sums."""

    @staticmethod
    def chains(f):
        norm, integral = Cyclo(), Cyclo()
        for (ball, mod), c in f.terms.items():
            norm = norm + abs2(c) * ball.measure
            if mod == 0:
                integral = integral + c * ball.measure
        return norm, integral

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(deep_raw_terms())
    def test_norm_and_integral_equal_the_term_by_term_chains(self, raw):
        f = PAdicTestFunction(*raw)
        for g in (f, f.fourier(), PAdicTestFunction.zero(f.prime)):
            norm, integral = self.chains(g)
            assert coordinates(g.l2_norm_sq()) == coordinates(norm)
            assert coordinates(g.integral()) == coordinates(integral)

    @pytest.mark.parametrize("nterms", [1, 4, 16])
    def test_norm_and_integral_make_no_ring_operations(self, monkeypatch, nterms):
        p = 7
        # disjoint balls of levels 2 to 4 (centers distinct mod 49), with
        # coefficients of conductor 12 and every other term modulated
        terms = [(phase(F(t, 12)) + F(t, 5), Ball(p, F(t), 2 + t % 3), F(t % 2, p**3))
                 for t in range(nterms)]
        f = PAdicTestFunction(p, terms)
        assert len(f.terms) == nterms
        calls = []

        def counted(name):
            real = getattr(Cyclo, name)
            return lambda x, y: calls.append(name) or real(x, y)

        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            monkeypatch.setattr(Cyclo, name, counted(name))
        norm, integral = f.l2_norm_sq(), f.integral()
        assert calls == []
        monkeypatch.undo()
        assert (norm, integral) == self.chains(f)


class TestReflect:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(deep_raw_terms())
    def test_reflection_is_the_canonical_form_of_the_mapped_terms(self, raw):
        f = PAdicTestFunction(*raw)
        for g in (f, f.fourier(), f.fourier().fourier()):
            assert g.reflect().terms == mapped_reflection(g).terms
            assert g.reflect().reflect().terms == g.terms

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_reflection_evaluates_at_minus_x(self, p):
        f = PAdicTestFunction(p, [(1, Ball(p, F(1, p), -1), F(1, p**3)),
                                  (F(1, 2), Ball(p, F(2), 1), F(3, p**2)),
                                  (phase(F(1, 4)), Ball(p, F(0), 2), F(-1, p**3))])
        assert any(mod for _, mod in f.terms)
        g = f.reflect()
        for x in (F(0), F(1), F(-1), F(2), F(1, p), F(-2, p), F(p + 2), F(2 * p * p)):
            assert g.evaluate(x) == f.evaluate(-x), x

    def test_reflection_reduces_no_center(self, monkeypatch):
        # the mapped ball of c + p^k Z_p is read off the reduced center c:
        # p^k - c, or 0 when c = 0, with no reduction
        p = 7
        f = PAdicTestFunction(p, [(1, Ball(p, F(1, p), 0), F(1, p**3)),
                                  (F(1, 2), Ball(p, F(2), 1), F(3, p**2)),
                                  (phase(F(1, 4)), Ball(p, F(0), 2), F(-1, p**3))])
        assert len(f.terms) == 3
        calls = []

        def counted(*args):
            calls.append(args)
            return reduce_mod(*args)

        monkeypatch.setattr(bruhat, "reduce_mod", counted)
        g = f.reflect()
        monkeypatch.undo()
        assert calls == []
        assert g.terms == mapped_reflection(f).terms
        assert sorted(ball.center for ball, _ in g.terms) == [F(0), F(p - 1, p), F(p - 2)]

    def test_reflections_and_sums_skip_the_public_converter(self, monkeypatch):
        # reflect and + hand canonical terms to the core as integer rows:
        # no public-input conversion and no reduction, and the terms and
        # their order are those of canonicalizing the mapped or summed rows
        rng = random.Random(2039)
        pairs = []
        for p in (2, 3, 7):
            for _ in range(10):
                f, g = (PAdicTestFunction(p, [
                    (F(rng.randint(1, 4), rng.randint(1, 3)) * phase(F(rng.randint(0, 3), 4)),
                     Ball(p, F(rng.randint(-20, 20), p ** rng.randint(0, 3)), rng.randint(-3, 3)),
                     F(rng.randint(-9, 9), rng.choice([1, 5, p, p * p, p**3])))
                    for _ in range(rng.randint(1, 5))]) for _ in range(2))
                pairs.append((f, g))
        calls = []
        canonicalize = bruhat._canonicalize

        def counted_canonicalize(prime, terms):
            calls.append("_canonicalize")
            return canonicalize(prime, terms)

        def counted_reduce_mod(*args):
            calls.append("reduce_mod")
            return reduce_mod(*args)

        monkeypatch.setattr(bruhat, "_canonicalize", counted_canonicalize)
        monkeypatch.setattr(bruhat, "reduce_mod", counted_reduce_mod)
        monkeypatch.setattr(padic, "reduce_mod", counted_reduce_mod)
        built = [(f.reflect(), f + g, f - g) for f, g in pairs]
        for reflected, _, _ in built:
            reflected.terms  # the reflection canonicalizes its rows on this first read
        monkeypatch.undo()
        assert calls == []
        for (f, g), (reflected, total, diff) in zip(pairs, built):
            assert_same_terms(reflected, mapped_reflection(f).terms)
            assert_same_terms(total, PAdicTestFunction(f.prime, term_list(f) + term_list(g)).terms)
            assert_same_terms(diff, PAdicTestFunction(f.prime, term_list(f) + term_list(-g)).terms)


class TestFourierP:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_omega_self_dual(self, p):
        om = PAdicTestFunction.omega(p)
        assert om.fourier() == om

    def test_transform_is_built_once(self):
        f = random_test_function(random.Random(4), 3)
        assert f.fourier() is f.fourier()

    def test_transform_memo_is_not_cross_seeded(self):
        # the transform's own transform is computed by the transform, never
        # filled in from the involution under test
        f = random_test_function(random.Random(5), 5)
        fhat = f.fourier()
        assert fhat._fourier is None
        assert fhat.fourier() == f.reflect()

    def test_transform_reduces_no_center(self, monkeypatch):
        # each output ball B(-m, -k) is built from the reduced center
        # p^-k - m, or 0 when m = 0, with no checked Ball
        rng = random.Random(2028)
        for p in (2, 3, 7):
            for _ in range(10):
                f = PAdicTestFunction(p, [
                    (F(rng.randint(1, 4), rng.randint(1, 3)) * phase(F(rng.randint(0, 3), 4)),
                     Ball(p, F(rng.randint(-20, 20), p ** rng.randint(0, 3)), rng.randint(-3, 3)),
                     F(rng.randint(-9, 9), rng.choice([1, 5, p, p * p, p**3])))
                    for _ in range(rng.randint(1, 5))])
                want = PAdicTestFunction(p, [
                    (c * phase(frac_part(mod * ball.center, p)) * ball.measure,
                     Ball(p, -mod, -ball.radius_exp), ball.center)
                    for (ball, mod), c in f.terms.items()])
                calls = []
                real_post_init = Ball.__post_init__
                monkeypatch.setattr(Ball, "__post_init__",
                                    lambda ball: calls.append(ball) or real_post_init(ball))
                terms = f.fourier().terms
                monkeypatch.undo()
                assert calls == []
                assert list(terms.items()) == list(want.terms.items())

    def test_transform_values_are_read_off_its_rows(self, monkeypatch):
        # f.fourier() holds integer rows, and evaluating it builds no
        # canonical form; the values equal those after its terms are read
        rng = random.Random(2035)
        cases = []
        for p in (2, 3, 5, 7):
            other = 3 if p == 2 else 2
            for _ in range(30):
                f = PAdicTestFunction(p, [
                    (F(rng.randint(1, 4), rng.randint(1, 3)) * phase(F(rng.randint(0, 7), 8)),
                     Ball(p, F(rng.randint(-20, 20), p ** rng.randint(0, 2)), rng.randint(-3, 2)),
                     F(rng.randint(-9, 9), rng.choice([1, other, p, p * p])))
                    for _ in range(rng.randint(1, 5))])
                unit = rng.randint(1, p - 1) * rng.choice([1, -1])
                xs = [F(0), F(1), F(1, p**20), F(unit, p ** rng.randint(1, 3)),
                      F(rng.randint(-60, 60), p ** rng.randint(0, 2) * rng.choice([11, 13, 17]))]
                cases.append((f, xs))
        calls = []
        real = bruhat._canonical_terms
        monkeypatch.setattr(bruhat, "_canonical_terms",
                            lambda *args: calls.append(args) or real(*args))
        lazy = [[f.fourier().evaluate(x) for x in xs] for f, xs in cases]
        monkeypatch.undo()
        assert calls == []
        seen = collections.Counter()
        for (f, xs), values in zip(cases, lazy):
            fhat = f.fourier()
            seen["modulated"] += any(mod for _, mod in f.terms)
            seen["negative radius"] += any(ball.radius_exp < 0 for ball, _ in f.terms)
            terms = fhat.terms
            assert [coordinates(fhat.evaluate(x)) for x in xs] == [coordinates(v) for v in values]
            assert [coordinates(reference_value(fhat, x)) for x in xs] == [
                coordinates(v) for v in values]
            assert not any(ball.contains(xs[2]) for ball, _ in terms) and values[2].is_zero()
            seen["nonzero"] += sum(not v.is_zero() for v in values)
        assert min(seen["modulated"], seen["negative radius"]) >= 60, seen
        assert seen["nonzero"] >= 240, seen

    def test_shifted_unit_ball(self):
        # transform of 1_{pZ_p} = p^-1 on |xi| <= p
        p = 3
        f = PAdicTestFunction.indicator(Ball(p, F(0), 1))
        ft = f.fourier()
        assert ft == PAdicTestFunction(p, [(F(1, p), Ball(p, F(0), -1), 0)])

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_transform_matches_integration_oracle(self, p):
        from adelic.integrate import integrate_qp

        rng = random.Random(410 + p)
        f = random_test_function(rng, p)
        ft = f.fourier()
        for xi in (F(0), F(1), F(1, p), F(-2, p * p), F(3)):
            oracle = integrate_qp(p, test_function=f, quad=(F(0), xi))
            assert oracle.stabilized
            assert ft.evaluate(xi) == oracle.value

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_involution_is_reflection(self, p):
        rng = random.Random(77 + p)
        for _ in range(6):
            f = random_test_function(rng, p)
            assert f.fourier().fourier() == f.reflect()

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_plancherel_exact(self, p):
        rng = random.Random(900 + p)
        for _ in range(6):
            f = random_test_function(rng, p)
            assert f.l2_norm_sq() == f.fourier().l2_norm_sq()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(deep_raw_terms())
    def test_involution_and_plancherel_on_modulated_functions(self, raw):
        f = PAdicTestFunction(*raw)
        fhat = f.fourier()
        assert fhat.fourier() == f.reflect()
        assert f.l2_norm_sq() == fhat.l2_norm_sq()

    def test_linearity(self):
        p = 3
        rng = random.Random(5)
        f, g = random_test_function(rng, p), random_test_function(rng, p)
        lhs = (f + g.scale(F(2, 3))).fourier()
        rhs = f.fourier() + g.fourier().scale(F(2, 3))
        assert lhs == rhs


class TestHermiteGaussian:
    def test_hermite_coefficients(self):
        assert hermite_coefficients(0) == (1,)
        assert hermite_coefficients(1) == (0, 2)
        assert hermite_coefficients(2) == (-2, 0, 4)
        assert hermite_coefficients(3) == (0, -12, 0, 8)

    def test_gaussian_value(self):
        g = HermiteGaussian.gaussian()
        assert abs(g.evaluate(0.0) - 1.0) < 1e-15
        assert abs(g.evaluate(1.0) - math.exp(-math.pi)) < 1e-15

    def test_fourier_eigenvalues(self):
        h = HermiteGaussian([(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)])
        ft = h.fourier()
        for n, c in ft.coeffs.items():
            assert c == phase(F(-n, 4))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_fourier_matches_quadrature(self, n):
        h = HermiteGaussian([(n, 1)])
        ht = h.fourier()
        xis = np.array([0.0, 0.5, 1.0, -1.3])
        numeric = real_fourier_transform(h.evaluate, xis)
        assert np.max(np.abs(numeric - ht.evaluate(xis))) < 1e-10

    def test_evaluate_on_node_array_matches_scalar_calls(self):
        # the 1,280 nodes of the chi pairing's real rule
        xs, _ = panel_nodes(-8.0, 8.0, panels=64)
        h = HermiteGaussian(
            [(n, parse_complex_rational(f"{n + 1}/3-{n}/7i")) for n in range(9)]
        )
        vals = h.evaluate(xs)
        scalar = np.array([h.evaluate(float(x)) for x in xs])
        assert vals.shape == xs.shape and isinstance(h.evaluate(0.5), complex)
        assert np.max(np.abs(vals - scalar)) <= 1e-14 * np.max(np.abs(scalar))


class TestElementary:
    def test_vacuum_at_zero(self):
        psi0 = vacuum_state()
        assert abs(psi0.evaluate(zero_adele()) - 2**0.25) < 1e-15

    def test_omega_tail_kills_large_components(self):
        psi0 = vacuum_state()
        x = Adele(real=0.0, components={7: F(1, 7)}, tail=F(0))
        assert psi0.evaluate(x) == 0

    def test_explicit_factor_wins(self):
        f2 = PAdicTestFunction.indicator(Ball(2, F(0), 1))  # 1_{2 Z_2}
        phi = ElementaryFunction(HermiteGaussian.gaussian(), {2: f2})
        assert phi.evaluate(principal_adele(1)) == 0
        assert abs(phi.evaluate(principal_adele(2)) - math.exp(-math.pi * 4)) < 1e-15

    def test_fourier_elementary_vacuum_fixed_point(self):
        psi0 = vacuum_state()
        assert psi0.fourier() == psi0

    def test_schwartz_bruhat_linearity(self):
        psi0 = vacuum_state()
        comb = SchwartzBruhat([(2, psi0)])
        assert abs(comb.evaluate(zero_adele()) - 2 * 2**0.25) < 1e-14
        ft = comb.fourier()
        assert abs(ft.evaluate(zero_adele()) - 2 * 2**0.25) < 1e-14


@st.composite
def gaussian_elementary(draw):
    """An elementary function whose canonical coefficients are Gaussian
    rationals, the scalars the wire format carries: per prime, disjoint
    sibling balls with modulations canonical on them, and unmodulated balls
    no finer than the siblings, so that no modulation folds a phase into a
    coefficient."""
    def gaussian():
        re = F(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        return Cyclo(re) + phase(F(1, 4)) * F(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))

    real = HermiteGaussian([(draw(st.integers(0, 4)), gaussian())
                            for _ in range(draw(st.integers(1, 3)))])
    factors = {}
    for p in draw(st.lists(st.sampled_from((2, 3, 5)), min_size=1, max_size=3, unique=True)):
        k = draw(st.integers(-2, 2))
        digits = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True))
        terms = [(gaussian(), Ball(p, F(t) * F(p) ** k, k + 1),
                  reduce_mod(F(draw(st.integers(-9, 9)), p ** draw(st.integers(0, 3))), p, -k - 1))
                 for t in digits]
        terms += [(gaussian(), Ball(p, F(draw(st.integers(-6, 6)), p ** draw(st.integers(0, 2))),
                                    draw(st.integers(k - 1, k + 1))), 0)
                  for _ in range(draw(st.integers(0, 2)))]
        factors[p] = PAdicTestFunction(p, terms)
    return ElementaryFunction(real, factors)


class TestSerialization:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(gaussian_elementary())
    def test_parse_inverts_serialize(self, e):
        text = json.dumps(serialize_elementary(e))
        ((coeff, again),) = parse_schwartz_bruhat(text).elements
        assert coeff == Cyclo(1) and again == e
        assert serialize_elementary(again) == serialize_elementary(e)

    def test_parse_complex_rational(self):
        assert parse_complex_rational("3/2") == Cyclo(F(3, 2))
        assert parse_complex_rational("-1/3i") == phase(F(1, 4)) * F(-1, 3)
        assert parse_complex_rational("1/2+2i") == Cyclo(F(1, 2)) + phase(F(1, 4)) * 2
        assert parse_complex_rational("1-i") == Cyclo(1) - phase(F(1, 4))
        assert parse_complex_rational("i") == phase(F(1, 4))

    def test_round_trip(self):
        obj = {
            "real": [[0, "1"], [2, "1/2-1/3i"]],
            "primes": {"2": [["1", "0", 0]], "3": [["-2", "1/3", -1], ["1/5", "1", 1]]},
        }
        sb = parse_schwartz_bruhat(obj)
        ((coeff, phi),) = sb.elements
        assert coeff == Cyclo(1)
        again = serialize_elementary(phi)
        sb2 = parse_schwartz_bruhat(again)
        phi2 = sb2.elements[0][1]
        assert phi2 == phi
