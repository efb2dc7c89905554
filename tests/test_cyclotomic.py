import cmath
import math
import operator
import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from adelic.cyclotomic import (Cyclo, UnitPhase, _fractions, _from_exponents, phase, phase_sum,
                               sqrt_prime)
from adelic.gauss import gauss_integral_p_exact
from adelic.integrate import integrate_qp
from adelic.primes import primes_up_to

from cyclo_helpers import abs2, as_fraction

F = Fraction


def cyclo_sum(items):
    """The term-by-term reference sum: one Cyclo add per item."""
    return sum(items, Cyclo())


def test_unit_phase_group_law():
    a = UnitPhase(F(3, 4))
    b = UnitPhase(F(1, 2))
    assert (a * b).phase == F(1, 4)
    assert (a**4).phase == 0
    assert a.conjugate().phase == F(1, 4)


def test_unit_phase_value():
    assert abs(UnitPhase(F(1, 2)).value - (-1)) < 1e-15
    assert abs(UnitPhase(F(1, 4)).value - 1j) < 1e-15


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=24),
    st.fractions(min_value=-50, max_value=50, max_denominator=24),
)
def test_unit_phase_mul_matches_complex(q1, q2):
    a, b = UnitPhase(q1), UnitPhase(q2)
    assert abs((a * b).value - a.value * b.value) < 1e-12


def test_full_character_sum_vanishes():
    for p in (2, 3, 5, 7, 11):
        s = cyclo_sum(phase(F(t, p)) for t in range(p))
        assert s.is_zero()


def test_partial_character_sum_not_zero():
    s = cyclo_sum(phase(F(t, 5)) for t in range(4))
    assert not s.is_zero()
    assert s == -phase(F(4, 5))


def test_mixed_conductor_identities():
    # zeta_6 = -zeta_3^2: e(1/6) + e(2/3)... e(1/6) = -e(2/3)
    assert phase(F(1, 6)) == -phase(F(2, 3))
    # e(1/2) = -1, e(1/4)^2 = -1
    assert phase(F(1, 2)) == Cyclo(-1)
    assert phase(F(1, 4)) * phase(F(1, 4)) == Cyclo(-1)
    # prod of all primitive 4th and 3rd roots
    assert phase(F(1, 3)) * phase(F(1, 4)) == phase(F(7, 12))


def test_sqrt_prime_squares():
    for p in (2, 3, 5, 7, 11, 13):
        s = sqrt_prime(p)
        assert s * s == Cyclo(p)
        assert abs(s.to_complex() - p**0.5) < 1e-9


def test_as_fraction():
    assert as_fraction(Cyclo(F(3, 2))) == F(3, 2)
    assert as_fraction(phase(F(1, 3)) + phase(F(2, 3))) == F(-1)
    assert as_fraction(phase(F(1, 8))) is None
    assert as_fraction(Cyclo(0)) == 0


def test_complex_embedding_exact():
    z = Cyclo(1.5 + 0.25j)
    assert z == Cyclo(F(3, 2)) + phase(F(1, 4)) * F(1, 4)
    assert abs(z.to_complex() - (1.5 + 0.25j)) < 1e-15


def test_abs2_is_one_for_phases():
    for q in (F(1, 3), F(5, 8), F(2, 7), F(11, 12)):
        assert abs2(phase(q)) == Cyclo(1)


def test_abs2_gauss_sum():
    # |g_p|^2 = p for the quadratic Gauss sum
    for p in (3, 5, 7):
        g = cyclo_sum(phase(F(t * t, p)) for t in range(p))
        assert abs2(g) == Cyclo(p)


def test_arithmetic_and_division():
    a = phase(F(1, 5)) * 3 + F(1, 2)
    b = a / 2
    assert b * 2 == a
    assert (a - a).is_zero()
    with pytest.raises(TypeError):
        a / phase(F(1, 5))


@given(st.lists(st.tuples(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                          st.fractions(min_value=-9, max_value=9, max_denominator=4)),
                max_size=6))
def test_to_complex_consistent_with_canonical_zero(terms):
    z = Cyclo({})
    for q, c in terms:
        z = z + phase(q) * c
    w = z - z
    assert w.is_zero()
    assert abs(w.to_complex()) < 1e-12


def test_to_complex_numeric():
    z = phase(F(1, 3))
    assert abs(z.to_complex() - cmath.exp(2j * cmath.pi / 3)) < 1e-15


_PHASES = st.fractions(min_value=-2, max_value=2, max_denominator=36)
_COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)


def _build(terms):
    return cyclo_sum(phase(q) * c for q, c in terms)


def _bits(z: complex):
    return z.real.hex(), z.imag.hex()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.tuples(_PHASES, _COEFFS), min_size=1, max_size=6),
       st.integers(min_value=0), st.sampled_from([2, 3, 5, 7]))
def test_two_builds_of_one_value_are_indistinguishable(terms, pick, p):
    # rewrite one term through e(q) = -sum_{i=1}^{p-1} e(q + i/p)
    k = pick % len(terms)
    q, c = terms[k]
    rewritten = terms[:k] + [(q + F(i, p), -c) for i in range(1, p)] + terms[k + 1:]
    x, y = _build(terms), _build(rewritten)
    assert x == y
    assert hash(x) == hash(y)
    assert x.canonical() == y.canonical()
    assert _bits(x.to_complex()) == _bits(y.to_complex())


# few phases and unit coefficients, so that equal pairs are common
_SMALL = st.lists(st.tuples(st.sampled_from([F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 6)]),
                            st.sampled_from([F(-1), F(1)])), max_size=3)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_SMALL, _SMALL)
def test_equality_is_a_zero_difference(t1, t2):
    x, y = _build(t1), _build(t2)
    assert (x == y) == (x - y).is_zero() == (not (x - y))


@pytest.mark.parametrize("x", [0, 3, -7, F(0), F(5, 6), F(-1, 3)])
def test_a_rational_cyclo_hashes_as_its_value(x):
    c = Cyclo(x)
    assert c == x
    assert hash(c) == hash(x)
    assert {x: "found"}[c] == "found"


def test_equal_values_hash_alike_across_types():
    # -1 reached through phases, and a Gaussian rational against its complex
    minus_one = phase(F(1, 3)) + phase(F(2, 3))
    for x in (-1, F(-1), -1.0, complex(-1, 0)):
        assert minus_one == x and hash(minus_one) == hash(x)
    z = Cyclo(F(3, 2)) + phase(F(1, 4)) * F(1, 4)
    assert z == 1.5 + 0.25j and hash(z) == hash(1.5 + 0.25j)
    assert hash(phase(F(3, 4))) == hash(-1j)


# phases over conductors 2^a, 3, 5, 7 and 9, so sums and products mix them
_MIXED_PHASES = st.sampled_from([1, 2, 4, 8, 16, 3, 5, 7, 9]).flatmap(
    lambda n: st.integers(min_value=0, max_value=n - 1).map(lambda j: F(j, n)))
_MIXED = st.lists(st.tuples(_MIXED_PHASES, _COEFFS), max_size=3).map(_build)
_PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@_PROPERTY
@given(_MIXED, _MIXED, _MIXED)
def test_ring_laws_hold_exactly(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    # halves that add back up: equal, and stored alike, so hashed alike
    halves = x * F(1, 2) + x * F(1, 2)
    assert halves == x and hash(halves) == hash(x)


@_PROPERTY
@given(_MIXED)
def test_conjugation_is_an_involution(x):
    assert x.conjugate().conjugate() == x
    assert abs(x.conjugate().to_complex() - x.to_complex().conjugate()) < 1e-9


@_PROPERTY
@given(_MIXED, _MIXED)
def test_product_is_the_expanded_sum_of_canonical_terms(x, y):
    expanded: dict = {}
    for q1, c1 in x.canonical().items():
        for q2, c2 in y.canonical().items():
            q = (q1 + q2) % 1
            expanded[q] = expanded.get(q, 0) + c1 * c2
    assert x * y == Cyclo(expanded)
    assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-9


@_PROPERTY
@given(_MIXED)
def test_stored_terms_are_the_canonical_terms(x):
    # bench/tracing.py sizes a Cyclo by len(_terms): one entry per basis term
    assert len(x._terms) == len(x.canonical())
    n, den, numerators = x.coordinates()
    # a minimal conductor and a reduced denominator
    assert math.gcd(n, *numerators) == 1 and math.gcd(den, *numerators.values()) == 1
    assert Cyclo.from_coordinates(n, den, numerators) == x
    assert x.canonical() == {F(j, n): F(c, den) for j, c in numerators.items()}


def _stored(x: Cyclo):
    n, den, numerators = x.coordinates()
    return n, den, dict(numerators)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=360),
))
def test_phase_of_a_rational_is_the_one_term_cyclo(q):
    # ints, negative and improper fractions, denominators prime to any p
    assert phase(q) == Cyclo({q: 1})
    assert _stored(phase(q)) == _stored(Cyclo({q: 1}))


@_PROPERTY
@given(st.lists(st.tuples(_MIXED_PHASES, _COEFFS), max_size=5))
def test_a_dict_of_phases_is_their_sum(terms):
    # one phase may come twice, as q and as q + 1 past 1, and zero coefficients
    # are dropped
    shifted = {q + 1: c for q, c in terms[::2]}
    shifted.update({q: c for q, c in terms[1::2]})
    shifted[F(7, 3)] = 0
    assert _stored(Cyclo(shifted)) == _stored(cyclo_sum(phase(q) * c for q, c in shifted.items()))


# a string is no scalar either, "1" no more than NaN
@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"),
                               complex(float("nan"), 0), complex(0, float("inf")), "1"])
def test_non_finite_numbers_equal_no_cyclo(x):
    for c in (Cyclo(1), Cyclo(), phase(F(1, 4))):
        assert not c == x and c != x
        assert not x == c and x != c


@pytest.mark.parametrize("q", [0, 7, -3, True, F(-7, 3), F(17, 5), F(-1, 12), F(5, 6),
                               F(7, 1), 0.25, -0.375, 1.5, 0.1])
def test_phase_of_each_argument_type_is_the_one_term_cyclo(q):
    assert phase(q) == Cyclo({q: 1})
    assert _stored(phase(q)) == _stored(Cyclo({q: 1}))
    assert _stored(phase(q)) == _stored(phase(F(q) % 1))


@_PROPERTY
@given(st.lists(st.tuples(_MIXED, st.integers(min_value=-50, max_value=50),
                          st.sampled_from([1, 2, 3, 4, 8, 9, 25, 49, 12, 63])),
                min_size=1, max_size=4))
def test_phase_sum_is_the_sum_of_products(parts):
    # one rewrite onto the basis gives what a product and a sum per part
    # give, stored alike: lifted to one lcm, then normalized
    expected = cyclo_sum(c * phase(F(s, m)) for c, s, m in parts)
    got = phase_sum(parts)
    assert got == expected and _stored(got) == _stored(expected)
    c, _, m = parts[0]
    assert phase_sum([(c, 0, m)]) is c


@_PROPERTY
@given(st.lists(st.tuples(_MIXED, st.integers(min_value=-50, max_value=50),
                          st.sampled_from([1, 2, 3, 4, 8, 9, 25, 49, 12, 63]),
                          st.fractions(min_value=-20, max_value=20, max_denominator=250)),
                min_size=1, max_size=4))
def test_weighted_phase_sum_is_the_sum_of_products(parts):
    # a weight w scales its part: w * c * e(s/m), with one rewrite for all
    expected = cyclo_sum(w * c * phase(F(s, m)) for c, s, m, w in parts)
    got = phase_sum(parts)
    assert got == expected and _stored(got) == _stored(expected)
    # a weight of 1 gives what the unweighted part gives
    assert _stored(phase_sum([(c, s, m, 1) for c, s, m, _ in parts])) == _stored(
        phase_sum([(c, s, m) for c, s, m, _ in parts]))


@_PROPERTY
@given(st.lists(st.tuples(_MIXED, st.integers(min_value=-50, max_value=50),
                          st.sampled_from([1, 2, 3, 4, 8, 9, 25, 49, 12, 63]),
                          st.fractions(min_value=-20, max_value=20, max_denominator=250),
                          st.booleans()),
                min_size=2, max_size=5))
def test_unshifted_parts_are_lifted_without_a_rewrite(parts):
    # a part with s = 0 adds its lifted numerators as they are: the stored
    # numerators, in insertion order too, are those of rewriting every
    # lifted exponent through the expansion table
    parts = [(c, s if shifted else 0, m, w) for c, s, m, w, shifted in parts]
    got = phase_sum(parts)
    n = math.lcm(*(c.coordinates()[0] for c, *_ in parts), *(m for _, _, m, _ in parts))
    den = math.lcm(*(c.coordinates()[1] * w.denominator for c, _, _, w in parts))
    want = _from_exponents(n, den, (
        ((j * (n // cn) + s * (n // m)) % n, a * (den // (cden * w.denominator)) * w.numerator)
        for c, s, m, w in parts
        for cn, cden, numerators in [c.coordinates()] for j, a in numerators.items()))
    assert list(got.coordinates()[2].items()) == list(want.coordinates()[2].items())
    assert _stored(got) == _stored(want)


def test_sqrt_prime_is_the_gauss_sum_of_its_phases():
    # the one rewrite of the p Gauss-sum phases stores what p successive
    # adds store
    for p in primes_up_to(59):
        if p == 2:
            want = cyclo_sum([phase(F(1, 8)), phase(F(7, 8))])
        else:
            g = cyclo_sum(phase(F(t * t, p)) for t in range(p))
            want = g if p % 4 == 1 else g * phase(F(3, 4))
        assert _stored(sqrt_prime(p)) == _stored(want), p
    s = sqrt_prime(2887)
    assert s * s == 2887


def test_equality_compares_stored_forms_through_one_canonical_call(monkeypatch):
    # gauss-grid's heaviest cell ends in this equality: the oracle value
    # against the closed form
    a, b = 245, F(3, 49)
    oracle = integrate_qp(7, quad=(a, b)).value
    closed = gauss_integral_p_exact(7, a, b)
    pairs = [
        (oracle, closed, True),
        (closed, oracle, True),
        (oracle, closed * phase(F(1, 7)), False),
        (oracle, closed + F(1, 2), False),
        (oracle, -closed, False),
        (Cyclo(), Cyclo(0), True),
        (Cyclo(1), Cyclo(), False),
        (Cyclo(F(3, 2)), Cyclo(F(3, 2)), True),
        (Cyclo(F(3, 2)), Cyclo(F(3, 4)), False),
        (phase(F(1, 4)), Cyclo(1j), True),
        (phase(F(1, 6)), -phase(F(2, 3)), True),
        (phase(F(1, 3)), phase(F(2, 3)), False),
        (sqrt_prime(5), phase_sum([(Cyclo(1), t * t, 5) for t in range(5)]), True),
    ]
    built, canonical_calls = [], []
    new, canonical = Fraction.__new__, Cyclo.canonical

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def counted_canonical(self):
        canonical_calls.append(self)
        return canonical(self)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(Cyclo, "canonical", counted_canonical)
    F(1, 3)
    assert len(built) == 1  # the spy sees a Fraction being built
    results = []
    for x, y, equal in pairs:
        for op, want in ((operator.eq, equal), (operator.ne, not equal)):
            built.clear()
            canonical_calls.clear()
            got = op(x, y)
            results.append((got is want, len(built), len(canonical_calls),
                            canonical_calls[0] is x if canonical_calls else None))
    monkeypatch.undo()
    assert results == [(True, 0, 1, True)] * 2 * len(pairs)


# phases over conductors 1 to 12, with their shifts past 1
_ROUTE_PHASES = [F(j, n) for n in (1, 2, 3, 4, 5, 6, 8, 9, 12) for j in range(n)]


def _draw_terms(rng, phases, coeffs):
    return [(rng.choice(phases) + rng.randrange(2), rng.choice(coeffs))
            for _ in range(rng.randrange(4))]


def _rewritten(rng, terms):
    """The same value with one term rewritten through
    e(q) = -sum_{i=1}^{p-1} e(q + i/p), in shuffled order."""
    terms = list(terms)
    if terms:
        k, p = rng.randrange(len(terms)), rng.choice([2, 3, 5])
        q, c = terms.pop(k)
        terms += [(q + F(i, p), -c) for i in range(1, p)]
    rng.shuffle(terms)
    return terms


def _by_add(terms, rng):
    return sum((Cyclo({q: c}) for q, c in terms), Cyclo())


def _by_mul(terms, rng):
    return sum((phase(q / 2) * phase(q / 2) * c for q, c in terms), Cyclo())


def _by_phase_sum(terms, rng):
    return phase_sum([(Cyclo(1), q.numerator, q.denominator, c) for q, c in terms])


def _by_dict(terms, rng):
    merged: dict = {}
    for q, c in terms:
        merged[q] = merged.get(q, 0) + c
    return Cyclo(merged)


def _by_coordinates(terms, rng):
    # the stored form scaled up, with zero numerators: not normalized
    n, den, numerators = _by_add(terms, rng).coordinates()
    k, g = rng.choice([1, 2, 3, 6]), rng.choice([1, 2, 5])
    raw = {j * k: c * g for j, c in numerators.items()}
    for j in (1, 2):
        raw.setdefault(j, 0)
    return Cyclo.from_coordinates(n * k, den * g, raw)


_ROUTES = (_by_add, _by_mul, _by_phase_sum, _by_dict, _by_coordinates)


def test_equality_is_equality_of_the_canonical_dicts_over_every_route():
    rng = random.Random("cyclo-equality")
    coeffs = [F(k, d) for k in range(-3, 4) if k for d in (1, 2, 3)]
    verdicts = []
    for _ in range(300):
        terms = _draw_terms(rng, _ROUTE_PHASES, coeffs)
        route = rng.randrange(3)
        if route == 0:
            other = _rewritten(rng, terms)
        elif route == 1:  # one more term: most such pairs differ
            other = list(terms) + [(rng.choice(_ROUTE_PHASES), rng.choice(coeffs))]
        else:  # rescaled: the same numerators over another denominator, or negated
            r = rng.choice([F(1, 2), F(2), F(3, 2), F(-1)])
            other = _rewritten(rng, [(q, c * r) for q, c in terms])
        x = rng.choice(_ROUTES)(terms, rng)
        y = rng.choice(_ROUTES)(other, rng)
        equal = dict(x.canonical()) == dict(y.canonical())
        assert (x == y) is equal and (y == x) is equal and (x != y) is not equal
        assert (x.canonical() == y.canonical()) is equal
        assert (x.canonical() == dict(y.canonical())) is equal
        if equal:
            assert hash(x) == hash(y)
        verdicts.append(equal)
    assert verdicts.count(True) >= 90 and verdicts.count(False) >= 90


def test_equal_values_hash_alike_against_python_scalars():
    # Gaussian rationals with dyadic coefficients, so that floats and
    # complexes hold them exactly
    rng = random.Random("cyclo-scalars")
    quarters = [F(j, 4) for j in range(4)]
    coeffs = [F(k, 2**e) for k in range(-9, 10) if k for e in range(4)]
    units = {F(0): (1, 0), F(1, 4): (0, 1), F(1, 2): (-1, 0), F(3, 4): (0, -1)}
    for _ in range(200):
        terms = _draw_terms(rng, quarters, coeffs)
        re = sum((c * units[q % 1][0] for q, c in terms), F(0))
        im = sum((c * units[q % 1][1] for q, c in terms), F(0))
        x = rng.choice(_ROUTES)(_rewritten(rng, terms), rng)
        scalars = [complex(float(re), float(im))]
        if not im:
            scalars += [re, float(re)] + ([int(re)] if re.denominator == 1 else [])
        for s in scalars:
            assert x == s and s == x and not x != s and hash(x) == hash(s)
            assert x != s + 1 and s + 1 != x


def test_the_canonical_view_is_a_read_only_mapping():
    rng = random.Random("cyclo-view")
    coeffs = [F(k, d) for k in range(-3, 4) if k for d in (1, 2, 3)]
    missing = F(1, 10**9 + 7)  # no basis phase of any drawn value
    for _ in range(60):
        x = rng.choice(_ROUTES)(_draw_terms(rng, _ROUTE_PHASES, coeffs), rng)
        view, d = x.canonical(), _fractions(x)
        assert view == d and d == view
        assert view == MappingProxyType(d) and MappingProxyType(d) == view
        assert list(view) == list(d) and list(view.items()) == list(d.items())
        assert len(view) == len(d) == len(x.coordinates()[2])
        for q, c in d.items():
            assert view.get(q) == view[q] == c and q in view
        assert view.get(missing) is None and missing not in view
        with pytest.raises(KeyError):
            view[missing]
        with pytest.raises(TypeError):
            view[F(0)] = F(1)
        with pytest.raises(TypeError):
            del view[F(0)]
        with pytest.raises(TypeError):
            hash(view)
        assert view != {**d, missing: F(1)} and view != MappingProxyType({**d, missing: F(1)})
