import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from adelic.cyclotomic import Cyclo, UnitPhase, _from_exponents, phase, phase_sum, sqrt_prime
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
    assert minus_one == -1 and hash(minus_one) == hash(-1)
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
