from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from adelic.padic import (
    PAdicApprox,
    PrecisionError,
    digits,
    frac_part,
    from_rational,
    padic_norm,
    reduce_mod,
    unit_part_mod,
    valuation,
)

F = Fraction

rationals = st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=10**4)
small_primes = st.sampled_from([2, 3, 5, 7, 11])


class TestValuation:
    def test_examples(self):
        assert valuation(12, 2) == 2  # 12 = 2^2 * 3
        assert valuation(F(9, 8), 2) == -3  # 9/8 = 2^-3 * 9
        assert type(valuation(12, 2)) is int

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            valuation(12, 4)

    def test_zero_raises(self):
        for p in (2, 7):
            with pytest.raises(ValueError, match="^valuation of 0 is infinite$"):
                valuation(0, p)
            with pytest.raises(ValueError, match="^valuation of 0 is infinite$"):
                valuation(F(0, 5), p)

    def test_non_prime_is_reported_before_zero(self):
        for call in (lambda: valuation(0, 4), lambda: padic_norm(0, 4),
                     lambda: unit_part_mod(3, 4, 2), lambda: digits(3, 4, 2)):
            with pytest.raises(ValueError, match="^expected a prime number, got 4$"):
                call()

    @given(rationals, small_primes)
    def test_defining_property(self, r, p):
        if r == 0:
            with pytest.raises(ValueError):
                valuation(r, p)
        else:
            unit = r / F(p) ** valuation(r, p)
            assert unit.numerator % p != 0
            assert unit.denominator % p != 0

    @given(rationals.filter(lambda r: r != 0), rationals.filter(lambda r: r != 0),
           small_primes)
    def test_product_and_ultrametric(self, x, y, p):
        vx, vy = valuation(x, p), valuation(y, p)
        assert valuation(x * y, p) == vx + vy
        if x + y != 0:
            v = valuation(x + y, p)
            assert v >= min(vx, vy)
            if vx != vy:
                assert v == min(vx, vy)
        else:
            assert vx == vy  # x + y = 0 forces v(x) = v(-x) = v(y)


class TestNorm:
    def test_examples(self):
        assert padic_norm(12, 2) == F(1, 4)
        assert padic_norm(F(3, 2), 3) == F(1, 3)
        assert padic_norm(7, 5) == 1
        assert padic_norm(0, 3) == 0

    @given(rationals, rationals, small_primes)
    def test_ultrametric(self, x, y, p):
        assert padic_norm(x + y, p) <= max(padic_norm(x, p), padic_norm(y, p))

    @given(rationals, rationals, small_primes)
    def test_multiplicative(self, x, y, p):
        assert padic_norm(x * y, p) == padic_norm(x, p) * padic_norm(y, p)


class TestFracPart:
    def test_examples(self):
        assert frac_part(F(9, 8), 2) == F(1, 8)
        # -1/2 = 1/2 + (-1), and -1 is 2-integral
        assert frac_part(F(-1, 2), 2) == F(1, 2)
        assert frac_part(7, 5) == 0

    @given(rationals, small_primes)
    def test_contract(self, r, p):
        q = frac_part(r, p)
        assert 0 <= q < 1
        diff = r - q
        assert diff == 0 or valuation(diff, p) >= 0
        if r != 0 and valuation(r, p) < 0:
            scaled = q * F(p) ** (-valuation(r, p))
            assert scaled.denominator == 1


class TestReduceMod:
    def test_frac_part_special_case(self):
        for r in (F(9, 8), F(-1, 2), F(7, 3), F(22, 45)):
            for p in (2, 3, 5):
                assert reduce_mod(r, p, 0) == frac_part(r, p)

    @given(rationals, small_primes, st.integers(min_value=-3, max_value=4))
    def test_contract(self, c, p, k):
        q = reduce_mod(c, p, k)
        assert 0 <= q < F(p) ** k or q == 0
        assert c == q or valuation(c - q, p) >= k
        # q has only p-power denominator
        den = q.denominator
        while den % p == 0:
            den //= p
        assert den == 1


class TestDigits:
    def test_examples(self):
        assert digits(F(1, 3), 3, 3) == (-1, [1, 0, 0])
        assert digits(-1, 2, 4) == (0, [1, 1, 1, 1])
        assert digits(12, 2, 3) == (2, [1, 1, 0])
        assert type(digits(12, 2, 3)[0]) is int

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            digits(0, 2, 3)

    @given(rationals.filter(lambda r: r != 0), small_primes,
           st.integers(min_value=1, max_value=8))
    def test_round_trip(self, r, p, count):
        v, ds = digits(r, p, count)
        assert ds[0] != 0
        assert all(0 <= d < p for d in ds)
        recon = F(p) ** v * sum(F(d) * F(p) ** i for i, d in enumerate(ds))
        assert r == recon or valuation(r - recon, p) >= v + count


class TestPAdicApprox:
    def test_addition_precision(self):
        a = from_rational(F(1, 3), 5, 4)
        b = from_rational(7, 5, 6)
        assert (a + b).precision == 4
        assert (a + b).approximant == F(22, 3)

    def test_multiplication_precision(self):
        # N = min(Na + vb, Nb + va)
        a = from_rational(5, 5, 4)       # v = 1
        b = from_rational(F(1, 5), 5, 6)  # v = -1
        prod = a * b
        assert prod.precision == min(4 + (-1), 6 + 1) == 3
        assert prod.approximant == 1
        # a factor 0 mod p^N still lends the other's valuation to the bound
        z = from_rational(125, 5, 3)     # v = None at precision 3
        c = from_rational(5, 5, 4)       # v = 1
        assert (z * c).precision == (c * z).precision == min(3 + 1, 4 + 0, 3 + 4) == 4
        assert (z * c).approximant == 0

    def test_division_relative_precision(self):
        a = from_rational(25, 5, 8)  # v = 2, rel = 6
        b = from_rational(5, 5, 4)   # v = 1, rel = 3
        q = a / b
        assert q.approximant == 5
        assert q.precision == (2 - 1) + min(6, 3)

    def test_congruence(self):
        a = from_rational(2, 7, 2)
        b = from_rational(2 + 49, 7, 2)
        c = from_rational(2 + 7, 7, 2)
        assert a.congruent(b)
        assert not a.congruent(c)

    def test_valuation_at_the_precision_boundary(self):
        assert PAdicApprox(5, F(25), 2).valuation() is None
        assert PAdicApprox(5, F(25), 3).valuation() == 2
        assert PAdicApprox(5, F(0), 3).valuation() is None
        assert type(PAdicApprox(5, F(25), 3).valuation()) is int

    def test_zero_detection_and_division_guard(self):
        z = from_rational(125, 5, 3)
        assert z.is_zero_at_precision()
        with pytest.raises(ZeroDivisionError):
            from_rational(1, 5, 3) / z

    def test_frac_part_precision_guard(self):
        x = PAdicApprox(5, F(1, 5), 2)
        assert x.frac_part() == F(1, 5)
        bad = PAdicApprox(5, F(1, 5), -1)
        with pytest.raises(PrecisionError):
            bad.frac_part()

    @given(rationals, rationals, small_primes,
           st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    def test_add_precision_is_honest(self, ra, rb, p, na, nb):
        # perturb b by p^nb: the sum must stay congruent at min precision
        a = from_rational(ra, p, na)
        b = from_rational(rb, p, nb)
        b_pert = from_rational(rb + F(p) ** nb, p, nb)
        s1, s2 = a + b, a + b_pert
        assert s1.congruent(s2)

    @given(rationals.filter(lambda r: r != 0), rationals.filter(lambda r: r != 0),
           small_primes, st.integers(min_value=2, max_value=8),
           st.integers(min_value=2, max_value=8))
    def test_mul_precision_is_honest(self, ra, rb, p, na, nb):
        a = from_rational(ra, p, na)
        b = from_rational(rb, p, nb)
        b_pert = from_rational(rb + F(p) ** nb, p, nb)
        m1, m2 = a * b, a * b_pert
        assert m1.congruent(m2)
