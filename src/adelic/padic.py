"""Exact p-adic arithmetic on rationals.

Valuations, norms, canonical digit expansions and fractional parts are
computed exactly with ``fractions.Fraction``; no completion of Q is ever
constructed.  ``PAdicApprox`` models an element of Q_p known modulo p**N
through a rational approximant, with conservative precision propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .primes import require_prime

Rat = Fraction


@total_ordering
class Valuation:
    """A p-adic valuation: an integer, or +infinity for the zero element.

    The infinite value is a tagged state, never a sentinel integer, so
    accidental arithmetic on it raises instead of silently propagating.
    """

    __slots__ = ("_v",)

    def __init__(self, v: int | None):
        self._v = None if v is None else int(v)

    @classmethod
    def infinite(cls) -> "Valuation":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self._v is None

    @property
    def value(self) -> int:
        if self._v is None:
            raise ValueError("valuation of 0 is infinite")
        return self._v

    def __add__(self, other):
        if isinstance(other, int):
            return self if self.is_infinite else Valuation(self._v + other)
        if isinstance(other, Valuation):
            if self.is_infinite or other.is_infinite:
                return Valuation.infinite()
            return Valuation(self._v + other._v)
        return NotImplemented

    __radd__ = __add__

    def __eq__(self, other):
        if isinstance(other, Valuation):
            return self._v == other._v
        if isinstance(other, int):
            return self._v == other
        return NotImplemented

    def __lt__(self, other):
        sv = float("inf") if self.is_infinite else self._v
        if isinstance(other, Valuation):
            ov = float("inf") if other.is_infinite else other._v
        elif isinstance(other, (int, float)):
            ov = other
        else:
            return NotImplemented
        return sv < ov

    def __hash__(self):
        return hash(self._v)

    def __repr__(self):
        return "Valuation(+inf)" if self.is_infinite else f"Valuation({self._v})"


def _split(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p**v * u and p not dividing u, for a nonzero int n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def valuation(r: Rat | int, p: int) -> Valuation:
    """The exponent v with r = p**v * (s/t), p dividing neither s nor t."""
    require_prime(p)
    r = Fraction(r)
    if r == 0:
        return Valuation.infinite()
    return Valuation(_split(r.numerator, p)[0] - _split(r.denominator, p)[0])


def padic_norm(r: Rat | int, p: int) -> Fraction:
    """|r|_p = p**(-v_p(r)) as an exact rational; |0|_p = 0."""
    v = valuation(r, p)
    if v.is_infinite:
        return Fraction(0)
    return Fraction(1, p**v.value) if v.value >= 0 else Fraction(p ** (-v.value))


def frac_part(r: Rat | int, p: int) -> Fraction:
    """The p-adic fractional part {r}_p: the unique q = m/p**k with
    0 <= q < 1 such that r - q is p-integral, ``reduce_mod(r, p, 0)``.

    Equals the negative-power tail of the canonical digit expansion.
    """
    return reduce_mod(r, p, 0)


def reduce_mod(c: Rat | int, p: int, k: int) -> Fraction:
    """The unique q in Z[1/p] with 0 <= q < p**k and v_p(c - q) >= k.

    The k = 0 case is ``frac_part``; in general it is the canonical
    representative of c modulo the ball p**k Z_p.
    """
    require_prime(p)
    c = Fraction(c)
    if c == 0:
        return Fraction(0)
    # write c = a / (b * p**j) with p not dividing b
    j, b = _split(c.denominator, p)
    if j + k <= 0:
        return Fraction(0)  # v_p(c) = -j >= k already
    modulus = p ** (j + k)
    m = c.numerator * pow(b, -1, modulus) % modulus
    return Fraction(m, p**j)


def digits(r: Rat | int, p: int, count: int) -> tuple[Valuation, list[int]]:
    """Leading digits of the canonical expansion r = p**v (x0 + x1 p + ...).

    Returns (v, [x0..x_{count-1}]) with x0 != 0.  Undefined for r = 0.
    """
    require_prime(p)
    if count < 1:
        raise ValueError("count must be >= 1")
    r = Fraction(r)
    if r == 0:
        raise ValueError("0 has no canonical leading digit")
    v = valuation(r, p)
    m = unit_part_mod(r, p, count)
    out = []
    for _ in range(count):
        m, d = divmod(m, p)
        out.append(d)
    return v, out


def unit_part_mod(r: Rat | int, p: int, modulus_exp: int) -> int:
    """The unit part u of r = p**v * u reduced modulo p**modulus_exp."""
    r = Fraction(r)
    if r == 0:
        raise ValueError("0 has no unit part")
    unit = r / Fraction(p) ** valuation(r, p).value
    mod = p**modulus_exp
    return unit.numerator * pow(unit.denominator, -1, mod) % mod


@dataclass(frozen=True)
class PAdicApprox:
    """A p-adic value known modulo p**precision via a rational approximant.

    ``approximant`` is exact; only the congruence class mod p**precision is
    meaningful.  Arithmetic propagates precision conservatively:
    addition min(Na, Nb); multiplication min(Na + vb, Nb + va); division by
    the matching relative-precision rule.
    """

    prime: int
    approximant: Fraction
    precision: int

    def __post_init__(self):
        require_prime(self.prime)
        object.__setattr__(self, "approximant", Fraction(self.approximant))

    def valuation(self) -> Valuation:
        v = valuation(self.approximant, self.prime)
        if not v.is_infinite and v.value >= self.precision:
            return Valuation.infinite()  # indistinguishable from 0 at this precision
        return v

    def is_zero_at_precision(self) -> bool:
        return self.valuation().is_infinite

    def same_prime(self, other: "PAdicApprox"):
        if self.prime != other.prime:
            raise ValueError("mixed primes in p-adic arithmetic")

    def __add__(self, other: "PAdicApprox | int | Fraction") -> "PAdicApprox":
        other = self._coerce(other)
        self.same_prime(other)
        return PAdicApprox(
            self.prime,
            self.approximant + other.approximant,
            min(self.precision, other.precision),
        )

    def __neg__(self) -> "PAdicApprox":
        return PAdicApprox(self.prime, -self.approximant, self.precision)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "PAdicApprox":
        other = self._coerce(other)
        self.same_prime(other)
        va, vb = self.valuation(), other.valuation()
        if va.is_infinite or vb.is_infinite:
            # product indistinguishable from 0; precision is the best bound
            n = min(
                self.precision + (0 if vb.is_infinite else vb.value),
                other.precision + (0 if va.is_infinite else va.value),
                self.precision + other.precision,
            )
            return PAdicApprox(self.prime, Fraction(0), n)
        n = min(self.precision + vb.value, other.precision + va.value)
        return PAdicApprox(self.prime, self.approximant * other.approximant, n)

    def __truediv__(self, other) -> "PAdicApprox":
        other = self._coerce(other)
        self.same_prime(other)
        vb = other.valuation()
        if vb.is_infinite:
            raise ZeroDivisionError("division by a value indistinguishable from 0")
        va = self.valuation()
        if va.is_infinite:
            return PAdicApprox(self.prime, Fraction(0), self.precision - vb.value)
        rel = min(self.precision - va.value, other.precision - vb.value)
        v = va.value - vb.value
        return PAdicApprox(self.prime, self.approximant / other.approximant, v + rel)

    def _coerce(self, x) -> "PAdicApprox":
        if isinstance(x, PAdicApprox):
            return x
        return PAdicApprox(self.prime, Fraction(x), self.precision)

    def congruent(self, other: "PAdicApprox") -> bool:
        """Equality in the only sense available: indistinguishable at the
        coarser of the two precisions."""
        other = self._coerce(other)
        self.same_prime(other)
        n = min(self.precision, other.precision)
        d = valuation(self.approximant - other.approximant, self.prime)
        return d.is_infinite or d.value >= n

    def frac_part(self) -> Fraction:
        """{x}_p, well defined only when the class mod p**N pins it down."""
        if self.precision < 0:
            raise PrecisionError(
                f"fractional part needs precision >= 0, have {self.precision}"
            )
        return frac_part(self.approximant, self.prime)

    def __repr__(self):
        return f"PAdicApprox({self.prime}, {self.approximant}, mod p^{self.precision})"


class PrecisionError(ValueError):
    """A p-adic quantity was requested beyond the precision that determines it."""


def from_rational(r: Rat | int, p: int, precision: int) -> PAdicApprox:
    return PAdicApprox(p, Fraction(r), precision)
