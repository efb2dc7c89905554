"""Exact p-adic arithmetic on rationals.

Valuations, norms, canonical digit expansions and fractional parts are
computed exactly with ``fractions.Fraction``; no completion of Q is ever
constructed.  ``PAdicApprox`` models an element of Q_p known modulo p**N
through a rational approximant, with conservative precision propagation.

A valuation v(x) is a plain ``int``.  v(0) = +infinity is not one, so
``valuation(0, p)`` raises ``ValueError`` and callers that can meet an
exact 0 test for it first; ``PAdicApprox.valuation()`` returns None for
an approximant that is 0 mod p**N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .primes import require_prime

Rat = Fraction


def _split(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p**v * u and p not dividing u, for a nonzero int n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def valuation(r: Rat | int, p: int) -> int:
    """The exponent v with r = p**v * (s/t), p dividing neither s nor t.

    v(0) = +infinity is no integer: r = 0 raises ``ValueError``."""
    require_prime(p)
    r = Fraction(r)
    if r == 0:
        raise ValueError("valuation of 0 is infinite")
    return _split(r.numerator, p)[0] - _split(r.denominator, p)[0]


def padic_norm(r: Rat | int, p: int) -> Fraction:
    """|r|_p = p**(-v_p(r)) as an exact rational; |0|_p = 0."""
    require_prime(p)
    if Fraction(r) == 0:
        return Fraction(0)
    v = valuation(r, p)
    return Fraction(1, p**v) if v >= 0 else Fraction(p**-v)


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


def digits(r: Rat | int, p: int, count: int) -> tuple[int, list[int]]:
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
    require_prime(p)
    mod = p**modulus_exp
    num, den = _split(r.numerator, p)[1], _split(r.denominator, p)[1]
    return num * pow(den, -1, mod) % mod


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

    def valuation(self) -> int | None:
        """v of the approximant, or None when it is 0 mod p**precision
        (indistinguishable from 0 at this precision)."""
        if self.approximant == 0:
            return None
        v = valuation(self.approximant, self.prime)
        return None if v >= self.precision else v

    def is_zero_at_precision(self) -> bool:
        return self.valuation() is None

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
        if va is None or vb is None:
            # product indistinguishable from 0; precision is the best bound
            n = min(
                self.precision + (vb or 0),
                other.precision + (va or 0),
                self.precision + other.precision,
            )
            return PAdicApprox(self.prime, Fraction(0), n)
        n = min(self.precision + vb, other.precision + va)
        return PAdicApprox(self.prime, self.approximant * other.approximant, n)

    def __truediv__(self, other) -> "PAdicApprox":
        other = self._coerce(other)
        self.same_prime(other)
        vb = other.valuation()
        if vb is None:
            raise ZeroDivisionError("division by a value indistinguishable from 0")
        va = self.valuation()
        if va is None:
            return PAdicApprox(self.prime, Fraction(0), self.precision - vb)
        rel = min(self.precision - va, other.precision - vb)
        v = va - vb
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
        d = self.approximant - other.approximant
        return d == 0 or valuation(d, self.prime) >= min(self.precision, other.precision)

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
