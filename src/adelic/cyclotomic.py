"""Exact arithmetic with roots of unity.

``UnitPhase`` is a complex number of modulus one whose phase is an exact
rational multiple of 2*pi; products add phases mod 1 with no rounding.
``Cyclo`` is a finite rational linear combination of unit phases, i.e. an
element of a cyclotomic field.  Character sums, ball-indicator Fourier
coefficients and p-adic Gauss integrals all live in ``Cyclo``, so identities
like Plancherel or the stabilization of a residue sum can be tested for
*exact* equality instead of within a float tolerance.

A ``Cyclo`` is held in canonical form: its coordinates over the power basis
of Q(zeta_N), tensored over the prime powers p**e dividing N.  Each basis
element is itself a phase, the sum of one j/p**e with 0 <= j < phi(p**e)
per prime power, and the single relation
zeta^((p-1)*p**(e-1) + r) = -(zeta^r + zeta^(p**(e-1)+r) + ...) rewrites
any out-of-range j.  Construction, conjugation and products reduce through
that rewrite once; sums and negations keep basis phases as they are.  So
equality is dict equality, zero is the empty dict, and values hash.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .primes import factorize

_TWO_PI = 2.0 * 3.141592653589793

Scalar = Union[int, Fraction, float, complex, "UnitPhase", "Cyclo"]


@dataclass(frozen=True)
class UnitPhase:
    """e^(2*pi*i*phase) with phase an exact rational reduced mod 1."""

    phase: Fraction

    def __post_init__(self):
        q = Fraction(self.phase) % 1
        object.__setattr__(self, "phase", q)

    def __mul__(self, other: "UnitPhase") -> "UnitPhase":
        if isinstance(other, UnitPhase):
            return UnitPhase(self.phase + other.phase)
        return NotImplemented

    def __pow__(self, n: int) -> "UnitPhase":
        return UnitPhase(self.phase * n)

    def conjugate(self) -> "UnitPhase":
        return UnitPhase(-self.phase)

    @property
    def value(self) -> complex:
        return cmath.exp(1j * _TWO_PI * float(self.phase))

    def __complex__(self) -> complex:
        return self.value

    def as_cyclo(self) -> "Cyclo":
        return Cyclo({self.phase: Fraction(1)})

    def __repr__(self):
        return f"UnitPhase({self.phase})"


ONE_PHASE = UnitPhase(Fraction(0))


def _as_terms(x: Scalar) -> dict[Fraction, Fraction]:
    """A scalar's canonical terms (floats map exactly)."""
    if isinstance(x, Cyclo):
        return x._terms
    if isinstance(x, UnitPhase):
        return {q: Fraction(s) for q, s in _monomial_basis(x.phase)}
    if isinstance(x, Rational):  # int, Fraction
        return {Fraction(0): Fraction(x)} if x != 0 else {}
    if isinstance(x, float):
        return {Fraction(0): Fraction(x)} if x != 0.0 else {}
    if isinstance(x, complex):
        terms: dict[Fraction, Fraction] = {}
        if x.real != 0.0:
            terms[Fraction(0)] = Fraction(x.real)
        if x.imag != 0.0:
            terms[Fraction(1, 4)] = Fraction(x.imag)
        return terms
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact scalar")


def _reduce(pairs: Iterable[tuple[Fraction, Fraction]]) -> dict[Fraction, Fraction]:
    """The canonical terms of sum c * e(q) over (q, c) pairs, 0 <= q < 1, c != 0."""
    out: dict[Fraction, Fraction] = {}
    for q, c in pairs:
        for b, sign in _monomial_basis(q):
            s = out.get(b, 0) + sign * c
            if s:
                out[b] = s
            else:
                del out[b]
    return out


class Cyclo:
    """Finite rational combination sum_q c_q * e^(2*pi*i*q), exact.

    ``_terms`` is the canonical form: basis phase -> nonzero coefficient.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Scalar | dict[Fraction, Fraction] | None = None):
        if terms is None:
            self._terms = {}
        elif isinstance(terms, dict):
            self._terms = _reduce((Fraction(q) % 1, Fraction(c)) for q, c in terms.items() if c)
        else:
            self._terms = _as_terms(terms)

    @classmethod
    def _of(cls, terms: dict[Fraction, Fraction]) -> "Cyclo":
        """Wrap terms that are already canonical."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    # -- ring operations -------------------------------------------------

    def __add__(self, other: Scalar) -> "Cyclo":
        out = dict(self._terms)
        for q, c in _as_terms(other).items():
            s = out.get(q, 0) + c
            if s:
                out[q] = s
            else:
                del out[q]
        return Cyclo._of(out)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo._of({q: -c for q, c in self._terms.items()})

    def __sub__(self, other: Scalar) -> "Cyclo":
        return self + (-Cyclo(other))

    def __rsub__(self, other: Scalar) -> "Cyclo":
        return Cyclo(other) + (-self)

    def __mul__(self, other: Scalar) -> "Cyclo":
        bterms = _as_terms(other)
        return Cyclo._of(_reduce(
            ((q1 + q2) % 1, c1 * c2)
            for q1, c1 in self._terms.items()
            for q2, c2 in bterms.items()
        ))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Cyclo":
        if isinstance(other, Rational):
            return self * (Fraction(1) / Fraction(other))
        raise TypeError("Cyclo division is only defined by nonzero rationals")

    def conjugate(self) -> "Cyclo":
        return Cyclo({-q: c for q, c in self._terms.items()})

    def abs2(self) -> "Cyclo":
        """|z|^2 as an exact Cyclo (z times its conjugate)."""
        return self * self.conjugate()

    # -- canonical form and predicates ------------------------------------

    def canonical(self) -> Mapping[Fraction, Fraction]:
        """The coordinates over the basis: basis phase -> coefficient."""
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        # through canonical(): bench/tracing.py counts equality tests there
        try:
            return self.canonical() == _as_terms(other)
        except TypeError:
            return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def as_fraction(self) -> Fraction | None:
        """The exact rational value, or None if irrational."""
        if not self._terms:
            return Fraction(0)
        return self._terms.get(0) if len(self._terms) == 1 else None

    # -- numeric boundary --------------------------------------------------

    def to_complex(self) -> complex:
        """Summed in phase order, so equal values give the same float."""
        terms = sorted(self._terms.items())
        return sum((float(c) * cmath.exp(1j * _TWO_PI * float(q)) for q, c in terms), 0j)

    __complex__ = to_complex

    def __repr__(self):
        if not self._terms:
            return "Cyclo(0)"
        bits = " + ".join(f"{c}*e(2pi i {q})" for q, c in sorted(self._terms.items()))
        return f"Cyclo({bits})"


_MONOMIAL_CACHE: dict[Fraction, tuple] = {}


def _monomial_basis(q: Fraction) -> tuple[tuple[Fraction, int], ...]:
    """Expand e^(2*pi*i*q), 0 <= q < 1, over the basis as (basis phase,
    sign) pairs: one CRT component j/p**e per prime power of the
    denominator, an out-of-range j rewritten once."""
    hit = _MONOMIAL_CACHE.get(q)
    if hit is not None:
        return hit
    n = q.denominator
    combos = [(0, 1)]  # (numerator over n, sign)
    for p, e in factorize(n).items():
        pe = p**e
        cof = n // pe
        j = (q.numerator * pow(cof, -1, pe)) % pe
        phi = pe - pe // p
        if j < phi:
            alts = [(j, 1)]
        else:
            # zeta^((p-1)p^(e-1)+r) = -sum_i zeta^(i p^(e-1)+r)
            alts = [(i * (pe // p) + j - phi, -1) for i in range(p - 1)]
        combos = [(num + jj * cof, sign * s) for num, sign in combos for jj, s in alts]
    result = tuple((Fraction(num % n, n), sign) for num, sign in combos)
    _MONOMIAL_CACHE[q] = result
    return result


def phase(q: Fraction | int) -> Cyclo:
    """The unit phase e^(2*pi*i*q) as a Cyclo."""
    return Cyclo({q: 1})


def cyclo_sum(items: Iterable[Scalar]) -> Cyclo:
    total = Cyclo()
    for x in items:
        total = total + x
    return total


_SQRT_CACHE: dict[int, Cyclo] = {}


def sqrt_prime(p: int) -> Cyclo:
    """sqrt(p) for a prime p, exactly, as a cyclotomic combination.

    Uses sqrt(2) = zeta_8 + zeta_8^-1 and, for odd p, the quadratic Gauss
    sum g_p = sum_t e^(2*pi*i*t^2/p), which equals sqrt(p) for p = 1 mod 4
    and i*sqrt(p) for p = 3 mod 4.
    """
    hit = _SQRT_CACHE.get(p)
    if hit is not None:
        return hit
    if p == 2:
        out = phase(Fraction(1, 8)) + phase(Fraction(7, 8))
    else:
        g = cyclo_sum(phase(Fraction(t * t, p)) for t in range(p))
        out = g if p % 4 == 1 else g * phase(Fraction(3, 4))
    _SQRT_CACHE[p] = out
    return out


def sqrt_prime_power(p: int, w: int) -> Cyclo:
    """p**(w/2) exactly: a power of p, times sqrt(p) when w is odd."""
    if w % 2 == 0:
        return Cyclo(Fraction(p) ** (w // 2))
    return sqrt_prime(p) * Fraction(p) ** ((w - 1) // 2)
