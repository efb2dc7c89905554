"""Exact arithmetic with roots of unity.

``UnitPhase`` is a complex number of modulus one whose phase is an exact
rational multiple of 2*pi; products add phases mod 1 with no rounding.
``Cyclo`` is a finite rational linear combination of unit phases, i.e. an
element of a cyclotomic field.  Character sums, ball-indicator Fourier
coefficients and p-adic Gauss integrals all live in ``Cyclo``, so identities
like Plancherel or the stabilization of a residue sum can be tested for
*exact* equality instead of within a float tolerance.

Zero-testing reduces each term to the tensor basis of Q(zeta_N) over the
prime powers dividing the phase denominators: for a prime power q**e the
basis is zeta^j with 0 <= j < phi(q**e), and the single relation
zeta^((q-1)*q**(e-1) + r) = -(zeta^r + zeta^(q**(e-1)+r) + ...) rewrites any
out-of-range exponent.  Phases kept in lowest terms need at most one such
rewrite per prime, so equality tests stay cheap.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Union

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
    """Embed a scalar as a phase->coefficient dict (floats map exactly)."""
    if isinstance(x, Cyclo):
        return dict(x._terms)
    if isinstance(x, UnitPhase):
        return {x.phase: Fraction(1)}
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


class Cyclo:
    """Finite rational combination sum_q c_q * e^(2*pi*i*q), exact."""

    __slots__ = ("_terms",)
    __hash__ = None  # mutable-free but equality is semantic, not structural

    def __init__(self, terms: Scalar | dict[Fraction, Fraction] = ()):
        if isinstance(terms, dict):
            self._terms = {
                Fraction(q) % 1: Fraction(c) for q, c in terms.items() if c != 0
            }
        elif terms == () or terms is None:
            self._terms = {}
        else:
            self._terms = _as_terms(terms)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: Scalar) -> "Cyclo":
        out = dict(self._terms)
        for q, c in _as_terms(other).items():
            s = out.get(q, Fraction(0)) + c
            if s:
                out[q] = s
            else:
                out.pop(q, None)
        return Cyclo(out)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo({q: -c for q, c in self._terms.items()})

    def __sub__(self, other: Scalar) -> "Cyclo":
        return self + (-Cyclo(other))

    def __rsub__(self, other: Scalar) -> "Cyclo":
        return Cyclo(other) + (-self)

    def __mul__(self, other: Scalar) -> "Cyclo":
        out: dict[Fraction, Fraction] = {}
        bterms = _as_terms(other)
        for q1, c1 in self._terms.items():
            for q2, c2 in bterms.items():
                q = (q1 + q2) % 1
                s = out.get(q, Fraction(0)) + c1 * c2
                if s:
                    out[q] = s
                else:
                    out.pop(q, None)
        return Cyclo(out)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Cyclo":
        if isinstance(other, Rational):
            return self * (Fraction(1) / Fraction(other))
        raise TypeError("Cyclo division is only defined by nonzero rationals")

    def conjugate(self) -> "Cyclo":
        return Cyclo({(-q) % 1: c for q, c in self._terms.items()})

    def abs2(self) -> "Cyclo":
        """|z|^2 as an exact Cyclo (z times its conjugate)."""
        return self * self.conjugate()

    # -- canonical form and predicates ------------------------------------

    def canonical(self) -> dict[tuple, Fraction]:
        """Coordinates over the tensor basis of prime-power cyclotomics."""
        out: dict[tuple, Fraction] = {}
        for q, c in self._terms.items():
            for key, sign in _monomial_basis(q):
                s = out.get(key, Fraction(0)) + sign * c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out

    def is_zero(self) -> bool:
        return not self.canonical()

    def __eq__(self, other) -> bool:
        try:
            return (self - other).is_zero()
        except TypeError:
            return NotImplemented

    def __bool__(self) -> bool:
        return not self.is_zero()

    def as_fraction(self) -> Fraction | None:
        """The exact rational value, or None if irrational."""
        can = self.canonical()
        if not can:
            return Fraction(0)
        if len(can) == 1 and () in can:
            return can[()]
        return None

    # -- numeric boundary --------------------------------------------------

    def to_complex(self) -> complex:
        return sum(
            (float(c) * cmath.exp(1j * _TWO_PI * float(q)) for q, c in self._terms.items()),
            0j,
        )

    __complex__ = to_complex

    def __repr__(self):
        if not self._terms:
            return "Cyclo(0)"
        bits = " + ".join(f"{c}*e(2pi i {q})" for q, c in sorted(self._terms.items()))
        return f"Cyclo({bits})"


_MONOMIAL_CACHE: dict[Fraction, tuple] = {}


def _monomial_basis(q: Fraction) -> tuple:
    """Expand e^(2*pi*i*q) over the canonical tensor basis.

    Returns a tuple of (key, sign) pairs where key is a sorted tuple of
    (prime, exponent_of_conductor, power) triples, omitting trivial factors.
    """
    hit = _MONOMIAL_CACHE.get(q)
    if hit is not None:
        return hit
    n = q.denominator
    a = q.numerator % n
    # CRT split: a/n = sum over prime powers q^e || n of a_qe / q^e (mod 1)
    per_prime: list[list[tuple[tuple, int]]] = []
    for p, e in sorted(factorize(n).items()) if n > 1 else []:
        pe = p**e
        cof = n // pe
        j = (a * pow(cof, -1, pe)) % pe
        phi = pe - pe // p
        if j < phi:
            per_prime.append([((p, e, j), 1)] if j else [((), 1)])
        else:
            # zeta^((p-1)p^(e-1)+r) = -sum_i zeta^(i p^(e-1)+r)
            r = j - (p - 1) * (pe // p)
            alts = []
            for i in range(p - 1):
                jj = i * (pe // p) + r
                alts.append((((p, e, jj) if jj else ()), -1))
            per_prime.append(alts)
    if not per_prime:
        result = (((), 1),)
        _MONOMIAL_CACHE[q] = result
        return result
    # tensor the per-prime expansions
    combos: list[tuple[list, int]] = [([], 1)]
    for alts in per_prime:
        combos = [
            (key + ([part] if part else []), sign * s)
            for key, sign in combos
            for part, s in alts
        ]
    result = tuple((tuple(sorted(key)), sign) for key, sign in combos)
    _MONOMIAL_CACHE[q] = result
    return result


def phase(q: Fraction | int) -> Cyclo:
    """The unit phase e^(2*pi*i*q) as a Cyclo."""
    return Cyclo({Fraction(q) % 1: Fraction(1)})


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
