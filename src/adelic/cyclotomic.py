"""Exact arithmetic with roots of unity.

``UnitPhase`` is a complex number of modulus one whose phase is an exact
rational multiple of 2*pi; products add phases mod 1 with no rounding.
``Cyclo`` is a finite rational linear combination of unit phases, i.e. an
element of a cyclotomic field.  Character sums, ball-indicator Fourier
coefficients and p-adic Gauss integrals all live in ``Cyclo``, so identities
like Plancherel or the stabilization of a residue sum can be tested for
*exact* equality instead of within a float tolerance.

A ``Cyclo`` is stored in integer coordinates: a conductor n, one positive
common denominator den, and ``_terms``, a dict from exponent j to an
integer numerator, for the value sum_j _terms[j] * e(j/n) / den.  The
exponents run over the power basis of Q(zeta_n), tensored over the prime
powers p**e dividing n: the CRT components j/p**e with 0 <= j < phi(p**e).
The single relation
zeta^((p-1)*p**(e-1) + r) = -(zeta^r + zeta^(p**(e-1)+r) + ...) rewrites
any other exponent; each conductor has one lazily filled table of these
(basis exponent, sign) expansions.  A basis exponent of n times m is a
basis exponent of n*m, so sums lift both operands to the lcm of their
conductors and denominators and add numerators; products add exponents mod
that lcm and rewrite through the table, and a rational factor only scales
the numerators.  A whole series sum_i w_i c_i e(s_i/m_i), with rational
weights w_i, is one ``phase_sum``: every part lifted to one conductor and
one denominator and rewritten once, with no Cyclo built per term.  Every
result is normalized: the conductor is minimal
(gcd(n, all j) = 1) and the denominator reduced (gcd(den, all numerators)
= 1).  So the stored form is unique, equality is equality of
(n, den, _terms), zero has no terms, and values hash.  ``canonical()``
gives the same coordinates as basis phase j/n -> coefficient, in
Fractions, through a read-only view: its length is the stored term count,
its ``Fraction`` entries are built on first read, and two views compare
their stored forms.  Equality goes through ``canonical()`` once per test,
so that one call is where an equality can be counted (the benchmark's
tracer does), yet it compares integers and builds no ``Fraction``.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from types import MappingProxyType
from typing import Union

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
        return phase(self.phase)

    def __repr__(self):
        return f"UnitPhase({self.phase})"


ONE_PHASE = UnitPhase(Fraction(0))


class _Expansions(dict):
    """Exponent j mod n -> its (basis exponent, sign) expansion, filled on
    first use: one CRT component j/p**e per prime power of n, an
    out-of-range component rewritten once."""

    __slots__ = ("n", "components")

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        # (p, p**e, n / p**e, its inverse mod p**e) per prime power p**e of n
        self.components = [
            (p, p**e, n // p**e, pow(n // p**e, -1, p**e)) for p, e in factorize(n).items()
        ]

    def __missing__(self, j: int) -> tuple[tuple[int, int], ...]:
        combos = [(0, 1)]  # (exponent over n, sign)
        for p, pe, cof, inv in self.components:
            jp = j * inv % pe
            phi = pe - pe // p
            if jp < phi:
                alts = [(jp, 1)]
            else:
                # zeta^((p-1)p^(e-1)+r) = -sum_i zeta^(i p^(e-1)+r)
                alts = [(i * (pe // p) + jp - phi, -1) for i in range(p - 1)]
            combos = [(x + jj * cof, sign * s) for x, sign in combos for jj, s in alts]
        out = tuple((x % self.n, sign) for x, sign in combos)
        self[j] = out
        return out


class _ExpansionTables(dict):
    """Conductor n -> its expansion table, made on first use."""

    def __missing__(self, n: int) -> _Expansions:
        table = self[n] = _Expansions(n)
        return table


_EXPANSIONS = _ExpansionTables()


class Cyclo:
    """Finite rational combination sum_q c_q * e^(2*pi*i*q), exact.

    Stored as (``_n``, ``_den``, ``_terms``): the value is
    sum_j _terms[j] * e(j/_n) / _den over basis exponents j, normalized as
    the module docstring describes.
    """

    __slots__ = ("_n", "_den", "_terms")

    def __init__(self, terms: Scalar | dict[Fraction, Fraction] | None = None):
        if terms is None:
            terms = {}
        if isinstance(terms, dict):  # phase q -> rational coefficient c
            qs = [(Fraction(q), Fraction(c)) for q, c in terms.items() if c]
            x = phase_sum([(_exact(c), q.numerator, q.denominator) for q, c in qs])
        else:
            x = _exact(terms)
        self._n, self._den, self._terms = x._n, x._den, x._terms

    @classmethod
    def from_coordinates(cls, n: int, den: int, numerators: Mapping[int, int]) -> "Cyclo":
        """The value sum_j numerators[j] * e(j/n) / den, j running over
        basis exponents of conductor n (see ``coordinates``), normalized:
        zero numerators dropped, the conductor made minimal and the
        denominator reduced."""
        out = object.__new__(cls)
        terms = {j: c for j, c in numerators.items() if c}
        if not terms:
            out._n, out._den, out._terms = 1, 1, terms
            return out
        g = math.gcd(n, *terms)
        if g > 1:
            n //= g
            terms = {j // g: c for j, c in terms.items()}
        g = math.gcd(den, *terms.values())
        if g > 1:
            den //= g
            terms = {j: c // g for j, c in terms.items()}
        out._n, out._den, out._terms = n, den, terms
        return out

    # -- ring operations -------------------------------------------------

    def __add__(self, other: Scalar) -> "Cyclo":
        other = _exact(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        n = math.lcm(self._n, other._n)
        den = math.lcm(self._den, other._den)
        acc: dict[int, int] = {}
        for x in (self, other):
            m, f = n // x._n, den // x._den
            for j, c in x._terms.items():
                j *= m
                acc[j] = acc.get(j, 0) + c * f
        return Cyclo.from_coordinates(n, den, acc)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        out = object.__new__(Cyclo)
        out._n, out._den, out._terms = self._n, self._den, {j: -c for j, c in self._terms.items()}
        return out

    def __sub__(self, other: Scalar) -> "Cyclo":
        return self + (-_exact(other))

    def __rsub__(self, other: Scalar) -> "Cyclo":
        return _exact(other) + (-self)

    def __mul__(self, other: Scalar) -> "Cyclo":
        x, y = self, _exact(other)
        if x._n == 1:
            x, y = y, x
        if y._n == 1:
            # a rational factor scales the numerators
            c = y._terms.get(0, 0)
            scaled = {j: a * c for j, a in x._terms.items()}
            return Cyclo.from_coordinates(x._n, x._den * y._den, scaled)
        n = math.lcm(x._n, y._n)
        mx, my = n // x._n, n // y._n
        ys = [(j * my, c) for j, c in y._terms.items()]
        return _from_exponents(n, x._den * y._den, (
            ((j1 * mx + j2) % n, c1 * c2) for j1, c1 in x._terms.items() for j2, c2 in ys))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Cyclo":
        if isinstance(other, Rational):
            return self * (Fraction(1) / Fraction(other))
        raise TypeError("Cyclo division is only defined by nonzero rationals")

    def conjugate(self) -> "Cyclo":
        n = self._n
        return _from_exponents(n, self._den, ((-j % n, c) for j, c in self._terms.items()))

    # -- canonical form and predicates ------------------------------------

    def canonical(self) -> Mapping[Fraction, Fraction]:
        """The coordinates over the basis: basis phase -> coefficient.

        A read-only view of the stored form.  Its length is the stored
        term count; its ``Fraction`` entries, in stored order, are built
        on first read.  Two views are equal when their stored forms are,
        which, the form being unique, is when the values are: so equality
        calls this once and compares integers."""
        return _Coordinates(self)

    def coordinates(self) -> tuple[int, int, Mapping[int, int]]:
        """The stored form (n, den, numerators): the value is the sum of
        numerators[j] * e(j/n) / den over basis exponents j."""
        return self._n, self._den, MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        # one canonical() call per test, so that equality is counted there
        # (bench/tracing.py does); the two views compare stored forms and
        # build no Fraction.  A NaN or an infinity is no exact scalar and
        # equals no Cyclo
        try:
            other = _exact(other)
        except (TypeError, ValueError, OverflowError):
            return NotImplemented
        return self.canonical() == _Coordinates(other)

    def __hash__(self) -> int:
        n, den, terms = self._n, self._den, self._terms
        if n == 1:  # a rational hashes as its Fraction, so Cyclo(3) hashes as 3
            return hash(Fraction(terms.get(0, 0), den))
        if n == 4:  # a Gaussian rational hashes as the complex it may equal
            w = sys.hash_info.width
            h = hash(Fraction(terms.get(0, 0), den)) + sys.hash_info.imag * hash(
                Fraction(terms.get(1, 0), den))
            h = (h + (1 << (w - 1))) % (1 << w) - (1 << (w - 1))
            return -2 if h == -1 else h
        return hash((n, den, frozenset(terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- numeric boundary --------------------------------------------------

    def to_complex(self) -> complex:
        """Summed in phase order, so equal values give the same float."""
        n, den = self._n, self._den
        terms = sorted(self._terms.items())
        return sum((c / den * cmath.exp(1j * _TWO_PI * (j / n)) for j, c in terms), 0j)

    __complex__ = to_complex

    def __repr__(self):
        if not self._terms:
            return "Cyclo(0)"
        bits = " + ".join(f"{c}*e(2pi i {q})" for q, c in sorted(_fractions(self).items()))
        return f"Cyclo({bits})"


class _Coordinates(Mapping):
    """A Cyclo's coordinates as basis phase j/n -> coefficient c/den: a
    read-only view of its stored form, whose ``Fraction`` dict is built on
    first read.  Against another view it compares stored forms; against
    any other mapping, items."""

    __slots__ = ("_x", "_dict")

    def __init__(self, x: Cyclo):
        self._x = x
        self._dict = None

    def _fractions(self) -> dict[Fraction, Fraction]:
        if self._dict is None:
            self._dict = _fractions(self._x)
        return self._dict

    def __len__(self) -> int:
        return len(self._x._terms)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._fractions())

    def __getitem__(self, q: Fraction) -> Fraction:
        return self._fractions()[q]

    def __eq__(self, other) -> bool:
        if isinstance(other, _Coordinates):
            x, y = self._x, other._x
            return x._n == y._n and x._den == y._den and x._terms == y._terms
        return super().__eq__(other)

    def __repr__(self):
        return f"{type(self).__name__}({self._fractions()!r})"


def _from_exponents(n: int, den: int, pairs: Iterable[tuple[int, int]]) -> Cyclo:
    """sum c * e(j/n) / den over (j, c) pairs, integer c and any 0 <= j < n,
    rewritten onto the basis through the expansion table of n."""
    table = _EXPANSIONS[n]
    acc: dict[int, int] = {}
    for j, c in pairs:
        for jj, s in table[j]:
            acc[jj] = acc.get(jj, 0) + s * c
    return Cyclo.from_coordinates(n, den, acc)


def _exact(x: Scalar) -> Cyclo:
    """A scalar as a Cyclo (floats map exactly)."""
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, UnitPhase):
        return phase(x.phase)
    if isinstance(x, (Rational, float)):  # int, Fraction
        r = Fraction(x)
        return Cyclo.from_coordinates(1, r.denominator, {0: r.numerator})
    if isinstance(x, complex):  # re + im * e(1/4)
        re, im = Fraction(x.real), Fraction(x.imag)
        den = math.lcm(re.denominator, im.denominator)
        return Cyclo.from_coordinates(4, den, {0: re.numerator * (den // re.denominator),
                                               1: im.numerator * (den // im.denominator)})
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact scalar")


def _fractions(x: Cyclo) -> dict[Fraction, Fraction]:
    """x's coordinates as basis phase j/n -> coefficient."""
    n, den = x._n, x._den
    return {Fraction(j, n): Fraction(c, den) for j, c in x._terms.items()}


def phase(q: Fraction | int) -> Cyclo:
    """The unit phase e^(2*pi*i*q) as a Cyclo (q is read as Fraction(q))."""
    q = Fraction(q)
    n = q.denominator
    return _from_exponents(n, 1, ((q.numerator % n, 1),))


def phase_sum(parts: Sequence[tuple]) -> Cyclo:
    """sum w * c * e(s/m) over the (c, s, m) or (c, s, m, w) parts, integer
    s and m >= 1 and a rational weight w (1 when left out).

    Every part is lifted to one lcm of conductors and of denominators
    (a weight's denominator times its coefficient's), its exponents
    shifted by s and its numerators scaled by the weight's numerator, and
    the whole sum rewritten onto the basis once, with no Cyclo in between.
    Only shifted exponents go through the expansion table: a basis
    exponent lifted to a multiple of its conductor is a basis exponent,
    so a part with s = 0 adds its lifted numerators as they are.  One
    unweighted part with s = 0 is returned as it is.
    """
    if len(parts) == 1 and len(parts[0]) == 3 and parts[0][1] == 0:
        return parts[0][0]
    # (c, s, m, weight numerator, denominator of w * c) per part
    rows = [(c, s, m, w.numerator, c._den * w.denominator)
            for c, s, m, w in (x if len(x) == 4 else (*x, 1) for x in parts)]
    n = math.lcm(*(c._n for c, *_ in rows), *(m for _, _, m, _, _ in rows))
    den = math.lcm(*(d for *_, d in rows))
    table = _EXPANSIONS[n]
    acc: dict[int, int] = {}
    for c, s, m, w, d in rows:
        lift, f = n // c._n, den // d * w
        if s:
            shift = s * (n // m)
            for j, a in c._terms.items():
                for jj, sign in table[(j * lift + shift) % n]:
                    acc[jj] = acc.get(jj, 0) + sign * a * f
        else:
            # a lifted basis exponent is a basis exponent: no rewrite
            for j, a in c._terms.items():
                j *= lift
                acc[j] = acc.get(j, 0) + a * f
    return Cyclo.from_coordinates(n, den, acc)


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
        one = Cyclo(1)
        g = phase_sum([(one, t * t % p, p) for t in range(p)])
        out = g if p % 4 == 1 else g * phase(Fraction(3, 4))
    _SQRT_CACHE[p] = out
    return out


def sqrt_prime_power(p: int, w: int) -> Cyclo:
    """p**(w/2) exactly: a power of p, times sqrt(p) when w is odd."""
    if w % 2 == 0:
        return Cyclo(Fraction(p) ** (w // 2))
    return sqrt_prime(p) * Fraction(p) ** ((w - 1) // 2)
