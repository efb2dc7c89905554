"""Exact p-adic integration by residue sums.

Haar measure is normalized to vol(Z_p) = 1.  On a ball c + p**k Z_p,
with x = c + p**k t, the quadratic character chi_p(a x^2 + b x) is one
phase chi_p(a c^2 + b c) times a function of t mod p**d.  Everything is
read off integer numerators over p-power denominators: the front phase is
an integer over p**e, the rest is (bi t + ci t^2) / p**d with integer
residues bi and ci, and p**d is the reduced period, with the powers of p
common to bi and ci stripped.  Counting that one period of p**d residues
gives the exact integral, and the front phase, the folded counts and the
measure are rewritten onto the cyclotomic basis once, with no ``Fraction``
or ``Cyclo`` arithmetic in between: the period is the certificate, and no
float tolerance enters.  Every residue of the period is counted, in one
of three regimes chosen by its size: a plain Python loop up to
``_PY_CUT`` residues, where a numpy call costs more than the count; one
numpy pass with one reduction mod p**d up to ``_SLICE`` residues, where
(p**d)**3 stays inside int64; and slices of ``_SLICE`` residues with two
reductions past it.  A test function's integral is one ``phase_sum`` of
coefficient times each ball's residue rows, with no ``Cyclo`` product
or sum per ball.  The only work bound is ``_COSET_BUDGET``:
a ball whose period is over it is reported unstabilized without being
enumerated.  A quadratic character (a != 0) has its period read as
p**max(d, 2).  The 2 is there because p**d alone does not bound the cost at
d = 1: the p residues are cheap, but the sum is a p-term Gauss sum, and
comparing it with the exact sqrt(p) surd takes time that grows with p, so
every prime whose square is over the budget stays inconclusive.  A linear
character (a = 0) builds no Gauss sum and no surd: its period is read as
the p**d residues it has.

Point-value integrands have no period to read off; ``stabilized_ball_sum``
sums them once over the cosets of a constancy level that its caller
derives.  That level is their certificate, and a sum whose cosets are
over the budget is reported unstabilized without a point evaluated.  No
library code calls it; it is kept because the benchmark tracer
(``bench/tracing.py``) binds it as a traced layer entry point, and the
tests use it as a point-by-point reference.

The full-space Gauss integral is the limit of the integrals over the
balls p**(-J) Z_p.  Spheres |x|_p = p**j vanish identically once the
phase derivative 2 a x + b oscillates faster than the quadratic term can
resolve; the certificate

    min(v(2a) - j, v(b)) < -max(1 - j, ceil(-v(a)/2)),  v(2a) - j != v(b)

prunes every sphere beyond a computable J, where the limit is reached.
v(a) and v(b) are read once, off the integer numerators and denominators
of a and b, and the walk down to J runs on those ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .bruhat import Ball, PAdicTestFunction
from .cyclotomic import Cyclo, _from_exponents, phase_sum
from .padic import _split, valuation
from .primes import require_prime

F = Fraction


_COSET_BUDGET = 1 << 23  # residues or cosets per ball: the one work bound
_SLICE = 1 << 20  # residues counted per numpy pass
_PY_CUT = 64  # periods of at most this many residues are counted without numpy
_ZERO = F(0)  # the center of p**k Z_p, reduced at every level k


class Unstabilized(ArithmeticError):
    """An oracle that did not stabilize within its budget: no verdict either
    way, unlike the domain errors that are ArithmeticErrors too."""


@dataclass
class QpIntegral:
    """An exact p-adic integral plus its stabilization certificate.

    ``value`` is the integral only when ``stabilized``; an unstabilized
    result carries no value that any caller reads (each one raises
    ``Unstabilized`` or reports the run inconclusive).
    """

    value: Cyclo
    stabilized: bool


def stabilized_ball_sum(
    p: int,
    ball: Ball,
    point_value: Callable[[Fraction], Cyclo],
    level: int,
) -> QpIntegral:
    """Sum point_value over the cosets of p**level Z_p in ball, exactly.

    ``point_value`` must be exact (Cyclo-valued) and constant on the
    cosets of p**level Z_p: the caller's level is the certificate, and
    the integral is p**(-level) times the sum of one value per coset.
    When the p**(level - k) cosets are over the budget, no point is
    evaluated and the result is unstabilized.
    """
    require_prime(p)
    k = ball.radius_exp
    level = max(k, level)
    if p ** (level - k) > _COSET_BUDGET:
        return QpIntegral(Cyclo(), False)
    step = F(p) ** k
    values = [(point_value(ball.center + t * step), 0, 1) for t in range(p ** (level - k))]
    return QpIntegral(phase_sum(values) * F(p) ** (-level), True)


def integrate_ball_character(
    p: int, ball: Ball, a: Fraction | int, b: Fraction | int
) -> QpIntegral:
    """int over the ball of chi_p(a x^2 + b x) dx, exactly.

    On the ball c + p**k Z_p, x = c + t p**k, the phase argument is
    A + B t + C t^2 with A = a c^2 + b c, B = (2 a c + b) p**k and
    C = a p**2k, each read as an integer numerator over a common
    denominator.  {A}_p = s0 / p**e, in lowest terms, is one phase in
    front.  B t + C t^2 mod Z_p is (bi t + ci t^2) / p**d with integer
    residues bi and ci, and stripping the powers of p common to both
    leaves the reduced period p**d, the p-part of the lowest-terms
    denominators of B and C.  The integral is p**(-k-d) e(s0 / p**e)
    times the sum over one period, t = 0 .. p**d - 1, counted once as
    residues of bi t + ci t^2 mod p**d and folded onto the power basis;
    the front phase, the folded counts and p**(-k-d) are rewritten onto
    the basis of conductor max(p**d, p**e) once.  Every residue of the
    period is counted, in one of three ways chosen by its size: a period
    of at most ``_PY_CUT`` residues in a plain Python loop, one up to
    ``_SLICE`` residues in one numpy pass with one reduction mod p**d,
    and a longer one in slices of ``_SLICE`` with two reductions, since
    (p**d)**3 would overflow int64 there.  A ball whose period is over
    the coset budget is reported unstabilized without being enumerated:
    p**max(d, 2) when a != 0, p**d when the character is linear (see the
    module docstring for the 2); within it, int64 counts are exact.
    """
    require_prime(p)
    return _integral(_ball_character(p, ball, Fraction(a), Fraction(b)))


def _ball_character(
    p: int, ball: Ball, a: Fraction, b: Fraction
) -> tuple[int, int, list[tuple[int, int]]] | None:
    """``integrate_ball_character`` on a checked prime and ``Fraction``s
    a and b, as rows: (n, den, [(exponent, count)]) for the sum of
    count * e(exponent / n) / den, exponents in 0 .. n - 1 and not yet on
    the basis, or None when the period is over the budget."""
    k, c = ball.radius_exp, ball.center
    # a = an / L, b = bn / L and c = cn / cd, cd a power of p
    L = math.lcm(a.denominator, b.denominator)
    an, bn = a.numerator * (L // a.denominator), b.numerator * (L // b.denominator)
    cn, cd = c.numerator, c.denominator

    # the front phase: A = (an cn + bn cd) cn / (L cd^2) = s0 / p**e mod Z_p
    e, unit = _split(L * cd * cd, p)
    pe = p**e
    s0 = (an * cn + bn * cd) * cn * pow(unit, -1, pe) % pe
    g = math.gcd(s0, pe)
    s0, pe = s0 // g, pe // g

    # B and C over L cd p**2h, h = max(-k, 0), as residues mod its p-part
    h = max(-k, 0)
    d, unit = _split(L * cd, p)
    d += 2 * h
    pd = p**d
    inv = pow(unit, -1, pd)
    bi = (2 * an * cn + bn * cd) * p ** (k + 2 * h) * inv % pd
    ci = an * cd * p ** (2 * k + 2 * h) * inv % pd
    # the reduced period: strip the powers of p common to bi and ci
    while d and bi % p == 0 and ci % p == 0:
        bi, ci, d = bi // p, ci // p, d - 1
    pd = p**d

    if d == 0:
        # B t + C t^2 is p-integral: the character is chi_p(A) on the ball
        period = [(0, 1)]
    elif p ** (max(d, 2) if a else d) > _COSET_BUDGET:
        return None
    elif pd <= _PY_CUT:
        period = _count_small(p, pd, bi, ci)
    else:
        period = _count_numpy(p, pd, bi, ci)

    # one rewrite: e(s0/p**e) e(j/p**d) p**(-k-d) at conductor max(p**d, p**e)
    n = max(pd, pe)
    lift, shift = n // pd, s0 * (n // pe)
    scale, den = (p ** (-k - d), 1) if k + d <= 0 else (1, p ** (k + d))
    return n, den, [((j * lift + shift) % n, count * scale) for j, count in period]


def _integral(rows: tuple[int, int, list[tuple[int, int]]] | None) -> QpIntegral:
    """One ball's rows rewritten onto the basis; None is unstabilized."""
    if rows is None:
        return QpIntegral(Cyclo(), False)
    return QpIntegral(_from_exponents(*rows), True)


def _count_small(p: int, pd: int, bi: int, ci: int) -> list[tuple[int, int]]:
    """The residues of bi t + ci t^2 mod pd, pd = p**d, over t = 0 .. pd - 1,
    counted in plain Python and folded onto the power basis j/pd,
    0 <= j < (p-1) pd/p: each phase of the top row is minus the sum of
    its column above it.  The nonzero (j, count) pairs, j ascending."""
    counts = [0] * pd
    for t in range(pd):
        counts[(ci * t + bi) * t % pd] += 1
    m = pd // p
    top = counts[pd - m:]
    return [(j, x) for j, c in enumerate(counts[:pd - m]) if (x := c - top[j % m])]


def _count_numpy(p: int, pd: int, bi: int, ci: int) -> list[tuple[int, int]]:
    """``_count_small`` in numpy, for pd > _PY_CUT.  Up to ``_SLICE``
    residues, (ci t + bi) t < (pd - 1)**2 pd < 2**63, so one reduction
    mod pd is exact; past it, each slice of ``_SLICE`` residues reduces
    ci t first."""
    if pd <= _SLICE:
        t = np.arange(pd, dtype=np.int64)
        x = t * ci
        x += bi
        x *= t
        x %= pd
        counts = np.bincount(x, minlength=pd)
    else:
        counts = np.zeros(pd, dtype=np.int64)
        for lo in range(0, pd, _SLICE):
            t = np.arange(lo, min(pd, lo + _SLICE), dtype=np.int64)
            x = t * ci
            x %= pd
            x += bi
            x *= t
            x %= pd
            counts += np.bincount(x, minlength=pd)
    # fold onto the power basis j/p**d, 0 <= j < (p-1) p**(d-1), in place
    rows = counts.reshape(p, -1)
    coords = rows[:-1]
    coords -= rows[-1]
    coords = coords.ravel()
    # a boolean mask first: nonzero() on the int64 counts is several times slower
    nonzero = np.flatnonzero(coords != 0)
    return list(zip(nonzero.tolist(), coords[nonzero].tolist()))


def _character_sum(
    p: int, pieces: Iterable[tuple[Cyclo, Ball, Fraction, Fraction]]
) -> QpIntegral:
    """sum coeff * int over ball of chi_p(a x^2 + b x) dx over the
    (coeff, ball, a, b) pieces, coeff a ``Cyclo`` and a, b ``Fraction``s,
    as one ``phase_sum`` of every ball's rows; the first ball over the
    budget ends the sum unstabilized, reading no further piece."""
    parts = []
    for coeff, ball, a, b in pieces:
        rows = _ball_character(p, ball, a, b)
        if rows is None:
            return QpIntegral(Cyclo(), False)
        n, den, period = rows
        # coeff / den, so that each row's count is an integer weight
        cn, cden, numerators = coeff.coordinates()
        scaled = Cyclo.from_coordinates(cn, cden * den, numerators)
        parts += [(scaled, j, n, count) for j, count in period]
    return QpIntegral(phase_sum(parts), True)


def _sphere_zero(p: int, va: int, vb: int | None, j: int) -> bool:
    """The certificate on the valuations v(a) and v(b) (None when b = 0):
    true only when the sphere |x|_p = p**j integrates to exactly zero."""
    m_j = max(1 - j, -(va // 2))  # ceil(-va/2) = -(va//2)
    lin = va + (p == 2) - j  # v(2a) - j
    if vb is not None:
        if lin == vb:
            return False  # possible stationary point on this sphere
        lin = min(lin, vb)
    return lin < -m_j


def sphere_provably_zero(p: int, a: Fraction, b: Fraction, j: int) -> bool:
    """Oscillation-cancellation certificate for a sphere of the Gauss
    integrand: true only when the sphere integral is exactly zero."""
    vb = None if b == 0 else valuation(b, p)
    return _sphere_zero(p, valuation(a, p), vb, j)


def integrate_qp(
    p: int,
    test_function: PAdicTestFunction | None = None,
    quad: tuple[Fraction | int, Fraction | int] | None = None,
) -> QpIntegral:
    """The p-adic oracle: integrate (test function) x chi_p(a x^2 + b x).

    With a test function the domain is its support, and the first ball
    that does not stabilize ends the sum unstabilized.  Without one it is
    the improper integral over Q_p (a != 0): one ball sum over p**(-J) Z_p,
    past which the tail certificate prunes every sphere.
    """
    require_prime(p)
    a = Fraction(quad[0]) if quad else F(0)
    b = Fraction(quad[1]) if quad else F(0)

    if test_function is not None:
        return _character_sum(p, ((coeff, ball, a, b + mod)
                                  for (ball, mod), coeff in test_function.terms.items()))

    if a == 0:
        raise ValueError("full-space integral needs a quadratic term (a != 0)")

    va = _split(a.numerator, p)[0] - _split(a.denominator, p)[0]
    v2a = va + (p == 2)
    vb = None if b == 0 else _split(b.numerator, p)[0] - _split(b.denominator, p)[0]

    # inner cutoff: on p**K Z_p the integrand is identically 1
    k_inner = max(0, -(va // 2), (-vb if vb is not None else 0))

    # outermost sphere that can be nonzero, from the pruning certificate
    j_stop = max(v2a - va // 2, 1)
    if vb is not None:
        j_stop = max(j_stop, v2a - vb)
    while j_stop > -k_inner and _sphere_zero(p, va, vb, j_stop):
        j_stop -= 1

    # J = max(j_stop, -k_inner): the one ball that holds every nonzero sphere
    return _integral(_ball_character(p, Ball._reduced(p, _ZERO, min(k_inner, -j_stop)), a, b))


__all__ = [
    "QpIntegral",
    "Unstabilized",
    "stabilized_ball_sum",
    "integrate_ball_character",
    "integrate_qp",
    "sphere_provably_zero",
]
