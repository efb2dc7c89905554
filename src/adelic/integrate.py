"""Exact p-adic integration by residue sums.

Haar measure is normalized to vol(Z_p) = 1.  On a ball c + p**k Z_p,
with x = c + p**k t, the quadratic character chi_p(a x^2 + b x) is one
phase chi_p(a c^2 + b c) times a function of t mod p**d, where p**d is
the p-part of the denominators of the phase.  Counting that one period of
p**d residues gives the exact integral: the period is the certificate,
and no float tolerance enters.  The only work bound is ``_COSET_BUDGET``:
a ball with p**max(d, 2) over it is reported unstabilized without being
enumerated.  The 2 is there because p**d alone does not bound the cost at
d = 1: the p residues are cheap, but folding the p-term Gauss sum and
comparing it with the exact sqrt(p) surd take time that grows with p, so
every prime whose square is over the budget stays inconclusive.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .bruhat import Ball, PAdicTestFunction
from .characters import chi_p
from .cyclotomic import Cyclo, phase_sum
from .padic import valuation
from .primes import require_prime

F = Fraction


_COSET_BUDGET = 1 << 23  # residues or cosets per ball: the one work bound
_SLICE = 1 << 20  # residues counted per numpy pass


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
    C = a p**2k.  chi_p(A) is one phase in front, and chi_p(B t + C t^2)
    depends on t mod p**d only, p**d being the p-part of its denominator.
    The integral is therefore p**(-k-d) chi_p(A) times the sum over one
    period, t = 0 .. p**d - 1, counted once as residues of B t + C t^2
    mod p**d.  A ball with p**max(d, 2) over the coset budget is reported
    unstabilized without being enumerated (see the module docstring for
    the 2); within it, int64 counts are exact.
    """
    a, b = Fraction(a), Fraction(b)
    k = ball.radius_exp
    c0, s = ball.center, F(p) ** k
    front = chi_p(a * c0 * c0 + b * c0, p).as_cyclo()
    B = (2 * a * c0 + b) * s
    C = a * s * s

    # split the common denominator into its p-part p**d and a unit mod p**d
    den = math.lcm(B.denominator, C.denominator)
    d = valuation(den, p).value
    if d == 0:
        # B t + C t^2 is p-integral: the character is chi_p(A) on the ball
        return QpIntegral(front * ball.measure, True)
    if p ** max(d, 2) > _COSET_BUDGET:
        return QpIntegral(Cyclo(), False)
    pd = p**d
    inv_m = pow(den // pd, -1, pd)
    bi = B.numerator * (den // B.denominator) * inv_m % pd
    ci = C.numerator * (den // C.denominator) * inv_m % pd

    counts = np.zeros(pd, dtype=np.int64)
    for lo in range(0, pd, _SLICE):
        t = np.arange(lo, min(pd, lo + _SLICE), dtype=np.int64)
        counts += np.bincount((ci * t % pd + bi) * t % pd, minlength=pd)

    # fold onto the power basis j/p**d, 0 <= j < (p-1) p**(d-1): each phase
    # of the top row is minus the sum of its column above it
    rows = counts.reshape(p, -1)
    coords = (rows[:-1] - rows[-1]).ravel()
    period = Cyclo.from_coordinates(pd, 1, {int(j): int(coords[j]) for j in np.flatnonzero(coords)})
    return QpIntegral(front * period * F(p) ** (-k - d), True)


def sphere_provably_zero(p: int, a: Fraction, b: Fraction, j: int) -> bool:
    """Oscillation-cancellation certificate for a sphere of the Gauss
    integrand: true only when the sphere integral is exactly zero."""
    va = valuation(a, p).value
    v2a = va + (1 if p == 2 else 0)
    m_j = max(1 - j, -(va // 2))  # ceil(-va/2) = -(va//2)
    lin = v2a - j
    if b != 0:
        vb = valuation(b, p).value
        if lin == vb:
            return False  # possible stationary point on this sphere
        lin = min(lin, vb)
    return lin < -m_j


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
        total = Cyclo()
        for (ball, mod), coeff in test_function.terms.items():
            part = integrate_ball_character(p, ball, a, b + mod)
            if not part.stabilized:
                return part
            total = total + coeff * part.value
        return QpIntegral(total, True)

    if a == 0:
        raise ValueError("full-space integral needs a quadratic term (a != 0)")

    va = valuation(a, p).value
    v2a = va + (1 if p == 2 else 0)
    vb = None if b == 0 else valuation(b, p).value

    # inner cutoff: on p**K Z_p the integrand is identically 1
    k_inner = max(0, -(va // 2), (-vb if vb is not None else 0))

    # outermost sphere that can be nonzero, from the pruning certificate
    j_stop = max(v2a - va // 2, 1)
    if vb is not None:
        j_stop = max(j_stop, v2a - vb)
    while j_stop > -k_inner and sphere_provably_zero(p, a, b, j_stop):
        j_stop -= 1

    # J = max(j_stop, -k_inner): the one ball that holds every nonzero sphere
    return integrate_ball_character(p, Ball(p, F(0), min(k_inner, -j_stop)), a, b)


__all__ = [
    "QpIntegral",
    "Unstabilized",
    "stabilized_ball_sum",
    "integrate_ball_character",
    "integrate_qp",
    "sphere_provably_zero",
]
