"""Exact p-adic integration by residue sums with stabilization detection.

Haar measure is normalized to vol(Z_p) = 1.  Integrands built from ball
indicators, modulations and quadratic characters chi_p(a x^2 + b x) are
locally constant away from 0, so refining a ball into cosets of p**m Z_p
gives the exact integral once m is fine enough.  Each ball starts at a
certified constancy level, and stabilization is detected by two
successive refinement levels agreeing *exactly* in cyclotomic arithmetic,
never by a float tolerance.  The only work bound is ``_COSET_BUDGET``
cosets per level: a ball whose confirming level exceeds it is reported
unstabilized without being enumerated.

Full-space Gauss integrals are sphere sums |x|_p = p**j.  Outer spheres
vanish identically once the phase derivative 2 a x + b oscillates faster
than the quadratic term can resolve; the certificate

    min(v(2a) - j, v(b)) < -max(1 - j, ceil(-v(a)/2)),  v(2a) - j != v(b)

prunes every sphere beyond a computable index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .bruhat import Ball, PAdicTestFunction
from .cyclotomic import Cyclo
from .padic import valuation
from .primes import require_prime

F = Fraction


_COSET_BUDGET = 500_000  # residue points per refinement level: the one work bound


@dataclass
class QpIntegral:
    """An exact p-adic integral plus its stabilization certificate.

    ``value`` is the integral only when ``stabilized``; an unstabilized
    result carries no value that any caller reads (each one raises or
    reports the run inconclusive).
    """

    value: Cyclo
    stabilized: bool


def _refine(p: int, k: int, m: int, level_sum: Callable) -> QpIntegral:
    """The one refinement loop over a ball of radius p**(-k), from level m.

    ``level_sum(level)`` yields the (phase, coefficient) pairs summed over
    the cosets of p**level Z_p.  m is a certified constancy level, so
    level m + 1 confirms it; when that level already exceeds the coset
    budget the result is unstabilized before anything is enumerated.
    """
    if p ** (m + 1 - k) > _COSET_BUDGET:
        return QpIntegral(Cyclo(), False)
    prev: dict | None = None
    level = m
    while p ** (level - k) <= _COSET_BUDGET:
        scale = F(p) ** (-level)
        total = {q: coeff * scale for q, coeff in level_sum(level)}
        # formal agreement of the normalized phase sums; at local constancy
        # the refined sum reproduces the coarse one term by term
        if total == prev:
            return QpIntegral(Cyclo(total), True)
        prev = total
        level += 1
    return QpIntegral(Cyclo(), False)


def stabilized_ball_sum(
    p: int,
    ball: Ball,
    point_value: Callable[[Fraction], Cyclo],
    start_level: int,
) -> QpIntegral:
    """Refine ball into cosets of p**m Z_p, m >= start_level, until two
    levels agree exactly.

    ``point_value`` must be exact (Cyclo-valued) and constant on the
    cosets of p**start_level Z_p for the stabilized value to be the true
    integral.
    """
    require_prime(p)
    k = ball.radius_exp
    step = F(p) ** k

    def level_sum(m: int):
        acc: dict = {}
        for t in range(p ** (m - k)):
            val = point_value(ball.center + t * step)
            for q, coeff in val._terms.items():
                s = acc.get(q, F(0)) + coeff
                if s:
                    acc[q] = s
                else:
                    acc.pop(q, None)
        return acc.items()

    return _refine(p, k, max(k, start_level), level_sum)


def integrate_ball_character(
    p: int, ball: Ball, a: Fraction | int, b: Fraction | int
) -> QpIntegral:
    """int over the ball of chi_p(a x^2 + b x) dx, exactly.

    On the cosets c + t*p**k the phase argument is the quadratic polynomial
    A + B t + C t^2 with A = a c^2 + b c, B = (2 a c + b) p**k, C = a p**2k,
    so each refinement level is a pure modular-integer residue sum.
    """
    a, b = Fraction(a), Fraction(b)
    k = ball.radius_exp
    c0, s = ball.center, F(p) ** k
    A = a * c0 * c0 + b * c0
    B = (2 * a * c0 + b) * s
    C = a * s * s

    # split the common denominator into its p-part p**dd and coprime part mm
    den = math.lcm(A.denominator, B.denominator, C.denominator)
    dd = valuation(den, p).value
    pd, mm = p**dd, den // p**dd
    if dd == 0:
        # the argument is p-integral on the whole ball: character is 1
        return QpIntegral(Cyclo(ball.measure), True)
    inv_m = pow(mm, -1, pd)
    ai = A.numerator * (den // A.denominator) * inv_m % pd
    bi = B.numerator * (den // B.denominator) * inv_m % pd
    ci = C.numerator * (den // C.denominator) * inv_m % pd

    def level_sum(m: int):
        counts: dict[int, int] = {}
        val = ai
        d1 = (bi + ci) % pd
        d2 = (2 * ci) % pd
        for _ in range(p ** (m - k)):
            counts[val] = counts.get(val, 0) + 1
            val = (val + d1) % pd
            d1 = (d1 + d2) % pd
        return ((F(r, pd) % 1, F(n)) for r, n in counts.items())

    return _refine(p, k, _quadratic_constancy_level(p, ball, a, b), level_sum)


def _quadratic_constancy_level(p, ball, a, b) -> int:
    """The provable constancy level of chi_p(a x^2 + b x) on the ball.

    On cosets of p**m Z_p the increment of the phase argument is
    (2 a c + b) y + a y^2, so the exact value is reached once
    2m + v(a) >= 0 and m >= -min(v(2a) + vmin(ball), v(b)).  Successive
    refinements can agree *before* this level on the wrong value (the
    oscillatory parts can alias), so stabilization is only certified from
    this level onward.
    """
    k = ball.radius_exp
    lvl = k
    va = valuation(a, p)
    if not va.is_infinite:
        lvl = max(lvl, -(va.value // 2))
    c = ball.center
    vmin = k if c == 0 else min(valuation(c, p).value, k)
    linear_vals = []
    if not va.is_infinite:
        linear_vals.append(va.value + (1 if p == 2 else 0) + vmin)
    vb = valuation(b, p)
    if not vb.is_infinite:
        linear_vals.append(vb.value)
    if linear_vals:
        lvl = max(lvl, -min(linear_vals))
    return lvl


def sphere_balls(p: int, j: int) -> list[Ball]:
    """The sphere |x|_p = p**j tiled by its p-1 leading-digit balls."""
    return [Ball(p, F(u) * F(p) ** (-j), -j + 1) for u in range(1, p)]


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

    With a test function the domain is its support; without one the
    integral runs over all of Q_p, which requires a != 0 (the stabilized
    sphere sum is the regularization of the improper integral).  The
    first ball that does not stabilize ends the sum unstabilized.
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

    inner = integrate_ball_character(p, Ball(p, F(0), k_inner), a, b)
    if not inner.stabilized:
        return inner
    total = inner.value
    for j in range(-k_inner + 1, j_stop + 1):
        if sphere_provably_zero(p, a, b, j):
            continue
        for piece in sphere_balls(p, j):
            part = integrate_ball_character(p, piece, a, b)
            if not part.stabilized:
                return part
            total = total + part.value
    return QpIntegral(total, True)


__all__ = [
    "QpIntegral",
    "stabilized_ball_sum",
    "integrate_ball_character",
    "integrate_qp",
    "sphere_provably_zero",
    "sphere_balls",
]
