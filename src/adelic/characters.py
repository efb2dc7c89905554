"""Additive and multiplicative characters on Q_p, R, adeles and ideles.

The p-adic additive character chi_p(x) = e^(2*pi*i*{x}_p) is returned as a
``UnitPhase`` with exact rational phase; the real character carries the
opposite sign, chi_inf(x) = e^(-2*pi*i*x), and is tracked exactly as well
whenever its argument is rational.  This makes the triviality of the adelic
character on principal points an exact integer identity rather than a
float coincidence.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .adeles import Adele, Idele
from .cyclotomic import UnitPhase
from .padic import frac_part, padic_norm
from .primes import rational_primes


def chi_p(x: Fraction | int, p: int) -> UnitPhase:
    """chi_p(x) = e^(2*pi*i*{x}_p)."""
    return UnitPhase(frac_part(Fraction(x), p))


def chi_inf(x: float | Fraction) -> complex:
    """chi_inf(x) = e^(-2*pi*i*x); note the sign at the real place."""
    return cmath.exp(-2j * math.pi * float(x))


def chi_inf_phase(x: Fraction | int) -> UnitPhase:
    """Exact-phase version of chi_inf for rational arguments."""
    return UnitPhase(-Fraction(x))


def chi_principal_phase(r: Fraction | int) -> UnitPhase:
    """The exact total phase of chi at the principal adele r.

    chi(r) = chi_inf(r) * prod over denominator primes of chi_p(r); the
    phase sum -r + sum_p {r}_p is always an integer, so the result is
    always ``UnitPhase(0)``.  The computed (not asserted) value is returned
    so tests can verify the identity.
    """
    r = Fraction(r)
    total = chi_inf_phase(r)
    if r != 0:
        for p in rational_primes(r):
            total = total * chi_p(r, p)
    return total


def chi_principal(r: Fraction | int) -> complex:
    return chi_principal_phase(r).value


def chi_adele(x: Adele) -> complex:
    """chi(x) for an adele with finite explicit support.

    Unlisted primes contribute phase {x_p}_p = 0 because the tail value is
    p-integral there, so the product below is the full character.
    """
    val = chi_inf(float(x.real))
    for p in x.listed_primes:
        val *= chi_p(x.component(p), p).value
    return val


def pi_alpha(lam: Idele, alpha: complex) -> complex:
    """The multiplicative character |lam|^alpha on the ideles:
    |lam_inf|^alpha * prod over listed primes of |lam_p|_p^alpha.

    Tail factors are 1 by the unit-norm guarantee.  When the real part is
    an exact rational the norm product is accumulated exactly before the
    single complex power, so principal ideles give exactly 1 for any alpha.
    """
    if isinstance(lam.real, Fraction):
        prod = abs(lam.real)
        for p in lam.listed_primes:
            prod *= padic_norm(lam.component(p), p)
        return complex(prod) ** alpha if alpha != 1 else complex(prod)
    prod_c = abs(lam.real)
    for p in lam.listed_primes:
        prod_c *= float(padic_norm(lam.component(p), p))
    return complex(prod_c) ** alpha
