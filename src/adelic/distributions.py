"""Adelic generalized functions: linear functionals on Schwartz-Bruhat space.

A distribution is a name plus its value on elementary functions; ``pair``
extends it linearly over ``SchwartzBruhat``.  A distribution that factors
over places is the real factor times the exact product of its local
factors.  Outside the test function's primes and the places the
distribution itself names, every local factor is 1, so that product is
finite.  The multiplicative character does not factor this way (its
Euler tail is zeta(alpha)) and is delegated to the Mellin module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .adeles import Adele, Idele
from .bruhat import ElementaryFunction, HermiteGaussian, PAdicTestFunction, SchwartzBruhat
from .cyclotomic import Cyclo
from .integrate import Unstabilized, integrate_qp
from .mellin import phi_p
from .quadrature import gauss_character_integral, oracle_float

F = Fraction


@dataclass
class AdelicDistribution:
    """A generalized function, given by its value on elementary functions."""

    name: str
    pair_elementary: Callable[[ElementaryFunction], complex]


def pair(f: AdelicDistribution, phi: SchwartzBruhat | ElementaryFunction) -> complex:
    if isinstance(phi, ElementaryFunction):
        phi = SchwartzBruhat.of(phi)
    total = 0j
    for coeff, elem in phi.elements:
        total += coeff.to_complex() * f.pair_elementary(elem)
    return total


def _factored(
    name: str,
    real_rule: Callable[[HermiteGaussian], complex],
    local_rule: Callable[[int, PAdicTestFunction], Cyclo],
    places: Iterable[int] = (),
) -> AdelicDistribution:
    """The distribution real_rule(phi_inf) * prod_p local_rule(p, phi_p).

    The product runs exactly over the test function's primes and
    ``places``, in increasing order; every other local factor must be 1.
    """
    places = set(places)

    def pair_elementary(phi: ElementaryFunction) -> complex:
        local = Cyclo(1)
        for p in sorted(set(phi.prime_set) | places):
            local = local * local_rule(p, phi.factor_at(p))
            if local.is_zero():
                return 0j
        return real_rule(phi.real_factor) * local.to_complex()

    return AdelicDistribution(name, pair_elementary)


# ---------------------------------------------------------------------------
# the concrete distributions
# ---------------------------------------------------------------------------


def delta_distribution(shift: Adele | None = None) -> AdelicDistribution:
    """The Dirac delta (optionally centred at an adele): sifting at a point.

    Away from the listed primes of the shift, (delta_p, Omega_p) = Omega(0) = 1.
    """

    def real_rule(rf: HermiteGaussian) -> complex:
        return rf.evaluate(0.0 if shift is None else float(shift.real))

    def local_rule(p: int, fp: PAdicTestFunction) -> Cyclo:
        x = F(0) if shift is None else shift.component(p)
        return fp.evaluate(x)

    return _factored("delta", real_rule, local_rule,
                     () if shift is None else shift.listed_primes)


def _character(
    name: str,
    a_inf: float,
    b_inf: float,
    a_at: Callable[[int], Fraction],
    b_at: Callable[[int], Fraction],
    places: Iterable[int] = (),
) -> AdelicDistribution:
    """chi(a x^2 + b x) as a functional, with a_p = a_at(p), b_p = b_at(p).

    Local factors are computed through the integration oracle, not through
    the closed-form Fourier calculus, so tests can compare the two routes.
    """

    def real_rule(rf: HermiteGaussian) -> complex:
        return gauss_character_integral(a_inf, b_inf, rf.evaluate)

    def local_rule(p: int, fp: PAdicTestFunction) -> Cyclo:
        res = integrate_qp(p, test_function=fp, quad=(a_at(p), b_at(p)))
        if not res.stabilized:
            raise Unstabilized("local character pairing did not stabilize")
        return res.value

    return _factored(name, real_rule, local_rule, places)


def chi_distribution() -> AdelicDistribution:
    """The additive character as a functional: the Fourier transform at 1.

    Outside the test function's primes the factor is Omega-hat(1) = 1.
    """
    return _character("chi", 0.0, 1.0, lambda p: F(0), lambda p: F(1))


def chi_quadratic_distribution(a: Idele, b: Adele) -> AdelicDistribution:
    """The quadratic character chi(a x^2 + b x) as a functional.

    Outside the union of supports the factor is Omega(|b_p|_p) by the
    unit-a guarantee, which is 1 because the adele b keeps its unlisted
    components integral.  A real component outside the double range is a
    ValueError, raised before any local factor is computed.
    """
    return _character(
        "chi-quad",
        oracle_float("the real component of a", a.real),
        oracle_float("the real component of b", b.real),
        a.component, b.component,
        set(a.listed_primes) | set(b.listed_primes),
    )


def schwartz_function_distribution(g: ElementaryFunction) -> AdelicDistribution:
    """An elementary function acting as a distribution: (g, phi) = int g phi.

    The integral reduces to the union of the two prime supports: local
    factors are exact integrals of pointwise products, the real factor is
    quadrature, and outside both supports the factor is int Omega^2 = 1.
    """

    def real_rule(rf: HermiteGaussian) -> complex:
        return gauss_character_integral(
            0.0, 0.0, lambda xs: g.real_factor.evaluate(xs) * rf.evaluate(xs))

    def local_rule(p: int, fp: PAdicTestFunction) -> Cyclo:
        return (g.factor_at(p) * fp).integral()

    return _factored("schwartz", real_rule, local_rule, g.prime_set)


def pi_alpha_distribution(alpha: complex) -> AdelicDistribution:
    """The multiplicative character |x|^alpha under d*x: the Mellin pairing.

    Its tail over primes outside the test function's support is the Euler
    product zeta(alpha), so evaluation is delegated to the Mellin module
    (poles at alpha = 0, 1 raise).
    """
    return AdelicDistribution("pi-alpha", lambda phi: phi_p(phi, alpha))
