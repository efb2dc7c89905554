"""Adelic generalized functions as pairing rules with tail certificates.

A distribution here is exactly what the pairing computations need: a rule
for the real factor, a rule per finite place, and a certificate describing
the infinite tail product over primes outside the test function's support.
Supported certificates are "all tail factors equal 1 outside a finite
exceptional set" and the Euler-type zeta tail of the multiplicative
character (delegated to the Mellin machinery).  Pairing an elementary
function therefore reduces to a finite product, and the number of
non-unit local factors is reported for instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .adeles import Adele, Idele
from .bruhat import (
    ElementaryFunction,
    PAdicTestFunction,
    SchwartzBruhat,
    omega,
)
from .cyclotomic import Cyclo
from .integrate import integrate_qp
from .padic import padic_norm
from .quadrature import gauss_character_integral

F = Fraction


class TailCertificateError(ValueError):
    """The infinite tail product is not certified convergent for this input."""


@dataclass
class PairingReport:
    value: complex
    nonunit_factors: int
    factor_count: int


@dataclass
class AdelicDistribution:
    """Extensional representation: pairing rules plus a tail certificate."""

    name: str
    real_rule: Callable[[object], complex]
    local_rule: Callable[[int, PAdicTestFunction], complex]
    # primes that must be treated explicitly even when outside P
    extra_primes: Callable[[ElementaryFunction], set[int]]
    # certified value of (f_p, Omega_p) for p outside P and extra primes;
    # None means the tail is not certified and pairing must fail
    tail_rule: Callable[[int], complex] | None
    tail_description: str = "tail factors certified equal to 1"
    # full-pairing override for distributions that do not factor plainly
    full_rule: Callable[[ElementaryFunction], complex] | None = None

    def pair_elementary(self, phi: ElementaryFunction) -> PairingReport:
        if self.full_rule is not None:
            return PairingReport(self.full_rule(phi), 0, 0)
        if self.tail_rule is None:
            raise TailCertificateError(
                f"distribution {self.name} carries no tail certificate"
            )
        explicit = sorted(set(phi.prime_set) | self.extra_primes(phi))
        local = Cyclo(1)
        local_complex = 1.0 + 0j
        exact = True
        nonunit = 0
        for p in explicit:
            v = self.local_rule(p, phi.factor_at(p))
            if isinstance(v, Cyclo):
                if not (v - 1).is_zero():
                    nonunit += 1
                local = local * v
                if local.is_zero():
                    return PairingReport(0j, nonunit, len(explicit))
            else:
                exact = False
                if abs(v - 1) > 1e-15:
                    nonunit += 1
                local_complex *= v
        value = self.real_rule(phi.real_factor) * local.to_complex() * local_complex
        return PairingReport(value, nonunit, len(explicit))


def pair(f: AdelicDistribution, phi: SchwartzBruhat | ElementaryFunction) -> complex:
    if isinstance(phi, ElementaryFunction):
        phi = SchwartzBruhat.of(phi)
    total = 0j
    for coeff, elem in phi.elements:
        total += coeff.to_complex() * f.pair_elementary(elem).value
    return total


def pair_detailed(f: AdelicDistribution, phi: SchwartzBruhat | ElementaryFunction):
    if isinstance(phi, ElementaryFunction):
        phi = SchwartzBruhat.of(phi)
    reports = [f.pair_elementary(elem) for _, elem in phi.elements]
    value = sum(
        (c.to_complex() * r.value for (c, _), r in zip(phi.elements, reports)), 0j
    )
    return value, reports


# ---------------------------------------------------------------------------
# the concrete distributions
# ---------------------------------------------------------------------------


def delta_distribution(shift: Adele | None = None) -> AdelicDistribution:
    """The Dirac delta (optionally centred at an adele): sifting at a point."""

    def real_rule(rf) -> complex:
        x = 0.0 if shift is None else float(shift.real)
        return complex(rf.evaluate(x))

    def local_rule(p: int, fp: PAdicTestFunction):
        x = F(0) if shift is None else shift.component(p)
        return fp.evaluate(x)

    def extra(phi: ElementaryFunction) -> set[int]:
        if shift is None:
            return set()
        return {p for p in shift.listed_primes}

    return AdelicDistribution(
        name="delta",
        real_rule=real_rule,
        local_rule=local_rule,
        extra_primes=extra,
        tail_rule=lambda p: 1.0,
        tail_description="(delta_p, Omega_p) = Omega(0) = 1 for every p",
    )


def chi_distribution() -> AdelicDistribution:
    """The additive character as a functional: the Fourier transform at 1.

    Local factors are computed through the integration oracle, not through
    the closed-form Fourier calculus, so tests can compare the two routes.
    """

    def real_rule(rf) -> complex:
        vec = lambda xs: np.array([rf.evaluate(float(x)) for x in xs])
        return gauss_character_integral(0.0, 1.0, vec, radius=rf.decay_radius())

    def local_rule(p: int, fp: PAdicTestFunction):
        res = integrate_qp(p, test_function=fp, quad=(F(0), F(1)))
        if not res.stabilized:
            raise ArithmeticError("local character pairing did not stabilize")
        return res.value

    return AdelicDistribution(
        name="chi",
        real_rule=real_rule,
        local_rule=local_rule,
        extra_primes=lambda phi: set(),
        tail_rule=lambda p: 1.0,
        tail_description="Omega-hat(1) = Omega(|1|_p) = 1 for every p",
    )


def chi_quadratic_distribution(a: Idele, b: Adele) -> AdelicDistribution:
    """The quadratic character chi(a x^2 + b x) as a functional.

    Outside the union of supports the factor is Omega(|b_p|_p) by the
    unit-a guarantee, which certifies the tail (= 1 whenever the adele b
    keeps its components integral).
    """

    def real_rule(rf) -> complex:
        vec = lambda xs: np.array([rf.evaluate(float(x)) for x in xs])
        return gauss_character_integral(
            float(a.real), float(b.real), vec, radius=rf.decay_radius()
        )

    def local_rule(p: int, fp: PAdicTestFunction):
        res = integrate_qp(p, test_function=fp, quad=(a.component(p), b.component(p)))
        if not res.stabilized:
            raise ArithmeticError("local quadratic pairing did not stabilize")
        return res.value

    def extra(phi: ElementaryFunction) -> set[int]:
        return set(a.listed_primes) | set(b.listed_primes)

    return AdelicDistribution(
        name="chi-quad",
        real_rule=real_rule,
        local_rule=local_rule,
        extra_primes=extra,
        tail_rule=lambda p: float(omega(padic_norm(b.component(p), p))),
        tail_description="tail factors are Omega(|b_p|_p), all 1 by integrality",
    )


def schwartz_function_distribution(g: ElementaryFunction) -> AdelicDistribution:
    """An elementary function acting as a distribution: (g, phi) = int g phi.

    The integral reduces to the union of the two prime supports: local
    factors are exact integrals of pointwise products, the real factor is
    quadrature, and outside both supports the tail is int Omega^2 = 1.
    """

    def real_rule(rf) -> complex:
        xs, ws = _g_nodes()
        vals = np.array(
            [g.real_factor.evaluate(float(x)) * rf.evaluate(float(x)) for x in xs]
        )
        return complex(np.sum(vals * ws))

    def local_rule(p: int, fp: PAdicTestFunction):
        return (g.factor_at(p) * fp).integral()

    return AdelicDistribution(
        name="schwartz",
        real_rule=real_rule,
        local_rule=local_rule,
        extra_primes=lambda phi: set(g.prime_set),
        tail_rule=lambda p: 1.0,
        tail_description="int Omega_p^2 dx = 1 outside the union prime set",
    )


def _g_nodes():
    from .quadrature import panel_nodes

    return panel_nodes(-8.0, 8.0, panels=120, order=20)


def pi_alpha_distribution(alpha: complex) -> AdelicDistribution:
    """The multiplicative character |x|^alpha under d*x: the Mellin pairing.

    The tail is the certified Euler product over primes outside P, which
    assembles to zeta(alpha) times the explicit local factors; evaluation
    is delegated to the Mellin module (poles at alpha = 0, 1 raise).
    """
    from .mellin import phi_p

    def full(phi: ElementaryFunction) -> complex:
        return phi_p(phi, alpha).value

    return AdelicDistribution(
        name="pi-alpha",
        real_rule=lambda rf: 1.0,
        local_rule=lambda p, fp: 1.0,
        extra_primes=lambda phi: set(),
        tail_rule=None,
        tail_description="Euler tail prod (1-p^-alpha)^-1 = zeta(alpha) x finite part",
        full_rule=full,
    )
