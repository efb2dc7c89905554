"""Exact p-adic and adelic analysis toolkit.

Rational-exact valuations, norms and characters; Schwartz-Bruhat test
functions with an exact Fourier calculus; residue-sum and quadrature
integration oracles; closed-form local Gauss integrals with the adelic
product formula; Mellin transforms with the Tate / functional-equation
checks; and the adelic harmonic oscillator.
"""

from .adeles import (
    Adele,
    Idele,
    norm_product,
    principal_adele,
    principal_idele,
    zero_adele,
)
from .bruhat import (
    Ball,
    ElementaryFunction,
    HermiteGaussian,
    PAdicTestFunction,
    SchwartzBruhat,
    omega,
    vacuum_state,
)
from .characters import chi_inf, chi_p, chi_principal, pi_alpha
from .cyclotomic import Cyclo, UnitPhase
from .padic import PAdicApprox, digits, frac_part, padic_norm, valuation

__all__ = [
    "Adele",
    "Ball",
    "Cyclo",
    "ElementaryFunction",
    "HermiteGaussian",
    "Idele",
    "PAdicApprox",
    "PAdicTestFunction",
    "SchwartzBruhat",
    "UnitPhase",
    "chi_inf",
    "chi_p",
    "chi_principal",
    "digits",
    "frac_part",
    "norm_product",
    "omega",
    "padic_norm",
    "pi_alpha",
    "principal_adele",
    "principal_idele",
    "vacuum_state",
    "valuation",
    "zero_adele",
]

__version__ = "0.1.0"
