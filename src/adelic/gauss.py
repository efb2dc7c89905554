"""Local Gauss integrals, their arithmetic constants, and the product formula.

The closed form at every place is

    int chi_v(a x^2 + b x) dx = lam_v(a) |2a|_v^(-1/2) chi_v(-b^2/(4a)),

with lam_v(a) a unit-modulus constant.  For rational a and b that is an
exact phase times sqrt(|2a|_v^(-1)), the polar form ``gauss_polar``; every
closed form below and the product formula are read off it.  The lambda
tables were derived by running the residue-sum oracle over all residue
classes (re-runnable, see ``calibrate_lambda_p``) and then frozen:

real place:    lam_inf(a) = e^(-i pi sign(a)/4)
odd p, v(a) even:  lam_p = 1
odd p, v(a) odd:   lam_p = (u|p)        for p = 1 mod 4
                   lam_p = (u|p) * i    for p = 3 mod 4   (u = unit part)
p = 2, v(a) even:  lam_2 = e^( i pi/4)  for u = 1 mod 4
                   lam_2 = e^(-i pi/4)  for u = 3 mod 4
p = 2, v(a) odd:   lam_2 = e^(i pi u/4) by u mod 8

All are invariant under a -> a c^2 and multiply to 1 over all places for
rational a, which pins down the phase convention globally.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .adeles import Adele, Idele, principal_adele, principal_idele
from .bruhat import Ball, ElementaryFunction, PAdicTestFunction, omega
from .characters import chi_inf_phase, chi_p
from .cyclotomic import Cyclo, UnitPhase, sqrt_prime_power
from .integrate import Unstabilized, integrate_qp, stabilized_ball_sum
from .padic import padic_norm, unit_part_mod, valuation
from .primes import legendre_symbol, require_prime
from .quadrature import gauss_character_integral

F = Fraction

# most oracle cells one calibration runs: on a 2-core Xeon with Python 3.11,
# 150 cells (p = 31) take 0.5 s, 300 (p = 61) 2.6 s and 500 (p = 101) 11 s
CALIBRATION_MAX_CELLS = 300


def lambda_inf_phase(a: Fraction | float) -> UnitPhase:
    """lam at the real place: the Fresnel phase e^(-i pi sign(a)/4)."""
    if a == 0:
        raise ValueError("lambda requires a != 0")
    return UnitPhase(F(-1, 8) if a > 0 else F(1, 8))


def lambda_p(p: int, a: Fraction | int) -> UnitPhase:
    """The p-adic Gauss constant from the frozen residue table."""
    require_prime(p)
    a = Fraction(a)
    if a == 0:
        raise ValueError("lambda requires a != 0")
    v = valuation(a, p).value
    if p == 2:
        u8 = unit_part_mod(a, 2, 3)
        if v % 2 == 0:
            return UnitPhase(F(1, 8) if u8 % 4 == 1 else F(-1, 8))
        return UnitPhase(F(u8, 8))
    if v % 2 == 0:
        return UnitPhase(F(0))
    leg = legendre_symbol(unit_part_mod(a, p, 1), p)
    if p % 4 == 1:
        return UnitPhase(F(0) if leg == 1 else F(1, 2))
    return UnitPhase(F(1, 4) if leg == 1 else F(3, 4))


def sqrt_norm_2a_inv(p: int, a: Fraction) -> Cyclo:
    """|2a|_p^(-1/2) = p**(v(2a)/2) as an exact cyclotomic."""
    return sqrt_prime_power(p, valuation(2 * a, p).value)


def lambda_class_depth(p: int) -> int:
    """lam_p(u p**v) is fixed by the unit class u mod p**d, with d = 3 for
    p = 2 (u mod 8) and d = 1 otherwise."""
    return 3 if p == 2 else 1


def class_representatives(p: int) -> list[Fraction]:
    """One a = u p**v per (valuation, unit class) cell, valuation-major, for
    the five valuations -2..2.

    The unit classes are those that fix lam_p (``lambda_class_depth``).
    """
    units = [u for u in range(1, p ** lambda_class_depth(p)) if u % p]
    return [F(u) * F(p) ** v for v in range(-2, 3) for u in units]


def gauss_polar(p: int | None, a, b) -> tuple[UnitPhase, Fraction]:
    """The Gauss factor at p (p = None: the real place) as its exact phase
    and squared modulus.  A float a or b is taken as the rational it is."""
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        raise ValueError("Gauss integral requires a != 0")
    c = -b * b / (4 * a)
    if p is None:
        return lambda_inf_phase(a) * chi_inf_phase(c), 1 / abs(2 * a)
    return lambda_p(p, a) * chi_p(c, p), 1 / padic_norm(2 * a, p)


def gauss_integral_p_exact(p: int, a: Fraction | int, b: Fraction | int = 0) -> Cyclo:
    """The exact closed form lam_p(a) |2a|_p^(-1/2) chi_p(-b^2/4a)."""
    return gauss_polar(p, a, b)[0].as_cyclo() * sqrt_norm_2a_inv(p, Fraction(a))


def gauss_integral_inf(a: Fraction | float, b: Fraction | float = 0) -> complex:
    """lam_inf(a) |2a|^(-1/2) chi_inf(-b^2/4a) at the real place."""
    ph, m2 = gauss_polar(None, a, b)
    return ph.value * math.sqrt(m2)


def _places(a: Idele, b: Adele) -> list[int]:
    """The primes where a local Gauss factor of (a, b) can differ from 1,
    sorted: 2 and the listed primes of a and b.  Elsewhere |a_p|_p = 1 and
    |b_p|_p <= 1 make the factor exactly 1."""
    return sorted({2} | set(a.listed_primes) | set(b.listed_primes))


def kernel_k_polar(a: Idele, b: Adele) -> tuple[UnitPhase, Fraction]:
    """K(a, b) = prod_v lam_v(a_v) |2 a_v|_v^(-1/2) chi_v(-b_v^2/(4 a_v)) in
    polar form, over the real place and ``_places(a, b)``.  On principal
    points it is the product formula: K(r, s) = (UnitPhase(0), 1)."""
    ph, m2 = gauss_polar(None, a.real, b.real)
    for p in _places(a, b):
        q, n = gauss_polar(p, a.component(p), b.component(p))
        ph, m2 = ph * q, m2 * n
    return ph, m2


def kernel_k(a: Idele, b: Adele) -> complex:
    """``kernel_k_polar`` as a complex number."""
    ph, m2 = kernel_k_polar(a, b)
    return ph.value * math.sqrt(m2)


def lambda_product_check(a: Fraction | int) -> UnitPhase:
    """lam_inf(a) * prod_p lam_p(a), the phase of K(a, 0); contract: 0."""
    return kernel_k_polar(principal_idele(a), principal_adele(0))[0]


# ---------------------------------------------------------------------------
# the Lambda transform: integrating the kernel against a test function in a
# ---------------------------------------------------------------------------


def _lambda_ball(p: int, ball: Ball, b: Fraction, mod: Fraction) -> Cyclo:
    """The Lambda integrand gamma_p(c, b) chi_p(mod*c) over a ball away from 0,
    summed once at its constancy level (gamma_p = ``gauss_integral_p_exact``).

    Only the phase is summed; the surd |2c|_p^(-1/2) is constant on a ball
    without 0.  The phase is constant on cosets of p**L Z_p for L at least
    each of four bounds, and their maximum is the certificate: the radius
    k; v(c) + ``lambda_class_depth``, which fixes lam_p's unit class;
    2 v(c) - v(beta), as chi(beta/c), beta = -b^2/4, moves by
    beta*y/(c(c+y)); and -v(mod), as chi(mod*c) moves by chi(mod*y), which
    binds for integral mod too on balls wider than Z_p.
    """
    k = ball.radius_exp
    vc = valuation(ball.center, p).value
    lvl = max(k, vc + lambda_class_depth(p))
    if b != 0:
        lvl = max(lvl, 2 * vc - valuation(-b * b / 4, p).value)
    if mod != 0:
        lvl = max(lvl, -valuation(mod, p).value)
    part = stabilized_ball_sum(
        p, ball,
        lambda c: (gauss_polar(p, c, b)[0] * chi_p(mod * c, p)).as_cyclo(),
        lvl,
    )
    if not part.stabilized:
        raise Unstabilized("Lambda transform local integral did not stabilize")
    return part.value * sqrt_norm_2a_inv(p, ball.center)


def lambda_local_transform(p: int, f: PAdicTestFunction, b_p: Fraction) -> Cyclo:
    """Lambda_p[f](b) = int lam_p(a) |2a|_p^(-1/2) chi_p(-b^2/(4a)) f(a) da.

    Exact: a ball away from 0 is one residue sum at its certified level
    (``_lambda_ball``); a ball p**k Z_p around 0 is summed sphere by
    sphere up to a certified cut (``_lambda_ball_at_zero``), past which
    the spheres vanish identically when b != 0 (a Moebius substitution
    turns the class integrals into ball character integrals of conductor
    beyond the ball size), while for b = 0 the even spheres form an exact
    geometric series with sum p**(-V/2).
    """
    require_prime(p)
    b_p = Fraction(b_p)
    total = Cyclo()
    for (ball, mod), coeff in f.terms.items():
        if not ball.contains(F(0)):
            total = total + coeff * _lambda_ball(p, ball, b_p, mod)
        else:
            total = total + coeff * _lambda_ball_at_zero(p, ball.radius_exp, b_p, mod)
    return total


def _lambda_ball_at_zero(p: int, k: int, b: Fraction, mod: Fraction) -> Cyclo:
    """The Lambda integrand over p**k Z_p: finite spheres + certified tail.

    The Moebius substitution argument kills spheres beyond v(beta),
    beta = -b^2/4, plus the level where lam_p is constant on a class ball
    (``lambda_class_depth``); from the sphere -v(mod) on, chi(mod*a) is 1,
    so the tail or that vanishing covers it and the cut needs only the
    sphere below.
    """
    v_cut = k
    if b != 0:
        v_cut = max(v_cut, valuation(-b * b / 4, p).value + lambda_class_depth(p))
    if mod != 0:
        v_cut = max(v_cut, -valuation(mod, p).value - 1)
    total = Cyclo()
    for v in range(k, v_cut + 1):
        # the sphere |a|_p = p**-v, tiled by its p - 1 leading-digit balls
        for u in range(1, p):
            total = total + _lambda_ball(p, Ball(p, F(u) * F(p) ** v, v + 1), b, mod)
    if b == 0:
        # remaining spheres: odd ones cancel inside the lambda table, even
        # ones sum geometrically to p**(-V/2) for the first even V > v_cut
        v_even = v_cut + 1 if (v_cut + 1) % 2 == 0 else v_cut + 2
        total = total + F(p) ** (-(v_even // 2))
    return total


def lambda_transform(phi: ElementaryFunction, b: Adele) -> complex:
    """Lambda[phi](b): real factor times local factors times Omega tails."""
    total = Cyclo(1)
    for p_prime, f in phi.prime_factors.items():
        total = total * lambda_local_transform(p_prime, f, b.component(p_prime))
        if total.is_zero():
            return 0j
    for p_prime in b.listed_primes:
        if p_prime not in phi.prime_factors:
            if omega(b.norm_at(p_prime)) == 0:
                return 0j
    real_part = _lambda_real_transform(phi, float(b.real))
    return real_part * total.to_complex()


def _lambda_real_transform(phi: ElementaryFunction, b_inf: float) -> complex:
    """Lambda_inf[phi](b) = int phihat(x^2) chi_inf(b x) dx.

    Swapping the Gauss integral with the test integral turns the kernel
    integral into the Fourier transform of phi evaluated on the parabola,
    which decays like a Gaussian in x**2 and integrates comfortably.
    """
    ft = phi.real_factor.fourier()
    return gauss_character_integral(0.0, b_inf, lambda xs: ft.evaluate(xs * xs))


# ---------------------------------------------------------------------------
# calibration: re-derive the frozen lambda table from the oracle
# ---------------------------------------------------------------------------


def calibrate_lambda_p(p: int) -> dict[Fraction, Cyclo]:
    """Derive lam_p(a) = oracle(a) * |2a|_p^(1/2) over all residue classes.

    Runs the full-space oracle on chi_p(a x^2) for one representative per
    (valuation, unit class) cell and divides out the modulus.  The result must reproduce ``lambda_p`` exactly; the test
    suite asserts this, keeping the frozen table honest.
    """
    require_prime(p)
    # the cells of class_representatives, counted before any is built
    cells = 5 * (p - 1) * p ** (lambda_class_depth(p) - 1)
    if cells > CALIBRATION_MAX_CELLS:
        raise ValueError(
            f"calibrating lambda_{p} needs {cells:,} oracle cells, more than "
            f"the bound of {CALIBRATION_MAX_CELLS}"
        )
    out: dict[Fraction, Cyclo] = {}
    for a in class_representatives(p):
        res = integrate_qp(p, quad=(a, F(0)))
        if not res.stabilized:
            raise Unstabilized(f"oracle did not stabilize for a={a}")
        # |2a|^(1/2) = |2a| * |2a|^(-1/2)
        out[a] = res.value * (padic_norm(2 * a, p) * sqrt_norm_2a_inv(p, a))
    return out
