"""The adelic harmonic oscillator: p-adic trig, the evolution kernel, and
eigenstate/invariance checks.

p-adic sine and cosine are truncated factorial series, summed as integer
residues mod p^N and convergent for |t|_p <= 1/p (odd p) and |t|_2 <= 1/4.
The evolution kernel

    K_t(x, y) = lam(2 sin t) |sin t|^(-1/2) chi(x y / sin t - (x^2+y^2)/(2 tan t))

has one home, ``kernel_polar``: an exact phase and the squared modulus
|sin t|_p^(-1), as ``gauss.gauss_polar`` holds the Gauss factor (Dragovich,
"Adelic harmonic oscillator", IJMPA 10, 1995).  Its constants, and K_t(0, 0)
as one exact cyclotomic number, are one cached record per (p, t), which
``eigen_check`` reads as well: K_t(x, 0) = K_t(0, 0) chi_p(a x^2).
Eigenvalue checks pair the kernel against test functions through the
integration oracle, so the vacuum invariance assertions are exact zero
tests rather than small-float tests.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np

from .bruhat import PAdicTestFunction, hermite_value, vacuum_state
from .characters import chi_p
from .cyclotomic import Cyclo, UnitPhase, phase_sum, sqrt_prime_power
from .gauss import lambda_class_depth, lambda_inf_phase, lambda_p
from .integrate import Unstabilized, integrate_qp
from .mellin import DomainError
from .padic import PAdicApprox, PrecisionError, frac_part
from .primes import require_prime
from .quadrature import gauss_character_integral, panel_nodes, real_fourier_transform

F = Fraction

# highest precision the trig series run at, the only bound on their work: on
# a 2-core Xeon with Python 3.11 the kernel record takes 0.008 s at
# precision 400 and 0.06 s at 1,000 (p = 3, t = 3), 0.15 s at 1,000 for
# t = 3 * 7^40 / 11^40, and the series cost grows faster than the square of
# the precision
TRIG_MAX_PRECISION = 1000

# the finite places and the real grid of the vacuum self-duality check
VACUUM_PRIMES = (2, 3, 5, 7, 11)
VACUUM_GRID_POINTS = 1000


def _trig_series(t: PAdicApprox, odd_powers: bool) -> PAdicApprox:
    """sum (-1)^k t^(2k+1)/(2k+1)! (sine) or even counterpart (cosine), as
    an integer residue mod p^N."""
    p, n = t.prime, t.precision
    vt = t.valuation()
    need = 2 if p == 2 else 1
    if vt is not None and vt < need:
        raise DomainError(
            f"p-adic trig series needs |t|_p <= p^-{need}, got valuation {vt}"
        )
    if n > TRIG_MAX_PRECISION:
        raise DomainError(
            f"p-adic trig series at precision {n} is over the bound "
            f"of {TRIG_MAX_PRECISION:,}"
        )
    if vt is None:  # t = 0 at this precision: inside every domain
        return PAdicApprox(p, F(0) if odd_powers else F(1), n)
    # v(t^k/k!) >= k*vt - (k-1)/(p-1), monotone on the domain, so the first
    # k where that bound reaches N cuts off a tail that vanishes mod p^N
    k_cut = 1 if odd_powers else 2
    while k_cut * vt * (p - 1) - (k_cut - 1) < n * (p - 1):
        k_cut += 2
    # t^k is summed mod p^(N+e), e the largest v(k!), so that dividing out
    # v(k!) leaves it known mod p^N
    pn, mod = p**n, p ** (n + _factorial_valuation(max(k_cut - 2, 0), p))
    x = t.approximant.numerator * pow(t.approximant.denominator, -1, mod) % mod
    x2 = x * x % mod
    power = x if odd_powers else 1
    total, inv_unit, done = 0, 1, 0  # 1 / (k! with its factors p removed) mod p^N
    for i, k in enumerate(range(1 if odd_powers else 0, k_cut, 2)):
        for j in range(done + 1, k + 1):
            while j % p == 0:
                j //= p
            inv_unit = inv_unit * pow(j, -1, pn) % pn
        done = k
        term = power // p ** _factorial_valuation(k, p) * inv_unit
        total += -term if i % 2 else term
        power = power * x2 % mod
    return PAdicApprox(p, F(total % pn), n)


def _factorial_valuation(k: int, p: int) -> int:
    """v_p(k!) by Legendre's formula."""
    v = 0
    while k:
        k //= p
        v += k
    return v


def padic_sin(t: PAdicApprox) -> PAdicApprox:
    return _trig_series(t, odd_powers=True)


def padic_cos(t: PAdicApprox) -> PAdicApprox:
    return _trig_series(t, odd_powers=False)


def _lambda_p_checked(p: int, z: PAdicApprox) -> UnitPhase:
    """lambda_p of an approximate value, verifying the class is pinned down."""
    v = z.valuation()
    if v is None:
        raise PrecisionError("cannot take lambda of a value indistinguishable from 0")
    need = v + lambda_class_depth(p)
    if z.precision < need:
        raise PrecisionError(
            f"lambda_{p} needs the unit class mod p^{need}, precision is {z.precision}"
        )
    return lambda_p(p, z.approximant)


def _require_nonzero_sin(t: PAdicApprox, sin_t: PAdicApprox):
    if not sin_t.is_zero_at_precision():
        return
    if t.approximant == 0:
        raise DomainError("sin t = 0: the kernel degenerates to the delta")
    raise PrecisionError(
        "sin t is indistinguishable from 0 at this precision; raise N"
    )


@functools.lru_cache(maxsize=64)
def _kernel(p: int, t: PAdicApprox) -> tuple[Fraction, int, UnitPhase, Fraction, Cyclo]:
    """The kernel record of (p, t): s and v(s), with s the rational
    approximant of sin t, lam_p(2 sin t), a = -cos t / (2 sin t), and
    K_t(0, 0) = lam_p(2 sin t) p^(v/2) as one exact cyclotomic number."""
    require_prime(p)
    sin_t = padic_sin(t)
    _require_nonzero_sin(t, sin_t)
    s, v = sin_t.approximant, sin_t.valuation()
    a = -padic_cos(t).approximant / (2 * s)
    lam = _lambda_p_checked(p, sin_t * 2)
    return s, v, lam, a, lam.as_cyclo() * sqrt_prime_power(p, v)


def kernel_polar(
    p: int, t: PAdicApprox, x: Fraction, y: Fraction
) -> tuple[UnitPhase, Fraction]:
    """The local kernel K_t(x, y) as its exact phase and squared modulus.

    The phase is lam_p(2 sin t) chi_p(x y / s + (x^2 + y^2) a) and the
    squared modulus is |sin t|_p^(-1) = p^v(sin t), with s the rational
    approximant of sin t and a = -cos t / (2 sin t), read off the cached
    (p, t) record.
    """
    s, v, lam, a, _ = _kernel(p, t)
    return lam * chi_p(x * y / s + (x * x + y * y) * a, p), F(p) ** v


def eigen_check(
    p: int,
    t: PAdicApprox,
    psi_p: PAdicTestFunction,
    energy: Fraction,
    samples: list[Fraction],
) -> float:
    """max_x | int K_t(x, y) psi(y) dy - chi_p(E t) psi(x) | over the samples.

    The y-integral is the integration oracle applied to
    psi(y) chi(a y^2 + b y) with a = -cos t/(2 sin t), b = x / sin t, times
    the prefactor K_t(x, 0) = K_t(0, 0) chi_p(a x^2); s, a and K_t(0, 0)
    are read off the cached (p, t) record, and everything stays in exact
    cyclotomic arithmetic, so a vanishing deviation is exactly zero.

    The kernel is evaluated with the rational approximants of sin and tan;
    with the default precision the congruence class pins down every
    character value that appears, so the approximant substitution is exact.
    """
    s, _, _, a, origin = _kernel(p, t)
    e_t = frac_part(energy * t.approximant, p)
    worst = 0.0
    for x in samples:
        integral = integrate_qp(p, test_function=psi_p, quad=(a, x / s))
        if not integral.stabilized:
            raise Unstabilized(f"eigen check integral did not stabilize at x={x}")
        # K_t(x, y) = K_t(0, 0) chi_p(a x^2) chi_p(a y^2 + b y): the phases
        # chi_p(a x^2) and chi_p(E t) shift exponents in one phase_sum each
        # (the second is no work when E t is p-integral), so the one
        # multiply per sample is by K_t(0, 0)
        q = frac_part(a * x * x, p)
        lhs = origin * phase_sum([(integral.value, q.numerator, q.denominator)])
        diff = lhs - phase_sum([(psi_p.evaluate(x), e_t.numerator, e_t.denominator)])
        if not diff.is_zero():
            # a nonzero deviation below the double range reads as the
            # smallest subnormal, never as 0.0
            worst = max(worst, abs(diff.to_complex()) or math.ulp(0.0))
    return worst


# ---------------------------------------------------------------------------
# real-place checks
# ---------------------------------------------------------------------------


def vacuum_fourier_check() -> tuple[bool, float]:
    """Self-duality of the vacuum: exact at the finite places
    ``VACUUM_PRIMES``, numeric sup-error against the quadrature transform
    on ``VACUUM_GRID_POINTS`` points of [-5, 5]."""
    exact_ok = all(
        PAdicTestFunction.omega(p).fourier() == PAdicTestFunction.omega(p)
        for p in VACUUM_PRIMES
    )
    psi = vacuum_state().real_factor
    xis = np.linspace(-5.0, 5.0, VACUUM_GRID_POINTS)
    transformed = real_fourier_transform(psi.evaluate, xis)
    sup_err = float(np.max(np.abs(transformed - psi.evaluate(xis))))
    return exact_ok, sup_err


def hermite_state_values(n: int, xs: np.ndarray) -> np.ndarray:
    """The orthonormal oscillator state 2^(1/4)(2^n n!)^(-1/2) e^(-pi x^2)
    H_n(x sqrt(2 pi)) on a grid."""
    coeff = 2**0.25 / math.sqrt(2**n * math.factorial(n))
    hv = hermite_value(n, xs * math.sqrt(2 * math.pi))
    return coeff * np.exp(-math.pi * xs * xs) * hv


def real_state_orthonormality(max_degree: int) -> float:
    """max |Gram - I| over the oscillator states up to max_degree."""
    if max_degree > 12:
        raise ValueError("orthonormality check supports degrees <= 12")
    xs, ws = panel_nodes(-9.0, 9.0, panels=160, order=20)
    states = np.array([hermite_state_values(n, xs) for n in range(max_degree + 1)])
    gram = (states * ws) @ states.T
    return float(np.max(np.abs(gram - np.eye(max_degree + 1))))


def real_evolution_apply(t: float, psi_vals, xs_out: np.ndarray) -> np.ndarray:
    """U(t) psi on a grid: at each x, K_t(x, 0) times the Gauss-character
    integral of psi with a = -cos t/(2 sin t) and b = x / sin t.

    ``psi_vals`` maps an array of nodes to the values of psi there.
    """
    s, c = math.sin(t), math.cos(t)
    if abs(s) < 1e-9:
        raise DomainError("sin t too small for the quadrature kernel")
    a = -c / (2 * s)
    pref = lambda_inf_phase(2 * s).value * abs(s) ** -0.5
    return np.array([
        pref * cmath.exp(-2j * math.pi * a * x * x) * gauss_character_integral(a, x / s, psi_vals)
        for x in xs_out
    ])


def unitarity_probe(t: float = 0.7) -> tuple[float, complex]:
    """Norm preservation of U(t) on the vacuum plus the measured phase.

    Returns (| ||U psi0||^2 - 1 |, U psi0(0) / psi0(0)); the phase is
    reported, not asserted, since the vacuum's real energy phase is a
    convention the evolution check measures.
    """
    psi = vacuum_state().real_factor
    xs, ws = panel_nodes(-8.0, 8.0, panels=160, order=20)
    uvals = real_evolution_apply(t, psi.evaluate, xs)
    norm_sq = float(np.sum(np.abs(uvals) ** 2 * ws))
    u0 = real_evolution_apply(t, psi.evaluate, np.array([0.0]))[0]
    return abs(norm_sq - 1.0), u0 / psi.evaluate(0.0)
