"""Mellin transforms, zeta and gamma numerics, and the Tate-formula check.

The multiplicative pairing of an elementary function factors as

    real factor x prod_{p in P} (local factor) x zeta(alpha),

where each local factor is an exact Laurent polynomial in u = p**(-alpha)
(assembled symbolically, so analytic continuation into the critical strip
is automatic) and the only poles of the product are alpha = 0 (gamma) and
alpha = 1 (zeta).

zeta is computed from the alternating (eta) series with Chebyshev-style
acceleration, valid for Re alpha > 0; the functional equation is *never*
used internally because it is precisely the identity under test.  gamma
uses Spouge's rational approximation with reflection, with coefficients
generated at the working precision rather than transcribed.  Both run on
a private mpmath context with ``WORKING_DPS`` = 50 significant digits so
that strip residuals near 1e-10 have headroom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
import mpmath
from mpmath import mp

from .bruhat import ElementaryFunction, HermiteGaussian, PAdicTestFunction, hermite_coefficients
from .cyclotomic import Cyclo
from .padic import valuation
from .primes import require_prime

F = Fraction

# working precision (significant digits); every strip tolerance assumes it
WORKING_DPS = 50

# largest |Im alpha| for zeta: the eta series takes about 0.9 |Im alpha|
# terms, with exact integer coefficients of about 0.7 |Im alpha| digits each
ZETA_MAX_HEIGHT = 1000

_CTX = mp.clone()
_CTX.dps = WORKING_DPS


class DomainError(ValueError):
    """Evaluation requested at a pole or outside the supported domain."""


def _to_mpc(ctx, z) -> "mpmath.mpc":
    if isinstance(z, complex):
        return ctx.mpc(z.real, z.imag)
    return ctx.mpc(z)


# ---------------------------------------------------------------------------
# Riemann zeta via the accelerated alternating series
# ---------------------------------------------------------------------------

_ETA_D_CACHE: dict[int, list[int]] = {}


def _eta_coefficients(n: int) -> list[int]:
    """d_k = n * sum_{j<=k} (n+j-1)! 4^j / ((n-j)! (2j)!), exact integers."""
    hit = _ETA_D_CACHE.get(n)
    if hit is not None:
        return hit
    term = F(1)  # j = 0 value of n * (n-1)!/n! = 1
    partial = [term]
    for j in range(1, n + 1):
        term = term * 4 * (n + j - 1) * (n - j + 1)
        term = term / ((2 * j - 1) * (2 * j))
        partial.append(partial[-1] + term)
    out = []
    for s in partial:
        assert s.denominator == 1
        out.append(int(s))
    _ETA_D_CACHE[n] = out
    return out


def zeta_mp(alpha, ctx=None):
    """zeta(alpha) for Re alpha > 0, alpha != 1, at context precision."""
    ctx = ctx or _CTX
    s = _to_mpc(ctx, alpha)
    if s.real <= 0:
        raise DomainError("zeta is computed only for Re alpha > 0")
    if s == 1:
        raise DomainError("zeta has its pole at alpha = 1")
    t = abs(float(s.imag))
    if t > ZETA_MAX_HEIGHT:
        raise DomainError(f"zeta is computed only for |Im alpha| <= {ZETA_MAX_HEIGHT}")
    # error ~ (3+sqrt8)^-n * (1+2|t|) e^(pi |t| / 2): solve for n with margin
    digits = ctx.dps + 10
    n = int((2.302585 * digits + 1.5708 * t + 12.0) / 1.7627) + 5
    d = _eta_coefficients(n)
    dn = d[n]
    total = ctx.mpf(0)
    for k in range(n):
        term = ctx.mpf(d[k] - dn) * ctx.power(k + 1, -s)
        total += term if k % 2 == 0 else -term
    eta_factor = 1 - ctx.power(2, 1 - s)
    return -total / (dn * eta_factor)


def zeta(alpha: complex) -> complex:
    """Riemann zeta on Re alpha > 0 (alpha != 1), double-precision boundary."""
    return complex(zeta_mp(alpha))


def euler_product_zeta(alpha: complex, prime_bound: int, ctx=None) -> complex:
    """Truncated Euler product over p <= prime_bound; test-side comparator."""
    from .primes import primes_up_to

    ctx = ctx or _CTX
    s = _to_mpc(ctx, alpha)
    prod = ctx.mpf(1)
    for p in primes_up_to(prime_bound):
        prod = prod / (1 - ctx.power(p, -s))
    return complex(prod)


# ---------------------------------------------------------------------------
# gamma via Spouge's approximation with reflection
# ---------------------------------------------------------------------------

_SPOUGE_CACHE: dict[tuple[int, int], tuple] = {}


def _spouge_coefficients(a: int, ctx):
    key = (a, ctx.dps)
    hit = _SPOUGE_CACHE.get(key)
    if hit is not None:
        return hit
    with mpmath.workdps(ctx.dps + 20):
        c0 = mpmath.sqrt(2 * mpmath.pi)
        cs = []
        for k in range(1, a):
            ck = (
                mpmath.power(-1, k - 1)
                / mpmath.factorial(k - 1)
                * mpmath.power(a - k, k - mpmath.mpf(1) / 2)
                * mpmath.exp(a - k)
            )
            cs.append(ck)
        out = (ctx.mpf(c0), tuple(ctx.mpf(c) for c in cs))
    _SPOUGE_CACHE[key] = out
    return out


def gamma_mp(alpha, ctx=None):
    """Euler gamma via Spouge's rational approximation with reflection."""
    ctx = ctx or _CTX
    z = _to_mpc(ctx, alpha)
    if z.imag == 0 and z.real <= 0 and z.real == int(z.real):
        raise DomainError(f"gamma has a pole at {alpha}")
    if z.real < ctx.mpf(1) / 2:
        # reflection: gamma(z) gamma(1-z) = pi / sin(pi z)
        return ctx.pi / (ctx.sin(ctx.pi * z) * gamma_mp(1 - z, ctx))
    a = int(1.3 * ctx.dps) + 3
    c0, cs = _spouge_coefficients(a, ctx)
    zm = z - 1
    acc = ctx.mpc(c0)
    for k, ck in enumerate(cs, start=1):
        acc += ck / (zm + k)
    return ctx.power(zm + a, zm + ctx.mpf(1) / 2) * ctx.exp(-(zm + a)) * acc


def gamma_fn(alpha: complex) -> complex:
    return complex(gamma_mp(alpha))


# ---------------------------------------------------------------------------
# local Mellin factors: exact Laurent polynomials in u = p^-alpha
# ---------------------------------------------------------------------------


@dataclass
class LocalMellinFactor:
    """(1 - p^-alpha)/(1 - p^-1) * int |x|^(alpha-1) phi_p(x) dx as a
    Laurent polynomial sum_e coeffs[e] * u**e with u = p^-alpha."""

    prime: int
    coeffs: dict[int, Cyclo]

    def evaluate_mp(self, alpha, ctx=None):
        ctx = ctx or _CTX
        s = _to_mpc(ctx, alpha)
        u = ctx.power(self.prime, -s)
        total = ctx.mpc(0)
        for e, c in self.coeffs.items():
            cc = c.to_complex()
            total += ctx.mpc(cc.real, cc.imag) * ctx.power(u, e)
        return total

    def evaluate(self, alpha: complex) -> complex:
        return complex(self.evaluate_mp(alpha))

    def is_one(self) -> bool:
        return self.coeffs == {0: Cyclo(1)}


def mellin_local(phi_p: PAdicTestFunction, p: int | None = None) -> LocalMellinFactor:
    """Exact local factor of the multiplicative pairing.

    Per canonical term on the ball c + p**k Z_p with modulation m:
      * 0 not in ball: |x| = |c| is constant, contributing
        chi-weighted |c|^(alpha-1) p^-k, i.e. u^{v(c)} * p^(v(c)-k) * chi(mc);
      * ball p**k Z_p, m = 0: geometric sphere series, normalized to u^k;
      * ball p**k Z_p, m != 0: the sphere series truncates at j = -v(m),
        leaving u^{j0}-terms plus a boundary correction at j0 - 1.
    All contributions are assembled over the common denominator (1-u) and
    the normalization (1-u)/(1-1/p) is folded in symbolically.
    """
    p = p or phi_p.prime
    require_prime(p)
    if p != phi_p.prime:
        raise ValueError("prime mismatch")
    # I(u) = int |x|^{alpha-1} phi = N0(u) + N1(u)/(1-u), assembled exactly
    n0: dict[int, Cyclo] = {}
    n1: dict[int, Cyclo] = {}

    for (ball, mod), coeff in phi_p.terms.items():
        k = ball.radius_exp
        if not ball.contains(F(0)):
            if mod != 0:
                # |x| is constant on the ball and the canonical modulation
                # is a nontrivial character there: the integral vanishes
                continue
            vc = valuation(ball.center, p).value
            _acc(n0, vc, coeff * F(p) ** (vc - k))
        elif mod == 0:
            # int over p^k Z_p: (1-1/p) u^k/(1-u), normalized later
            _acc(n1, k, coeff * (1 - F(1, p)))
        else:
            j0 = -valuation(mod, p).value  # > k for canonical modulation
            _acc(n1, j0, coeff * (1 - F(1, p)))
            _acc(n0, j0 - 1, coeff * F(-1, p))
    # normalized factor: (1-u)/(1-1/p) * I(u) = [N0(u)(1-u) + N1(u)]/(1-1/p)
    out: dict[int, Cyclo] = {}
    norm = 1 / (1 - F(1, p))
    for e, c in n0.items():
        _acc(out, e, c * norm)
        _acc(out, e + 1, -c * norm)
    for e, c in n1.items():
        _acc(out, e, c * norm)
    return LocalMellinFactor(p, {e: c for e, c in out.items() if not c.is_zero()})


def _acc(d: dict, e: int, c: Cyclo):
    prev = d.get(e)
    d[e] = c if prev is None else prev + c


# ---------------------------------------------------------------------------
# real Mellin factor
# ---------------------------------------------------------------------------


def mellin_real_mp(phi_inf, alpha, ctx=None):
    """int |x|^(alpha-1) phi_inf(x) dx for Re alpha > 0.

    Hermite-Gaussian combinations use the closed form
    pi^(-alpha/2) sum_r h_r 2^r Gamma(alpha/2 + r) per even degree (odd
    degrees vanish by parity); generic profiles fall back to quadrature.
    """
    ctx = ctx or _CTX
    s = _to_mpc(ctx, alpha)
    if s.real <= 0:
        raise DomainError("real Mellin factor needs Re alpha > 0")
    if isinstance(phi_inf, HermiteGaussian):
        total = ctx.mpc(0)
        for n, c in phi_inf.coeffs.items():
            if n % 2 == 1:
                continue
            coeffs = hermite_coefficients(n)
            inner = ctx.mpc(0)
            for r in range(0, n // 2 + 1):
                h = coeffs[2 * r]
                if h:
                    inner += ctx.mpf(h) * ctx.power(2, r) * gamma_mp(s / 2 + r, ctx)
            cc = c.to_complex()
            total += ctx.mpc(cc.real, cc.imag) * inner
        return ctx.power(ctx.pi, -s / 2) * total
    # generic sampled profile: tanh-sinh quadrature on the half-line pair
    radius = phi_inf.decay_radius()
    with mpmath.workdps(ctx.dps):
        val = mpmath.quad(
            lambda x: mpmath.power(x, s - 1)
            * (_to_mpc(ctx, complex(phi_inf.evaluate(float(x))))
               + _to_mpc(ctx, complex(phi_inf.evaluate(-float(x))))),
            [0, radius],
        )
    return _to_mpc(ctx, complex(val))


def mellin_real(phi_inf, alpha: complex) -> complex:
    return complex(mellin_real_mp(phi_inf, alpha))


# ---------------------------------------------------------------------------
# the assembled transform and the functional-equation checks
# ---------------------------------------------------------------------------


def phi_p(phi: ElementaryFunction, alpha: complex) -> complex:
    """The multiplicative pairing Phi_P(alpha) of an elementary function.

    Defined by the product for Re alpha > 1 and continued into
    0 < Re alpha < 1 automatically: local factors are polynomials in
    p^-alpha, the real factor continues through its gamma closed form, and
    the eta series covers zeta on the strip.  alpha = 0 and alpha = 1 are
    the simple poles of the assembly.
    """
    ctx = _CTX
    s = _to_mpc(ctx, alpha)
    if s == 0 or s == 1:
        raise DomainError("Phi has simple poles at alpha = 0 and alpha = 1")
    if s.real <= 0:
        raise DomainError("Phi is evaluated on Re alpha > 0")
    product = mellin_real_mp(phi.real_factor, alpha, ctx)
    for p, f in phi.prime_factors.items():
        product *= mellin_local(f, p).evaluate_mp(alpha, ctx)
    product *= zeta_mp(alpha, ctx)
    return complex(product)


def tate_check(phi: ElementaryFunction, alpha: complex) -> float:
    """|Phi_P(alpha) - Phi~_P(1 - alpha)| with both sides independent.

    Phi~ is the pairing of the Fourier transform; for 0 < Re alpha < 1
    both sides are directly computable and the residual probes the
    adelic functional equation.
    """
    a = complex(alpha)
    if not 0 < a.real < 1:
        raise DomainError("tate_check needs 0 < Re alpha < 1")
    lhs = phi_p(phi, a)
    rhs = phi_p(phi.fourier(), 1 - a)
    return abs(lhs - rhs)


def _completed_zeta_mp(s):
    """Lambda(s) = pi^(-s/2) Gamma(s/2) zeta(s) in the working context."""
    ctx = _CTX
    return ctx.power(ctx.pi, -s / 2) * gamma_mp(s / 2, ctx) * zeta_mp(s, ctx)


def functional_equation_residual(alpha: complex) -> float:
    """|Lambda(a) - Lambda(1 - a)| for the completed zeta Lambda."""
    a = complex(alpha)
    if not 0 < a.real < 1:
        raise DomainError("functional equation check needs 0 < Re alpha < 1")
    s = _to_mpc(_CTX, a)
    return float(abs(_completed_zeta_mp(s) - _completed_zeta_mp(1 - s)))


def completed_zeta_side(alpha: complex) -> complex:
    """pi^(-a/2) Gamma(a/2) zeta(a), one side of the functional equation."""
    return complex(_completed_zeta_mp(_to_mpc(_CTX, complex(alpha))))
