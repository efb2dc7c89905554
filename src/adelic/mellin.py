"""Mellin transforms, zeta and gamma numerics, and the Tate-formula check.

The multiplicative pairing of an elementary function factors as

    real factor x prod_{p in P} (local factor) x zeta(alpha),

where each local factor is an exact Laurent polynomial in u = p**(-alpha)
(assembled symbolically, so analytic continuation into the critical strip
is automatic) and the only poles of the product are alpha = 0 (gamma) and
alpha = 1 (zeta).

zeta and gamma are mpmath's own ``zeta`` and ``gamma``, both on a private
mpmath context with ``WORKING_DPS`` = 50 significant digits so that strip
residuals near 1e-10 have headroom.  The functional equation is *never*
used internally, because it is precisely the identity under test: on the
domain that ``zeta_mp`` accepts, mpmath never reflects (see there).

A Tate or functional-equation run evaluates many functions at a few shared
strip points, so the values that depend on the argument alone live in one
record per point, ``_StripPoint``, kept in one LRU of ``_MEMO_SIZE`` points:
zeta(s), Tate's real factor Gamma_R(s) = pi^(-s/2) Gamma(s/2), the Hermite
polynomial P_n(s) of each degree and the powers p^(-e s) of each prime,
each computed when first asked and then read.  A record keys on its
working-precision argument's raw ``_mpc_`` tuple, or on a double argument
itself, whose conversion is exact; a point is converted and checked once,
and a value is computed by the same expression, in the same order, as
without the record.  ``phi_p`` passes its point on to the factor readers,
so none of them looks it up again.  Each function converts its exact
coefficients to the working precision once and keeps them: a p-adic factor
on its ``LocalMellinFactor``, a real factor on its ``_mellin_real`` slot;
the roots of unity e(j/n) they are converted with are memoized too, as few
occur.  A local factor's sum, the real factor's sum and the product over
places run ``mpc_mul``/``mpc_add`` on raw (re, im) pairs: the operations
that ``mpc`` arithmetic runs, so every value equals its ``mpc`` expression
bit for bit, without a new object per step.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_rational, fzero, mpc_add, mpc_mul, mpc_to_complex, to_rational

from .bruhat import ElementaryFunction, HermiteGaussian, PAdicTestFunction, hermite_coefficients
from .cyclotomic import Cyclo, phase_sum
from .padic import valuation
from .primes import primes_up_to

F = Fraction

# working precision (significant digits); every strip tolerance assumes it
WORKING_DPS = 50

# largest |Im alpha| for zeta; see zeta_mp
ZETA_MAX_HEIGHT = 1000

# strip points the point memo remembers: those a Tate or functional-equation
# run shares, with room for the fresh ones; also the roots of unity kept
_MEMO_SIZE = 256

_CTX = mp.clone()
_CTX.dps = WORKING_DPS


class DomainError(ValueError):
    """Evaluation requested at a pole or outside the supported domain."""


def _mpc(alpha):
    """alpha as a working-precision mpc.  A working-context mpc is taken as
    it is: ``_CTX.mpc`` would only copy its raw pair into a new object."""
    return alpha if type(alpha) is _CTX.mpc else _CTX.mpc(alpha)


def _raw(x) -> tuple:
    """The raw (re, im) pair of a working-context mpf or mpc, for
    ``mpc_mul``/``mpc_add``: with a zero imaginary part they round as
    ``mpc.__mul__``/``__add__`` do on a real operand."""
    return x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)


class _Table(dict):
    """key -> fill(key), each value computed when first asked."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _StripPoint:
    """One argument s at the working precision and the values that depend
    on s alone, each computed when first asked and then kept: zeta(s) and
    Gamma_R(s) as cached properties, the raw P_n(s) per degree n in
    ``polys``, and per prime p the raw powers (p^-s)^e per exponent e in
    ``powers[p]``.  A value whose computation raises is not stored: the
    DomainError is raised again on every call, and the point's other values
    still fill."""

    def __init__(self, s):
        self.s = s
        self.in_pairing_domain = False  # phi_p's checks passed
        self.polys = _Table(lambda n: _hermite_poly(n, s)._mpc_)
        self.powers = _Table(lambda p: _power_row(_CTX.power(p, -s)))

    def __complex__(self):
        """The argument as a double, as ``complex`` reads an mpc."""
        return complex(self.s)

    @functools.cached_property
    def zeta(self):
        """zeta(s) on the domain of ``zeta_mp``, the one reader."""
        s = self.s
        if s.real <= 0:
            raise DomainError("zeta is computed only for Re alpha > 0")
        if s == 1:
            raise DomainError("zeta has its pole at alpha = 1")
        if abs(s.imag) > ZETA_MAX_HEIGHT:
            raise DomainError(f"zeta is computed only for |Im alpha| <= {ZETA_MAX_HEIGHT}")
        return _CTX.zeta(s)

    @functools.cached_property
    def gamma_r(self):
        """Tate's real-place factor Gamma_R(s) = pi^(-s/2) Gamma(s/2), on
        the real Mellin factor's domain: s finite with Re s > 0."""
        s = self.s
        if not (s.real > 0 and _CTX.isfinite(s)):
            raise DomainError("real Mellin factor needs a finite alpha with Re alpha > 0")
        return _CTX.power(_CTX.pi, -s / 2) * gamma_mp(s / 2)


def _power_row(u):
    return _Table(lambda e: _CTX.power(u, e)._mpc_)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _record(key):
    return _StripPoint(_CTX.make_mpc(key) if type(key) is tuple else _CTX.mpc(key))


def _point(alpha) -> _StripPoint:
    """The memoized record of alpha: a strip point is taken as it is, a
    double keys on itself (its conversion is exact) and any other argument
    on its working-precision value's raw ``_mpc_`` tuple, which hashes and
    compares as plain integers, where ``mpc.__eq__`` builds two mpf objects
    per comparison."""
    kind = type(alpha)
    if kind is _StripPoint:
        return alpha
    if kind is complex or kind is float:
        return _record(alpha)
    return _record(_mpc(alpha)._mpc_)


def zeta_mp(alpha):
    """zeta(alpha) for Re alpha > 0, alpha != 1, |Im alpha| <= ZETA_MAX_HEIGHT.

    On this domain mpmath runs Borwein's series or Euler-Maclaurin
    summation.  It uses the reflection formula only for Re s < 0, and
    switches to Riemann-Siegel only for |Im s| > 500 * prec (84,500 at the
    working 169 bits); the height bound keeps every call below that switch.
    Values are kept on the argument's strip point.
    """
    return _point(alpha).zeta


def zeta(alpha: complex) -> complex:
    """Riemann zeta on Re alpha > 0 (alpha != 1), double-precision boundary."""
    return complex(zeta_mp(alpha))


def euler_product_zeta(alpha: complex, prime_bound: int) -> complex:
    """Truncated Euler product over p <= prime_bound; test-side comparator."""
    s = _CTX.mpc(alpha)
    prod = _CTX.mpf(1)
    for p in primes_up_to(prime_bound):
        prod = prod / (1 - _CTX.power(p, -s))
    return complex(prod)


def gamma_mp(alpha):
    """Euler gamma at the working precision; a strip point keeps Gamma_R."""
    z = _mpc(alpha)
    if z.imag == 0 and z.real <= 0 and z.real == int(z.real):
        raise DomainError(f"gamma has a pole at {alpha}")
    return _CTX.gamma(z)


def gamma_fn(alpha: complex) -> complex:
    return complex(gamma_mp(alpha))


def _cyclo_mp(c: Cyclo):
    """An exact Cyclo in the working context: the sum of numerator / den
    times e(j/n) over its integer coordinates, with no double in between."""
    n, den, numerators = c.coordinates()
    return _CTX.fsum(_CTX.mpf(a) / den * _root_mp(j, n) for j, a in numerators.items())


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _root_mp(j: int, n: int):
    """The root of unity e(j/n) in the working context, computed once per
    (j, n): coefficients share a few conductors, so few roots occur."""
    return _CTX.expjpi(_CTX.mpf(2 * j) / n)


# ---------------------------------------------------------------------------
# local Mellin factors: exact Laurent polynomials in u = p^-alpha
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalMellinFactor:
    """(1 - p^-alpha)/(1 - p^-1) * int |x|^(alpha-1) phi_p(x) dx as a
    Laurent polynomial sum_e coeffs[e] * u**e with u = p^-alpha."""

    prime: int
    coeffs: dict[int, Cyclo]

    @functools.cached_property
    def _coeffs_mp(self) -> list:
        """The exact coefficients in the working context, converted once."""
        return [(e, _raw(_cyclo_mp(c))) for e, c in self.coeffs.items()]

    def evaluate_mp(self, alpha):
        """sum_e coeffs[e] * u**e, multiplied and added in the order of
        ``coeffs`` on raw (re, im) pairs at the working precision: the
        operations ``mpc`` arithmetic runs, with one mpc made at the end."""
        powers = _point(alpha).powers[self.prime]
        prec, rnd = _CTX._prec_rounding
        total = (fzero, fzero)
        for e, c in self._coeffs_mp:
            total = mpc_add(total, mpc_mul(c, powers[e], prec, rnd), prec, rnd)
        return _CTX.make_mpc(total)


def mellin_local(phi_p: PAdicTestFunction) -> LocalMellinFactor:
    """Exact local factor of the multiplicative pairing, kept on ``phi_p``.

    Per canonical term on the ball c + p**k Z_p with modulation m:
      * 0 not in ball: |x| = |c| is constant, contributing
        chi-weighted |c|^(alpha-1) p^-k, i.e. u^{v(c)} * p^(v(c)-k) * chi(mc);
      * ball p**k Z_p, m = 0: geometric sphere series, normalized to u^k;
      * ball p**k Z_p, m != 0: the sphere series truncates at j = -v(m),
        leaving u^{j0}-terms plus a boundary correction at j0 - 1.
    All contributions are assembled over the common denominator (1-u) and
    the normalization (1-u)/(1-1/p) is folded in symbolically.
    """
    if phi_p._mellin_local is None:
        phi_p._mellin_local = _local_factor(phi_p)
    return phi_p._mellin_local


def _local_factor(phi_p: PAdicTestFunction) -> LocalMellinFactor:
    """The coefficients as lists of (coefficient, rational weight) parts per
    exponent, each exponent summed once by ``phase_sum``.  Exponents keep
    the order in which the assembly below first reaches them."""
    p = phi_p.prime
    norm = F(p, p - 1)  # 1 / (1 - 1/p)
    # I(u) = int |x|^{alpha-1} phi = N0(u) + N1(u)/(1-u), assembled exactly;
    # each part's weight already carries the normalization
    n0: dict[int, list] = {}
    n1: dict[int, list] = {}

    for (ball, mod), coeff in phi_p.terms.items():
        k = ball.radius_exp
        if ball.center:  # the center is reduced, so 0 is not in the ball
            if mod != 0:
                # |x| is constant on the ball and the canonical modulation
                # is a nontrivial character there: the integral vanishes
                continue
            vc = valuation(ball.center, p)
            n0.setdefault(vc, []).append((coeff, F(p) ** (vc - k) * norm))
        elif mod == 0:
            # int over p^k Z_p: (1-1/p) u^k/(1-u), normalized to u^k/(1-u)
            n1.setdefault(k, []).append((coeff, 1))
        else:
            j0 = -valuation(mod, p)  # > k for canonical modulation
            n1.setdefault(j0, []).append((coeff, 1))
            n0.setdefault(j0 - 1, []).append((coeff, -norm / p))
    # normalized factor: (1-u)/(1-1/p) * I(u) = [N0(u)(1-u) + N1(u)]/(1-1/p)
    out: dict[int, list] = {}
    for e, parts in n0.items():
        out.setdefault(e, []).extend((c, 0, 1, w) for c, w in parts)
        out.setdefault(e + 1, []).extend((c, 0, 1, -w) for c, w in parts)
    for e, parts in n1.items():
        out.setdefault(e, []).extend((c, 0, 1, w) for c, w in parts)
    sums = {e: phase_sum(parts) for e, parts in out.items()}
    return LocalMellinFactor(p, {e: c for e, c in sums.items() if not c.is_zero()})


# ---------------------------------------------------------------------------
# real Mellin factor
# ---------------------------------------------------------------------------


def mellin_real_mp(phi_inf: HermiteGaussian, alpha):
    """int |x|^(alpha-1) phi_inf(x) dx for Re alpha > 0, in closed form.

    Per even degree n the integral is Gamma_R(alpha) P_n(alpha), with P_n
    the integer polynomial of ``_hermite_poly``, so the sum of c_n
    P_n(alpha) is taken times Gamma_R once; odd degrees vanish by parity.
    Gamma_R and each P_n are read off alpha's strip point.
    """
    point = _point(alpha)
    gamma_r = point.gamma_r  # raises off the domain
    if phi_inf._mellin_real is None:
        phi_inf._mellin_real = [
            (n, _raw(_cyclo_mp(c))) for n, c in phi_inf.coeffs.items() if n % 2 == 0
        ]
    prec, rnd = _CTX._prec_rounding
    polys = point.polys
    total = (fzero, fzero)
    for n, c in phi_inf._mellin_real:
        total = mpc_add(total, mpc_mul(c, polys[n], prec, rnd), prec, rnd)
    return _CTX.make_mpc(mpc_mul(gamma_r._mpc_, total, prec, rnd))


def _hermite_poly(n, s):
    """P_n(s) = sum_r h_2r prod_{i<r} (s + 2i) over the even coefficients
    h_2r of H_n, as 2^r Gamma(s/2 + r) = Gamma(s/2) prod_{i<r} (s + 2i).
    Re s and Im s are binary fractions a/d and b/d, so d^(n/2) P_n(s) is a
    Gaussian integer, evaluated by nested multiplication and rounded once:
    correctly rounded at every degree, and exactly 0 where P_n vanishes."""
    (a, da), (b, db) = (to_rational(x) for x in s._mpc_)
    d = max(da, db)
    a, b = a * (d // da), b * (d // db)
    h, m = hermite_coefficients(n), n // 2
    # d^(m-r) times h_2r + (s + 2r)(h_2r+2 + ...), from r = m down to 0
    re, im, scale = h[2 * m], 0, 1
    for r in range(m - 1, -1, -1):
        scale *= d
        x = a + 2 * r * d
        re, im = h[2 * r] * scale + x * re - b * im, x * im + b * re
    prec, rnd = _CTX._prec_rounding
    return _CTX.make_mpc(tuple(from_rational(v, scale, prec, rnd) for v in (re, im)))


# ---------------------------------------------------------------------------
# the assembled transform and the functional-equation checks
# ---------------------------------------------------------------------------


def phi_p(phi: ElementaryFunction, alpha: complex) -> complex:
    """The multiplicative pairing Phi_P(alpha) of an elementary function.

    Defined by the product for Re alpha > 1 and continued into
    0 < Re alpha < 1 automatically: local factors are polynomials in
    p^-alpha, the real factor continues through its gamma closed form, and
    ``zeta_mp`` covers zeta on the strip.  alpha = 0 and alpha = 1 are
    the simple poles of the assembly.  A product outside the double range
    is a domain error, so no inf or NaN leaves this function.
    """
    point = _point(alpha)
    if not point.in_pairing_domain:
        s = point.s
        if s == 0 or s == 1:
            raise DomainError("Phi has simple poles at alpha = 0 and alpha = 1")
        if s.real <= 0:
            raise DomainError("Phi is evaluated on Re alpha > 0")
        point.in_pairing_domain = True
    prec, rnd = _CTX._prec_rounding
    product = mellin_real_mp(phi.real_factor, point)._mpc_
    for f in phi.prime_factors.values():
        product = mpc_mul(product, mellin_local(f).evaluate_mp(point)._mpc_, prec, rnd)
    product = mpc_mul(product, _raw(zeta_mp(point)), prec, rnd)
    value = mpc_to_complex(product, rnd=rnd)
    if not cmath.isfinite(value):
        raise DomainError(f"Phi(alpha) at alpha = {alpha} is outside the double range")
    return value


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


def functional_equation_residual(alpha: complex) -> float:
    """|Lambda(a) - Lambda(1 - a)| for Lambda(s) = Gamma_R(s) zeta(s)."""
    a = complex(alpha)
    if not 0 < a.real < 1:
        raise DomainError("functional equation check needs 0 < Re alpha < 1")
    point = _point(a)
    mirror = _point(1 - point.s)
    return float(abs(point.gamma_r * zeta_mp(point) - mirror.gamma_r * zeta_mp(mirror)))
