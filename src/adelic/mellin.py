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
itself, whose conversion is exact; a point is converted and checked once.
``phi_p`` passes its point on to the factor readers, so none of them looks
it up again.

Every stored working-precision value is read exactly as a Gaussian integer
times a power of two, (X + iY) 2^E (``_gaussian``): the powers and P_n(s)
are kept in that form, and so are the roots of unity e(j/n), memoized per
(j, n).  Each function keeps its exact coefficients once as integer rows
over those roots (``_coefficient_rows``): a p-adic factor on its
``LocalMellinFactor``, a real factor on its ``_mellin_real`` slot.  A local
factor is then one exact integer dot product of its rows with the powers,
the real factor one of its rows with the P_n times Gamma_R, each rounded
once to the working precision (``_dot``, ``_rounded``), and ``phi_p``
multiplies the factors' values and zeta as integers and rounds once to a
double.  The sums are exact, but for parts far below the largest, which
``_sum`` drops whatever their order, so no value depends on the order of
a function's terms or coefficients.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_man_exp, from_rational, mpc_to_complex, to_rational

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

# bits an exact sum keeps below its largest part (see ``_dot`` and ``_sum``)
_GUARD = _CTX.prec + 20


class DomainError(ValueError):
    """Evaluation requested at a pole or outside the supported domain."""


def _mpc(alpha):
    """alpha as a working-precision mpc.  A working-context mpc is taken as
    it is: ``_CTX.mpc`` would only copy its raw pair into a new object."""
    return alpha if type(alpha) is _CTX.mpc else _CTX.mpc(alpha)


def _gaussian(pair) -> tuple[int, int, int]:
    """A raw working-context (re, im) pair read exactly as (X, Y, E): the
    Gaussian integer X + iY times 2^E (see ``_aligned``).  Infinities and
    NaN have no such form and raise."""
    (xs, x, xe, xb), (ys, y, ye, yb) = pair
    if (not x and xb) or (not y and yb):  # a zero has bit count 0
        raise DomainError("a Mellin value is not finite")
    return _aligned(-x if xs else x, xe, -y if ys else y, ye)


def _aligned(x: int, xe: int, y: int, ye: int) -> tuple[int, int, int]:
    """x 2^xe + i y 2^ye as (X, Y, E), on the lower exponent.  A part
    wholly more than 64 ``_GUARD`` bits below the other is dropped: it is
    below the double range relative to the other, and aligning it would
    build an integer of that many bits."""
    if x and y:
        gap = x.bit_length() + xe - y.bit_length() - ye
        if gap > 64 * _GUARD:
            y = 0
        elif -gap > 64 * _GUARD:
            x = 0
    if not y:
        return x, 0, xe
    if not x:
        return 0, y, ye
    if xe <= ye:
        return x, y << (ye - xe), xe
    return x << (xe - ye), y, ye


def _times(z, w) -> tuple[int, int, int]:
    """The exact product of two (X, Y, E) values."""
    (x, y, e), (u, v, k) = z, w
    return x * u - y * v, x * v + y * u, e + k


def _dot(rows, values) -> tuple[int, int, int]:
    """The sum over rows (key, z) of z times values[key], all (X, Y, E)
    values, as one (X, Y, E) value: exact when the terms' exponents span
    at most ``_GUARD`` bits, and otherwise summed part by part (``_sum``),
    so a point far outside the strip, where the powers p^(-e alpha) span
    millions of bits, builds no huge integer."""
    terms = []
    for key, (a, b, f) in rows:
        x, y, e = values[key]
        terms.append((f + e, a * x - b * y, a * y + b * x))
    if not terms:
        return 0, 0, 0
    low = min([term[0] for term in terms])
    if max([term[0] for term in terms]) - low > _GUARD:
        return _aligned(*_sum([(k, x) for k, x, _ in terms]),
                        *_sum([(k, y) for k, _, y in terms]))
    x = y = 0
    for k, re, im in terms:
        x += re << (k - low)
        y += im << (k - low)
    return x, y, low


def _sum(parts: list) -> tuple[int, int]:
    """The sum of m 2^k over parts (k, m) as (M, K), M 2^K.  A part wholly
    more than ``_GUARD`` bits below the largest is dropped: it is under
    2^-20 ulp of the largest, so the rounded sum stays within an ulp of the
    exact one unless the kept parts cancel by nearly 20 bits.  Which parts
    are kept does not depend on their order."""
    parts = [(k + m.bit_length(), k, m) for k, m in parts if m]
    if not parts:
        return 0, 0
    cut = max(parts)[0] - _GUARD
    parts = [part for part in parts if part[0] > cut]
    low = min([part[1] for part in parts])
    return sum([m << (k - low) for _, k, m in parts]), low


def _rounded(z, den: int) -> tuple:
    """The raw pair of (X + iY) 2^E / den, z = (X, Y, E), each part rounded
    once to the working precision."""
    x, y, e = z
    prec, rnd = _CTX._prec_rounding
    return _quotient(x, e, den, prec, rnd), _quotient(y, e, den, prec, rnd)


def _quotient(m: int, e: int, den: int, prec: int, rnd: str) -> tuple:
    """The raw mpf m 2^e / den rounded once: a quotient of at least
    prec + 2 bits with a sticky bit for a nonzero remainder rounds as the
    exact value does."""
    if den == 1:
        return from_man_exp(m, e, prec, rnd)
    shift = max(prec + 2 + den.bit_length() - m.bit_length(), 0)
    q, r = divmod(abs(m) << shift, den)
    q = q << 1 | (r != 0)
    return from_man_exp(-q if m < 0 else q, e - shift - 1, prec, rnd)


def _coefficient_rows(coeffs) -> tuple[int, list]:
    """Exact (key, Cyclo) coefficients as (den, rows) over the stored roots
    of unity: den is the coefficients' common denominator, and the row
    (key, z) of a coefficient sum_j a_j e(j/n) / d holds the (X, Y, E)
    value z of sum_j a_j (den / d) e(j/n), exactly."""
    coords = [(key, c.coordinates()) for key, c in coeffs]
    den = math.lcm(*(d for _, (_, d, _) in coords))
    rows = []
    for key, (n, d, numerators) in coords:
        roots = [(a * (den // d), *_root(j, n)) for j, a in numerators.items()]
        low = min([root[3] for root in roots])
        rows.append((key, (sum([a * x << (e - low) for a, x, _, e in roots]),
                           sum([a * y << (e - low) for a, _, y, e in roots]), low)))
    return den, rows


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
    Gamma_R(s) as cached properties, P_n(s) per degree n in ``polys``, and
    per prime p the powers (p^-s)^e per exponent e in ``powers[p]``, both
    tables holding (X, Y, E) values (``_gaussian``).  A value whose
    computation raises is not stored: the DomainError is raised again on
    every call, and the point's other values still fill."""

    def __init__(self, s):
        self.s = s
        self.in_pairing_domain = False  # phi_p's checks passed
        self.polys = _Table(lambda n: _gaussian(_hermite_poly(n, s)._mpc_))
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
    return _Table(lambda e: _gaussian(_CTX.power(u, e)._mpc_))


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


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _root(j: int, n: int) -> tuple[int, int, int]:
    """The root of unity e(j/n) in the working context, as (X, Y, E),
    computed once per (j, n): coefficients share a few conductors, so few
    roots occur."""
    return _gaussian(_CTX.expjpi(_CTX.mpf(2 * j) / n)._mpc_)


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
    def _rows(self) -> tuple[int, list]:
        """The exact coefficients as integer rows, built once."""
        return _coefficient_rows(self.coeffs.items())

    def evaluate_mp(self, alpha):
        """sum_e coeffs[e] * u**e: one exact integer dot product of the
        coefficient rows with the stored powers u**e, rounded once to the
        working precision."""
        den, rows = self._rows
        return _CTX.make_mpc(_rounded(_dot(rows, _point(alpha).powers[self.prime]), den))


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
    Gamma_R and each P_n are read off alpha's strip point; the sum is one
    exact integer dot product of the coefficient rows with the P_n, times
    Gamma_R exactly, rounded once to the working precision.
    """
    point = _point(alpha)
    gamma_r = _gaussian(point.gamma_r._mpc_)  # raises off the domain
    if phi_inf._mellin_real is None:
        phi_inf._mellin_real = _coefficient_rows(
            (n, c) for n, c in phi_inf.coeffs.items() if n % 2 == 0)
    den, rows = phi_inf._mellin_real
    return _CTX.make_mpc(_rounded(_times(gamma_r, _dot(rows, point.polys)), den))


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
    is a domain error, so no inf or NaN leaves this function.  The factors'
    working-precision values and zeta are multiplied as exact integers and
    rounded once to a double.
    """
    point = _point(alpha)
    if not point.in_pairing_domain:
        s = point.s
        if s == 0 or s == 1:
            raise DomainError("Phi has simple poles at alpha = 0 and alpha = 1")
        if s.real <= 0:
            raise DomainError("Phi is evaluated on Re alpha > 0")
        point.in_pairing_domain = True
    z = _gaussian(mellin_real_mp(phi.real_factor, point)._mpc_)
    for f in phi.prime_factors.values():
        z = _times(z, _gaussian(mellin_local(f).evaluate_mp(point)._mpc_))
    x, y, e = _times(z, _gaussian(zeta_mp(point)._mpc_))
    # from_man_exp without a precision is exact: to_float rounds once
    value = mpc_to_complex((from_man_exp(x, e), from_man_exp(y, e)), rnd=_CTX._prec_rounding[1])
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
