"""Test functions: p-adic, real, and adelic, with exact Fourier calculus.

A p-adic test function is a finite combination of terms

    coeff * chi_p(m*x) * 1_{c + p^k Z_p}(x)

where the optional modulation frequency m keeps the space closed under the
Fourier transform: the transform of a ball indicator is a character times a
ball indicator.  Coefficients are exact cyclotomic scalars, so transforming
twice and reflecting gives back the *identical* object, and Plancherel is
an exact identity of rationals.

Real factors are finite Hermite-Gaussian combinations

    sum_n c_n e^(-pi x^2) H_n(x sqrt(2 pi)),

eigenfunctions of the e^(-2 pi i x xi) Fourier kernel with eigenvalue
(-i)^n.  An elementary function is a real factor times finitely many
p-adic factors with the unit-ball indicator on every other prime.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .adeles import Adele
from .cyclotomic import Cyclo, Scalar, _from_exponents, phase, phase_sum
from .padic import _split, reduce_mod
from .primes import require_prime

F = Fraction


def omega(norm_value: Fraction | int) -> int:
    """The unit-ball cutoff: 1 for norms <= 1, 0 for norms > 1."""
    norm_value = Fraction(norm_value)
    if norm_value < 0:
        raise ValueError("a p-adic norm value cannot be negative")
    return 1 if norm_value <= 1 else 0


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """The ball center + p**radius_exp * Z_p, radius p**(-radius_exp)."""

    prime: int
    center: Fraction
    radius_exp: int

    def __post_init__(self):
        require_prime(self.prime)
        object.__setattr__(
            self, "center", reduce_mod(Fraction(self.center), self.prime, self.radius_exp)
        )

    @classmethod
    def _reduced(cls, prime: int, center: Fraction, radius_exp: int) -> "Ball":
        """The ball of a checked prime and a center already reduced modulo
        p**radius_exp (0 <= center < p**radius_exp), built without checking
        or reducing them again."""
        ball = object.__new__(cls)
        object.__setattr__(ball, "prime", prime)
        object.__setattr__(ball, "center", center)
        object.__setattr__(ball, "radius_exp", radius_exp)
        return ball

    @property
    def measure(self) -> Fraction:
        return F(self.prime) ** (-self.radius_exp)

    def contains(self, x: Fraction) -> bool:
        """Whether x = xn / xd lies in the ball.

        x - c is the integer n = xn c_d - c_n xd over xd c_d, so
        v(x - c) >= k reads v(n) >= k + v(xd) + v(c_d) off ``_split``,
        with no ``Fraction`` arithmetic and no ``valuation`` call."""
        x = Fraction(x)
        p, c = self.prime, self.center
        n = x.numerator * c.denominator - c.numerator * x.denominator
        return n == 0 or (_split(n, p)[0] >= self.radius_exp + _split(x.denominator, p)[0]
                          + _split(c.denominator, p)[0])

    def contains_ball(self, other: "Ball") -> bool:
        return self.radius_exp <= other.radius_exp and self.contains(other.center)

    def subdivide(self, level: int) -> list["Ball"]:
        """The p**(level-k) disjoint sub-balls at the finer level."""
        if level < self.radius_exp:
            raise ValueError("can only subdivide to a finer level")
        p, k = self.prime, self.radius_exp
        return [
            Ball(p, self.center + F(t) * F(p) ** k, level)
            for t in range(p ** (level - k))
        ]

    def __repr__(self):
        return f"Ball({self.prime}; {self.center} + {self.prime}^{self.radius_exp} Zp)"


# ---------------------------------------------------------------------------
# p-adic test functions
# ---------------------------------------------------------------------------

TermKey = tuple[Ball, Fraction]  # (ball, canonical modulation)


class PAdicTestFunction:
    """Finite combination of modulated ball indicators at one prime.

    Canonical form: pairwise-disjoint balls; modulation frequencies reduced
    modulo p**(-k) on a level-k ball (coarser frequencies are constant on
    the ball and fold into the coefficient); zero coefficients dropped.

    The value is immutable, so it keeps what is computed from it alone: its
    Fourier transform, built by ``fourier`` on the first call, and its local
    Mellin factor, built by ``mellin.mellin_local``.  Each slot is written
    only by the function that computes it, for this function.

    A function holds its canonical terms in ``_terms``, or, when it is a
    Fourier transform or a reflection whose terms no one has read yet, the
    integer rows (pj, pm, rows) of ``_canonical_terms`` in ``_rows``.  The
    read-only ``terms`` canonicalizes the held rows on the first read,
    keeps the result and drops the rows; ``evaluate`` reads the rows as
    they are.
    """

    __slots__ = ("prime", "_terms", "_rows", "_fourier", "_mellin_local")

    def __init__(
        self,
        prime: int,
        terms: Iterable[tuple[Scalar, Ball, Fraction | int]] = (),
    ):
        require_prime(prime)
        self.prime = prime
        self._terms: dict[TermKey, Cyclo] = _canonicalize(prime, terms)
        self._rows: tuple[int, int, list] | None = None
        self._fourier: PAdicTestFunction | None = None
        self._mellin_local = None

    @classmethod
    def _of(cls, prime: int, terms: dict[TermKey, Cyclo] | None = None,
            rows: tuple[int, int, list] | None = None) -> "PAdicTestFunction":
        """The function of a checked prime with these canonical terms, or
        with the integer rows (pj, pm, rows) of ``_canonical_terms`` that
        give them.  It is built without ``__init__``: the prime needs no
        check and there is no public input to convert."""
        out = object.__new__(cls)
        out.prime, out._terms, out._rows = prime, terms, rows
        out._fourier = out._mellin_local = None
        return out

    @property
    def terms(self) -> dict[TermKey, Cyclo]:
        """The canonical terms, {(ball, modulation): coefficient}."""
        if self._rows is not None:
            self._terms = _canonical_terms(self.prime, *self._rows)
            self._rows = None
        return self._terms

    # -- construction helpers ---------------------------------------------

    @classmethod
    def indicator(cls, ball: Ball) -> "PAdicTestFunction":
        return cls(ball.prime, [(1, ball, 0)])

    @classmethod
    def omega(cls, p: int) -> "PAdicTestFunction":
        """The indicator of Z_p."""
        return cls.indicator(Ball(p, F(0), 0))

    @classmethod
    def zero(cls, p: int) -> "PAdicTestFunction":
        return cls(p, ())

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "PAdicTestFunction") -> "PAdicTestFunction":
        """The canonical terms of both operands, as integer rows
        (``_term_rows``), canonicalized at once."""
        if other.prime != self.prime:
            raise ValueError("mixed primes")
        p = self.prime
        rows = _term_rows(p, [*self.terms.items(), *other.terms.items()], 1)
        return PAdicTestFunction._of(p, _canonical_terms(p, *rows))

    def __sub__(self, other: "PAdicTestFunction") -> "PAdicTestFunction":
        return self + (-other)

    def scale(self, c: Scalar) -> "PAdicTestFunction":
        """c times the function; a nonzero multiple of a canonical form is
        canonical, so the terms are scaled without canonicalizing again."""
        c = Cyclo(c)
        if c.is_zero():
            return PAdicTestFunction(self.prime)
        return PAdicTestFunction._of(
            self.prime, {key: c * coeff for key, coeff in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PAdicTestFunction):
            return self.pointwise_product(other)
        return self.scale(other)

    __rmul__ = __mul__

    def pointwise_product(self, other: "PAdicTestFunction") -> "PAdicTestFunction":
        """The pointwise product: modulations add on intersected balls."""
        if other.prime != self.prime:
            raise ValueError("mixed primes")
        terms = []
        for (b1, m1), c1 in self.terms.items():
            for (b2, m2), c2 in other.terms.items():
                if b1.contains_ball(b2):
                    terms.append((c1 * c2, b2, m1 + m2))
                elif b2.contains_ball(b1):
                    terms.append((c1 * c2, b1, m1 + m2))
        return PAdicTestFunction(self.prime, terms)

    def __neg__(self):
        """-f: each coefficient negated (``Cyclo.__neg__``); a canonical
        form stays canonical."""
        return PAdicTestFunction._of(self.prime, {key: -c for key, c in self.terms.items()})

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x: Fraction | int) -> Cyclo:
        """phi(x), exactly.

        x is read once as an integer numerator xn over xd = p**vd * u, u
        prime to p.  Each term is read as integers: a center cn / cd, a
        level k, a ``phase_sum`` part and a modulation a / md; a canonical
        term's part is (coeff, 0, 1), and a function that holds integer
        rows reads each row as it is, over the rows' pj and pm, with no
        canonical form built.  A term holds x when n = xn cd - cn xd is 0
        or v(n) >= k + vd + v(cd), read off ``_split`` (as
        ``Ball.contains``).  There a modulation gives chi_p(a x / md) =
        e(s / p**(e+vd)) for md = p**e, s = a xn u^-1 mod p**(e+vd), added
        to the part's phase in lowest terms (``_shifted``).  The terms
        that hold x are summed as one ``phase_sum``: evaluation is linear
        and the stored ``Cyclo`` is unique, so rows and canonical terms
        give the same value.
        """
        x = Fraction(x)
        p = self.prime
        xn, xd = x.numerator, x.denominator
        vd, u = _split(xd, p)
        if self._rows is None:
            items = ((ball.center.numerator, ball.center.denominator, ball.radius_exp,
                      (coeff, 0, 1), mod.numerator, mod.denominator)
                     for (ball, mod), coeff in self._terms.items())
        else:
            pj, pm, rows = self._rows
            items = ((n, pj, k, part, a, pm) for n, k, part, a in rows)
        parts = []
        for cn, cd, k, part, a, md in items:
            n = xn * cd - cn * xd
            if n and _split(n, p)[0] < k + vd + _split(cd, p)[0]:
                continue
            if a:
                m = md * p**vd
                s = a * xn * pow(u, -1, m) % m
                if s:
                    g = math.gcd(s, m)
                    part = _shifted(part, s // g, m // g)
            parts.append(part)
        return phase_sum(parts)

    # -- exact integrals -----------------------------------------------------

    def integral(self) -> Cyclo:
        """int phi dx with Haar measure normalized to vol(Z_p) = 1.

        Canonically modulated terms integrate to zero; plain terms give
        coefficient times ball measure, summed as one weighted
        ``phase_sum``.
        """
        return phase_sum([(coeff, 0, 1, ball.measure)
                          for (ball, mod), coeff in self.terms.items() if mod == 0])

    def l2_norm_sq(self) -> Cyclo:
        """int |phi|^2 dx, exact; cross terms vanish by disjointness and
        modulation orthogonality.

        A coefficient sum_j a_j e(j/n) / den on a level-k ball gives
        |c|^2 p^-k = sum_(j1, j2) a_j1 a_j2 p^-k e((j1 - j2)/n) / den^2.
        The pairs of every term are lifted to one conductor and one
        denominator and rewritten onto the basis once.
        """
        p = self.prime
        rows = []
        for (ball, _), coeff in self.terms.items():
            n, den, numerators = coeff.coordinates()
            k = ball.radius_exp
            rows.append((n, den * den * p ** max(k, 0), p ** max(-k, 0), numerators.items()))
        n = math.lcm(*(row[0] for row in rows))
        den = math.lcm(*(row[1] for row in rows))
        pairs = []
        for m, d, up, numerators in rows:
            lift, f = n // m, den // d * up
            pairs.extend(((j1 - j2) * lift % n, a1 * a2 * f)
                         for j1, a1 in numerators for j2, a2 in numerators)
        return _from_exponents(n, den, pairs)

    # -- Fourier transform ----------------------------------------------------

    def fourier(self) -> "PAdicTestFunction":
        """phi_hat(xi) = int phi(x) chi_p(xi x) dx, exactly.

        Transform of coeff*chi(m x)*1_{B(c,k)} is
        coeff * p^-k * chi(m c) * chi(c xi) * 1_{B(-m, -k)}(xi).
        Each image term is one integer row of ``_canonical_terms``, read
        off m = mn/md and c = cn/cd: the part (coeff, s, d, p^-k) with
        {m c}_p = s/d = (mn cn mod md cd) / (md cd) in lowest terms; the
        center p^-k - m, which is -m modulo p^-k Z_p, as -mn pj/md; and
        the modulation c, reduced already (it lies in [0, p^k)), as
        cn pm/cd.
        The transform holds these rows, not their canonical form:
        ``evaluate`` reads them as they are, and the first read of its
        ``terms`` canonicalizes them.  The transform is built on the first
        call and returned afterwards.
        """
        if self._fourier is None:
            p, terms = self.prime, self.terms
            pm = max((ball.center.denominator for ball, _ in terms), default=1)
            k_max = max((ball.radius_exp for ball, _ in terms), default=0)
            pj = max(max((mod.denominator for _, mod in terms), default=1), p ** max(k_max, 0))
            rows = []
            for (ball, mod), coeff in terms.items():
                c, k = ball.center, ball.radius_exp
                mn, md, cn, cd = mod.numerator, mod.denominator, c.numerator, c.denominator
                d = md * cd
                s = mn * cn % d
                g = math.gcd(s, d)
                part = (coeff, s // g, d // g, p ** -k if k <= 0 else F(1, p**k))
                rows.append((-mn * (pj // md), -k, part, cn * (pm // cd)))
            self._fourier = PAdicTestFunction._of(p, rows=(pj, pm, rows))
        return self._fourier

    def reflect(self) -> "PAdicTestFunction":
        """phi(-x): each term's center and modulation negated, held as the
        integer rows of ``_canonical_terms`` (``_term_rows``), as
        ``fourier`` holds its image."""
        p = self.prime
        return PAdicTestFunction._of(p, rows=_term_rows(p, self.terms.items(), -1))

    # -- comparison ------------------------------------------------------------

    def is_zero(self) -> bool:
        """True iff the function vanishes identically.

        Canonicalization partitions overlap clusters into disjoint balls
        and folds modulations per ball; distinct canonical modulations are
        distinct characters of the ball, hence linearly independent, so the
        function is zero exactly when no term survives.
        """
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PAdicTestFunction) or other.prime != self.prime:
            return NotImplemented
        if self.terms == other.terms:
            return True  # structurally identical fast path
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        return f"PAdicTestFunction(p={self.prime}, {len(self.terms)} terms)"


def _canonicalize(prime: int, terms: Iterable) -> dict[TermKey, Cyclo]:
    """The canonical terms of (coeff, Ball, mod) rows (mod 0 when left
    out), through ``_canonical_terms``: the public input of ``__init__``
    and the products of ``pointwise_product``.  A public modulation may be
    any rational, so each is reduced here on integers, never through
    ``reduce_mod``.

    A modulation matters only modulo p**j Z_p, pj = p**j clearing every
    center's denominator and p**(-k_min), so mod = n / (p**e u), u prime
    to p, becomes the numerator n p**(E-e) u^-1 mod pm pj over
    pm = p**E, the largest p**e.  A ``Cyclo`` coefficient and an int or
    ``Fraction`` modulation are used as they are.
    """
    raw = []
    for item in terms:
        coeff, ball, mod = item if len(item) == 3 else (*item, 0)
        if ball.prime != prime:
            raise ValueError("mixed primes in one test function")
        if not isinstance(coeff, Cyclo):
            coeff = Cyclo(coeff)
        if not coeff.is_zero():
            if not isinstance(mod, (int, Fraction)):
                mod = Fraction(mod)
            raw.append((coeff, ball, mod, *_split(mod.denominator, prime)))
    if not raw:
        return {}
    k_min = min(ball.radius_exp for _, ball, *_ in raw)
    pj = max(max(ball.center.denominator for _, ball, *_ in raw), prime ** max(-k_min, 0))
    pm = prime ** max(e for *_, e, _ in raw)
    m = pm * pj
    rows = [(ball.center.numerator * (pj // ball.center.denominator), ball.radius_exp,
             (coeff, 0, 1), mod.numerator * (pm // (mod.denominator // u)) * pow(u, -1, m) % m)
            for coeff, ball, mod, _, u in raw]
    return _canonical_terms(prime, pj, pm, rows)


def _term_rows(prime: int, items: Iterable, sign: int) -> tuple[int, int, list]:
    """The integer rows (pj, pm, rows) of ``_canonical_terms`` for the
    canonical terms ((ball, mod), coeff) of ``items`` taken at sign * x:
    sign 1 for ``+`` and -1 for ``reflect``.  Canonical centers and
    modulations lie in Z[1/p], so each is a numerator over pj (the largest
    center denominator and p**(-k_min)) or over pm (the largest modulation
    denominator), with no reduction; each row's part is (coeff, 0, 1)."""
    k_min = min((ball.radius_exp for (ball, _), _ in items), default=0)
    pj = max(max((ball.center.denominator for (ball, _), _ in items), default=1),
             prime ** max(-k_min, 0))
    pm = max((mod.denominator for (_, mod), _ in items), default=1)
    return pj, pm, [(sign * ball.center.numerator * (pj // ball.center.denominator),
                     ball.radius_exp, (coeff, 0, 1), sign * mod.numerator * (pm // mod.denominator))
                    for (ball, mod), coeff in items]


def _canonical_terms(prime: int, pj: int, pm: int, rows: list) -> dict[TermKey, Cyclo]:
    """Partition overlapping terms into disjoint balls and fold modulations,
    all on integers.

    Each row is (N, k, part, A): the ball c + p**k Z_p with N = c * pj,
    the ``phase_sum`` part (coeff, s, d) or (coeff, s, d, w) that the term
    adds to its leaves, s/d in lowest terms, and the modulation A / pm;
    pj and pm are powers of p, pj clearing every center's denominator and
    p**(-k_min), pm every modulation's.  Every constructor feeds this
    core: ``__init__`` and ``pointwise_product`` through ``_canonicalize``,
    which reduces public modulations on integers; ``+`` (and so ``-``)
    and ``reflect`` through ``_term_rows``, and ``fourier`` with its own
    rows, all written from the integers of canonical terms, whose centers
    and modulations are reduced already, so they skip ``reduce_mod``; the
    transform and the reflection hold their rows until their ``terms``
    are first read.  Numerators that agree modulo pm pj fold alike, so no
    modulation is reduced here.

    The refinement walks integer residue addresses, not ``Ball`` objects:
    with pj = p**j, the ball c + p**k Z_p is the class of N modulo
    p**(k+j).  Terms are grouped by N mod p**(k_min+j), the child t of a
    level-L region has address addr + t * p**(L+j), and an inner term goes
    to the child named by its digit N // p**(L+j) % p.

    Coarse balls are split only along the chains leading to finer terms
    (p-1 siblings per level), never into the full p**delta grid, so the
    canonical form stays linear in the input size.

    On the level-L leaf with address addr, the canonical modulation is
    mc / pm with mc = A mod p**(E-L) for pm = p**E (0 when E <= L), and
    the rest is the phase e(((A - mc) * addr mod m) / m), m = pm * pj,
    added to the row's part in lowest terms.  Each leaf key
    (addr, L, mc) is all integers; its parts are summed into one ``Cyclo``
    at the end (``phase_sum``), and only a nonzero sum builds its
    modulation F(mc, pm) and its ``Ball``, whose center addr / pj lies in
    [0, p**L) and so is already reduced (``Ball._reduced``).

    Term order is part of the result: groups come in order of first
    appearance and children in digit order t = 0..p-1, a region with
    covering terms recurses into every child, and keys keep the order of
    their first part.  Grouping, digits and folds are the same when pj
    and pm carry extra powers of p, so the terms and their order depend
    on the rows alone.  ``mellin`` sums its factors exactly, so its values
    do not depend on it.
    """
    if not rows:
        return {}
    k_min = min(row[1] for row in rows)
    step = pj * prime**k_min if k_min >= 0 else pj // prime**-k_min
    groups: dict[int, list] = {}
    for row in rows:
        groups.setdefault(row[0] % step, []).append(row)
    leaves: dict[tuple[int, int, int], list] = {}
    for addr, members in groups.items():
        _refine_region(prime, addr, k_min, step, members, pm * pj, leaves)
    terms: dict[TermKey, Cyclo] = {}
    for (addr, level, mc), parts in leaves.items():
        coeff = phase_sum(parts)
        if not coeff.is_zero():
            terms[Ball._reduced(prime, F(addr, pj), level), F(mc, pm)] = coeff
    return terms


def _shifted(part: tuple, s: int, n: int) -> tuple:
    """A ``phase_sum`` part times e(s / n), s / n in lowest terms, with the
    summed phase kept in lowest terms."""
    coeff, s0, d, *weight = part
    if s0:
        n, s = d * n, (s0 * n + s * d) % (d * n)
        g = math.gcd(s, n)
        s, n = s // g, n // g
    return (coeff, s, n, *weight)


def _refine_region(prime: int, addr: int, level: int, step: int, items: list,
                   m: int, leaves: dict):
    """Recursive partition refinement of one overlap cluster: the region
    at ``level`` with residue address ``addr`` modulo ``step`` = p**(level+j),
    on which the canonical modulation numerators are the residues modulo
    m // step = p**(E-level) (or 1 once that is below 1)."""
    covering = []
    buckets: dict[int, list] = {}
    for term in items:
        if term[1] <= level:
            covering.append(term)
        else:
            buckets.setdefault(term[0] // step % prime, []).append(term)
    if not buckets:
        r = m // step or 1
        for _, _, part, a in covering:
            # chi(a x / pm) = e(s / m) chi(mc x / pm) on the leaf
            mc = a % r
            s = (a - mc) * addr % m
            g = math.gcd(s, m)
            leaves.setdefault((addr, level, mc), []).append(
                _shifted(part, s // g, m // g) if s else part)
        return
    for t in range(prime) if covering else sorted(buckets):
        sub = covering + buckets.get(t, [])
        _refine_region(prime, addr + t * step, level + 1, step * prime, sub, m, leaves)


# ---------------------------------------------------------------------------
# real factors
# ---------------------------------------------------------------------------

_SQRT_2PI = math.sqrt(2.0 * math.pi)

_HERMITE_CACHE: list[tuple[int, ...]] = [(1,), (0, 2)]

# highest Hermite degree: on a 2-core Xeon with Python 3.11 the recurrence
# up to 500 takes 0.05 s and caches 13 MB, up to 1,000 it takes 0.4 s and
# 84 MB (it is O(n^2) big integers); past degree 300 every value overflows
# a double anyway
HERMITE_MAX_DEGREE = 500


def hermite_coefficients(n: int) -> tuple[int, ...]:
    """Integer coefficients of the physicists' Hermite polynomial H_n."""
    if n > HERMITE_MAX_DEGREE:
        raise ValueError(f"Hermite degree {n} is over the bound of {HERMITE_MAX_DEGREE}")
    while len(_HERMITE_CACHE) <= n:
        m = len(_HERMITE_CACHE) - 1
        hm, hm1 = _HERMITE_CACHE[m], _HERMITE_CACHE[m - 1]
        nxt = [0] * (m + 2)
        for i, c in enumerate(hm):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(hm1):
            nxt[i] -= 2 * m * c
        _HERMITE_CACHE.append(tuple(nxt))
    return _HERMITE_CACHE[n]


def hermite_value(n: int, y: float | np.ndarray) -> float | np.ndarray:
    """H_n(y) by Horner's rule, at a float or elementwise on an array; a
    partial sum beyond the double range is a domain error, not inf or nan."""
    acc = np.float64(0.0)
    try:
        with np.errstate(over="raise"):
            for c in reversed(hermite_coefficients(n)):
                acc = acc * y + c
    except (OverflowError, FloatingPointError):
        raise ValueError(f"Hermite degree {n} overflows a double") from None
    return acc


class HermiteGaussian:
    """sum_n c_n e^(-pi x^2) H_n(x sqrt(2 pi)); closed under Fourier.

    Its Mellin transform is Gamma_R(alpha) sum_n c_n P_n(alpha) with
    integer polynomials P_n (``mellin.mellin_real_mp``).  The value is
    immutable, so it keeps its even-degree c_n as the integer rows of
    ``mellin``'s exact dot product, built by ``mellin_real_mp`` on the
    first call.
    """

    __slots__ = ("coeffs", "_mellin_real")

    def __init__(self, coeffs: Iterable[tuple[int, Scalar]] | dict = ()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc: dict[int, Cyclo] = {}
        for n, c in items:
            if n < 0:
                raise ValueError("Hermite degree must be >= 0")
            c = Cyclo(c)
            prev = acc.get(n)
            c = c if prev is None else prev + c
            acc[n] = c
        self.coeffs = {n: c for n, c in acc.items() if not c.is_zero()}
        self._mellin_real = None

    @classmethod
    def gaussian(cls, coeff: Scalar = 1) -> "HermiteGaussian":
        return cls([(0, coeff)])

    def evaluate(self, x: float | np.ndarray) -> complex | np.ndarray:
        """The value at a float x, or elementwise on an array of nodes."""
        x = np.asarray(x, dtype=float)
        g = np.exp(-np.pi * x * x)
        y = x * _SQRT_2PI
        total = sum(
            (c.to_complex() * (g * hermite_value(n, y)) for n, c in self.coeffs.items()),
            np.zeros(x.shape, dtype=complex),
        )
        return total if x.ndim else complex(total)

    __call__ = evaluate

    def fourier(self) -> "HermiteGaussian":
        """Under the kernel e^(-2 pi i x xi) each degree is an eigenfunction
        with eigenvalue (-i)^n, an exact quarter phase."""
        return HermiteGaussian(
            [(n, c * phase(F(-n, 4))) for n, c in self.coeffs.items()]
        )

    def scale(self, s: Scalar) -> "HermiteGaussian":
        s = Cyclo(s)
        return HermiteGaussian([(n, c * s) for n, c in self.coeffs.items()])

    def __add__(self, other: "HermiteGaussian") -> "HermiteGaussian":
        return HermiteGaussian(list(self.coeffs.items()) + list(other.coeffs.items()))

    def __eq__(self, other):
        if not isinstance(other, HermiteGaussian):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        return f"HermiteGaussian({sorted(self.coeffs)})"


# ---------------------------------------------------------------------------
# elementary functions and Schwartz-Bruhat combinations
# ---------------------------------------------------------------------------


class ElementaryFunction:
    """real factor x prod_{p in P} phi_p x prod_{p not in P} Omega_p.

    Immutable like its factors: ``fourier`` builds the transform on the
    first call and returns it afterwards.
    """

    __slots__ = ("real_factor", "prime_factors", "_fourier")

    def __init__(self, real_factor: HermiteGaussian, prime_factors: dict[int, PAdicTestFunction] | None = None):
        self.real_factor = real_factor
        pf = dict(prime_factors or {})
        for p, f in pf.items():
            require_prime(p)
            if f.prime != p:
                raise ValueError(f"factor at key {p} is a {f.prime}-adic function")
        self.prime_factors = dict(sorted(pf.items()))
        self._fourier: ElementaryFunction | None = None

    @property
    def prime_set(self) -> list[int]:
        return list(self.prime_factors)

    def factor_at(self, p: int) -> PAdicTestFunction:
        """The p-factor: an explicit one inside P, the Omega indicator outside."""
        f = self.prime_factors.get(p)
        return f if f is not None else PAdicTestFunction.omega(p)

    def padic_value(self, x: Adele) -> Cyclo:
        """Exact product of all finite-place factors at the adele x."""
        total = Cyclo(1)
        for p, f in self.prime_factors.items():
            total = total * f.evaluate(x.component(p))
            if total.is_zero():
                return total
        for p in x.listed_primes:
            if p not in self.prime_factors and omega(x.norm_at(p)) == 0:
                return Cyclo(0)
        return total

    def evaluate(self, x: Adele) -> complex:
        pv = self.padic_value(x)
        if pv.is_zero():
            return 0j
        return self.real_factor.evaluate(float(x.real)) * pv.to_complex()

    def fourier(self) -> "ElementaryFunction":
        if self._fourier is None:
            self._fourier = ElementaryFunction(
                self.real_factor.fourier(),
                {p: f.fourier() for p, f in self.prime_factors.items()},
            )
        return self._fourier

    def __eq__(self, other):
        if not isinstance(other, ElementaryFunction):
            return NotImplemented
        return (self.real_factor == other.real_factor
                and self.prime_factors == other.prime_factors)

    __hash__ = None

    def __repr__(self):
        return f"ElementaryFunction(P={self.prime_set})"


def vacuum_state() -> ElementaryFunction:
    """2^(1/4) e^(-pi x^2) times the unit-ball indicator at every prime.

    The coefficient ``F(2) ** F(1, 4)`` is the float 2**0.25 turned into a
    rational, not an exact 2^(1/4), which lies in no cyclotomic field."""
    return ElementaryFunction(HermiteGaussian.gaussian(F(2) ** F(1, 4)))


class SchwartzBruhat:
    """Finite linear combination of elementary functions."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[tuple[Scalar, ElementaryFunction]] = ()):
        self.elements = [(Cyclo(c), e) for c, e in elements]

    @classmethod
    def of(cls, e: ElementaryFunction, coeff: Scalar = 1) -> "SchwartzBruhat":
        return cls([(coeff, e)])

    def evaluate(self, x: Adele) -> complex:
        return sum((c.to_complex() * e.evaluate(x) for c, e in self.elements), 0j)

    def fourier(self) -> "SchwartzBruhat":
        return SchwartzBruhat([(c, e.fourier()) for c, e in self.elements])

    def scale(self, s: Scalar) -> "SchwartzBruhat":
        s = Cyclo(s)
        return SchwartzBruhat([(s * c, e) for c, e in self.elements])

    def __add__(self, other: "SchwartzBruhat") -> "SchwartzBruhat":
        return SchwartzBruhat(self.elements + other.elements)

    def __repr__(self):
        return f"SchwartzBruhat({len(self.elements)} elementary terms)"


# ---------------------------------------------------------------------------
# serialization (the CLI wire format for test functions)
# ---------------------------------------------------------------------------


def parse_rational(s: str) -> Fraction:
    return Fraction(s.strip())


def parse_complex_rational(s: str) -> Cyclo:
    """Parse "a", "bi", "a+bi" or "a-bi" with rational a, b into a Cyclo."""
    s = s.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    if not s.endswith("i"):
        return Cyclo(Fraction(s))
    body = s[:-1]
    # split at the last +/- that is not the leading sign or part of /
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "/+-":
            re_part, im_part = body[:idx], body[idx:]
            break
    else:
        re_part, im_part = "0", body
    if im_part in ("", "+"):
        im = F(1)
    elif im_part == "-":
        im = F(-1)
    else:
        im = Fraction(im_part)
    return Cyclo(Fraction(re_part)) + phase(F(1, 4)) * im


def _format_cyclo_rational(c: Cyclo) -> str:
    """Inverse of parse_complex_rational for Gaussian-rational scalars."""
    can = c.canonical()
    if set(can) - {0, F(1, 4)}:
        raise ValueError("scalar is not a Gaussian rational; cannot serialize")
    re, im = can.get(0, F(0)), can.get(F(1, 4), F(0))
    if im == 0:
        return str(re)
    sign = "+" if im >= 0 else "-"
    return f"{re}{sign}{abs(im)}i"


def _parse_integer(x, what: str) -> int:
    """A radius exponent or a Hermite degree of the wire format: a JSON
    float or boolean is an error, never truncated."""
    if isinstance(x, (bool, float)):
        raise ValueError(f"{what} {json.dumps(x)} is not an integer")
    return int(x)


def parse_padic_factor(p: int, rows: Sequence) -> PAdicTestFunction:
    terms = []
    for row in rows:
        if len(row) == 3:
            coeff, center, k = row
            mod = "0"
        else:
            coeff, center, k, mod = row
        terms.append(
            (parse_complex_rational(str(coeff)),
             Ball(p, parse_rational(str(center)), _parse_integer(k, "radius exponent")),
             parse_rational(str(mod)))
        )
    return PAdicTestFunction(p, terms)


def parse_elementary(obj: dict) -> ElementaryFunction:
    real_rows = obj.get("real", [[0, "1"]])
    real = HermiteGaussian(
        [(_parse_integer(n, "Hermite degree"), parse_complex_rational(str(c)))
         for n, c in real_rows]
    )
    primes = {}
    for pstr, rows in (obj.get("primes") or {}).items():
        p = int(pstr)
        primes[p] = parse_padic_factor(p, rows)
    return ElementaryFunction(real, primes)


def parse_schwartz_bruhat(text: str | dict) -> SchwartzBruhat:
    obj = json.loads(text) if isinstance(text, str) else text
    if "elements" in obj:
        return SchwartzBruhat(
            [(parse_complex_rational(str(c)), parse_elementary(e)) for c, e in obj["elements"]]
        )
    return SchwartzBruhat.of(parse_elementary(obj))


def serialize_elementary(phi: ElementaryFunction) -> dict:
    out = {
        "real": [[n, _format_cyclo_rational(c)]
                 for n, c in sorted(phi.real_factor.coeffs.items())],
        "primes": {},
    }
    for p, f in phi.prime_factors.items():
        rows = []
        for (ball, mod), coeff in sorted(
            f.terms.items(), key=lambda kv: (kv[0][0].radius_exp, kv[0][0].center, kv[0][1])
        ):
            row = [_format_cyclo_rational(coeff), str(ball.center), ball.radius_exp]
            if mod != 0:
                row.append(str(mod))
            rows.append(row)
        out["primes"][str(p)] = rows
    return out
