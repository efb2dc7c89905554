"""The benchmark's three workloads: seeded inputs and per-item oracle checks.

Inputs are plain tuples of rationals drawn from the seed.  Each item builds
its library objects through public constructors only (``Ball``,
``PAdicTestFunction``, ``HermiteGaussian``, ``ElementaryFunction``,
``Cyclo``/``phase``, ``from_rational``) inside its timed region, then checks
every result against its oracle.  Nothing here uses the acceptance suite's
generators, so a refactor of ``adelic.suite`` cannot change a workload.

Work comes in rounds.  A round holds every cost class of its workload once,
in a seeded order, so every run, whatever its seed, sees the same mix of
classes and the seed moves only the values inside each class.
"""

from __future__ import annotations

import random
from fractions import Fraction

from adelic import (
    Ball,
    Cyclo,
    ElementaryFunction,
    HermiteGaussian,
    PAdicTestFunction,
    principal_adele,
    zero_adele,
)
from adelic.cyclotomic import phase
from adelic.distributions import chi_distribution, delta_distribution, pair
from adelic.gauss import gauss_integral_inf, gauss_integral_p_exact
from adelic.integrate import integrate_qp
from adelic.mellin import functional_equation_residual, tate_check
from adelic.oscillator import eigen_check
from adelic.padic import from_rational
from adelic.quadrature import fresnel_regularized

F = Fraction

# Pinned float tolerances, the same as the acceptance suite's.  Never widen.
TOLERANCES = {
    "tate": 1e-6,
    "functional_equation": 1e-10,
    "chi_pairing": 1e-10,
    "fresnel": 1e-6,
}


class Mismatch(Exception):
    """A closed form and its oracle disagree."""


class Inconclusive(Exception):
    """The oracle gave no verdict (did not stabilize)."""


class Tally:
    """Outcome counts and worst float residuals of one run."""

    def __init__(self):
        self.attempted = 0
        self.mismatches = 0
        self.inconclusive = 0
        self.worst: dict[str, float] = {}  # per checked residual kind
        self.notes: list[str] = []

    def residual(self, name: str, value: float, what: str):
        """Record a float residual; a value not below its tolerance fails."""
        value = float(value)
        if name not in self.worst or not value <= self.worst[name]:  # NaN too
            self.worst[name] = value
        if not value < TOLERANCES[name]:
            raise Mismatch(f"{what}: {name} residual {value!r} >= {TOLERANCES[name]}")

    def note(self, text: str):
        if len(self.notes) < 5:
            self.notes.append(text)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "mismatches": self.mismatches,
            "inconclusive": self.inconclusive,
            "worst": {name: {"worst": w, "tolerance": TOLERANCES[name]}
                      for name, w in self.worst.items()},
            "notes": self.notes,
        }


def _units(p: int) -> tuple[int, ...]:
    """Unit classes: mod 8 for p = 2, 1..p-1 otherwise."""
    return (1, 3, 5, 7) if p == 2 else tuple(range(1, p))


class GaussGrid:
    """Full-space Gauss integrals over Q_p: residue oracle vs closed form.

    One item is one cell (p, a, b) with a = u p^v and b = 0 or w p^-j.  A
    round is acceptance 3's grid of (p, v, j) classes, one cell per class:
    the class sets the cost (from about 0.1 ms to about 6 s for
    p = 7, v = 2, j = 2), and the seed picks the units u and w.
    """

    name = "gauss-grid"
    SPEED_KERNEL = "int_dict"  # see speed.py: exact sums of big Cyclo values

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.classes = [
            (p, v, j)
            for p in (2, 3, 5, 7)
            for v in range(-2, 3)
            for j in (None, 0, 1, 2)
        ]

    def _cell(self, p: int, v: int, j: int | None):
        u = self.rng.choice(_units(p))
        w = self.rng.choice(_units(p))
        a = F(u) * F(p) ** v
        b = F(0) if j is None else F(w) * F(p) ** (-j)
        return p, a, b

    def warmup(self):
        return self._cell(7, 0, 1)

    def rounds(self):
        while True:
            order = list(self.classes)
            self.rng.shuffle(order)
            yield [self._cell(*c) for c in order]

    def run(self, spec, tally: Tally):
        p, a, b = spec
        res = integrate_qp(p, quad=(a, b))
        if not res.stabilized:
            raise Inconclusive(f"gauss p={p} a={a} b={b}: oracle did not stabilize")
        if not res.value == gauss_integral_p_exact(p, a, b):
            raise Mismatch(f"gauss p={p} a={a} b={b}: oracle != closed form")


def _coeff(re: Fraction, im: Fraction) -> Cyclo:
    """The Gaussian rational re + i*im."""
    return Cyclo(re) + phase(F(1, 4)) * im


def _padic_factor(p: int, balls) -> PAdicTestFunction:
    """A p-adic factor from (re, im, center, radius_exp) ball rows; the
    unit-ball indicator stands in when the rows cancel to zero."""
    f = PAdicTestFunction(p, [(_coeff(re, im), Ball(p, c, k)) for re, im, c, k in balls])
    return f if not f.is_zero() else PAdicTestFunction.omega(p)


def _elementary(spec) -> ElementaryFunction:
    real_coeff, factors = spec
    return ElementaryFunction(
        HermiteGaussian.gaussian(real_coeff),
        {p: _padic_factor(p, balls) for p, balls in factors},
    )


def _chain_score(factors) -> int:
    """A size estimate of a function's canonical form from its ball rows
    alone, without calling the library's canonicalization: each ball is one
    term, plus p - 1 for every level between it and the coarsest other ball
    of its factor that contains its centre (a coarse ball is split along the
    chain down to the fine one).
    """
    score = 0
    for p, balls in factors:
        rows = [Ball(p, c, k) for _, _, c, k in balls]
        for ball in rows:
            levels = [ball.radius_exp - other.radius_exp for other in rows
                      if other.radius_exp < ball.radius_exp and other.contains(ball.center)]
            score += 1 + (p - 1) * max(levels, default=0)
    return score


class FourierTate:
    """Exact Fourier calculus and the Tate / Riemann functional equations.

    One item is one elementary function: a Gaussian real factor and p-adic
    factors at a seeded subset of {2, 3, 5, 7}, each with 1-3 balls carrying
    Gaussian-rational coefficients (acceptance 5's generator).  Checks: the
    Fourier involution and Plancherel per factor, exactly; ``tate_check`` at
    the run's ten shared strip alphas; ``functional_equation_residual`` at
    one fresh alpha per item.

    An item's cost grows with the size of its functions' canonical forms,
    which this generator spreads over 1 to about 70 terms.  A round is a
    proportional stratified sample of the generator: one item from each of
    its twenty equal-probability bands of ``_chain_score`` (ties broken by a
    uniform draw), so every round keeps the generator's mix, tail included,
    and the seed moves only the functions inside each band.  The score reads
    the ball rows only, so a change to the library's canonical form cannot
    change which functions are drawn.
    """

    name = "fourier-tate"
    SPEED_KERNEL = "mpmath"  # see speed.py: mostly zeta, gamma and Mellin evaluations
    # The 5% quantiles of _chain_score + uniform[0, 1) under _function,
    # measured with fourier_bands.py over 100,000 draws; band i is
    # [EDGES[i-1], EDGES[i]), so each band has probability 1/20.
    BAND_EDGES = [1.6, 2.244, 2.988, 3.842, 4.888, 6.064, 7.366, 8.737, 10.206, 11.832,
                  13.923, 15.924, 18.365, 20.952, 23.914, 27.538, 31.67, 37.181, 45.832]

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")
        # shared across items, as acceptance 6 shares them: repeats that a
        # zeta/gamma memo could exploit
        self.alphas = [
            complex(self.rng.uniform(0.1, 0.9), self.rng.uniform(-5, 5))
            for _ in range(10)
        ]
        # one per item and never repeated: what such a memo costs on misses
        self.fresh_seen: set[complex] = set()

    def _fresh_alpha(self) -> complex:
        while True:
            alpha = complex(self.rng.uniform(0.05, 0.95), self.rng.uniform(-5, 5))
            if alpha not in self.fresh_seen and alpha not in self.alphas:
                self.fresh_seen.add(alpha)
                return alpha

    def _function(self):
        """One draw of the unstratified generator, as plain rationals."""
        rng = self.rng
        factors = []
        for p in sorted(rng.sample((2, 3, 5, 7), rng.randint(1, 4))):
            balls = tuple(
                (
                    F(rng.randint(-4, 4), rng.randint(1, 3)),
                    F(rng.randint(-2, 2)),
                    F(rng.randint(-6, 6), p ** rng.randint(0, 2)),
                    rng.randint(-2, 2),
                )
                for _ in range(rng.randint(1, 3))
            )
            factors.append((p, balls))
        return F(rng.randint(1, 3), 2), tuple(factors)

    def _key(self, spec) -> float:
        return _chain_score(spec[1]) + self.rng.random()

    def _item(self, band: int):
        """A generator draw conditioned on its band, and a fresh alpha."""
        edges = [float("-inf"), *self.BAND_EDGES, float("inf")]
        while True:
            spec = self._function()
            if edges[band] <= self._key(spec) < edges[band + 1]:
                return spec, self._fresh_alpha()

    def warmup(self):
        return self._item(0)

    def rounds(self):
        bands = list(range(len(self.BAND_EDGES) + 1))
        while True:
            self.rng.shuffle(bands)
            yield [self._item(band) for band in bands]

    def run(self, spec, tally: Tally):
        fn_spec, alpha_fresh = spec
        phi = _elementary(fn_spec)
        for p, f in phi.prime_factors.items():
            fhat = f.fourier()
            if fhat.fourier() != f.reflect():
                raise Mismatch(f"fourier p={p}: transform twice != reflection")
            if f.l2_norm_sq() != fhat.l2_norm_sq():
                raise Mismatch(f"fourier p={p}: Plancherel fails")
        for alpha in self.alphas:
            tally.residual("tate", tate_check(phi, alpha), f"tate alpha={alpha}")
        tally.residual(
            "functional_equation",
            functional_equation_residual(alpha_fresh),
            f"zeta functional equation alpha={alpha_fresh}",
        )


class PairingOscillator:
    """Distribution pairings, oscillator vacuum invariance and the real
    Gauss integral: many small oracle calls rather than a few huge ones.

    One item is one seeded elementary function (primes {2, 3, 5, 7}) paired
    with the additive character (oracle route vs the Fourier calculus) and
    with the delta (exact sifting), one vacuum-invariance query at
    p in {3, 5, 7, 11, 13} with t = p u at precision 10 and two seeded
    samples (exactly zero deviation), and one real closed form vs its
    regularized Fresnel oracle.  A round crosses acceptance 3's twelve real
    (a, b) pairs, whose quadrature cost grows with |a|, with the five primes.
    """

    name = "pairing-oscillator"
    SPEED_KERNEL = "both"  # see speed.py: exact surds and float quadrature alike

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")

    def _item(self, p: int, a: Fraction, b: Fraction):
        rng = self.rng
        factors = []
        for q in (2, 3, 5, 7):
            if rng.random() < 0.4:
                continue
            balls = tuple(
                (
                    F(rng.randint(-3, 3), rng.randint(1, 2)) or F(1),
                    F(0),
                    F(rng.randint(-4, 4), q ** rng.randint(0, 1)),
                    rng.randint(-1, 2),
                )
                for _ in range(rng.randint(1, 2))
            )
            factors.append((q, balls))
        phi = (F(rng.randint(1, 3), 2), tuple(factors))
        u = rng.randint(1, p - 1)
        samples = tuple(
            F(rng.randint(-p, p)) * F(p) ** rng.randint(-1, 1) for _ in range(2)
        )
        return phi, (p, u, samples), (a, b)

    def warmup(self):
        return self._item(3, F(1), F(0))

    def rounds(self):
        classes = [
            (p, a, b)
            for p in (3, 5, 7, 11, 13)
            for a in (F(1), F(-1), F(2), F(1, 2))
            for b in (F(0), F(1, 2), F(1))
        ]
        while True:
            self.rng.shuffle(classes)
            yield [self._item(*c) for c in classes]

    def run(self, spec, tally: Tally):
        fn_spec, (p, u, samples), (a, b) = spec
        phi = _elementary(fn_spec)
        got = pair(chi_distribution(), phi)
        expect = phi.fourier().evaluate(principal_adele(1))
        tally.residual("chi_pairing", abs(got - expect), "chi pairing vs Fourier")
        if pair(delta_distribution(), phi) != phi.evaluate(zero_adele()):
            raise Mismatch("delta sifting is not exact")
        t = from_rational(p * u, p, 10)
        dev = eigen_check(p, t, PAdicTestFunction.omega(p), F(0), list(samples))
        if dev != 0:
            raise Mismatch(f"oscillator p={p} t={p * u} x={samples}: deviation {dev}")
        af, bf = float(a), float(b)
        oracle, _ = fresnel_regularized(af, bf)
        tally.residual(
            "fresnel", abs(oracle - gauss_integral_inf(af, bf)), f"real gauss a={a} b={b}"
        )


WORKLOADS = {w.name: w for w in (GaussGrid, FourierTate, PairingOscillator)}
