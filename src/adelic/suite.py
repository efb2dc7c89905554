"""The acceptance grid as reusable check runners, judged cell by cell.

A *cell* judges one input of one identity: its value, the reference it is
checked against, their error and a verdict, "pass", "mismatch" or
"inconclusive" (an oracle that did not stabilize or converge gives no
verdict either way).  Every identity that the CLI checks too has one cell
function here and, if it compares floats, one tolerance: the CLI row is one
cell, and the suite row folds the cells of a seeded grid (``fold``).  A
float cell passes when its error is at most its tolerance.  Every expected
value is either exact or produced by an independent oracle (residue sums,
quadrature, higher-precision series).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .adeles import norm_product, principal_adele, principal_idele, zero_adele
from .bruhat import (
    Ball,
    ElementaryFunction,
    HermiteGaussian,
    PAdicTestFunction,
    vacuum_state,
)
from .characters import chi_principal_phase
from .cyclotomic import ONE_PHASE, Cyclo, phase
from .distributions import chi_distribution, delta_distribution, pair
from .gauss import (
    class_representatives,
    gauss_integral_inf,
    gauss_integral_p_exact,
    gauss_polar,
    kernel_k_polar,
    lambda_product_check,
)
from .integrate import Unstabilized, integrate_qp
from .mellin import (
    functional_equation_residual,
    gamma_fn,
    phi_p,
    tate_check,
    zeta,
)
from .oscillator import (
    VACUUM_GRID_POINTS,
    VACUUM_PRIMES,
    eigen_check,
    padic_cos,
    padic_sin,
    real_state_orthonormality,
    vacuum_fourier_check,
)
from .padic import from_rational
from .quadrature import fresnel_regularized, oracle_float

F = Fraction

SEED = 20260810

# the tolerances of the float identities, each read by the identity's suite
# row and by its CLI row unless ``--tolerance`` is given
GAUSS_REAL_TOLERANCE = 1e-6  # |closed form - Fresnel oracle| at the real place
TATE_TOLERANCE = 1e-6  # the Tate formula residual
ZETA_FE_TOLERANCE = 1e-10  # the Riemann functional equation residual
VACUUM_TOLERANCE = 0.0  # the p-adic vacuum's deviation from U(t)-invariance
CHI_PAIRING_TOLERANCE = 1e-10  # |(chi, phi) - phi-hat(1)|


@dataclass
class CheckReport:
    check: str
    inputs: dict
    value: object  # complex, Fraction or str
    expected: object
    abs_error: float
    passed: bool
    runtime_ms: float = 0.0


@dataclass(frozen=True)
class Cell:
    """One judged input: an inconclusive cell's ``expected`` reads
    "inconclusive: <reason>" and its error is inf."""

    value: object
    expected: object
    error: float
    verdict: str  # "pass", "mismatch" or "inconclusive"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def judged(value, expected, ok: bool, error: float | None = None) -> Cell:
    """The cell of a comparison made by the caller.  Without an ``error``
    it is exact: its error is 0.0 on pass and inf on mismatch."""
    if error is None:
        error = 0.0 if ok else math.inf
    return Cell(value, expected, error, "pass" if ok else "mismatch")


def _within(value, expected, error: float, tolerance: float) -> Cell:
    return judged(value, expected, error <= tolerance, error)


def _inconclusive(value, reason: str) -> Cell:
    return Cell(value, f"inconclusive: {reason}", math.inf, "inconclusive")


def make_report(check: str, inputs: dict, cell: Cell, t0: float) -> CheckReport:
    """The one constructor of report rows: a judged cell, timed from ``t0``."""
    return CheckReport(check, inputs, cell.value, cell.expected, cell.error, cell.passed,
                       (time.perf_counter() - t0) * 1000.0)


def fold(check: str, inputs: dict, cells, expected: str, passing: str,
         t0: float) -> CheckReport:
    """One suite row from the (label, cell) pairs of an identity's grid.

    The row passes when every cell passes, and its value is then
    ``passing`` formatted with the worst error.  Otherwise the value names
    the first cell that did not pass, "mismatch at <label>" or
    "inconclusive at <label>".  The row's error is the worst cell error.
    """
    first, worst = None, 0.0
    for label, cell in cells:
        worst = max(worst, cell.error)
        if first is None and not cell.passed:
            first = f"{cell.verdict} at {label}"
    return make_report(check, inputs,
                       judged(first or passing.format(worst), expected, first is None, worst), t0)


def _at_most(tolerance: float) -> str:
    return f"<= {tolerance:g}".replace("e-0", "e-")


# -- the cells of the identities that the CLI checks too ------------------------


def chi_principal_cell(r: Fraction) -> Cell:
    """chi is trivial on principal adeles: the phase of chi(r) is exactly 0."""
    ph = chi_principal_phase(r).phase
    return judged(ph, F(0), ph == 0)


def gauss_cell(p: int, a: Fraction, b: Fraction) -> Cell:
    """int_{Q_p} chi_p(a x^2 + b x) dx: the closed form, read from its
    exact polar form, against the residue oracle.  The exact cyclotomic
    closed form, whose sqrt(p) is a p-term sum, is built only to compare
    with an oracle that stabilized."""
    oracle = integrate_qp(p, quad=(a, b))
    ph, m2 = gauss_polar(p, a, b)
    value = ph.value * math.sqrt(m2)
    if not oracle.stabilized:
        return _inconclusive(value, "oracle did not stabilize")
    expected = oracle.value.to_complex()
    ok = oracle.value == gauss_integral_p_exact(p, a, b)
    return judged(value, expected, ok, 0.0 if ok else abs(value - expected))


def gauss_real_cell(a, b, tolerance: float | None = None) -> Cell:
    """int_R chi_inf(a x^2 + b x) dx: the closed form against the Fresnel
    oracle.  A deviation over tolerance with the oracle's own estimate over
    it too is inconclusive: the oracle has not converged."""
    tolerance = GAUSS_REAL_TOLERANCE if tolerance is None else tolerance
    oracle_float("-a", a)
    if a:
        # |2a|^-1, the closed form's squared modulus, must be a double too
        oracle_float("-a", 1 / abs(2 * a))
    value = gauss_integral_inf(a, b)
    oracle, est = fresnel_regularized(a, b)
    err = abs(value - oracle)
    if err > tolerance and est > tolerance:
        return _inconclusive(value, "oracle did not converge")
    return _within(value, oracle, err, tolerance)


def gauss_product_cell(a: Fraction, b: Fraction) -> Cell:
    """The adelic Gauss product formula K(a, b) = 1 on principal a != 0
    and b, exact in polar form."""
    ph, m2 = kernel_k_polar(principal_idele(a), principal_adele(b))
    return judged(ph.value * math.sqrt(m2), 1 + 0j, (ph, m2) == (ONE_PHASE, 1))


def lambda_product_cell(a: Fraction) -> Cell:
    """The lambda product over all places, the phase of K(a, 0), is 1."""
    ph = lambda_product_check(a)
    return judged(ph.value, 1 + 0j, ph == ONE_PHASE)


def tate_cell(functions, alpha: complex, tolerance: float | None = None) -> Cell:
    """The worst Tate formula residual of elementary functions at alpha."""
    worst = max((tate_check(f, alpha) for f in functions), default=0.0)
    return _within(worst, 0.0, worst, TATE_TOLERANCE if tolerance is None else tolerance)


def zeta_fe_cell(alpha: complex, tolerance: float | None = None) -> Cell:
    """The residual of the Riemann functional equation at alpha."""
    residual = functional_equation_residual(alpha)
    return _within(residual, 0.0, residual,
                   ZETA_FE_TOLERANCE if tolerance is None else tolerance)


def vacuum_cell(p: int, t, energy: Fraction, samples: list[Fraction],
                tolerance: float | None = None) -> Cell:
    """The p-adic vacuum Omega_p against U(t) Omega_p = chi_p(E t) Omega_p
    at the samples (``oscillator.eigen_check``)."""
    try:
        dev = eigen_check(p, t, PAdicTestFunction.omega(p), energy, samples)
    except Unstabilized as exc:
        return _inconclusive("n/a", str(exc))
    return _within(dev, 0.0, dev, VACUUM_TOLERANCE if tolerance is None else tolerance)


def pairing_cell(dist, phi, reference=None, tolerance: float = 0.0) -> Cell:
    """(dist, phi) against ``reference()`` within ``tolerance``.  With no
    reference the pairing is only computed and expects "n/a": the Mellin
    pairing of ``mellin`` and ``pair --dist pi-alpha``, and ``chi-quad``."""
    try:
        value = pair(dist, phi)
    except Unstabilized as exc:
        return _inconclusive("n/a", str(exc))
    if reference is None:
        return judged(value, "n/a", True)
    expected = reference()
    return _within(value, expected, abs(value - expected), tolerance)


def chi_pairing_cell(phi) -> Cell:
    """The oracle route against the Fourier calculus: (chi, phi) = phi-hat(1)."""
    return pairing_cell(chi_distribution(), phi,
                        lambda: phi.fourier().evaluate(principal_adele(1)),
                        CHI_PAIRING_TOLERANCE)


def delta_cell(phi) -> Cell:
    """Sifting is exact: (delta, phi) is the same float as phi(0)."""
    return pairing_cell(delta_distribution(), phi, lambda: phi.evaluate(zero_adele()))


# -- 1. norm product formula -------------------------------------------------


def _seeded_rationals():
    """1000 seeded nonzero rationals, labelled."""
    rng = random.Random(SEED)
    for _ in range(1000):
        r = F(rng.randint(1, 10**6) * rng.choice([-1, 1]), rng.randint(1, 10**6))
        yield f"r={r}", r


def norm_product_checks() -> list[CheckReport]:
    t0 = time.perf_counter()
    cells = ((label, judged(None, None, norm_product(r) == 1))
             for label, r in _seeded_rationals())
    return [fold("norm-product-formula", {"count": 1000, "seed": SEED}, cells,
                 "1", "1 (exact)", t0)]


# -- 2. principal character triviality ----------------------------------------


def chi_principal_checks() -> list[CheckReport]:
    t0 = time.perf_counter()
    cells = ((label, chi_principal_cell(r)) for label, r in _seeded_rationals())
    return [fold("chi-principal-trivial", {"count": 1000, "seed": SEED}, cells,
                 "phase 0", "phase 0 (exact)", t0)]


# -- 3. Gauss closed form vs oracle -------------------------------------------


def gauss_grid_checks() -> list[CheckReport]:
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        t0 = time.perf_counter()
        grid = [(a, b) for a in class_representatives(p)
                for b in (F(0), F(1), F(1, p), F(3, p * p))]
        cells = (((a, b), gauss_cell(p, a, b)) for a, b in grid)
        out.append(fold(f"gauss-oracle-p{p}", {"p": p, "cells": len(grid)}, cells,
                        "exact agreement", "exact agreement", t0))
    out.append(gauss_real_check())
    return out


def gauss_real_check() -> CheckReport:
    """The real row of the Gauss grid: the Fresnel oracle against the closed
    form on 12 (a, b) pairs."""
    t0 = time.perf_counter()
    cells = (((a, b), gauss_real_cell(a, b))
             for a in (1.0, -1.0, 2.0, 0.5) for b in (0.0, 1.0, 0.5))
    return fold("gauss-oracle-real", {"cases": 12}, cells,
                _at_most(GAUSS_REAL_TOLERANCE), "max deviation {:.3e}", t0)


# -- 4. product formulas -------------------------------------------------------


def product_formula_checks() -> list[CheckReport]:
    rng = random.Random(SEED)

    def products():
        for _ in range(100):
            a = F(rng.randint(1, 60) * rng.choice([-1, 1]), rng.randint(1, 60))
            b = F(rng.randint(0, 60) * rng.choice([-1, 1]), rng.randint(1, 60))
            yield f"a={a}, b={b}", gauss_product_cell(a, b)

    def lambdas():
        for _ in range(100):
            a = F(rng.randint(1, 80) * rng.choice([-1, 1]), rng.randint(1, 80))
            yield f"a={a}", lambda_product_cell(a)

    t0 = time.perf_counter()
    out = [fold("gauss-product-formula", {"count": 100, "seed": SEED}, products(),
                "1", "1 (exact)", t0)]
    t0 = time.perf_counter()
    out.append(fold("lambda-product-formula", {"count": 100, "seed": SEED}, lambdas(),
                    "1", "1 (exact)", t0))
    return out


# -- 5. Fourier calculus --------------------------------------------------------


def _random_test_function(rng: random.Random, p: int) -> PAdicTestFunction:
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = Cyclo(F(rng.randint(-4, 4), rng.randint(1, 3))) + phase(F(1, 4)) * F(
            rng.randint(-2, 2)
        )
        k = rng.randint(-2, 2)
        center = F(rng.randint(-6, 6), p ** rng.randint(0, 2))
        terms.append((coeff, Ball(p, center, k), F(0)))
    f = PAdicTestFunction(p, terms)
    return f if not f.is_zero() else PAdicTestFunction.omega(p)


def fourier_checks() -> list[CheckReport]:
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    bad = None
    for i in range(100):
        p = rng.choice([2, 3, 5, 7])
        f = _random_test_function(rng, p)
        if f.fourier().fourier() != f.reflect():
            bad = ("involution", i)
            break
        if f.l2_norm_sq() != f.fourier().l2_norm_sq():
            bad = ("plancherel", i)
            break
    rep1 = make_report("fourier-involution-plancherel", {"count": 100, "seed": SEED},
                       judged("exact" if bad is None else f"failed: {bad}", "exact",
                              bad is None), t0)
    t0 = time.perf_counter()
    ok = all(
        PAdicTestFunction.omega(p).fourier() == PAdicTestFunction.omega(p)
        for p in (2, 3, 5, 7, 11)
    )
    rep2 = make_report("omega-self-dual", {"primes": [2, 3, 5, 7, 11]},
                       judged("exact" if ok else "failed", "exact", ok), t0)
    return [rep1, rep2]


# -- 6. Tate formula -------------------------------------------------------------


def _random_elementary(rng: random.Random) -> ElementaryFunction:
    factors = {}
    for p in (2, 3, 5):
        if rng.random() < 0.4:
            continue
        terms = []
        for _ in range(rng.randint(1, 2)):
            coeff = F(rng.randint(-3, 3), rng.randint(1, 2)) or F(1)
            terms.append(
                (coeff, Ball(p, F(rng.randint(-4, 4), p ** rng.randint(0, 1)),
                             rng.randint(-1, 2)), F(0))
            )
        f = PAdicTestFunction(p, terms)
        if not f.is_zero():
            factors[p] = f
    return ElementaryFunction(HermiteGaussian.gaussian(F(rng.randint(1, 3), 2)), factors)


def tate_checks() -> list[CheckReport]:
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    alphas = [
        complex(rng.uniform(0.1, 0.9), rng.uniform(-5, 5)) for _ in range(10)
    ]
    cells = ((f"phi {i}, alpha {alpha}", tate_cell([phi], alpha))
             for i, phi in enumerate(_random_elementary(rng) for _ in range(20))
             for alpha in alphas)
    return [fold("tate-formula", {"functions": 20, "alphas": 10, "seed": SEED}, cells,
                 _at_most(TATE_TOLERANCE), "max residual {:.3e}", t0)]


# -- 7. Riemann functional equation ----------------------------------------------


def functional_equation_checks() -> list[CheckReport]:
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    alphas = (complex(rng.uniform(0.05, 0.95), rng.uniform(-5, 5)) for _ in range(20))
    rep1 = fold("zeta-functional-equation", {"count": 20, "seed": SEED},
                ((f"alpha {alpha}", zeta_fe_cell(alpha)) for alpha in alphas),
                _at_most(ZETA_FE_TOLERANCE), "max residual {:.3e}", t0)
    t0 = time.perf_counter()
    z = abs(zeta(0.5 + 14.134725j))
    rep2 = make_report("zeta-first-zero-probe", {"alpha": "0.5 + 14.134725i"},
                       judged(f"|zeta| = {z:.3e}", "< 1e-3", z < 1e-3, z), t0)
    return [rep1, rep2]


# -- 8. vacuum Mellin ---------------------------------------------------------------


def vacuum_mellin_checks() -> list[CheckReport]:
    t0 = time.perf_counter()
    psi0 = vacuum_state()
    consts = []
    for alpha in (2.0, 3.0, 4.0):
        denom = complex(gamma_fn(alpha / 2)) * math.pi ** (-alpha / 2) * zeta(alpha)
        consts.append(phi_p(psi0, alpha) / denom)
    c0 = consts[0]
    spread = max(abs(c - c0) / abs(c0) for c in consts)
    return [make_report(
        "vacuum-mellin-constant",
        {"alphas": [2, 3, 4]},
        judged(f"measured c = {c0.real:.12f} (2^0.25 = {2**0.25:.12f}), spread {spread:.2e}",
               "single constant within 1e-8 relative", spread < 1e-8, spread),
        t0,
    )]


# -- 9. oscillator -------------------------------------------------------------------


def oscillator_checks() -> list[CheckReport]:
    out = []
    t0 = time.perf_counter()
    bad = None
    for p in (3, 5, 7):
        for tval in (F(p), F(2 * p)):
            t = from_rational(tval, p, 12)
            s, c = padic_sin(t), padic_cos(t)
            ident = s * s + c * c
            if not ident.congruent(from_rational(1, p, ident.precision)):
                bad = (p, tval)
    out.append(make_report(
        "oscillator-trig-identity", {"primes": [3, 5, 7], "precision": 12},
        judged("exact mod p^N" if bad is None else f"failed {bad}", "exact", bad is None),
        t0,
    ))
    t0 = time.perf_counter()
    cells = ((f"p={p}", vacuum_cell(p, from_rational(p, p, 10), F(0),
                                    [F(1, p), F(1), F(p), F(0)]))
             for p in (3, 5, 7))
    out.append(fold("oscillator-vacuum-invariance", {"primes": [3, 5, 7], "|t|": "1/p"},
                    cells, "exactly 0", "max deviation {}", t0))
    t0 = time.perf_counter()
    exact_ok, sup_err = vacuum_fourier_check()
    out.append(make_report(
        "oscillator-vacuum-fourier",
        {"primes": list(VACUUM_PRIMES), "grid": VACUUM_GRID_POINTS},
        judged(f"p-adic exact: {exact_ok}, real sup-error {sup_err:.3e}",
               "exact and < 1e-10", exact_ok and sup_err < 1e-10,
               sup_err if exact_ok else math.inf),
        t0,
    ))
    t0 = time.perf_counter()
    gram_dev = real_state_orthonormality(8)
    out.append(make_report(
        "oscillator-hermite-gram", {"max_degree": 8},
        judged(f"max |G - I| = {gram_dev:.3e}", "< 1e-9", gram_dev < 1e-9, gram_dev),
        t0,
    ))
    return out


# -- 10. distribution pairings ----------------------------------------------------------


def pairing_checks() -> list[CheckReport]:
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    rep1 = fold("delta-sifting", {"count": 50, "seed": SEED},
                ((i, delta_cell(_random_elementary(rng))) for i in range(50)),
                "exact", "exact", t0)
    t0 = time.perf_counter()
    rep2 = fold("chi-pairing-vs-fourier", {"count": 15, "seed": SEED},
                ((i, chi_pairing_cell(_random_elementary(rng))) for i in range(15)),
                _at_most(CHI_PAIRING_TOLERANCE), "max deviation {:.3e}", t0)
    return [rep1, rep2]


ALL_CHECKS = {
    "norm": norm_product_checks,
    "chi": chi_principal_checks,
    "gauss": gauss_grid_checks,
    "product": product_formula_checks,
    "fourier": fourier_checks,
    "tate": tate_checks,
    "zeta-fe": functional_equation_checks,
    "mellin": vacuum_mellin_checks,
    "oscillator": oscillator_checks,
    "pairings": pairing_checks,
}


def run_suite(only: str | None = None) -> list[CheckReport]:
    reports = []
    for name, fn in ALL_CHECKS.items():
        if only is not None and only != name:
            continue
        reports.extend(fn())
    return reports
