"""The acceptance grid as reusable check runners.

Each runner produces ``CheckReport`` rows that the CLI emits as JSON lines
and the test suite asserts on.  Tolerances are pinned here, next to the
checks, and every expected value is either exact or produced by an
independent oracle (residue sums, quadrature, higher-precision series).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .adeles import norm_product, principal_adele, principal_idele
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
    kernel_k_polar,
    lambda_product_check,
)
from .integrate import QpIntegral, integrate_qp
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
from .quadrature import fresnel_regularized

F = Fraction

SEED = 20260810

# the bound on |(chi, phi) - phi-hat(1)|, the oracle route against the
# Fourier calculus (the suite row and ``adelic pair --dist chi``)
CHI_PAIRING_TOLERANCE = 1e-10


@dataclass
class CheckReport:
    check: str
    inputs: dict
    value: object  # complex, Fraction or str
    expected: object
    abs_error: float
    passed: bool
    runtime_ms: float = 0.0


def make_report(check: str, inputs: dict, value, expected, t0: float, *,
                passed: bool, error: float | None = None) -> CheckReport:
    """The one constructor of report rows, timed from ``t0``.

    The caller decides ``passed`` with the row's own comparison.  Without an
    ``error`` the row is exact: its error is 0.0 on pass and inf on fail.
    """
    if error is None:
        error = 0.0 if passed else float("inf")
    return CheckReport(check, inputs, value, expected, error, passed,
                       (time.perf_counter() - t0) * 1000.0)


# -- 1. norm product formula -------------------------------------------------


def _first_failing_rational(holds) -> Fraction | None:
    """The first of 1000 seeded nonzero rationals r without holds(r)."""
    rng = random.Random(SEED)
    for _ in range(1000):
        r = F(rng.randint(1, 10**6) * rng.choice([-1, 1]), rng.randint(1, 10**6))
        if not holds(r):
            return r
    return None


def norm_product_checks() -> list[CheckReport]:
    t0 = time.perf_counter()
    worst = _first_failing_rational(lambda r: norm_product(r) == 1)
    return [make_report("norm-product-formula", {"count": 1000, "seed": SEED},
                        "1 (exact)" if worst is None else f"failed at r={worst}",
                        "1", t0, passed=worst is None)]


# -- 2. principal character triviality ----------------------------------------


def chi_principal_checks() -> list[CheckReport]:
    t0 = time.perf_counter()
    worst = _first_failing_rational(lambda r: chi_principal_phase(r).phase == 0)
    return [make_report("chi-principal-trivial", {"count": 1000, "seed": SEED},
                        "phase 0 (exact)" if worst is None else f"failed at r={worst}",
                        "phase 0", t0, passed=worst is None)]


# -- 3. Gauss closed form vs oracle -------------------------------------------


def gauss_cell(p: int, a: Fraction, b: Fraction) -> tuple[QpIntegral, str | None]:
    """One Gauss cell: the residue oracle on int chi_p(a x^2 + b x) dx
    against the exact closed form.  Returns the oracle's integral and
    None on exact agreement, "inconclusive" when the oracle did not
    stabilize (the closed form, whose sqrt(p) is a p-term sum, is then
    not built) or "mismatch"."""
    oracle = integrate_qp(p, quad=(a, b))
    if not oracle.stabilized:
        return oracle, "inconclusive"
    if oracle.value != gauss_integral_p_exact(p, a, b):
        return oracle, "mismatch"
    return oracle, None


def gauss_grid_checks() -> list[CheckReport]:
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        t0 = time.perf_counter()
        bad = None
        grid = [(a, b) for a in class_representatives(p)
                for b in (F(0), F(1), F(1, p), F(3, p * p))]
        for cells, (a, b) in enumerate(grid, 1):
            _, verdict = gauss_cell(p, a, b)
            if verdict is not None:
                bad = f"{verdict} at {(a, b)}"
                break
        out.append(
            make_report(
                f"gauss-oracle-p{p}",
                {"p": p, "cells": cells},
                bad or "exact agreement",
                "exact agreement",
                t0,
                passed=bad is None,
            )
        )
    out.append(gauss_real_check())
    return out


def gauss_real_check() -> CheckReport:
    """The real row of the Gauss grid: the Fresnel oracle against the closed
    form on 12 (a, b) pairs."""
    t0 = time.perf_counter()
    worst = 0.0
    for a in (1.0, -1.0, 2.0, 0.5):
        for b in (0.0, 1.0, 0.5):
            oracle, _ = fresnel_regularized(a, b)
            worst = max(worst, abs(oracle - gauss_integral_inf(a, b)))
    return make_report(
        "gauss-oracle-real",
        {"cases": 12},
        f"max deviation {worst:.3e}",
        "<= 1e-6",
        t0,
        passed=worst <= 1e-6,
        error=worst,
    )


# -- 4. product formulas -------------------------------------------------------


def product_formula_checks() -> list[CheckReport]:
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    bad = None
    for _ in range(100):
        a = F(rng.randint(1, 60) * rng.choice([-1, 1]), rng.randint(1, 60))
        b = F(rng.randint(0, 60) * rng.choice([-1, 1]), rng.randint(1, 60))
        if kernel_k_polar(principal_idele(a), principal_adele(b)) != (ONE_PHASE, 1):
            bad = bad or f"failed at a={a}, b={b}"
    out = [make_report("gauss-product-formula", {"count": 100, "seed": SEED},
                       bad or "1 (exact)", "1", t0, passed=bad is None)]
    t0 = time.perf_counter()
    bad = None
    for _ in range(100):
        a = F(rng.randint(1, 80) * rng.choice([-1, 1]), rng.randint(1, 80))
        if lambda_product_check(a) != ONE_PHASE:
            bad = bad or f"failed at a={a}"
    out.append(make_report("lambda-product-formula", {"count": 100, "seed": SEED},
                           bad or "1 (exact)", "1", t0, passed=bad is None))
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
    rep1 = make_report(
        "fourier-involution-plancherel",
        {"count": 100, "seed": SEED},
        "exact" if bad is None else f"failed: {bad}",
        "exact",
        t0,
        passed=bad is None,
    )
    t0 = time.perf_counter()
    ok = all(
        PAdicTestFunction.omega(p).fourier() == PAdicTestFunction.omega(p)
        for p in (2, 3, 5, 7, 11)
    )
    rep2 = make_report(
        "omega-self-dual",
        {"primes": [2, 3, 5, 7, 11]},
        "exact" if ok else "failed",
        "exact",
        t0,
        passed=ok,
    )
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
    worst = 0.0
    for _ in range(20):
        phi = _random_elementary(rng)
        for alpha in alphas:
            worst = max(worst, tate_check(phi, alpha))
    return [
        make_report(
            "tate-formula",
            {"functions": 20, "alphas": 10, "seed": SEED},
            f"max residual {worst:.3e}",
            "< 1e-6",
            t0,
            passed=worst < 1e-6,
            error=worst,
        )
    ]


# -- 7. Riemann functional equation ----------------------------------------------


def functional_equation_checks() -> list[CheckReport]:
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        alpha = complex(rng.uniform(0.05, 0.95), rng.uniform(-5, 5))
        worst = max(worst, functional_equation_residual(alpha))
    rep1 = make_report(
        "zeta-functional-equation",
        {"count": 20, "seed": SEED},
        f"max residual {worst:.3e}",
        "< 1e-10",
        t0,
        passed=worst < 1e-10,
        error=worst,
    )
    t0 = time.perf_counter()
    z = abs(zeta(0.5 + 14.134725j))
    rep2 = make_report(
        "zeta-first-zero-probe",
        {"alpha": "0.5 + 14.134725i"},
        f"|zeta| = {z:.3e}",
        "< 1e-3",
        t0,
        passed=z < 1e-3,
        error=z,
    )
    return [rep1, rep2]


# -- 8. vacuum Mellin ---------------------------------------------------------------


def vacuum_mellin_checks() -> list[CheckReport]:
    import math

    t0 = time.perf_counter()
    psi0 = vacuum_state()
    consts = []
    for alpha in (2.0, 3.0, 4.0):
        denom = complex(gamma_fn(alpha / 2)) * math.pi ** (-alpha / 2) * zeta(alpha)
        consts.append(phi_p(psi0, alpha) / denom)
    c0 = consts[0]
    spread = max(abs(c - c0) / abs(c0) for c in consts)
    return [
        make_report(
            "vacuum-mellin-constant",
            {"alphas": [2, 3, 4]},
            f"measured c = {c0.real:.12f} (2^0.25 = {2**0.25:.12f}), spread {spread:.2e}",
            "single constant within 1e-8 relative",
            t0,
            passed=spread < 1e-8,
            error=spread,
        )
    ]


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
    out.append(
        make_report(
            "oscillator-trig-identity",
            {"primes": [3, 5, 7], "precision": 12},
            "exact mod p^N" if bad is None else f"failed {bad}",
            "exact",
            t0,
            passed=bad is None,
        )
    )
    t0 = time.perf_counter()
    worst = 0.0
    for p in (3, 5, 7):
        t = from_rational(p, p, 10)
        dev = eigen_check(
            p, t, PAdicTestFunction.omega(p), F(0), [F(1, p), F(1), F(p), F(0)]
        )
        worst = max(worst, dev)
    out.append(
        make_report(
            "oscillator-vacuum-invariance",
            {"primes": [3, 5, 7], "|t|": "1/p"},
            f"max deviation {worst}",
            "exactly 0",
            t0,
            passed=worst == 0.0,
            error=worst,
        )
    )
    t0 = time.perf_counter()
    exact_ok, sup_err = vacuum_fourier_check()
    out.append(
        make_report(
            "oscillator-vacuum-fourier",
            {"primes": list(VACUUM_PRIMES), "grid": VACUUM_GRID_POINTS},
            f"p-adic exact: {exact_ok}, real sup-error {sup_err:.3e}",
            "exact and < 1e-10",
            t0,
            passed=exact_ok and sup_err < 1e-10,
            error=sup_err if exact_ok else float("inf"),
        )
    )
    t0 = time.perf_counter()
    gram_dev = real_state_orthonormality(8)
    out.append(
        make_report(
            "oscillator-hermite-gram",
            {"max_degree": 8},
            f"max |G - I| = {gram_dev:.3e}",
            "< 1e-9",
            t0,
            passed=gram_dev < 1e-9,
            error=gram_dev,
        )
    )
    return out


# -- 10. distribution pairings ----------------------------------------------------------


def pairing_checks() -> list[CheckReport]:
    from .adeles import zero_adele

    rng = random.Random(SEED)
    t0 = time.perf_counter()
    delta = delta_distribution()
    bad = None
    for i in range(50):
        phi = _random_elementary(rng)
        if pair(delta, phi) != phi.evaluate(zero_adele()):
            bad = i
            break
    rep1 = make_report(
        "delta-sifting",
        {"count": 50, "seed": SEED},
        "exact" if bad is None else f"failed at {bad}",
        "exact",
        t0,
        passed=bad is None,
    )
    t0 = time.perf_counter()
    chi_d = chi_distribution()
    worst = 0.0
    for _ in range(15):
        phi = _random_elementary(rng)
        got = pair(chi_d, phi)
        expect = phi.fourier().evaluate(principal_adele(1))
        worst = max(worst, abs(got - expect))
    rep2 = make_report(
        "chi-pairing-vs-fourier",
        {"count": 15, "seed": SEED},
        f"max deviation {worst:.3e}",
        f"< {CHI_PAIRING_TOLERANCE:g}",
        t0,
        passed=worst < CHI_PAIRING_TOLERANCE,
        error=worst,
    )
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
