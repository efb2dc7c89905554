"""The acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them.  The same grids are exposed through `adelic suite`.
"""

from fractions import Fraction

from adelic.suite import (
    chi_principal_checks,
    fourier_checks,
    functional_equation_checks,
    gauss_grid_checks,
    norm_product_checks,
    oscillator_checks,
    pairing_checks,
    product_formula_checks,
    tate_checks,
    vacuum_mellin_checks,
)

F = Fraction


def _verdict(n: int, label: str, reports) -> None:
    ok = all(r.passed for r in reports)
    print(f"ACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'}")
    for r in reports:
        assert r.passed, (r.check, r.value, r.expected, r.abs_error)


def test_acceptance_1_norm_product_formula():
    # 1000 pseudorandom nonzero rationals, exact rational arithmetic
    _verdict(1, "norm product formula, 1000 rationals, exact",
             norm_product_checks())


def test_acceptance_2_principal_character_triviality():
    _verdict(2, "principal character phase exactly 0, 1000 rationals",
             chi_principal_checks())


def test_acceptance_3_gauss_closed_form_vs_oracle():
    # p in {2,3,5,7,11,13}, v_p(a) in -2..2, all leading-digit classes,
    # b in {0, 1, 1/p, 3/p^2}: exact p-adic agreement; real Fresnel <= 1e-6
    _verdict(3, "Gauss closed form vs oracle grid", gauss_grid_checks())


def test_acceptance_4_product_formulas():
    # exact over 100 pairs: phase 0 and squared modulus 1; lambda phase 0
    _verdict(4, "adelic Gauss product formula, exact", product_formula_checks())


def test_acceptance_5_fourier_calculus():
    # involution-with-reflection and Plancherel exact on 100 random test
    # functions; Omega self-dual for p in {2,3,5,7,11}
    _verdict(5, "exact Fourier calculus", fourier_checks())


def test_acceptance_6_tate_formula():
    # 20 elementary functions, P within {2,3,5}, 10 strip points, < 1e-6
    _verdict(6, "Tate formula residuals", tate_checks())


def test_acceptance_7_riemann_functional_equation():
    # residual < 1e-10 at 20 strip points; |zeta(1/2 + 14.134725i)| < 1e-3
    _verdict(7, "Riemann functional equation", functional_equation_checks())


def test_acceptance_8_vacuum_mellin():
    # Phi(alpha) = c Gamma(alpha/2) pi^(-alpha/2) zeta(alpha) at alpha in
    # {2,3,4} with one measured constant within 1e-8 relative
    reports = vacuum_mellin_checks()
    print(f"  measured vacuum Mellin constant: {reports[0].value}")
    _verdict(8, "vacuum Mellin constant", reports)


def test_acceptance_9_oscillator():
    # trig identities exact mod p^12; vacuum invariance exactly 0; real
    # vacuum Fourier sup-error < 1e-10; Hermite Gram < 1e-9 to degree 8
    _verdict(9, "adelic harmonic oscillator", oscillator_checks())


def test_acceptance_10_distribution_pairings():
    # delta sifting exact on 50 elementary functions; chi pairing matches
    # independently computed Fourier values to 1e-10
    _verdict(10, "distribution pairings", pairing_checks())
