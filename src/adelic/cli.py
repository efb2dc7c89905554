"""Batch command-line front end.

Every verification and transform is exposed as a subcommand emitting one
JSON line per check: {"check", "inputs", "value", "expected", "abs_error",
"pass", "runtime_ms"}.  Floating values are printed with 15 significant
digits and rationals exactly, so identical inputs give byte-identical
output.  Exit code 0 means every check passed, 1 means a failed or flagged
check, 2 a usage error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import time
from fractions import Fraction

from .adeles import norm_product, principal_adele, principal_idele, zero_adele
from .bruhat import PAdicTestFunction, parse_schwartz_bruhat
from .characters import chi_p, chi_principal_phase
from .cyclotomic import ONE_PHASE
from .distributions import (
    chi_distribution,
    chi_quadratic_distribution,
    delta_distribution,
    pair,
    pi_alpha_distribution,
)
from .gauss import (
    calibrate_lambda_p,
    gauss_integral_inf,
    gauss_polar,
    kernel_k,
    kernel_k_polar,
    lambda_p,
    lambda_product_check,
)
from .integrate import Unstabilized
from .mellin import functional_equation_residual, tate_check
from .oscillator import eigen_check
from .padic import _split, frac_part, from_rational, padic_norm, valuation
from .primes import is_prime
from .quadrature import fresnel_regularized, oracle_float
from .suite import (
    ALL_CHECKS,
    CHI_PAIRING_TOLERANCE,
    CheckReport,
    gauss_cell,
    make_report,
    run_suite,
)

F = Fraction


def format_float(x: float) -> str:
    return f"{x:.15g}"


def format_complex(z: complex) -> str:
    z = complex(z)
    re, im = format_float(z.real), format_float(abs(z.imag))
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{im}i"


def format_value(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        return format_complex(v)
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def emit(report: CheckReport, timings: bool = False):
    line = {
        "check": report.check,
        "inputs": {k: format_value(v) if isinstance(v, (Fraction, complex, float)) else v
                   for k, v in report.inputs.items()},
        "value": format_value(report.value),
        "expected": format_value(report.expected),
        "abs_error": format_float(report.abs_error),
        "pass": report.passed,
    }
    if timings:
        # timings are gated so that default output stays byte-identical
        # across runs of identical inputs
        line["runtime_ms"] = format_float(round(report.runtime_ms, 3))
    sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational literal: {text!r}") from exc


def _prime(text: str) -> int:
    try:
        p = int(text)
    except ValueError:
        p = 0
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"not a prime: {text!r}")
    return p


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n <= 0:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return n


def _rationals(text: str) -> list[Fraction]:
    return [_rational(s) for s in text.split(",")] if text else []


def _alpha(text: str) -> complex:
    try:
        if "," in text:
            re, im = text.split(",", 1)
            alpha = complex(float(re), float(im))
        else:
            alpha = complex(float(text), 0.0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"alpha must be 're,im': {text!r}") from exc
    if not cmath.isfinite(alpha):
        raise argparse.ArgumentTypeError(f"alpha must be finite: {text!r}")
    return alpha


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    if not 0.0 <= tol < float("inf"):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0: {text!r}")
    return tol


def _phi(source: str):
    """A test function from inline JSON or, for ``@path``, from a file."""
    text = source
    if source.startswith("@"):
        try:
            with open(source[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise argparse.ArgumentTypeError(f"cannot read test function: {exc}") from exc
    try:
        return parse_schwartz_bruhat(text)
    except (ValueError, TypeError, AttributeError, KeyError, IndexError,
            ArithmeticError) as exc:
        raise argparse.ArgumentTypeError(f"not a test function: {exc}") from exc


def _inconclusive(check: str, inputs: dict, value, reason: str,
                  t0: float) -> list[CheckReport]:
    """The row of an oracle that gave no verdict: never a pass, and told
    apart from a mismatch by its ``expected``."""
    return [make_report(check, inputs, value, f"inconclusive: {reason}", t0, passed=False)]


def cmd_norm(args) -> list[CheckReport]:
    t0 = time.perf_counter()
    value = padic_norm(args.r, args.p)
    # the product formula: |r|_p is 1 over the product of r's other places
    expected = 1 / norm_product(args.r, omit=args.p) if args.r else F(0)
    return [make_report("padic-norm", {"r": str(args.r), "p": args.p}, value, expected,
                        t0, passed=value == expected)]


def _is_frac_part(r: F, p: int, q: F) -> bool:
    """The defining property of q = {r}_p: 0 <= q < 1, q in Z[1/p] and
    v_p(r - q) >= 0."""
    in_z_1_p = _split(q.denominator, p)[1] == 1
    return 0 <= q < 1 and in_z_1_p and (r == q or valuation(r - q, p) >= 0)


def cmd_frac(args) -> list[CheckReport]:
    t0 = time.perf_counter()
    q = frac_part(args.r, args.p)
    return [make_report("frac-part", {"r": str(args.r), "p": args.p}, q, q, t0,
                        passed=_is_frac_part(args.r, args.p, q))]


def cmd_chi(args) -> list[CheckReport]:
    t0 = time.perf_counter()
    if args.p is not None:
        # chi_p(r) = e({r}_p): its phase is the fractional part
        ph = chi_p(args.r, args.p).phase
        return [make_report("chi-p", {"r": str(args.r), "p": args.p}, ph, ph, t0,
                            passed=_is_frac_part(args.r, args.p, ph))]
    ph = chi_principal_phase(args.r).phase
    return [make_report("chi-principal", {"r": str(args.r)}, ph, F(0), t0,
                        passed=ph == 0)]


def cmd_pair(args) -> list[CheckReport]:
    t0 = time.perf_counter()
    if args.dist == "delta":
        dist = delta_distribution()
    elif args.dist == "chi":
        dist = chi_distribution()
    elif args.dist == "chi-quad":
        dist = chi_quadratic_distribution(
            principal_idele(args.a if args.a is not None else F(1)),
            principal_adele(args.b if args.b is not None else F(0)),
        )
    elif args.dist == "pi-alpha":
        dist = pi_alpha_distribution(args.alpha if args.alpha is not None else 2.0)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(2)
    inputs = {"dist": args.dist}
    try:
        value = pair(dist, args.phi)
    except Unstabilized as exc:
        return _inconclusive("pair", inputs, "n/a", str(exc), t0)
    if args.dist == "chi":
        # the oracle route against the Fourier calculus: (chi, phi) = phi-hat(1)
        expected = args.phi.fourier().evaluate(principal_adele(1))
        err = abs(value - expected)
        return [make_report("pair", inputs, value, expected, t0,
                            passed=err < CHI_PAIRING_TOLERANCE, error=err)]
    if args.dist == "delta":
        # sifting is exact: the same float as phi(0)
        expected = args.phi.evaluate(zero_adele())
        ok = value == expected
        return [make_report("pair", inputs, value, expected, t0, passed=ok,
                            error=0.0 if ok else abs(value - expected))]
    return [make_report("pair", inputs, value, "n/a", t0, passed=True)]


def cmd_gauss(args) -> list[CheckReport]:
    t0 = time.perf_counter()
    if args.p is None:
        oracle_float("-a", args.a)
        if args.a:
            # |2a|^-1, the closed form's squared modulus, must be a double too
            oracle_float("-a", 1 / abs(2 * args.a))
        value = gauss_integral_inf(args.a, args.b)
        oracle, est = fresnel_regularized(args.a, args.b)
        err = abs(value - oracle)
        inputs = {"a": str(args.a), "b": str(args.b)}
        if err > args.tolerance and est > args.tolerance:
            # the oracle's own estimate is over tolerance too: no verdict
            return _inconclusive("gauss-real", inputs, value, "oracle did not converge", t0)
        return [make_report("gauss-real", inputs, value, oracle, t0,
                            passed=err <= args.tolerance, error=err)]
    oracle, verdict = gauss_cell(args.p, args.a, args.b)
    ph, m2 = gauss_polar(args.p, args.a, args.b)
    value = ph.value * math.sqrt(m2)
    inputs = {"p": args.p, "a": str(args.a), "b": str(args.b)}
    if verdict == "inconclusive":
        # an oracle over its coset budget gives no verdict either way
        return _inconclusive("gauss-p", inputs, value, "oracle did not stabilize", t0)
    expected = oracle.value.to_complex()
    ok = verdict is None
    return [make_report("gauss-p", inputs, value, expected, t0, passed=ok,
                        error=0.0 if ok else abs(value - expected))]


def cmd_product_check(args) -> list[CheckReport]:
    t0 = time.perf_counter()
    a, b = principal_idele(args.a), principal_adele(args.b)
    exact = kernel_k_polar(a, b) == (ONE_PHASE, 1)
    return [make_report("product-check", {"a": str(args.a), "b": str(args.b)},
                        kernel_k(a, b), 1 + 0j, t0, passed=exact)]


def cmd_lambda_check(args) -> list[CheckReport]:
    t0 = time.perf_counter()
    ph = lambda_product_check(args.a)
    return [make_report("lambda-check", {"a": str(args.a)}, ph.value, 1 + 0j, t0,
                        passed=ph == ONE_PHASE)]


def cmd_mellin(args) -> list[CheckReport]:
    t0 = time.perf_counter()
    total = pair(pi_alpha_distribution(args.alpha), args.phi)
    return [make_report("mellin", {"alpha": format_complex(args.alpha)}, total, "n/a",
                        t0, passed=True)]


def cmd_tate(args) -> list[CheckReport]:
    t0 = time.perf_counter()
    worst = 0.0
    for _, elem in args.phi.elements:
        worst = max(worst, tate_check(elem, args.alpha))
    return [make_report("tate", {"alpha": format_complex(args.alpha)}, worst, 0.0, t0,
                        passed=worst <= args.tolerance, error=worst)]


def cmd_zeta_fe(args) -> list[CheckReport]:
    t0 = time.perf_counter()
    residual = functional_equation_residual(args.alpha)
    return [make_report("zeta-fe", {"alpha": format_complex(args.alpha)}, residual,
                        0.0, t0, passed=residual <= args.tolerance, error=residual)]


def cmd_oscillator_check(args) -> list[CheckReport]:
    t0 = time.perf_counter()
    t = from_rational(args.t, args.p, args.precision)
    samples = args.samples or [F(0), F(1), F(1, args.p), F(args.p)]
    inputs = {"p": args.p, "t": str(args.t), "precision": args.precision,
              "energy": str(args.energy)}
    try:
        dev = eigen_check(args.p, t, PAdicTestFunction.omega(args.p), args.energy, samples)
    except Unstabilized as exc:
        return _inconclusive("oscillator-check", inputs, "n/a", str(exc), t0)
    return [make_report("oscillator-check", inputs, dev, 0.0, t0,
                        passed=dev <= args.tolerance, error=dev)]


def cmd_calibrate_lambda(args) -> list[CheckReport]:
    t0 = time.perf_counter()
    table = calibrate_lambda_p(args.p)
    reports = []
    for a, measured in sorted(table.items()):
        frozen = lambda_p(args.p, a).as_cyclo()
        reports.append(make_report(
            "calibrate-lambda",
            {"p": args.p, "a": str(a)},
            format_complex(measured.to_complex()),
            format_complex(frozen.to_complex()),
            t0,
            passed=measured == frozen,
        ))
        t0 = time.perf_counter()
    return reports


def cmd_suite(args) -> list[CheckReport]:
    return run_suite(only=args.only)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="adelic",
        description="Exact p-adic/adelic analysis checks with JSON-line reports",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, tol=None):
        if tol is not None:  # the commands that compare floats
            sp.add_argument("--tolerance", type=_tolerance, default=tol)
        sp.add_argument("--timings", action="store_true",
                        help="include runtime_ms (breaks byte-determinism)")

    sp = sub.add_parser("norm", help="p-adic norm of a rational")
    sp.add_argument("-r", type=_rational, required=True)
    sp.add_argument("-p", type=_prime, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_norm)

    sp = sub.add_parser("frac", help="p-adic fractional part")
    sp.add_argument("-r", type=_rational, required=True)
    sp.add_argument("-p", type=_prime, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_frac)

    sp = sub.add_parser("chi", help="additive character phase")
    sp.add_argument("-r", type=_rational, required=True)
    sp.add_argument("-p", type=_prime, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_chi)

    sp = sub.add_parser("pair", help="pair a distribution with a test function")
    sp.add_argument("--dist", choices=["delta", "chi", "chi-quad", "pi-alpha"],
                    required=True)
    sp.add_argument("--phi", type=_phi, required=True,
                    help="JSON test function, or @file to read one")
    sp.add_argument("-a", type=_rational, default=None)
    sp.add_argument("-b", type=_rational, default=None)
    sp.add_argument("--alpha", type=_alpha, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_pair)

    sp = sub.add_parser("gauss", help="local Gauss integral vs oracle")
    sp.add_argument("-p", type=_prime, default=None, help="prime; omit for the real place")
    sp.add_argument("-a", type=_rational, required=True)
    sp.add_argument("-b", type=_rational, default=F(0))
    common(sp, tol=1e-6)
    sp.set_defaults(fn=cmd_gauss)

    sp = sub.add_parser("product-check", help="adelic Gauss product formula")
    sp.add_argument("-a", type=_rational, required=True)
    sp.add_argument("-b", type=_rational, default=F(0))
    common(sp)
    sp.set_defaults(fn=cmd_product_check)

    sp = sub.add_parser("lambda-check", help="lambda product over all places")
    sp.add_argument("-a", type=_rational, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_lambda_check)

    sp = sub.add_parser("mellin", help="Mellin transform of a test function")
    sp.add_argument("--phi", type=_phi, required=True)
    sp.add_argument("--alpha", type=_alpha, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_mellin)

    sp = sub.add_parser("tate", help="Tate formula residual")
    sp.add_argument("--phi", type=_phi, required=True)
    sp.add_argument("--alpha", type=_alpha, required=True)
    common(sp, tol=1e-6)
    sp.set_defaults(fn=cmd_tate)

    sp = sub.add_parser("zeta-fe", help="Riemann functional equation residual")
    sp.add_argument("--alpha", type=_alpha, required=True)
    common(sp, tol=1e-10)
    sp.set_defaults(fn=cmd_zeta_fe)

    sp = sub.add_parser("oscillator-check", help="p-adic vacuum invariance")
    sp.add_argument("-p", type=_prime, required=True)
    sp.add_argument("--t", type=_rational, required=True)
    sp.add_argument("--precision", type=_positive_int, default=10)
    sp.add_argument("--energy", type=_rational, default=F(0))
    sp.add_argument("--samples", type=_rationals, default=None,
                    help="comma-separated rational sample points")
    common(sp, tol=0.0)
    sp.set_defaults(fn=cmd_oscillator_check)

    sp = sub.add_parser("calibrate-lambda", help="re-derive the lambda table")
    sp.add_argument("-p", type=_prime, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_calibrate_lambda)

    sp = sub.add_parser("suite", help="run the acceptance grid")
    sp.add_argument("--only", choices=sorted(ALL_CHECKS), default=None)
    common(sp)
    sp.set_defaults(fn=cmd_suite)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        reports = args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rep in reports:
        emit(rep, timings=getattr(args, "timings", False))
    passed = sum(1 for r in reports if r.passed)
    print(f"# {passed}/{len(reports)} checks passed", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
