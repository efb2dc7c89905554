import cmath
import functools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from adelic import cli, suite
from adelic.adeles import principal_adele, zero_adele
from adelic.bruhat import parse_elementary
from adelic.cli import build_parser, format_complex, main
from adelic.cyclotomic import UnitPhase
from adelic.integrate import Unstabilized
from adelic.mellin import phi_p


def run_cli(*argv) -> tuple[int, list[dict], str]:
    from io import StringIO
    import contextlib

    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    lines = [json.loads(l) for l in out.getvalue().splitlines() if l.strip()]
    return code, lines, err.getvalue()


def test_format_complex():
    assert format_complex(1 + 2j) == "1+2i"
    assert format_complex(complex(0.5, -0.25)) == "0.5-0.25i"
    assert format_complex(1 / 3 + 0j) == "0.333333333333333+0i"


def test_norm_command():
    code, lines, _ = run_cli("norm", "-r", "12", "-p", "2")
    assert code == 0
    assert lines[0]["value"] == "1/4"
    assert lines[0]["pass"] is True


def test_norm_is_checked_by_the_product_formula(monkeypatch):
    # |r|_p against 1 over the product of r's other places; a norm one
    # power of p off fails the row
    for r, p, want in (("12", 2, "1/4"), ("250/7", 5, "1/125"), ("-9/8", 3, "1/9"),
                       ("7", 3, "1"), ("0", 5, "0")):
        code, lines, _ = run_cli("norm", f"-r={r}", "-p", str(p))
        assert code == 0 and lines[0]["pass"] is True
        assert lines[0]["value"] == lines[0]["expected"] == want
    real_norm = cli.padic_norm
    monkeypatch.setattr(cli, "padic_norm", lambda r, p: real_norm(r, p) / p)
    code, lines, _ = run_cli("norm", "-r", "12", "-p", "2")
    assert code == 1
    assert lines[0]["pass"] is False
    assert lines[0]["value"] == "1/8" and lines[0]["expected"] == "1/4"


def test_chi_phase_is_checked_as_the_fractional_part(monkeypatch):
    # the phase q of chi_p(r) must satisfy 0 <= q < 1, q in Z[1/p] and
    # v_p(r - q) >= 0
    for r, p, want in (("5/6", 2, "1/2"), ("5/6", 3, "1/3"), ("-7/250", 5, "59/125"),
                       ("0", 5, "0"), ("12", 7, "0")):
        code, lines, _ = run_cli("chi", f"-r={r}", "-p", str(p))
        assert code == 0 and lines[0]["pass"] is True
        assert lines[0]["value"] == lines[0]["expected"] == want
    real_chi = cli.chi_p
    for wrong in (F(1, 2), F(1, 3)):  # off by 1/p, and outside Z[1/p]
        monkeypatch.setattr(cli, "chi_p", lambda r, p: real_chi(r, p) * UnitPhase(wrong))
        code, lines, _ = run_cli("chi", "-r", "5/6", "-p", "2")
        assert code == 1
        assert lines[0]["pass"] is False


def test_frac_command():
    code, lines, _ = run_cli("frac", "-r=-9/8", "-p", "2")
    assert code == 0
    assert lines[0]["value"] == "7/8"
    # r - {r}_p = 0 for r = 1/3 at p = 3: the check passes without v(0)
    code, lines, _ = run_cli("frac", "-r", "1/3", "-p", "3")
    assert code == 0
    assert lines[0]["value"] == "1/3" and lines[0]["pass"] is True


def test_chi_principal_command():
    code, lines, _ = run_cli("chi", "-r", "5/6")
    assert code == 0
    assert lines[0]["value"] == "0"


def test_product_check_command():
    code, lines, _ = run_cli("product-check", "-a", "3/4", "-b", "1/2")
    assert code == 0
    rep = lines[0]
    assert rep["pass"] is True
    assert float(rep["abs_error"]) < 1e-10
    # the product is computed exactly in polar form
    assert rep["value"] == "1+0i"
    assert rep["abs_error"] == "0"


def test_lambda_check_command():
    code, lines, _ = run_cli("lambda-check", "-a", "6")
    assert code == 0
    assert lines[0]["pass"] is True


def test_zeta_fe_command():
    code, lines, _ = run_cli("zeta-fe", "--alpha", "0.4,0")
    assert code == 0
    assert lines[0]["pass"] is True
    assert float(lines[0]["abs_error"]) < 1e-10


def test_gauss_command_padic():
    code, lines, _ = run_cli("gauss", "-p", "5", "-a", "1/5", "-b", "1")
    assert code == 0
    assert lines[0]["pass"] is True
    # the value is read off the exact polar form: phase 0, modulus 5^(-1/2)
    assert lines[0]["value"] == "0.447213595499958+0i"


def test_gauss_rows_and_the_suite_judge_one_cell(monkeypatch):
    # `gauss -p` and the suite's Gauss grid both read suite.gauss_cell: a
    # wrong closed form fails both, with the same oracle value printed
    real = suite.gauss_integral_p_exact
    monkeypatch.setattr(suite, "integrate_qp", _ORACLE)
    monkeypatch.setattr(suite, "gauss_integral_p_exact", lambda p, a, b: real(p, a, b) + 1)
    code, lines, _ = run_cli("gauss", "-p", "5", "-a", "1/5", "-b", "1")
    assert code == 1 and lines[0]["pass"] is False
    assert lines[0]["expected"].startswith("0.447213595499958")
    assert suite.gauss_cell(5, F(1, 5), F(1)).verdict == "mismatch"
    assert suite.gauss_grid_checks()[0].value.startswith("mismatch at ")


def test_gauss_command_real():
    code, lines, _ = run_cli("gauss", "-a", "1", "-b", "0")
    assert code == 0
    assert lines[0]["pass"] is True


@pytest.mark.parametrize("a", ["1", "-1", "2", "1/2"])
@pytest.mark.parametrize("b", ["0", "1", "1/2"])
def test_gauss_real_passes_within_tolerance(a, b):
    # a pass needs the deviation itself within tolerance, not the oracle's
    # estimate: (1/2, 1) has an estimate of 7.5e-6 and a deviation of 7.5e-8
    code, lines, _ = run_cli("gauss", "-a", a, "-b", b)
    assert code == 0
    assert lines[0]["pass"] is True
    assert float(lines[0]["abs_error"]) <= 1e-6


def test_gauss_real_unconverged_oracle_is_inconclusive():
    # the value has modulus about 7e149 and the tolerance is absolute: the
    # oracle's relative error of about 1e-11 and its own estimate are both
    # far over 1e-6
    code, lines, _ = run_cli("gauss", "-a", "1e-300", "-b", "1")
    assert code == 1
    assert lines[0]["expected"] == "inconclusive: oracle did not converge"
    assert lines[0]["abs_error"] == "inf"
    assert lines[0]["pass"] is False


@pytest.mark.parametrize("a, b", [
    # far from the origin or the double range: the rule lives in
    # z = sqrt|a| (x - x0), so these take the same nodes as a = 1
    ("1e300", "0"), ("1", "1e300"), ("1e307", "0"),
    # the stationary point -b/(2a) = -50, far from 0, and a small a
    ("1/100", "1"), ("1/2", "50"), ("1/100", "0"),
    # b = 10^300 is not a double: the oracle takes the exact rational;
    # nor are 10^400 and 10^-400, which overflow and underflow one
    ("3", "1e300"), ("1", "1e400"), ("1", "1e-400"),
], ids=["a-1e300", "b-1e300", "a-1e307", "a-1/100-b-1", "a-1/2-b-50", "a-1/100",
        "a-3-b-1e300", "b-1e400", "b-1e-400"])
def test_gauss_real_passes_far_from_the_origin(a, b):
    code, lines, err = run_cli("gauss", "-a", a, "-b", b)
    assert code == 0
    assert lines[0]["pass"] is True
    assert float(lines[0]["abs_error"]) <= 1e-6
    assert err == "# 1/1 checks passed\n"


def test_oracle_rejects_the_wrong_sign_phase():
    # lam(a) |2a|^(-1/2) chi_inf(+b^2/4a) instead of chi_inf(-b^2/4a): on the
    # suite pairs where the two differ by more than 1e-3, the oracle is
    # over the 1e-6 tolerance from the wrong one
    from adelic.gauss import gauss_integral_inf
    from adelic.quadrature import fresnel_regularized

    rejected = 0
    for a in (1.0, -1.0, 2.0, 0.5):
        for b in (0.0, 1.0, 0.5):
            right = gauss_integral_inf(a, b)
            wrong = right * cmath.exp(-2j * math.pi * b * b / (2 * a))
            if abs(wrong - right) > 1e-3:
                assert abs(fresnel_regularized(a, b)[0] - wrong) > 1e-6, (a, b)
                rejected += 1
    assert rejected == 7


# the suite case runs only its real Gauss row, through the CLI's own
# emitter, to keep Tier-1 fast; the whole suite also goes through matrix
# products (the real Fourier rule, the Hermite Gram matrix), and CI diffs
# all of its output across BLAS thread counts
_SUITE_REAL_ROW = ("from adelic.cli import emit; from adelic.suite import gauss_real_check; "
                   "emit(gauss_real_check())")


@pytest.mark.parametrize("argv", [["-c", _SUITE_REAL_ROW],
                                  ["-m", "adelic.cli", "gauss", "-a", "1/2", "-b", "1"]],
                         ids=["suite-gauss", "gauss-real"])
def test_output_does_not_depend_on_the_blas_thread_count(argv):
    # identical inputs give byte-identical output, whatever the BLAS threads
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, *argv],
            capture_output=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


_GAUSSIAN = json.dumps({"real": [[0, "1"]], "primes": {}})
_GAUSSIAN_2Z2 = json.dumps({"real": [[0, "1"]], "primes": {"2": [["1", "0", 1]]}})
_GAUSSIAN_OMEGA3 = json.dumps({"real": [[0, "1"]], "primes": {"3": [["1", "0", 0]]}})


# (arguments, phi, expected value of phi, tolerance); tolerance 0 means the
# printed value must be exactly format_complex(expected)
@pytest.mark.parametrize("args, phi, expect, tol", [
    (["--dist", "delta"], _GAUSSIAN, lambda phi: 1.0, 1e-12),
    (["--dist", "chi"], _GAUSSIAN_2Z2,
     lambda phi: phi.fourier().evaluate(principal_adele(1)), 1e-10),
    # int_{Z_2} chi_2(x^2/2 + 3x) dx = 0 kills the product exactly
    (["--dist", "chi-quad", "-a", "1/2", "-b", "3"], _GAUSSIAN_OMEGA3,
     lambda phi: 0j, 0),
    (["--dist", "pi-alpha"], _GAUSSIAN_2Z2, lambda phi: phi_p(phi, 2), 0),
], ids=["delta", "chi", "chi-quad", "pi-alpha"])
def test_pair_command(args, phi, expect, tol):
    code, lines, _ = run_cli("pair", *args, "--phi", phi)
    assert code == 0
    assert lines[0]["check"] == "pair"
    expected = expect(parse_elementary(json.loads(phi)))
    if tol == 0:
        assert lines[0]["value"] == format_complex(expected)
    else:
        assert abs(complex(lines[0]["value"].replace("i", "j")) - expected) < tol


_PHI_5_MODULATED = json.dumps(
    {"real": [[0, "1"]], "primes": {"5": [["1", "0", 0, "1/5"], ["1/2", "1/5", 1]]}})


@pytest.mark.parametrize("dist, phi, expect", [
    ("chi", _PHI_5_MODULATED, lambda phi: phi.fourier().evaluate(principal_adele(1))),
    ("chi", _GAUSSIAN_2Z2, lambda phi: phi.fourier().evaluate(principal_adele(1))),
    ("delta", _PHI_5_MODULATED, lambda phi: phi.evaluate(zero_adele())),
    ("delta", _GAUSSIAN_OMEGA3, lambda phi: phi.evaluate(zero_adele())),
], ids=["chi-modulated", "chi-2Z2", "delta-modulated", "delta-omega3"])
def test_pair_rows_check_the_fourier_route_and_sifting(monkeypatch, dist, phi, expect):
    # chi against phi-hat(1) within the suite's bound, delta against phi(0)
    # exactly; a pairing off by 1e-9 or by one ulp fails its row
    code, lines, _ = run_cli("pair", "--dist", dist, "--phi", phi)
    (row,) = lines
    expected = expect(parse_elementary(json.loads(phi)))
    assert code == 0 and row["pass"] is True
    assert row["expected"] == format_complex(expected)
    value = complex(row["value"].replace("i", "j"))
    if dist == "chi":
        assert float(row["abs_error"]) < 1e-10
    else:
        assert row["abs_error"] == "0" and row["value"] == row["expected"]
    real_pair = suite.pair
    off = 1e-9 if dist == "chi" else complex(math.ulp(abs(value.real) or 1.0), 0)
    monkeypatch.setattr(suite, "pair", lambda d, f: real_pair(d, f) + off)
    code, lines, _ = run_cli("pair", "--dist", dist, "--phi", phi)
    assert code == 1 and lines[0]["pass"] is False


_PHI_2Z2_TATE = ["--phi", _GAUSSIAN_2Z2, "--alpha", "0.3,2"]
_HALF = UnitPhase(F(1, 2))


def _off_by_half(name):
    """Patch ``suite.<name>`` to return its phase, or the phase of its
    polar form, times e(1/2)."""
    def patch(monkeypatch):
        real = getattr(suite, name)

        def wrong(*args):
            got = real(*args)
            return (got[0] * _HALF, got[1]) if isinstance(got, tuple) else got * _HALF

        monkeypatch.setattr(suite, name, wrong)
    return patch


def _setting(name, value):
    return lambda monkeypatch: monkeypatch.setattr(suite, name, value)


# each identity that a CLI row and the suite both check: the CLI row, the
# suite rows, and a patch in ``suite`` alone that breaks its one cell, by
# its tolerance (a residual that is not 0 then fails) or by its reference
_SHARED_CELLS = {
    "chi-principal": (["chi", "-r", "5/6"], ["chi-principal-trivial"],
                      _off_by_half("chi_principal_phase")),
    "gauss-p": (["gauss", "-p", "5", "-a", "1/5", "-b", "1"],
                [f"gauss-oracle-p{p}" for p in (2, 3, 5, 7, 11, 13)],
                lambda monkeypatch: monkeypatch.setattr(
                    suite, "gauss_integral_p_exact",
                    lambda p, a, b, real=suite.gauss_integral_p_exact: real(p, a, b) + 1)),
    "gauss-real": (["gauss", "-a", "1"], ["gauss-oracle-real"],
                   _setting("GAUSS_REAL_TOLERANCE", 0.0)),
    "gauss-product": (["product-check", "-a", "3/4", "-b", "1/2"], ["gauss-product-formula"],
                      _off_by_half("kernel_k_polar")),
    "lambda-product": (["lambda-check", "-a", "6"], ["lambda-product-formula"],
                       _off_by_half("lambda_product_check")),
    "tate": (["tate", *_PHI_2Z2_TATE], ["tate-formula"], _setting("TATE_TOLERANCE", 0.0)),
    "zeta-fe": (["zeta-fe", "--alpha", "0.3,2"], ["zeta-functional-equation"],
                _setting("ZETA_FE_TOLERANCE", 0.0)),
    "vacuum": (["oscillator-check", "-p", "5", "--t", "5", "--samples", "0,1,1/5,5"],
               ["oscillator-vacuum-invariance"],
               lambda monkeypatch: monkeypatch.setattr(
                   suite, "eigen_check",
                   lambda *args, real=suite.eigen_check: real(*args) + 1e-3)),
    "chi-pairing": (["pair", "--dist", "chi", "--phi", _PHI_5_MODULATED],
                    ["chi-pairing-vs-fourier"], _setting("CHI_PAIRING_TOLERANCE", 0.0)),
    "delta": (["pair", "--dist", "delta", "--phi", _PHI_5_MODULATED], ["delta-sifting"],
              _setting("zero_adele", lambda: principal_adele(1))),
}

# the residue oracle, memoized across cases: no patch above touches it, and
# the p = 13 cells of the Gauss grid would cost over a second a case
_ORACLE = functools.lru_cache(maxsize=None)(suite.integrate_qp)


@pytest.mark.parametrize("identity", list(_SHARED_CELLS))
def test_each_shared_cell_moves_its_two_rows_alone(monkeypatch, identity):
    # a patch to one cell in ``suite`` fails that identity's CLI row and its
    # suite rows, and no other CLI row or suite row
    monkeypatch.setattr(suite, "integrate_qp", _ORACLE)
    _, suite_rows, cell = _SHARED_CELLS[identity]
    cell(monkeypatch)
    for other, (argv, _, _) in _SHARED_CELLS.items():
        code, lines, _ = run_cli(*argv)
        assert (code, lines[0]["pass"]) == ((1, False) if other == identity else (0, True)), other
    code, lines, _ = run_cli("suite")
    assert code == 1
    assert sorted(l["check"] for l in lines if not l["pass"]) == sorted(suite_rows)


def test_the_inclusive_tolerances_read_in_the_expected_strings(monkeypatch):
    rows = {r.check: r for r in suite.pairing_checks() + suite.functional_equation_checks()}
    assert rows["chi-pairing-vs-fourier"].expected == "<= 1e-10"
    assert rows["zeta-functional-equation"].expected == "<= 1e-10"
    monkeypatch.setattr(suite, "CHI_PAIRING_TOLERANCE", 0.0)
    assert suite.pairing_checks()[1].expected == "<= 0"
    # an exact zero passes at tolerance 0
    code, lines, _ = run_cli("zeta-fe", "--alpha", "0.5,0", "--tolerance", "0")
    assert code == 0 and lines[0]["abs_error"] == "0"


def test_an_unstabilized_oracle_in_the_suite_gives_an_inconclusive_row(monkeypatch):
    # Unstabilized inside the chi pairing and the vacuum eigen check: their
    # rows read inconclusive and fail, and every other row still prints
    real_pair = suite.pair

    def pair(dist, phi):
        if dist.name == "chi":
            raise Unstabilized("local character pairing did not stabilize")
        return real_pair(dist, phi)

    def eigen_check(*args):
        raise Unstabilized("eigen check integral did not stabilize at x=0")

    monkeypatch.setattr(suite, "integrate_qp", _ORACLE)
    monkeypatch.setattr(suite, "pair", pair)
    monkeypatch.setattr(suite, "eigen_check", eigen_check)
    code, lines, err = run_cli("suite")
    assert code == 1
    assert "error:" not in err
    assert len(lines) == 23
    failed = {l["check"]: l for l in lines if not l["pass"]}
    assert sorted(failed) == ["chi-pairing-vs-fourier", "oscillator-vacuum-invariance"]
    assert failed["chi-pairing-vs-fourier"]["value"] == "inconclusive at 0"
    assert failed["oscillator-vacuum-invariance"]["value"] == "inconclusive at p=3"
    assert all(l["abs_error"] == "inf" for l in failed.values())


def test_mellin_command():
    phi = json.dumps({"real": [[0, "1"]], "primes": {"2": [["1", "0", 1]]}})
    code, lines, _ = run_cli("mellin", "--phi", phi, "--alpha", "2,0")
    assert code == 0


def test_tate_command():
    phi = json.dumps({"real": [[0, "1"]], "primes": {"2": [["1", "0", 1]]}})
    code, lines, _ = run_cli("tate", "--phi", phi, "--alpha", "0.4,0.7")
    assert code == 0
    assert lines[0]["pass"] is True


def test_oscillator_command():
    code, lines, _ = run_cli(
        "oscillator-check", "-p", "5", "--t", "5", "--precision", "10",
        "--samples", "0,1,1/5,5",
    )
    assert code == 0
    assert lines[0]["pass"] is True
    assert float(lines[0]["value"]) == 0.0


def test_calibrate_lambda_command():
    code, lines, _ = run_cli("calibrate-lambda", "-p", "3")
    assert code == 0
    assert all(l["pass"] for l in lines)
    assert len(lines) == 10  # 5 valuations x 2 unit classes


def test_exit_code_on_failure():
    # the energy 1/25 is no eigenvalue: a deviation of about 1.18, not
    # rounding noise, forces pass=false and exit 1
    code, lines, _ = run_cli("oscillator-check", "-p", "5", "--t", "5", "--energy", "1/25",
                             "--tolerance", "0")
    assert code == 1
    assert lines[0]["pass"] is False


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["norm", "-r", "not-a-rational", "-p", "2"])
    assert exc.value.code == 2


_PHI = json.dumps({"real": [[0, "1"]], "primes": {}})


@pytest.mark.parametrize("argv", [
    ["pair", "--dist", "delta", "--phi", "[1,2]"],
    ["pair", "--dist", "delta", "--phi", "@no-such-dir/phi.json"],
    ["norm", "-r", "3", "-p", "4"],
    ["mellin", "--phi", _PHI, "--alpha", "nan,0"],
    ["mellin", "--phi", _PHI, "--alpha", "inf,0"],
    ["zeta-fe", "--alpha", "0.5,nan"],
    ["zeta-fe", "--alpha", "0.4,0", "--tolerance", "inf"],
    ["oscillator-check", "-p", "5", "--t", "5", "--tolerance", "inf"],
    ["oscillator-check", "-p", "5", "--t", "5", "--precision", "0"],
    ["oscillator-check", "-p", "5", "--t", "5", "--precision=-3"],
    ["zeta-fe", "--alpha", "0.4,0", "--tolerance", "nan"],
    ["gauss", "-a", "1", "--tolerance=-1e-3"],
    # exact checks take no tolerance
    ["product-check", "-a", "3/4", "--tolerance", "0"],
    # radius exponents and Hermite degrees are integers, never truncated
    ["pair", "--dist", "delta", "--phi", '{"real":[[0,"1"]],"primes":{"2":[["1","0",0.5]]}}'],
    ["pair", "--dist", "delta", "--phi", '{"real":[[0,"1"]],"primes":{"2":[["1","0",true]]}}'],
    ["mellin", "--phi", '{"real":[[2.9,"1"]],"primes":{}}', "--alpha", "2,0"],
    ["mellin", "--phi", '{"real":[[true,"1"]],"primes":{}}', "--alpha", "2,0"],
], ids=["phi-not-object", "phi-file-missing", "p-not-prime", "alpha-nan",
        "alpha-inf", "alpha-imag-nan", "tolerance-inf", "oscillator-tolerance-inf",
        "precision-zero", "precision-negative",
        "tolerance-nan", "tolerance-negative", "exact-check-tolerance",
        "phi-radius-float", "phi-radius-bool", "phi-degree-float", "phi-degree-bool"])
def test_usage_errors_exit_2_without_traceback(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([l for l in captured.err.splitlines() if "error:" in l]) == 1
    assert "Traceback" not in captured.err


_RANGE = "outside the float range of the Fresnel oracle"
_BUDGET = "more than its budget of"
_DOUBLE = "outside the double range"
_PHI_DEGREE_5000 = json.dumps({"real": [[5000, "1"]], "primes": {}})
_DEGREE = "Hermite degree 5000 is over the bound of 500"
_PHI_LOCAL_OVERFLOW = json.dumps({"real": [[0, "1"]], "primes": {"2": [["1", "0", -2000]]}})


@pytest.mark.parametrize("argv, reason", [
    (["zeta-fe", "--alpha", "0.5,1e300"], "|Im alpha| <= 1000"),
    (["product-check", "-a", "0"], "not an idele"),
    # outside the double range of the real-place Fresnel oracle
    (["gauss", "-a", "1e-400"], _RANGE),
    (["gauss", "-a", "1e400"], _RANGE),
    # |2a|^-1, the closed form's squared modulus, overflows a double
    (["gauss", "-a", "1e-310"], _RANGE),
    (["gauss", "-a", "5e-324"], _RANGE),
    # the oscillation needs more quadrature nodes than the budget
    (["pair", "--dist", "chi-quad", "-a", "1e300", "--phi", _PHI], _BUDGET),
    # the real components of the quadratic character must be doubles
    (["pair", "--dist", "chi-quad", "-a", "1e400", "--phi", _PHI], _RANGE),
    (["pair", "--dist", "chi-quad", "-b", "1e400", "--phi", _PHI], _RANGE),
    (["pair", "--dist", "chi-quad", "-a", "1e-400", "--phi", _PHI], _RANGE),
    # a Mellin pairing that overflows a double is never printed
    (["mellin", "--phi", _PHI, "--alpha", "1e308,0"], _DOUBLE),
    (["pair", "--dist", "pi-alpha", "--alpha", "1e308,0", "--phi", _PHI], _DOUBLE),
    (["mellin", "--phi", _PHI_LOCAL_OVERFLOW, "--alpha", "2,0"], _DOUBLE),
    # work bounds, checked before the work starts
    (["oscillator-check", "-p", "3", "--t", "3", "--precision", "100000", "--samples", "0"],
     "precision 100000 is over the bound of 1,000"),
    (["mellin", "--phi", _PHI_DEGREE_5000, "--alpha", "0.5,0"], _DEGREE),
    (["pair", "--dist", "chi", "--phi", _PHI_DEGREE_5000], _DEGREE),
    (["calibrate-lambda", "-p", "1000003"], "5,000,010 oracle cells, more than the bound of 300"),
    (["pair", "--dist", "chi", "--phi", json.dumps({"real": [[300, "1"]], "primes": {}})],
     "Hermite degree 300 overflows a double"),
    # a 31-digit semiprime needs more Pollard-rho steps than the bound
    (["chi", "-r", "1/1000000001000040000000037000111"],
     "cannot factor 1000000001000040000000037000111 within"),
], ids=["zeta-height", "product-check-zero", "gauss-real-a-underflow",
        "gauss-real-a-overflow", "gauss-real-a-subnormal", "gauss-real-a-min-subnormal",
        "chi-quad-node-budget", "chi-quad-a-overflow", "chi-quad-b-overflow",
        "chi-quad-a-underflow", "mellin-real-overflow", "pi-alpha-real-overflow",
        "mellin-local-overflow", "trig-precision-bound", "mellin-hermite-degree-bound",
        "chi-hermite-degree-bound", "calibration-cell-bound", "chi-hermite-double-overflow",
        "chi-factoring-bound"])
def test_domain_errors_exit_1_without_traceback(argv, reason):
    code, lines, err = run_cli(*argv)
    assert code == 1
    assert lines == []
    errors = [l for l in err.splitlines() if "error:" in l]
    assert len(errors) == 1
    assert reason in errors[0]
    assert "Traceback" not in err
    assert "Warning" not in err


@pytest.mark.parametrize("argv", [
    ["gauss", "-p", "2", "-a", "1/2", "-b", "1/1099511627776"],
    ["gauss", "-p", "5", "-a", "1/5", "-b", "1/15625"],
    ["gauss", "-p", "7", "-a", "1/7", "-b", "1/16807"],
    ["gauss", "-p", "1000003", "-a", "1/1000003", "-b", "1"],
    ["gauss", "-p", "2897", "-a", "1/2897", "-b", "1"],
], ids=["p2-b-2^-40", "p5-b-5^-6", "p7-b-7^-5", "p1000003-surd", "p2897-surd"])
def test_gauss_unstabilized_oracle_is_inconclusive(argv):
    # a full-space ball whose period p^d is over the coset budget; a ball
    # with period p is read as p^2 residues, over budget for every p > 2896,
    # so no sqrt(p) surd is built
    code, lines, _ = run_cli(*argv)
    assert code == 1
    assert lines[0]["expected"] == "inconclusive: oracle did not stabilize"
    assert lines[0]["abs_error"] == "inf"
    assert lines[0]["pass"] is False


@pytest.mark.parametrize("argv,reason", [
    (["oscillator-check", "-p", "40009", "--t", "40009", "--precision", "10",
      "--samples", "0"], "eigen check integral did not stabilize at x=0"),
    (["pair", "--dist", "chi-quad", "-a", "1/1000003", "-b", "1", "--phi",
      json.dumps({"real": [[0, "1"]], "primes": {}})],
     "local character pairing did not stabilize"),
], ids=["oscillator-check", "pair-chi-quad"])
def test_unstabilized_oracle_prints_an_inconclusive_row(argv, reason):
    # no verdict either way: a row that does not pass, not an error line
    code, lines, err = run_cli(*argv)
    assert code == 1
    assert len(lines) == 1
    assert lines[0]["expected"] == f"inconclusive: {reason}"
    assert lines[0]["abs_error"] == "inf"
    assert lines[0]["pass"] is False
    assert "error:" not in err


@pytest.mark.parametrize("module, name, argv", [
    ("adelic.suite", "pair", ["pair", "--dist", "delta", "--phi", _GAUSSIAN]),
    ("adelic.suite", "eigen_check",
     ["oscillator-check", "-p", "5", "--t", "5", "--samples", "0"]),
], ids=["pair", "oscillator-check"])
def test_other_arithmetic_errors_stay_error_lines(monkeypatch, module, name, argv):
    # only Unstabilized reads inconclusive; an overflow is a domain error
    def overflow(*args, **kwargs):
        raise OverflowError("overflow in the pairing")

    monkeypatch.setattr(f"{module}.{name}", overflow)
    code, lines, err = run_cli(*argv)
    assert code == 1
    assert lines == []
    assert "error: overflow in the pairing" in err


@pytest.mark.parametrize("p,a,b", [("2", "1/2", "1/128"), ("2", "2", "1/256"),
                                   ("7", "1/7", "1/2401"), ("2887", "1/2887", "1")],
                         ids=["1/2-1/128", "2-1/256", "p7-1/7-1/2401", "p2887-surd"])
def test_gauss_deep_linear_term_agrees_exactly(p, a, b):
    # full-space balls with periods of 2**15 and more residues, all within
    # the coset budget; 2887 is the largest prime whose p^2 fits
    code, lines, _ = run_cli("gauss", "-p", p, "-a", a, "-b", b)
    assert code == 0
    assert lines[0]["pass"] is True
    assert lines[0]["abs_error"] == "0"


def test_hermite_degree_180_is_within_the_bound():
    phi = json.dumps({"real": [[180, "1"]], "primes": {}})
    code, lines, _ = run_cli("mellin", "--phi", phi, "--alpha", "0.5,0")
    assert code == 0
    assert lines[0]["value"].startswith("-1.43446517864032e+191")


def test_domain_error_maps_to_exit_1():
    code, _, err = run_cli("zeta-fe", "--alpha", "1,0")
    assert code == 1
    assert "error" in err


def test_deterministic_output_byte_identical():
    a = run_cli("product-check", "-a", "3/4", "-b", "1/2")
    b = run_cli("product-check", "-a", "3/4", "-b", "1/2")
    assert a[1] == b[1]
    # with --timings the runtime field appears
    code, lines, _ = run_cli("product-check", "-a", "3/4", "-b", "1/2", "--timings")
    assert "runtime_ms" in lines[0]


def test_suite_only_subset():
    code, lines, _ = run_cli("suite", "--only", "norm")
    assert code == 0
    assert len(lines) == 1
    assert lines[0]["check"] == "norm-product-formula"


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "adelic.cli", "norm", "-r", "12", "-p", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[0])["value"] == "1/4"


def test_working_precision_is_not_read_from_the_environment():
    # the mpmath precision is a constant: a malformed value in the
    # environment variable that once set it must not break any command
    env = dict(os.environ, ADELIC_WORKING_DPS="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "adelic.cli", "norm", "-r", "12", "-p", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[0])["value"] == "1/4"
