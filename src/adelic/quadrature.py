"""Real-line quadrature: the numeric oracle for every archimedean factor.

Composite Gauss-Legendre panels cover Schwartz-class integrands;
oscillatory Gauss/Fresnel integrands are handled by Gaussian damping
e^(-eps pi x^2) with Richardson extrapolation in eps, which is how the
improper oscillatory integrals are defined here.  The Fresnel oracle damps
about a dyadic point near the stationary point of the phase and works in
the scale-free variable z = sqrt|a| (x - x0), so one fixed rule, graded to
one phase cycle per panel and built once per process, serves every (a, b)
and every eps.  When the dyadic centre is the stationary point itself, the
damped window sums do not depend on a or b either: they belong to the rule,
are built with it, and such a call reads them and does no per-node work.
Every other integral of a Schwartz function against a
character goes through ``gauss_character_integral``.  No rule builds more
than ``NODE_BUDGET`` nodes.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

# most nodes one composite rule may build (about 16 MB per complex array);
# the largest rule in use is the 163,280-node full-line rule that the
# tests compare the 40,920-node Fresnel rule with at eps = 0.00625
NODE_BUDGET = 1_000_000

# the damping ladder eps0 of the Fresnel oracle, halving, and the widest
# window z <= _RADIUS, past which e^(-eps0 pi z^2) at the smallest eps0 is
# below e^-40
_EPS_LADDER = (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625)
_RADIUS = math.sqrt(40.0 / (math.pi * _EPS_LADDER[-1]))

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    hit = _GL_CACHE.get(n)
    if hit is None:
        hit = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = hit
    return hit


def panel_nodes(lo: float, hi: float, panels: int, order: int = 20):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi].

    More than ``NODE_BUDGET`` nodes is a ValueError, raised before any
    array is built.
    """
    _check_budget(panels, order)
    return _composite(np.linspace(lo, hi, panels + 1), order)


def _check_budget(panels: int | float, order: int) -> None:
    nodes = float(panels) * order
    if not nodes <= NODE_BUDGET:  # a NaN count is rejected too
        raise ValueError(
            f"real quadrature needs {nodes:.3g} nodes, more than its budget of {NODE_BUDGET:,}"
        )


def _composite(edges: np.ndarray, order: int):
    """One order-``order`` Gauss-Legendre panel between each pair of
    consecutive ``edges``, nodes in increasing order."""
    x0, w0 = _gl_nodes(order)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    xs = (mid + half * x0[None, :]).ravel()
    ws = (half * w0[None, :]).ravel()
    return xs, ws


def quad_vec(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
             panels: int = 64, order: int = 20) -> complex:
    xs, ws = panel_nodes(lo, hi, panels, order)
    return complex(np.sum(f(xs) * ws))


def quad_scalar(f: Callable[[float], complex], lo: float, hi: float,
                panels: int = 64, order: int = 20) -> complex:
    xs, ws = panel_nodes(lo, hi, panels, order)
    return complex(sum(complex(f(float(x))) * w for x, w in zip(xs, ws)))


def real_fourier_transform(f: Callable[[np.ndarray], np.ndarray], xis: np.ndarray) -> np.ndarray:
    """int f(x) e^(-2 pi i x xi) dx at every xi, for f decaying within
    |x| <= 8; ``f`` maps the node array to its values there."""
    xs, ws = panel_nodes(-8.0, 8.0, panels=120, order=20)
    return np.exp(-2j * math.pi * np.outer(xis, xs)) @ (f(xs) * ws)


def gauss_character_integral(a: float, b: float, phi_vals: Callable[[np.ndarray], np.ndarray],
                             radius: float = 8.0) -> complex:
    """int phi(x) chi_inf(a x^2 + b x) dx with chi_inf(z) = e^(-2 pi i z):
    the one rule for a Schwartz integral at the real place.

    Absolutely convergent for phi decaying within |x| <= ``radius``; the
    panel count scales with the oscillation budget |a| R^2 + |b| R.
    """
    def f(x):
        return phi_vals(x) * np.exp(-2j * np.pi * (a * x * x + b * x))
    return quad_vec(f, -radius, radius,
                    _oscillation_panels(abs(a) * radius * radius + abs(b) * radius))


def _oscillation_panels(cycles: float) -> int | float:
    """Four panels per cycle, at least 64; inf when the count overflows a
    double, which ``panel_nodes`` then rejects."""
    four = 4 * cycles
    return max(64, int(four) + 16) if math.isfinite(four) else math.inf


def oracle_float(name: str, x: Fraction | float) -> float:
    """x as the double a real-place oracle computes with.  A nonzero x that
    overflows or underflows a double is a ValueError naming ``name``."""
    try:
        f = float(x)
    except OverflowError:
        f = 0.0
    if f == 0.0 and x != 0:
        raise ValueError(f"{name} is outside the float range of the Fresnel oracle")
    return f


def fresnel_regularized(a: Fraction | float, b: Fraction | float = 0) -> tuple[complex, float]:
    """lim_{eps->0} int e^(-eps pi (x - x0)^2) chi_inf(a x^2 + b x) dx.

    ``a`` and ``b`` are taken as the exact rationals they are.  The damping
    is centred at a dyadic x0 near the stationary point -b/(2a) (``_centre``),
    where a x^2 + b x = A + B y + a y^2 with y = x - x0 and exact A, B.  In
    z = sqrt|a| y, with eps = |a| eps0 for each eps0 in ``_EPS_LADDER``, the
    damped integral is

        |a|^(-1/2) chi_inf(A) int e^(-eps0 pi z^2) e^(-/+ 2 pi i z^2)
                                  e^(-2 pi i B' z) dz,   B' = B / sqrt|a|,

    so nothing in the rule depends on a or b, and ``_graded_rule`` builds
    it once.  The line is folded onto z >= 0, where the linear factor
    becomes cos(2 pi B' z), and integrated over z <= R_eps0 =
    sqrt(40 / (pi eps0)), past which the damping is below e^-40.  Each sum
    is one ``np.sum`` in a fixed order (``_window_sums``).  With B = 0 the
    sums depend on neither a nor b: they belong to the rule, and the call
    reads them.  For a < 0 the sums are the conjugates of those for a > 0,
    bit for bit, since negation commutes with rounding and with the
    pairwise sum.  Richardson extrapolation over the halving ladder;
    returns the extrapolated value and a self-consistency error estimate.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        raise ValueError("pure Fresnel regularization needs a != 0")
    root = math.sqrt(abs(oracle_float("a", a)))
    A, B = _centre(a, b, _RADIUS * root)
    zs, ws, cos, sin, windows, centred = _graded_rule()
    if B:
        # B' = B / sqrt|a|, from the exact B^2 / |a| so that no tiny B underflows
        ws = ws * np.cos(2.0 * np.pi * math.copysign(math.sqrt(float(B * B / abs(a))), B) * zs)
        vals = _window_sums(ws, cos, sin, windows)
    else:
        vals = centred
    if a < 0:
        vals = [v.conjugate() for v in vals]
    front = cmath.exp(-2j * math.pi * float(A)) / root
    full = _richardson(vals)
    partial = _richardson(vals[:-1])
    return front * full, abs(front) * abs(full - partial)


def _centre(a: Fraction, b: Fraction, reach: float) -> tuple[Fraction, Fraction]:
    """A = (a x0^2 + b x0) mod 1 and B = 2 a x0 + b, exactly, for x0 the
    stationary point -b/(2a) rounded to a multiple of 2^-k.

    ``reach`` is R sqrt|a|, and k is the fewest bits that give
    |B| R / sqrt|a| <= 2^-10 from |B| = 2|a| |x0 + b/(2a)| <= |a| 2^-k and
    R sqrt|a| < 2^(k-10).  x0 is dyadic, so a stationary point that is not
    keeps a small nonzero B.
    """
    scale = Fraction(2) ** (10 + math.frexp(reach)[1])
    x0 = Fraction(round(-b / (2 * a) * scale)) / scale
    return (a * x0 * x0 + b * x0) % 1, 2 * a * x0 + b


@functools.cache
def _graded_rule():
    """The Fresnel rule, built once: nodes z on [0, sqrt(K)] with panel
    edges z_k = sqrt(k), so that z^2 advances by exactly one between edges
    and every panel holds one cycle of e^(2 pi i z^2); the doubled weights
    of the folded line; cos and sin of 2 pi z^2; and per eps0 of
    ``_EPS_LADDER`` the node count inside R_eps0 with the damping
    e^(-eps0 pi z^2) on those nodes; and the six window sums of the
    centred integral (B = 0) for a > 0.  K = ceil(_RADIUS^2) + 8 keeps a
    margin of eight panels past the widest window.  Every array is
    read-only and the sums are a tuple, so no call can change what the
    next one sees."""
    zs, ws = _composite(np.sqrt(np.arange(math.ceil(_RADIUS * _RADIUS) + 9, dtype=float)), 20)
    z2 = zs * zs
    phase = 2.0 * np.pi * z2
    ws, cos, sin = 2.0 * ws, np.cos(phase), np.sin(phase)
    cuts = [int(np.searchsorted(zs, math.sqrt(40.0 / (math.pi * e)), side="right"))
            for e in _EPS_LADDER]
    windows = tuple((k, np.exp(-e * np.pi * z2[:k])) for e, k in zip(_EPS_LADDER, cuts))
    for arr in (zs, ws, cos, sin, *(damp for _, damp in windows)):
        arr.setflags(write=False)
    return zs, ws, cos, sin, windows, tuple(_window_sums(ws, cos, sin, windows))


def _window_sums(ws, cos, sin, windows) -> list[complex]:
    """Per window (k, damp) of ``_graded_rule``, the damped sum of
    e^(-2 pi i z^2) over the first k nodes with weights ``ws``: the
    integrals for a > 0, whose conjugates are those for a < 0.  Each part
    is one ``np.sum`` in a fixed order."""
    wc, wsin = cos * ws, sin * ws
    return [complex(np.sum(damp * wc[:k]), -np.sum(damp * wsin[:k])) for k, damp in windows]


def _richardson(vals: Sequence[complex]) -> complex:
    """Neville extrapolation to eps = 0 for a halving eps sequence."""
    table = list(vals)
    m = len(table)
    for k in range(1, m):
        fac = 2.0**k
        table = [
            (fac * table[i + 1] - table[i]) / (fac - 1.0) for i in range(m - k)
        ]
    return table[0]
