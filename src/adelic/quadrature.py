"""Real-line quadrature: the numeric oracle for every archimedean factor.

Composite Gauss-Legendre panels cover Schwartz-class integrands;
oscillatory Gauss/Fresnel integrands are handled by Gaussian damping
e^(-eps*pi*x^2) with Richardson extrapolation in eps, which is how the
improper oscillatory integrals are defined here; one half-line rule serves
every eps.  No rule builds more than ``NODE_BUDGET`` nodes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

# most nodes one composite rule may build (about 16 MB per complex array);
# the largest Fresnel rule in use has 249,140, the half-line rule of
# fresnel_regularized(+-3.0, 2.5), and the largest rule of all 498,260, the
# full-line rule at eps = 0.00625 that the tests compare it with
NODE_BUDGET = 1_000_000

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
    nodes = float(panels) * order
    if not nodes <= NODE_BUDGET:  # a NaN count is rejected too
        raise ValueError(
            f"real quadrature needs {nodes:.3g} nodes, more than its budget of {NODE_BUDGET:,}"
        )
    x0, w0 = _gl_nodes(order)
    edges = np.linspace(lo, hi, panels + 1)
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
                             radius: float = 8.0, panels: int | None = None) -> complex:
    """int phi(x) chi_inf(a x^2 + b x) dx with chi_inf(z) = e^(-2 pi i z).

    Absolutely convergent for Schwartz phi; panel count scales with the
    oscillation budget a*R^2 + |b|*R.
    """
    if panels is None:
        panels = _oscillation_panels(abs(a) * radius * radius + abs(b) * radius)
    def f(x):
        return phi_vals(x) * np.exp(-2j * np.pi * (a * x * x + b * x))
    return quad_vec(f, -radius, radius, panels)


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


def fresnel_regularized(a: float, b: float = 0.0,
                        eps_seq: Sequence[float] = (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625),
                        ) -> tuple[complex, float]:
    """lim_{eps->0} int e^(-eps pi x^2) chi_inf(a x^2 + b x) dx.

    Each damped integral is computed by quadrature over |x| <= R_eps =
    sqrt(40 / (pi eps)), past which the damping is below e^-40.  The line is
    folded onto x >= 0, where f(x) + f(-x) = 2 e^(-eps pi x^2)
    e^(-2 pi i a x^2) cos(2 pi b x), and one rule, sized for the smallest
    eps, serves every eps: a larger eps integrates over a prefix of its
    nodes.  Richardson extrapolation over the halving eps sequence; returns
    the extrapolated value and a self-consistency error estimate.
    """
    if a == 0:
        raise ValueError("pure Fresnel regularization needs a != 0")
    radius = math.sqrt(40.0 / (math.pi * min(eps_seq)))
    panels = _oscillation_panels(abs(a) * radius * radius + abs(b) * radius)
    # ceil(panels / 2) on the half line; an infinite count stays infinite
    half = -(-panels // 2) if math.isfinite(panels) else panels
    xs, ws = panel_nodes(0.0, radius, half)
    x2 = xs * xs
    ws = 2.0 * ws * np.cos(2.0 * np.pi * b * xs)
    phase = 2.0 * np.pi * a * x2
    wc, wsin = np.cos(phase) * ws, np.sin(phase) * ws
    vals = []
    for e in eps_seq:
        k = int(np.searchsorted(xs, math.sqrt(40.0 / (math.pi * e)), side="right"))
        damp = np.exp(-e * np.pi * x2[:k])
        vals.append(complex(damp @ wc[:k], -(damp @ wsin[:k])))
    full = _richardson(vals)
    partial = _richardson(vals[:-1])
    return full, abs(full - partial)


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
