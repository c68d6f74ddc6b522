"""Scalar Bessel-equation oracle.

This module exists to cross-validate the 2x2 flow: the cylinder pipeline
never calls it.  It integrates z^2 y'' + z y' + (z^2 - alpha^2) y = 0
along complex paths (in the w = log z chart the equation collapses to
y_ww = (alpha^2 - e^{2w}) y), assembles fundamental-system frames, and
re-substitutes solutions into the generic form
y'' - (nu'/nu) y' - rho nu y = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, DEFAULT_CONFIG
from .flow import PathSpec, _rk_segment
from .loops import _mat2

__all__ = ["ScalarSolution", "bessel_integrate", "frame_from_scalar", "scalar_residual"]


@dataclass(frozen=True)
class ScalarSolution:
    """Value and z-derivative of a scalar solution at the endpoint z.

    d2y is the second derivative there, filled by the integrator from its
    own equation; hand-built data (e.g. a constant test function) sets it
    directly.
    """

    y: complex
    dy: complex
    alpha: complex
    z: complex
    d2y: complex = 0.0


def bessel_integrate(alpha, path: PathSpec, y0, dy0, cfg: PipelineConfig = DEFAULT_CONFIG
                     ) -> ScalarSolution | list[ScalarSolution]:
    """Integrate the Bessel equation of order alpha along a straight w-path.

    y0, dy0 are the value and z-derivative at the path start.  In the w
    chart the state is (y, y_w) with y_w = z y_z and

        d/dw (y, y_w) = (y_w, (alpha^2 - e^{2w}) y).

    With scalar arguments returns one ScalarSolution.  Array-valued alpha,
    y0 and dy0 broadcast into one family, advanced by one _rk_segment run
    under one step control, and the call returns a list with one
    ScalarSolution per member in C order; a member then differs from its
    own scalar run by the step control only, not by its arithmetic.
    """
    alpha, y0, dy0 = np.broadcast_arrays(*(np.asarray(v, dtype=complex)
                                           for v in (alpha, y0, dy0)))
    w0, dw = path.w0, path.w1 - path.w0
    a2 = alpha.ravel() ** 2
    w2, dw2 = 2.0 * w0, 2.0 * dw          # e^{2w}: doubling first is exact

    def coeff(s):
        return _mat2(0, (a2 - np.exp(w2 + s * dw2)[:, None]) * dw, dw, 0)

    # row-vector form: (y, v) -> (y, v) @ [[0, a2 - z^2], [1, 0]]
    state = _mat2(y0.ravel(), np.exp(w0) * dy0.ravel(), 0, 0)
    state, _ = _rk_segment(coeff, state, 0.0, 1.0, cfg.ode_tol)
    z_end = np.exp(path.w1)
    sols = []
    for a, sq, (y, v) in zip(alpha.flat, a2, state[:, 0]):
        dy = v / z_end
        d2y = -dy / z_end - (1.0 - sq / z_end**2) * y
        sols.append(ScalarSolution(complex(y), complex(dy), complex(a),
                                   complex(z_end), complex(d2y)))
    return sols if alpha.ndim else sols[0]


def frame_from_scalar(y1: ScalarSolution, y2: ScalarSolution, nu) -> np.ndarray:
    """Fundamental-system frame [[y1'/nu, y1], [y2'/nu, y2]] at the endpoint.

    Requires a genuinely independent pair: the Wronskian y1' y2 - y2' y1
    must exceed 1e-12.
    """
    if abs(y1.alpha - y2.alpha) > 1e-13:
        raise ValueError("fundamental system mixes different orders")
    if abs(y1.z - y2.z) > 1e-12:
        raise ValueError("fundamental system evaluated at different points")
    wronskian = y1.dy * y2.y - y2.dy * y1.y
    if abs(wronskian) < 1e-12:
        raise ValueError(f"degenerate fundamental system (Wronskian {wronskian:.2e})")
    nv = nu(y1.z)
    return np.array([[y1.dy / nv, y1.y], [y2.dy / nv, y2.y]], dtype=complex)


def scalar_residual(nu, rho, y: ScalarSolution, z: complex) -> complex:
    """Residual y'' - (nu'/nu) y' - rho nu y at z.

    nu' is taken by central differences, so even exact solutions report a
    small nonzero residual (at the differentiation accuracy).
    """
    z = complex(z)
    h = 1e-7 * max(1.0, abs(z))
    dnu = (nu(z + h) - nu(z - h)) / (2.0 * h)
    return y.d2y - (dnu / nu(z)) * y.dy - rho(z) * nu(z) * y.y
