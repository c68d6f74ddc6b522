"""Integration of d Phi = Phi xi and monodromy analysis.

Paths live in the w = log z coordinate, where a circuit of the puncture is
the straight segment w -> w + 2 pi i and the simple pole of dz/z becomes a
constant coefficient.  The integrator is an adaptive embedded Cash-Karp
5(4) pair stepping a whole family of independent 2x2 systems (all lambda
samples, and all rays of a surface sweep) in lockstep: the step size is
controlled by the worst error across the family.  Each attempted step
makes one coefficient call, a stack over its six stage points s_i; the
stage products Y coeff(s_i) are the closed-form loops._mul2, and each
stage argument, the 5th-order solution and the error estimate are summed
in place into one new array.

A monodromy integrates half a circuit.  Every potential the package builds
declares its half turn D (PotentialSpec.half_turn): the w-chart
coefficient obeys c(w + i pi) = D c(w) D^-1 with D^2 = I, so the frame
continues as Phi(w + i pi) = K Phi(w) D^-1 with K = Phi(i pi) D Phi(0)^-1,
and the monodromy of the full circuit is exactly K^2.  D is sigma3 =
diag(1, -1) for the cylinder potential, whose z xi is odd in z; I for the
Bessel potential, whose z xi is even; and I for the pure residue potential
A dz/z, whose w-chart coefficient A is constant.  This halves the Runge-
Kutta work of every closing check (Dorfmeister, Pedit & Wu, Comm. Anal.
Geom. 6, 1998, for the monodromy and its closing conditions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, DEFAULT_CONFIG
from .loops import LambdaGrid, _adj, _dlambda_at_one, _inv2, _mul2
from .potentials import DelaunayResidue, PotentialSpec, mu_eigenvalue

__all__ = [
    "PathSpec",
    "MonodromyReport",
    "integrate_frame",
    "monodromy",
    "trace_law_check",
    "closing_report",
]


# ---------------------------------------------------------------------------
# paths

@dataclass(frozen=True)
class PathSpec:
    """Straight path w0 -> w1 in the w = log z coordinate."""

    w0: complex
    w1: complex

    def check_poles(self, xi: PotentialSpec) -> None:
        # in the w chart the only reachable pole would be one with z != 0
        z = np.exp(self.w0 + np.linspace(0.0, 1.0, 64) * (self.w1 - self.w0))
        for pole in xi.pole_locations:
            if pole != 0 and np.min(np.abs(z - pole)) < 1e-9:
                raise ValueError(f"path passes through pole z={pole}")


@dataclass(frozen=True)
class MonodromyReport:
    """Residuals of the closing conditions and the trace law.

    identity_sign records which of M(1) = I or M(1) = -I was closer.
    trace_law_error is NaN when no residue data was supplied.
    """

    unitarity_error: float
    identity_error: float
    derivative_error: float
    trace_law_error: float = float("nan")
    identity_sign: int = 1

    def fields(self) -> dict:
        return {
            "unitarity_error": self.unitarity_error,
            "identity_error": self.identity_error,
            "derivative_error": self.derivative_error,
            "trace_law_error": self.trace_law_error,
        }


# ---------------------------------------------------------------------------
# Cash-Karp 5(4) tableau

_CK_C = np.array([0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8])
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)
_CK_E = tuple(b5 - b4 for b5, b4 in zip(_CK_B5, _CK_B4))


def _stage_sum(h, weights, k, y=None):
    """y + h sum_j weights[j] k[j], accumulated in place in one new array.

    Zero weights are skipped; y = None leaves out the y term.
    """
    acc = None
    for w, kj in zip(weights, k):
        if w == 0.0:
            continue
        if acc is None:
            acc = (h * w) * kj
        else:
            acc += (h * w) * kj
    if y is not None:
        acc += y
    return acc


def _rk_segment(coeff, y, s0, s1, rtol, h0=None):
    """Advance Y' = Y coeff(s) from s0 to s1 for a stacked family.

    coeff maps the (6,) stage points s + _CK_C h of a step, once per step,
    to a stack c with c[i] broadcastable against y (shape (..., 2, 2)).
    One step size serves the family; the error norm is its worst scaled RMS,
    with absolute tolerance 1e-14.  A NaN error norm raises RuntimeError:
    no step size can make it acceptable.
    Returns (y_end, last_h) so a caller chaining segments can reuse h.
    """
    span = s1 - s0
    if span == 0:
        return y, h0
    h = h0 if h0 is not None else span / 32.0
    h = math.copysign(min(abs(h), abs(span)), span)
    direction = 1.0 if span > 0 else -1.0
    s = s0
    k = [None] * 6
    ay = np.abs(y)
    while (s1 - s) * direction > 1e-15 * abs(span):
        if abs(h) > abs(s1 - s):
            h = s1 - s
        c = coeff(s + _CK_C * h)
        k[0] = _mul2(y, c[0])
        for i in range(1, 6):
            k[i] = _mul2(_stage_sum(h, _CK_A[i], k, y), c[i])
        y5 = _stage_sum(h, _CK_B5, k, y)
        ay5 = np.abs(y5)
        # worst scaled RMS; sqrt and the division by 4 commute with max
        q = np.abs(_stage_sum(h, _CK_E, k))
        scale = np.maximum(ay, ay5)
        scale *= rtol
        scale += 1e-14
        q /= scale
        q *= q
        worst = math.sqrt(float(q.sum(axis=(-2, -1)).max()) / 4)
        if math.isnan(worst):
            raise RuntimeError(f"NaN error estimate at path parameter {s!r}")
        if worst <= 1.0:
            s = s + h
            y, ay = y5, ay5
        grow = 0.9 * worst ** -0.2 if worst > 0 else 5.0
        h = h * min(5.0, max(0.2, grow))
        if abs(h) < 1e-13 * abs(span):
            raise RuntimeError(f"step-size underflow at path parameter {s!r}")
    return y, h


def _integrate_w_line(xi, lam, w0, w1, y0, rtol, stations=None):
    """Integrate along w(s) = w0 + s (w1 - w0), s in [0, 1].

    w0, w1: arrays (B,) — one straight w-segment per batch member, shared
    parameterization.  y0: (B, m, 2, 2) initial frames (m = len(lam)).
    stations: increasing s values where output is wanted (1.0 implied).
    Returns array (S, B, m, 2, 2).
    """
    w0 = np.atleast_1d(np.asarray(w0, dtype=complex))[:, None]
    w1 = np.atleast_1d(np.asarray(w1, dtype=complex))[:, None]
    lam = np.asarray(lam, dtype=complex)[None, :]
    dw = w1 - w0

    def coeff(s):
        z = np.exp(w0 + s[:, None, None] * dw)   # (6, B, 1) against lam (1, m)
        return xi(z, lam) * (z * dw)[..., None, None]

    ss = [float(t) for t in (stations if stations is not None else [])]
    if not ss or ss[-1] < 1.0:
        ss = ss + [1.0]
    out = np.empty((len(ss),) + y0.shape, dtype=complex)
    y, h, s_prev = y0.astype(complex), None, 0.0
    for i, s in enumerate(ss):
        y, h = _rk_segment(coeff, y, s_prev, s, rtol, h0=h)
        out[i] = y
        s_prev = s
    return out


def _phi0_samples(phi0, grid: LambdaGrid) -> np.ndarray:
    if phi0 is None:
        return np.tile(np.eye(2, dtype=complex), (grid.m, 1, 1))
    phi0 = np.asarray(phi0, dtype=complex)
    if phi0.shape == (2, 2):
        return np.tile(phi0, (grid.m, 1, 1))
    if phi0.shape != (grid.m, 2, 2):
        raise ValueError(f"initial frame has shape {phi0.shape}, "
                         f"expected ({grid.m}, 2, 2)")
    return phi0


def integrate_frame(xi: PotentialSpec, path: PathSpec, phi0,
                    grid: LambdaGrid, cfg: PipelineConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Solve d Phi = Phi xi along the path for every lambda sample.

    phi0 may be None (identity), a constant matrix or an (m, 2, 2) sample
    family.  Returns the (m, 2, 2) frames at the end of the path.
    """
    path.check_poles(xi)
    y0 = _phi0_samples(phi0, grid)[None]          # batch of one
    return _integrate_w_line(xi, grid.points, [path.w0], [path.w1], y0, cfg.ode_tol)[-1, 0]


# ---------------------------------------------------------------------------
# monodromy

def closing_report(M: np.ndarray, grid: LambdaGrid,
                   res: DelaunayResidue | None = None) -> MonodromyReport:
    """Residuals of the closing conditions for a sampled monodromy family.

    M: (m, 2, 2) on the grid (lambda = 1 must be the first sample).
    The derivative at lambda = 1 is computed spectrally: sum_k k M_k over
    the Fourier coefficients.  With residue data the trace law residual
    |tr M + 2 cos(2 pi mu)| is included (the sign is fixed by the
    half-integer gauge flipping under a circuit: M_gauged = -M).
    """
    unitarity = float(np.abs(_mul2(M, _adj(M)) - np.eye(2)).max())

    eye = np.eye(2)
    d_plus = float(np.abs(M[0] - eye).max())
    d_minus = float(np.abs(M[0] + eye).max())
    sign = 1 if d_plus <= d_minus else -1
    identity = min(d_plus, d_minus)

    derivative = float(np.abs(_dlambda_at_one(M, grid)).max())

    trace_law = float("nan")
    if res is not None:
        mu = mu_eigenvalue(res, grid.points)
        tr = np.trace(M, axis1=1, axis2=2)
        trace_law = float(np.abs(tr + 2.0 * np.cos(2.0 * np.pi * mu)).max())

    return MonodromyReport(unitarity, identity, derivative, trace_law, sign)


def monodromy(xi: PotentialSpec, grid: LambdaGrid,
              cfg: PipelineConfig = DEFAULT_CONFIG, frame0=None,
              res: DelaunayResidue | None = None):
    """Monodromy M = Phi(after one circuit) Phi(start)^-1 at basepoint z0 = 1.

    Integrates half the circuit, w: 0 -> i pi, and returns M = K^2 with
    K = Phi(i pi) D Phi(0)^-1, D = xi.half_turn (see the module
    docstring); a potential that declares no half turn raises ValueError.
    frame0 defaults to the identity.  Starting from a different frame
    conjugates M; the normalized cylinder frame of
    potentials.cylinder_basepoint_frame turns the cylinder monodromy into
    the unitary loop -exp(2 pi i A).
    Returns (M samples, MonodromyReport).
    """
    if xi.half_turn is None:
        raise ValueError(f"{xi.description}: no half turn declared, which the "
                         "half-circuit monodromy needs")
    phi0 = _phi0_samples(frame0, grid)
    half = integrate_frame(xi, PathSpec(0.0, 1j * np.pi), phi0, grid, cfg)
    K = _mul2(_mul2(half, xi.half_turn), _inv2(phi0))
    M = _mul2(K, K)
    return M, closing_report(M, grid, res)


def trace_law_check(xi_c: PotentialSpec, res: DelaunayResidue,
                    grid: LambdaGrid, cfg: PipelineConfig = DEFAULT_CONFIG) -> float:
    """max over the grid of |tr M_c(lambda) + 2 cos(2 pi mu(lambda))|.

    The plus sign: rewriting the cylinder system in residue form uses the
    gauge diag(z^1/2, z^-1/2), which flips sign under one circuit, so the
    residue-side monodromy is MINUS the cylinder one.  At lambda = 1 this
    is pinned by tr M_c = 2 against 2 cos(pi) = -2.  The monodromy is
    identity-seeded; the trace is invariant under the lambda-dependent
    conjugation that the basepoint frame applies.
    """
    return monodromy(xi_c, grid, cfg, res=res)[1].trace_law_error
