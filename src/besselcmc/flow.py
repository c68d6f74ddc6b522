"""Integration of d Phi = Phi xi and monodromy analysis.

Paths live in the w = log z coordinate, where a circuit of the puncture is
the straight segment w -> w + 2 pi i and the simple pole of dz/z becomes a
constant coefficient.  The integrator is the adaptive embedded
Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett & Wanner, Solving
Ordinary Differential Equations I, 2nd ed., 1993, section II.10), stepping
a whole family of independent 2x2 systems (all lambda samples, and all rays
of a surface sweep) in lockstep: the step size is controlled by the worst
error across the family.  Every potential the package integrates comes from
a second-order scalar equation, so its coefficient is off-diagonal,
[[0, c01], [c10, 0]], and the flow carries it as those two entry planes;
a potential with a nonzero diagonal is rejected, never integrated with the
diagonal dropped.  Each attempted step makes one coefficient call, the two
planes over its twelve stage points s_i; a stage product Y coeff(s_i) is
two multiplies, one per column (_stage), and each stage argument, the
8th-order solution and the two error sums are one weighted sum over a
preallocated stack of y and the stage derivatives.  At the CLI tolerance
1e-10 an 8th-order step is about four times longer than a 5th-order one,
and the steps on small stacks cost mostly per-call overhead, so fewer,
longer steps pay.

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


@dataclass(frozen=True)
class MonodromyReport:
    """Residuals of the closing conditions and the trace law.

    identity_error is the distance of M(1) to the nearer of I and -I.
    trace_law_error is NaN when no residue data was supplied.
    """

    unitarity_error: float
    identity_error: float
    derivative_error: float
    trace_law_error: float = float("nan")


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3) tableau

_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
# the 8th-order weights, and the 5th- and 3rd-order error weights E5 and
# E3 = B - BHH of the combined error estimate
_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
      4.45031289275240888144113950566, 1.89151789931450038304281599044,
      -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
      -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
      4.47106157277725905176885569043e-2)
_BHH = (0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.733846688281611857341361741547, 0.0, 0.0,
        0.220588235294117647058823529412e-1)
_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
       -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
       0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
       0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
       -0.2235530786388629525884427845e-1)
_E3 = tuple(b - bhh for b, bhh in zip(_B, _BHH))

# One row of weights per weighted sum over the stack (y, k_0, ..., k_11):
# row i < 12 is stage i's argument, rows 12-14 are the solution and the
# E5 and E3 error sums.  Column 0 weighs y; _rk_segment scales the table
# by h and then sets it to 1 in the stage and solution rows.
_TABLE = np.zeros((15, 13))
_TABLE[:12, 1:] = [row + (0.0,) * (12 - len(row)) for row in _A]
_TABLE[12:, 1:] = (_B, _E5, _E3)
_TINY = np.finfo(float).tiny


def _stage(out, y, up, lo):
    """out = y [[0, up], [lo, 0]]: column 0 is y's column 1 times lo,
    column 1 is y's column 0 times up.

    y and out are (..., 2, 2) stacks; up and lo broadcast against a column
    y[..., 0], so they carry a trailing axis of length 1 for the row.  The
    bits are those of loops._mul2 on the assembled stack, since there each
    entry adds the zero diagonal's product to this one exactly.
    """
    np.multiply(y[..., 1], lo, out=out[..., 0])
    np.multiply(y[..., 0], up, out=out[..., 1])


def _rk_segment(coeff, y, s0, s1, rtol, h0=None):
    """Advance Y' = Y [[0, c01(s)], [c10(s), 0]] from s0 to s1 for a
    stacked family.

    One DOP853 step per iteration.  coeff maps the (12,) stage points
    s + _C h of a step, once per step, to the entry planes (c01, c10),
    each indexed by stage first, with c01[i] and c10[i] broadcastable
    against y's members y.shape[:-2].  y and the stage derivatives
    k_i = Y_i c_i (two multiplies each, _stage) live in one preallocated
    (13,) + y.shape stack, so each stage argument Y_i, the 8th-order
    solution and both error sums are one weighted sum over its rows.
    DOP853's end-point derivative has zero weight in the solution and in
    both error sums and is not formed.

    One step size serves the family.  With a5 and a3 the sums of squares
    of a 2x2 member's E5 and E3 error entries, each divided by
    1e-14 + rtol max(|y|, |y_new|), the member's error is DOP853's
    combined estimate a5 / sqrt(4 (a5 + 0.01 a3)); the worst member is
    accepted if <= 1 and sets the step factor 0.9 err^(-1/8), clamped to
    [0.2, 5].  A trial step whose error is not finite although both
    coefficient planes are (its stages overflowed) is rejected with the
    factor 0.2 and no warning; a non-finite coefficient raises
    RuntimeError, since no step size can make it acceptable.
    Returns (y_end, last_h) so a caller chaining segments can reuse h.
    """
    span = s1 - s0
    if span == 0:
        return y, h0
    h = h0 if h0 is not None else span / 32.0
    h = math.copysign(min(abs(h), abs(span)), span)
    direction = 1.0 if span > 0 else -1.0
    s = s0
    shape = np.shape(y)
    stack = np.empty((13,) + shape, dtype=complex)
    stack[0] = y
    rows = stack.reshape(13, -1).view(float)     # weighted sums as real gemv
    ay = np.abs(stack[0]).ravel()
    while (s1 - s) * direction > 1e-15 * abs(span):
        if abs(h) > abs(s1 - s):
            h = s1 - s
        up, lo = coeff(s + _C * h)
        up, lo = up[..., None], lo[..., None]        # against a column of y
        w = h * _TABLE
        w[:13, 0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):   # overflow rejects
            _stage(stack[1], stack[0], up[0], lo[0])
            for i in range(1, 12):
                yi = (w[i, :i + 1] @ rows[:i + 1]).view(complex).reshape(shape)
                _stage(stack[i + 1], yi, up[i], lo[i])
            out = (w[12:] @ rows).view(complex)     # y8, e5, e3
            ay8 = np.abs(out[0])
            scale = np.maximum(ay, ay8)
            scale *= rtol
            scale += 1e-14
            q = np.abs(out[1:])
            q /= scale
            q *= q
            q5, q3 = q.reshape(2, -1, 4).sum(axis=2)
            den = 0.01 * q3
            den += q5
            np.maximum(den, _TINY, out=den)      # a member with no error reads 0
            q5 /= np.sqrt(den)
            worst = float(q5.max()) / 2.0
        if worst <= 1.0:
            s = s + h
            stack[0] = out[0].reshape(shape)
            ay = ay8
        if worst == 0.0:
            grow = 5.0
        elif math.isfinite(worst):
            grow = min(5.0, max(0.2, 0.9 * worst ** -0.125))
        elif np.isfinite(up).all() and np.isfinite(lo).all():
            grow = 0.2
        else:
            raise RuntimeError(f"non-finite coefficient at path parameter {s!r}")
        h = h * grow
        if abs(h) < 1e-13 * abs(span):
            raise RuntimeError(f"step-size underflow at path parameter {s!r}")
    return stack[0].copy(), h


def _integrate_w_line(xi, lam, w0, w1, y0, rtol, stations=None):
    """Integrate along w(s) = w0 + s (w1 - w0), s in [0, 1].

    w0, w1: arrays (B,) — one straight w-segment per batch member, shared
    parameterization.  y0: (B, m, 2, 2) initial frames (m = len(lam)).
    stations: increasing s values where output is wanted (1.0 implied).
    Returns array (S, B, m, 2, 2).

    The flow drops the coefficient's diagonal, so it is checked once, at
    both ends of every segment and every lambda sample: a nonzero entry
    raises ValueError naming the potential.
    """
    w0 = np.atleast_1d(np.asarray(w0, dtype=complex))[:, None]
    w1 = np.atleast_1d(np.asarray(w1, dtype=complex))[:, None]
    lam = np.asarray(lam, dtype=complex)[None, :]
    dw = w1 - w0
    if np.diagonal(xi(np.exp([w0, w1]), lam), axis1=-2, axis2=-1).any():
        raise ValueError(f"{xi.description}: the coefficient has a nonzero "
                         "diagonal, and the flow integrates off-diagonal ones only")

    def coeff(s):
        z = np.exp(w0 + s[:, None, None] * dw)   # (12, B, 1) against lam (1, m)
        f = z * dw
        up, lo = xi.planes(z, lam)
        return up * f, lo * f

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
    identity = min(float(np.abs(M[0] - eye).max()), float(np.abs(M[0] + eye).max()))

    derivative = float(np.abs(_dlambda_at_one(M, grid)).max())

    trace_law = float("nan")
    if res is not None:
        mu = mu_eigenvalue(res, grid.points)
        tr = np.trace(M, axis1=1, axis2=2)
        trace_law = float(np.abs(tr + 2.0 * np.cos(2.0 * np.pi * mu)).max())

    return MonodromyReport(unitarity, identity, derivative, trace_law)


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
