"""Potentials, gauges, and the residue data of the cylinder family.

Conventions.  A potential is the 2x2 trace-free coefficient xi(z, lambda)
of dz in the linear system d Phi = Phi xi.  The gauge action is
xi.g = g^-1 xi g + g^-1 dg, acting on solutions by Phi -> Phi g.  All
square roots are principal; gauges built from z^(1/2) flip sign when z
runs once around the origin (branch cut on the negative real axis).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .loops import _inv2, _mat2, _mul2

__all__ = [
    "PotentialSpec",
    "GaugeSpec",
    "CylinderParams",
    "DelaunayResidue",
    "make_bessel_potential",
    "make_cylinder_potential",
    "delaunay_ab",
    "delaunay_residue_matrix",
    "gauge_transform",
    "mu_eigenvalue",
    "t_of_lambda",
    "alpha_of",
    "verify_mu_alpha_identity",
    "verify_symmetry_relations",
    "verify_gauge_chain",
    "cylinder_basepoint_frame",
    "bessel_gauge_g1",
    "bessel_gauge_g2",
    "lambda_gauge",
]


# ---------------------------------------------------------------------------
# types

@dataclass(frozen=True)
class PotentialSpec:
    """Evaluator for a meromorphic sl2-valued 1-form (coefficient of dz);
    evaluate(z, lam) broadcasts z of any leading shape against lam.  The
    only finite pole is z = 0, the puncture of C*: calling there raises.

    evaluate returns either the (..., 2, 2) stack of the coefficient or,
    for an off-diagonal coefficient [[0, c01], [c10, 0]] (every
    constructor below), its two entry planes (c01, c10), and builds no
    zero-filled stack.  Calling the spec gives the stack either way;
    planes() gives (c01, c10), the form flow integrates.

    half_turn is the constant matrix D of the potential's symmetry under
    z -> -z in the log chart: (-z) xi(-z) = D (z xi(z)) D^-1 with D^2 = I.
    flow.monodromy integrates half a circuit and needs it; None (the
    default, and what gauge_transform returns) declares no symmetry.
    """

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray | tuple[np.ndarray, np.ndarray]]
    description: str
    half_turn: np.ndarray | None = field(default=None, compare=False)  # an array: not in == or hash

    def _evaluate(self, z, lam):
        z = np.asarray(z, dtype=complex)
        if (z == 0).any():
            raise ValueError(f"{self.description}: evaluation at pole z=0j")
        return self.evaluate(z, np.asarray(lam, dtype=complex))

    def __call__(self, z, lam) -> np.ndarray:
        c = self._evaluate(z, lam)
        return _mat2(0, c[0], c[1], 0) if isinstance(c, tuple) else c

    def planes(self, z, lam) -> tuple[np.ndarray, np.ndarray]:
        """The off-diagonal entry planes (c01, c10).  A stack's diagonal is
        not read here: flow checks it once per integration."""
        c = self._evaluate(z, lam)
        return c if isinstance(c, tuple) else (c[..., 0, 1], c[..., 1, 0])


@dataclass(frozen=True)
class GaugeSpec:
    """Invertible gauge g(z, lambda) with analytic z-derivative.

    Branch cuts and sign flips under z -> e^{2 pi i} z are documented on
    the constructors below.
    """

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray, np.ndarray], np.ndarray]
    description: str


@dataclass(frozen=True)
class CylinderParams:
    """Parameter r of the cylinder family, r in (-inf, 1) minus 0."""

    r: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.r) or self.r >= 1 or self.r == 0:
            raise ValueError(f"r must lie in (-inf, 1) and be nonzero, got {self.r}")


@dataclass(frozen=True)
class DelaunayResidue:
    """Residue data (a, b) with the closing condition a + b = 1/2.

    a and b must be finite reals: then A(lambda) is Hermitian on the
    unit circle, which the Delaunay reference relies on.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Real) or not np.isfinite(v):
                raise ValueError(f"{name} must be a finite real number, got {v!r}")
        if abs(self.a + self.b - 0.5) > 1e-14:
            raise ValueError(f"a+b must equal 1/2, got {self.a + self.b}")


# ---------------------------------------------------------------------------
# scalar helpers

def t_of_lambda(lam) -> np.ndarray:
    """t = -(1/4) lambda^-1 (lambda - 1)^2; real in [0, 1] on the circle."""
    lam = np.asarray(lam, dtype=complex)
    return -0.25 * (lam - 1.0) ** 2 / lam


def alpha_of(p: CylinderParams, lam) -> np.ndarray:
    """Order alpha = (1/2) sqrt(1 - r t(lambda)) of the reduced scalar equation."""
    return 0.5 * np.sqrt(1.0 - p.r * t_of_lambda(lam))


def delaunay_ab(p: CylinderParams) -> tuple[float, float]:
    """Residue weights a = (1 + sqrt(1-r))/4, b = (1 - sqrt(1-r))/4.

    Satisfy a + b = 1/2 and a*b = r/16; a > b since r < 1.
    """
    s = np.sqrt(1.0 - p.r)
    return 0.25 * (1.0 + s), 0.25 * (1.0 - s)


def mu_eigenvalue(res: DelaunayResidue, lam) -> np.ndarray:
    """Eigenvalue mu(lambda) of the residue, mu^2 = a^2+b^2+ab(lambda+1/lambda).

    Branch: principal square root (Re mu >= 0; Im mu >= 0 when mu is purely
    imaginary), consistently with every downstream formula.
    """
    lam = np.asarray(lam, dtype=complex)
    a, b = res.a, res.b
    return np.sqrt(a * a + b * b + a * b * (lam + 1.0 / lam) + 0j)


def delaunay_residue_matrix(res: DelaunayResidue, lam) -> np.ndarray:
    """A(lambda) = [[0, a/lambda + b], [a lambda + b, 0]]; shape (..., 2, 2)."""
    lam = np.asarray(lam, dtype=complex)
    return _mat2(0, res.a / lam + res.b, res.a * lam + res.b, 0)


# ---------------------------------------------------------------------------
# potentials

# half turns D of the constructors below, shared and read-only
_EYE = _mat2(1, 0, 0, 1)
_SIGMA3 = _mat2(1, 0, 0, -1)
_EYE.flags.writeable = _SIGMA3.flags.writeable = False


def make_bessel_potential(alpha) -> PotentialSpec:
    """Potential [[0, 1/z], [-z + alpha^2/z, 0]] of the scalar Bessel system.

    alpha may be a constant or a callable alpha(lambda); the latter is used
    by the gauge chain where the order varies with the loop parameter.  A
    constant order is squared once, here, not on every evaluation.
    z xi = [[0, 1], [alpha^2 - z^2, 0]] is even in z: the half turn is I.
    """
    const_sq = None if callable(alpha) else np.asarray(alpha, dtype=complex) ** 2

    def evaluate(z, lam):
        a2 = np.asarray(alpha(lam), dtype=complex) ** 2 if const_sq is None else const_sq
        return 1.0 / z, a2 / z - z

    label = "bessel" if callable(alpha) else f"bessel(alpha={alpha})"
    return PotentialSpec(evaluate, label, _EYE)


def make_cylinder_potential(p: CylinderParams) -> PotentialSpec:
    """Cylinder potential [[0, 1/lambda], [lambda Q_t, 0]] with
    Q_t = -(r t)/(4 z^2) - 1 and t = -(1/4) lambda^-1 (lambda-1)^2.

    Q_t is evaluated as (r/16) ((lambda-1)^2/lambda) / z^2 - 1, two
    operations fewer per call; the factors it moves are powers of two, so
    the rounded result is the same.  Q_t is even in z, so z xi is odd and
    its half turn is sigma3 = diag(1, -1), which flips the off-diagonal.
    """
    c = p.r / 16.0

    def evaluate(z, lam):
        Q = c * ((lam - 1.0) ** 2 / lam) / (z * z) - 1.0   # z and lam broadcast
        return 1.0 / lam, lam * Q

    return PotentialSpec(evaluate, f"cylinder(r={p.r})", _SIGMA3)


# ---------------------------------------------------------------------------
# gauges

def _gauge(value, derivative, label) -> GaugeSpec:
    """GaugeSpec from the four entries (g00, g01, g10, g11) of g and of
    dg/dz, each given as a map of z and lambda broadcast against each other."""

    def stacked(entries):
        def evaluate(z, lam):
            z, lam = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                         np.asarray(lam, dtype=complex))
            return _mat2(*entries(z, lam))
        return evaluate

    return GaugeSpec(stacked(value), stacked(derivative), label)


def bessel_gauge_g1() -> GaugeSpec:
    """g1 = diag(z^-1/2, z^1/2): strips the half-integer leading behavior;
    flips sign under one turn around 0."""
    return _gauge(lambda z, lam: (z ** -0.5, 0, 0, z ** 0.5),
                  lambda z, lam: (-0.5 * z ** -1.5, 0, 0, 0.5 * z ** -0.5), "g1")


def bessel_gauge_g2() -> GaugeSpec:
    """g2 = [[1, 0], [1/(2z), 1]]: removes the residual diagonal pole."""
    return _gauge(lambda z, lam: (1, 0, 0.5 / z, 1),
                  lambda z, lam: (0, 0, -0.5 / (z * z), 0), "g2")


def lambda_gauge() -> GaugeSpec:
    """Lambda = diag(lambda^1/2, lambda^-1/2): spreads the loop parameter
    onto the off-diagonal.  z-independent, so dg/dz is a zero stack shaped
    like the broadcast z; branch cut in lambda."""
    return _gauge(lambda z, lam: (lam ** 0.5, 0, 0, lam ** -0.5),
                  lambda z, lam: (np.zeros_like(z), 0, 0, 0), "Lambda")


def gauge_transform(xi: PotentialSpec, g: GaugeSpec) -> PotentialSpec:
    """xi.g = g^-1 xi g + g^-1 dg/dz.

    The result declares no half turn: a gauge may break the symmetry (g1
    carries z^(1/2)), so the flow does not assume it survives.
    """

    def evaluate(z, lam):
        gv = g.evaluate(z, lam)
        return _mul2(_inv2(gv), _mul2(xi(z, lam), gv) + g.derivative(z, lam))

    return PotentialSpec(evaluate, f"{xi.description}.{g.description}")


# ---------------------------------------------------------------------------
# identities and symmetry checks

def verify_mu_alpha_identity(p: CylinderParams, lam_points) -> float:
    """max | mu^2(lambda) - (1 - r t(lambda))/4 | over the samples.

    mu is the residue eigenvalue for (a, b) = delaunay_ab(r); the identity
    ties the loop-dependent Bessel order alpha to the residue spectrum.
    """
    lam = np.asarray(lam_points, dtype=complex)
    a, b = delaunay_ab(p)
    res = DelaunayResidue(a, b)
    mu2 = mu_eigenvalue(res, lam) ** 2
    rhs = 0.25 * (1.0 - p.r * t_of_lambda(lam))
    return float(np.abs(mu2 - rhs).max())


def verify_symmetry_relations(xi: PotentialSpec, samples) -> float:
    """Residual of the two reality/loop-inversion relations of the family.

    With G = diag(1/lambda, lambda) and conjugation acting on both the
    domain (z -> conj z) and the loop parameter (lambda -> 1/conj lambda):

        xi(z, 1/lambda)        = conj( xi(conj z, 1/conj lambda) )
        G^-1 xi(z, lambda) G   = conj( xi(conj z, 1/conj lambda) )

    G^-1 X G is the entrywise product of X with [[1, lambda^2],
    [lambda^-2, 1]].  Returns the max entrywise residual of both over the
    samples, all evaluated in one call.
    """
    z, lam = np.array(samples, dtype=complex).reshape(-1, 2).T
    target = np.conj(xi(np.conj(z), 1.0 / np.conj(lam)))
    lhs1 = xi(z, 1.0 / lam)
    lhs2 = _mat2(1, lam * lam, 1.0 / (lam * lam), 1) * xi(z, lam)
    return float(max(np.abs(lhs1 - target).max(), np.abs(lhs2 - target).max()))


def verify_gauge_chain(p: CylinderParams) -> dict:
    """Pointwise residuals of the gauge chain linking the three families.

    Checks, at 100 random (z, lambda) pairs (seed 7) kept away from the
    negative real axis in both variables (the branch cuts of g1 and Lambda):

        bessel(alpha).g1.g2          ==  [[0, 1], [-1 + (4 alpha^2 - 1)/(4 z^2), 0]]
        bessel(alpha).g1.g2.Lambda   ==  cylinder potential (parameter r)

    with alpha(lambda) = alpha_of(p, lambda).

    Returns {"reduced": ..., "cylinder": ...} (max entrywise residuals).
    """
    rng = np.random.default_rng(7)
    z = rng.uniform(0.5, 2.0, 100) * np.exp(1j * rng.uniform(-2.7, 2.7, 100))
    lam = np.exp(1j * rng.uniform(-2.7, 2.7, 100))

    chain = gauge_transform(gauge_transform(
        make_bessel_potential(lambda l: alpha_of(p, l)), bessel_gauge_g1()),
        bessel_gauge_g2())
    full = gauge_transform(chain, lambda_gauge())

    alpha = alpha_of(p, lam)
    reduced = _mat2(0, 1, -1.0 + (4.0 * alpha * alpha - 1.0) / (4.0 * z * z), 0)

    return {
        "reduced": float(np.abs(chain(z, lam) - reduced).max()),
        "cylinder": float(np.abs(full(z, lam) - make_cylinder_potential(p)(z, lam)).max()),
    }


# ---------------------------------------------------------------------------
# Frobenius series of the cylinder frame

_MAX_TERMS = 256   # even powers of z; |z| <= 5 needs 18


def _frobenius_coefficients(p: CylinderParams, lam, rho_max: float) -> np.ndarray:
    """Series coefficients of the cylinder frame, enough for |z| <= rho_max.

    Near z = 0 the gauged cylinder system has the form A/z + N1 z with
    N1 = [[0,0],[-lambda/(a + b lambda), 0]], so its holomorphic
    normalizing factor P(z) = sum_j P_2j z^2j obeys the recurrence

        (k + ad_A) P_k = P_{k-2} N1,   P_0 = I, P_1 = 0,   ad_A X = A X - X A

    (odd terms vanish; the series is entire).  A is trace-free with
    A^2 = mu^2 I, so ad_A^3 = 4 mu^2 ad_A, and the solve has the closed form

        (k + ad_A)^-1 R = R/k - ad_A R/(k^2 - 4 mu^2)
                          + ad_A^2 R/(k (k^2 - 4 mu^2)).

    With k = 2j the denominator is 4 (j^2 - mu^2): the recurrence is
    resonant where mu = j on the circle, first for j = 1, and mu(-1) = 1
    exactly at r = -3.  Undoing the gauges gives the frame

        Phi(z) = z^A P(z) (a + b lambda)^{1/2} g2c^{-1} g1c(z)^{-1},

    with g1c(z) = diag(z^1/2, z^-1/2) and g2c = [[1, 0], [-lambda/2,
    a + b lambda]], and the constant right factor is folded into the returned
    coefficients C_j = P_2j (a + b lambda)^{1/2} g2c^{-1}, shape
    (terms, m, 2, 2).  Terms stop once rho_max^2j |P_2j| drops below
    eps times the largest term.

    Raises ValueError for r <= -3 and RuntimeError when the series has not
    converged within _MAX_TERMS terms.  For r <= -3 the eigenvalue gap
    2 mu reaches 2 on the circle (at lambda = -1 for r = -3), so the
    j = 1 denominator vanishes; the reason no frame exists is the monodromy
    itself: there its trace is -2 but it is not -I, a nontrivial Jordan
    block, which no change of initial frame can make unitary, and
    unitarizability is the closing condition (Kilian, Kobayashi, Rossman &
    Schmitt, J. London Math. Soc. 75, 2007).
    """
    if p.r <= -3.0:
        raise ValueError(
            "no unitary basepoint frame for r <= -3: the monodromy has a "
            "nontrivial Jordan block (trace -2, not -I) where the eigenvalue "
            "gap 2 mu reaches 2 on the unit circle, so it cannot be unitarized")
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    a, b = delaunay_ab(p)
    A = delaunay_residue_matrix(DelaunayResidue(a, b), lam)     # (m, 2, 2)
    mu2 = (A[:, 0, 1] * A[:, 1, 0])[:, None, None]  # A^2 = mu^2 I
    det = a + b * lam
    N1 = _mat2(0, 0, -lam / det, 0)

    def ad_A(X):
        return _mul2(A, X) - _mul2(X, A)

    P = np.tile(np.eye(2, dtype=complex), (len(lam), 1, 1))
    terms = [P]
    largest = scale = 1.0
    eps = np.finfo(float).eps
    for j in range(1, _MAX_TERMS):
        k = 2.0 * j
        R = _mul2(P, N1)
        adR = ad_A(R)
        gap = k * k - 4.0 * mu2
        P = R / k - adR / gap + ad_A(adR) / (k * gap)
        scale *= rho_max * rho_max
        size = scale * float(np.abs(P).max())
        if size < eps * largest:
            break
        terms.append(P)
        largest = max(largest, size)
    else:
        raise RuntimeError(f"Frobenius series not converged within {_MAX_TERMS} "
                           f"terms at |z| = {rho_max}")

    root = np.sqrt(det)                              # (a + b lambda)^{1/2} g2c^{-1}
    return _mul2(np.stack(terms), _mat2(root, 0, 0.5 * lam / root, 1.0 / root))


def cylinder_basepoint_frame(p: CylinderParams, lam_points) -> np.ndarray:
    """Initial frame at z0 = 1 of the solution whose monodromy is -exp(2 pi i A).

    The Frobenius series of _frobenius_coefficients summed at z = 1:

        Phi0(lambda) = (a + b lambda)^{1/2} P(1) g2c(1)^{-1},

    with det Phi0 = 1.  Solutions started from this frame close around the
    puncture: their monodromy is the unitary loop -exp(2 pi i A), which the
    identity-seeded monodromy is only conjugate to.

    Raises for r <= -3, where the monodromy cannot be unitarized.
    """
    return _frobenius_coefficients(p, lam_points, 1.0).sum(axis=0)
