"""Potentials, gauges, and the residue data of the cylinder family.

Conventions.  A potential is the 2x2 trace-free coefficient xi(z, lambda)
of dz in the linear system d Phi = Phi xi.  The gauge action is
xi.g = g^-1 xi g + g^-1 dg, acting on solutions by Phi -> Phi g.  All
square roots are principal; gauges built from z^(1/2) flip sign when z
runs once around the origin (branch cut on the negative real axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .loops import _mul2

__all__ = [
    "PotentialSpec",
    "GaugeSpec",
    "CylinderParams",
    "DelaunayResidue",
    "make_bessel_potential",
    "make_cylinder_potential",
    "make_delaunay_potential",
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
    "cylinder_gauge_g1",
    "cylinder_gauge_g2",
]


# ---------------------------------------------------------------------------
# types

@dataclass(frozen=True)
class PotentialSpec:
    """Evaluator for a meromorphic sl2-valued 1-form (coefficient of dz)."""

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    pole_locations: tuple[tuple[complex, int], ...]
    description: str

    def __call__(self, z, lam) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        for pole, _ in self.pole_locations:
            if (z == pole).any():
                raise ValueError(f"{self.description}: evaluation at pole z={pole}")
        return self.evaluate(z, np.asarray(lam, dtype=complex))


@dataclass(frozen=True)
class GaugeSpec:
    """Invertible gauge g(z, lambda) with analytic z-derivative.

    Branch cuts and sign flips under z -> e^{2 pi i} z are documented on
    the constructors below.
    """

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray, np.ndarray], np.ndarray]
    description: str = ""


@dataclass(frozen=True)
class CylinderParams:
    """Parameter r of the cylinder family, r in (-inf, 1) minus 0."""

    r: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.r) or self.r >= 1 or self.r == 0:
            raise ValueError(f"r must lie in (-inf, 1) and be nonzero, got {self.r}")


@dataclass(frozen=True)
class DelaunayResidue:
    """Residue data (a, b, c) with the closing condition a + b = 1/2."""

    a: float
    b: float
    c: float = 0.0

    def __post_init__(self) -> None:
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
    """A(lambda) = [[c, a/lambda + b], [a lambda + b, -c]]; shape (..., 2, 2)."""
    lam = np.asarray(lam, dtype=complex)
    A = np.zeros(lam.shape + (2, 2), dtype=complex)
    A[..., 0, 0] = res.c
    A[..., 1, 1] = -res.c
    A[..., 0, 1] = res.a / lam + res.b
    A[..., 1, 0] = res.a * lam + res.b
    return A


# ---------------------------------------------------------------------------
# potentials

def make_bessel_potential(alpha) -> PotentialSpec:
    """Potential [[0, 1/z], [-z + alpha^2/z, 0]] of the scalar Bessel system.

    alpha may be a constant or a callable alpha(lambda); the latter is used
    by the gauge chain where the order varies with the loop parameter.
    """
    alpha_fn = alpha if callable(alpha) else (lambda lam: np.asarray(alpha, dtype=complex))

    def evaluate(z, lam):
        a = np.asarray(alpha_fn(lam), dtype=complex)
        lower = -z + a * a / z               # shaped like z and a broadcast
        xi = np.zeros(lower.shape + (2, 2), dtype=complex)
        xi[..., 0, 1] = 1.0 / z
        xi[..., 1, 0] = lower
        return xi

    label = "bessel" if callable(alpha) else f"bessel(alpha={alpha})"
    return PotentialSpec(evaluate, ((0j, 1),), label)


def make_cylinder_potential(p: CylinderParams) -> PotentialSpec:
    """Cylinder potential [[0, 1/lambda], [lambda Q_t, 0]] with
    Q_t = -(r t)/(4 z^2) - 1 and t = -(1/4) lambda^-1 (lambda-1)^2."""

    def evaluate(z, lam):
        Q = -p.r * t_of_lambda(lam) / (4.0 * z * z) - 1.0   # z and lam broadcast
        xi = np.zeros(Q.shape + (2, 2), dtype=complex)
        xi[..., 0, 1] = 1.0 / lam
        xi[..., 1, 0] = lam * Q
        return xi

    return PotentialSpec(evaluate, ((0j, 2),), f"cylinder(r={p.r})")


def make_delaunay_potential(res: DelaunayResidue) -> PotentialSpec:
    """Pure residue potential A(lambda) dz/z."""

    def evaluate(z, lam):
        return delaunay_residue_matrix(res, lam) / z[..., None, None]

    return PotentialSpec(evaluate, ((0j, 1),), f"delaunay(a={res.a}, b={res.b})")


# ---------------------------------------------------------------------------
# gauges

def _diag_gauge(f1, f2, d1, d2, label=""):
    def evaluate(z, lam):
        z, lam = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                     np.asarray(lam, dtype=complex))
        g = np.zeros(z.shape + (2, 2), dtype=complex)
        g[..., 0, 0] = f1(z, lam)
        g[..., 1, 1] = f2(z, lam)
        return g

    def derivative(z, lam):
        z, lam = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                     np.asarray(lam, dtype=complex))
        g = np.zeros(z.shape + (2, 2), dtype=complex)
        g[..., 0, 0] = d1(z, lam)
        g[..., 1, 1] = d2(z, lam)
        return g

    return GaugeSpec(evaluate, derivative, label)


def bessel_gauge_g1() -> GaugeSpec:
    """g1 = diag(z^-1/2, z^1/2): strips the half-integer leading behavior;
    flips sign under one turn around 0."""
    return _diag_gauge(
        lambda z, lam: z ** -0.5, lambda z, lam: z ** 0.5,
        lambda z, lam: -0.5 * z ** -1.5, lambda z, lam: 0.5 * z ** -0.5,
        label="g1")


def bessel_gauge_g2() -> GaugeSpec:
    """g2 = [[1, 0], [1/(2z), 1]]: removes the residual diagonal pole."""

    def evaluate(z, lam):
        z, lam = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                     np.asarray(lam, dtype=complex))
        g = np.zeros(z.shape + (2, 2), dtype=complex)
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = 1.0
        g[..., 1, 0] = 0.5 / z
        return g

    def derivative(z, lam):
        z, lam = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                     np.asarray(lam, dtype=complex))
        g = np.zeros(z.shape + (2, 2), dtype=complex)
        g[..., 1, 0] = -0.5 / (z * z)
        return g

    return GaugeSpec(evaluate, derivative, "g2")


def lambda_gauge() -> GaugeSpec:
    """Lambda = diag(lambda^1/2, lambda^-1/2): spreads the loop parameter
    onto the off-diagonal.  z-independent; branch cut in lambda."""
    return _diag_gauge(
        lambda z, lam: lam ** 0.5, lambda z, lam: lam ** -0.5,
        lambda z, lam: np.zeros_like(z), lambda z, lam: np.zeros_like(z),
        label="Lambda")


def cylinder_gauge_g1() -> GaugeSpec:
    """g1c = diag(z^1/2, z^-1/2); flips sign under one turn around 0."""
    return _diag_gauge(
        lambda z, lam: z ** 0.5, lambda z, lam: z ** -0.5,
        lambda z, lam: 0.5 * z ** -0.5, lambda z, lam: -0.5 * z ** -1.5,
        label="g1c")


def cylinder_gauge_g2(p: CylinderParams) -> GaugeSpec:
    """g2c = [[1, 0], [-lambda/2, a + b lambda]], z-independent."""
    a, b = delaunay_ab(p)

    def evaluate(z, lam):
        z, lam = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                     np.asarray(lam, dtype=complex))
        g = np.zeros(z.shape + (2, 2), dtype=complex)
        g[..., 0, 0] = 1.0
        g[..., 1, 0] = -0.5 * lam
        g[..., 1, 1] = a + b * lam
        return g

    def derivative(z, lam):
        z = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                np.asarray(lam, dtype=complex))[0]
        return np.zeros(z.shape + (2, 2), dtype=complex)

    return GaugeSpec(evaluate, derivative, "g2c")


def gauge_transform(xi: PotentialSpec, g: GaugeSpec) -> PotentialSpec:
    """xi.g = g^-1 xi g + g^-1 dg/dz."""

    def evaluate(z, lam):
        gv = g.evaluate(z, lam)
        gi = np.linalg.inv(gv)
        return gi @ xi(z, lam) @ gv + gi @ g.derivative(z, lam)

    desc = f"{xi.description}.{g.description or 'g'}"
    return PotentialSpec(evaluate, xi.pole_locations, desc)


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

    Returns the max entrywise residual of both over the samples.
    """
    worst = 0.0
    for z, lam in samples:
        z = complex(z)
        lam = complex(lam)
        target = np.conj(xi(np.conj(z), 1.0 / np.conj(lam)))
        lhs1 = xi(z, 1.0 / lam)
        G = np.diag([1.0 / lam, lam])
        Gi = np.diag([lam, 1.0 / lam])
        lhs2 = Gi @ xi(z, lam) @ G
        worst = max(worst,
                    float(np.abs(lhs1 - target).max()),
                    float(np.abs(lhs2 - target).max()))
    return worst


def verify_gauge_chain(p: CylinderParams, n_points: int = 100, seed: int = 7,
                       alpha_offset: float = 0.0) -> dict:
    """Pointwise residuals of the gauge chain linking the three families.

    Checks, at n_points random (z, lambda) pairs kept away from the
    negative real axis in both variables (the branch cuts of g1 and Lambda):

        bessel(alpha).g1.g2          ==  [[0, 1], [-1 + (4 alpha^2 - 1)/(4 z^2), 0]]
        bessel(alpha).g1.g2.Lambda   ==  cylinder potential (parameter r)

    with alpha(lambda) = alpha_of(p, lambda).  alpha_offset shifts the order
    fed into the Bessel potential only, leaving the comparison targets
    alone, so any nonzero offset must produce a residual of the same size
    -- a negative control for the check itself.

    Returns {"reduced": ..., "cylinder": ...} (max entrywise residuals).
    """
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.5, 2.0, n_points) * np.exp(1j * rng.uniform(-2.7, 2.7, n_points))
    lam = np.exp(1j * rng.uniform(-2.7, 2.7, n_points))

    def shifted(l):
        return alpha_of(p, l) + alpha_offset

    chain = gauge_transform(gauge_transform(
        make_bessel_potential(shifted), bessel_gauge_g1()), bessel_gauge_g2())
    full = gauge_transform(chain, lambda_gauge())

    alpha = alpha_of(p, lam)
    reduced = np.zeros((n_points, 2, 2), dtype=complex)
    reduced[:, 0, 1] = 1.0
    reduced[:, 1, 0] = -1.0 + (4.0 * alpha * alpha - 1.0) / (4.0 * z * z)

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

        k P_k + A P_k - P_k A = P_{k-2} N1,   P_0 = I, P_1 = 0

    (odd terms vanish; the series is entire).  Undoing the gauges gives
    the frame

        Phi(z) = z^A P(z) (a + b lambda)^{1/2} g2c^{-1} g1c(z)^{-1},

    and the constant right factor is folded into the returned
    coefficients C_j = P_2j (a + b lambda)^{1/2} g2c^{-1}, shape
    (terms, m, 2, 2).  Terms stop once rho_max^2j |P_2j| drops below
    eps times the largest term.

    Raises ValueError for r <= -3, where the eigenvalue gap 2 mu crosses
    an integer on the circle and the recurrence becomes resonant, and
    RuntimeError when the series has not converged within _MAX_TERMS terms.
    """
    if p.r <= -3.0:
        raise ValueError(
            "basepoint frame is resonant for r <= -3 "
            "(eigenvalue gap reaches an integer on the unit circle)")
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    a, b = delaunay_ab(p)
    A = delaunay_residue_matrix(DelaunayResidue(a, b), lam)     # (m, 2, 2)
    m = lam.shape[0]
    det = a + b * lam
    n1 = -lam / det                                  # the one nonzero entry of N1

    eye2 = np.eye(2)
    # ad_A as a 4x4 on row-major vec: A X - X A  ->  (A (x) I - I (x) A^T) x
    K = (np.einsum("mij,kl->mikjl", A, eye2) -
         np.einsum("ij,mkl->mikjl", eye2, np.transpose(A, (0, 2, 1)))).reshape(m, 4, 4)
    eye4 = np.eye(4)

    P = np.tile(np.eye(2, dtype=complex), (m, 1, 1))
    terms = [P]
    largest = scale = 1.0
    eps = np.finfo(float).eps
    for j in range(1, _MAX_TERMS):
        rhs = np.zeros_like(P)                       # P_{k-2} N1
        rhs[:, :, 0] = P[:, :, 1] * n1[:, None]
        P = np.linalg.solve(2 * j * eye4 + K, rhs.reshape(m, 4, 1)).reshape(m, 2, 2)
        scale *= rho_max * rho_max
        size = scale * float(np.abs(P).max())
        if size < eps * largest:
            break
        terms.append(P)
        largest = max(largest, size)
    else:
        raise RuntimeError(f"Frobenius series not converged within {_MAX_TERMS} "
                           f"terms at |z| = {rho_max}")

    right = np.zeros((m, 2, 2), dtype=complex)       # (a + b lambda)^{1/2} g2c^{-1}
    root = np.sqrt(det)
    right[:, 0, 0] = root
    right[:, 1, 0] = 0.5 * lam / root
    right[:, 1, 1] = 1.0 / root
    return _mul2(np.stack(terms), right)


def cylinder_basepoint_frame(p: CylinderParams, lam_points) -> np.ndarray:
    """Initial frame at z0 = 1 of the solution whose monodromy is -exp(2 pi i A).

    The Frobenius series of _frobenius_coefficients summed at z = 1:

        Phi0(lambda) = (a + b lambda)^{1/2} P(1) g2c(1)^{-1},

    with det Phi0 = 1.  Solutions started from this frame close around the
    puncture: their monodromy is the unitary loop -exp(2 pi i A), which the
    identity-seeded monodromy is only conjugate to.

    Raises for r <= -3, where the recurrence becomes resonant.
    """
    return _frobenius_coefficients(p, lam_points, 1.0).sum(axis=0)
