"""Test-only constructions that the package itself never calls."""

import math

import numpy as np

from besselcmc import (DelaunayResidue, PathSpec, PipelineConfig, closing_report,
                       delaunay_residue_matrix, integrate_frame)
from besselcmc.loops import _chol2_entries, _mat2
from besselcmc.potentials import PotentialSpec


def chol2(h: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a stack of Hermitian 2x2 matrices.

    Reads the lower triangle only, as LAPACK does.  Raises LinAlgError
    unless every matrix is positive definite (a NaN pivot counts as not
    positive).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        l00, l10, l11 = _chol2_entries(h[..., 0, 0].real, h[..., 1, 0], h[..., 1, 1].real)
    if not ((l00 > 0).all() and (l11 > 0).all()):
        raise np.linalg.LinAlgError("2x2 matrix not positive definite")
    return _mat2(l00, 0, l10, l11)


def radial(z_from: float, z_to: float) -> PathSpec:
    """Ray along the positive real axis between radii z_from and z_to."""
    return PathSpec(math.log(z_from), math.log(z_to))


def circle() -> PathSpec:
    """One counterclockwise circuit of |z| = 1 from z = 1."""
    return PathSpec(0.0, 2j * np.pi)


def full_circuit_monodromy(xi: PotentialSpec, grid, cfg: PipelineConfig,
                           frame0=None, res: DelaunayResidue | None = None):
    """flow.monodromy's (M, report) from a whole circuit, without the half
    turn: M = Phi(2 pi i) Phi(0)^-1 for any potential."""
    phi0 = np.broadcast_to(np.eye(2, dtype=complex) if frame0 is None else frame0,
                           (grid.m, 2, 2))
    M = integrate_frame(xi, circle(), phi0, grid, cfg) @ np.linalg.inv(phi0)
    return M, closing_report(M, grid, res)


def make_delaunay_potential(res: DelaunayResidue) -> PotentialSpec:
    """Pure residue potential A(lambda) dz/z; its w-chart coefficient A is
    constant, so the half turn is I."""

    def evaluate(z, lam):
        return delaunay_residue_matrix(res, lam) / z[..., None, None]

    return PotentialSpec(evaluate, f"delaunay(a={res.a}, b={res.b})",
                         np.eye(2, dtype=complex))
