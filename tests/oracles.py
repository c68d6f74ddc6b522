"""Test-only constructions that the package itself never calls."""

import math

from besselcmc import DelaunayResidue, PathSpec, delaunay_residue_matrix
from besselcmc.potentials import PotentialSpec


def radial(z_from: float, z_to: float) -> PathSpec:
    """Ray along the positive real axis between radii z_from and z_to."""
    return PathSpec(math.log(z_from), math.log(z_to))


def make_delaunay_potential(res: DelaunayResidue) -> PotentialSpec:
    """Pure residue potential A(lambda) dz/z."""

    def evaluate(z, lam):
        return delaunay_residue_matrix(res, lam) / z[..., None, None]

    return PotentialSpec(evaluate, (0j,), f"delaunay(a={res.a}, b={res.b})")
