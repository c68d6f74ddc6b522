"""Test-only constructions that the package itself never calls."""

import math

import numpy as np

from besselcmc import (DelaunayResidue, PathSpec, PipelineConfig, closing_report,
                       delaunay_residue_matrix, integrate_frame)
from besselcmc.loops import _chol2_entries, _det2, _mat2
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


def fresh_epilogue(phi: np.ndarray, bk: np.ndarray, m: int):
    """(F, B's samples) from B's coefficient planes bk, (nodes, 2, 2, nsec):
    one inverse FFT, then F = Phi adj(B) / det B in a new stack, where
    factor_samples writes F into its work buffer."""
    bs = np.fft.ifft(bk, n=m, norm="forward").transpose(0, 3, 1, 2)
    r = 1.0 / _det2(bs)
    f = _mat2((phi[..., 0, 0] * bs[..., 1, 1] - phi[..., 0, 1] * bs[..., 1, 0]) * r,
              (phi[..., 0, 1] * bs[..., 0, 0] - phi[..., 0, 0] * bs[..., 0, 1]) * r,
              (phi[..., 1, 0] * bs[..., 1, 1] - phi[..., 1, 1] * bs[..., 1, 0]) * r,
              (phi[..., 1, 1] * bs[..., 0, 0] - phi[..., 1, 0] * bs[..., 0, 1]) * r)
    return f, bs


def reconstruction_full_pass(f: np.ndarray, bs: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Per-node max |F B - Phi| over the samples of every node, one entry
    plane at a time: iwasawa._reconstruction run on all nodes rather than
    the one iwasawa_grid reads.  NaN on the nodes that did not factor."""
    dev = np.zeros(phi.shape[:-2])
    for i in range(2):
        for j in range(2):
            np.maximum(dev, np.abs(f[..., i, 0] * bs[..., 0, j]
                                   + f[..., i, 1] * bs[..., 1, j] - phi[..., i, j]),
                       out=dev)
    return dev.max(axis=1)


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
        A = delaunay_residue_matrix(res, lam)
        return A[..., 0, 1] / z, A[..., 1, 0] / z

    return PotentialSpec(evaluate, f"delaunay(a={res.a}, b={res.b})",
                         np.eye(2, dtype=complex))


def vertex_normals_add_at(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """surface._vertex_normals with one np.add.at scatter per corner."""
    flat = verts.reshape(-1, 3)
    q = flat[faces]
    fn = np.cross(q[:, 3] - q[:, 1], q[:, 2] - q[:, 0])
    acc = np.zeros_like(flat)
    for c in range(4):
        np.add.at(acc, faces[:, c], fn)
    norm = np.linalg.norm(acc, axis=1)
    norm[norm < 1e-300] = 1.0
    return (acc / norm[:, None]).reshape(verts.shape)


def curvature_stats_add_at(verts: np.ndarray, faces: np.ndarray, normals: np.ndarray,
                           nr: int, na: int) -> dict:
    """surface._curvature_stats with three np.add.at scatters per corner."""
    flat = verts.reshape(-1, 3)
    nrm = normals.reshape(-1, 3)
    tris = np.concatenate([faces[:, [0, 1, 2]], faces[:, [0, 2, 3]]])
    p = flat[tris]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    area2 = np.linalg.norm(cross, axis=1)
    good = area2 >= 2e-14
    degenerate = int((~good).sum())
    tris, p, area2 = tris[good], p[good], area2[good]

    K = np.zeros_like(flat)
    A = np.zeros(len(flat))
    for c in range(3):
        ja, jb = tris[:, (c + 1) % 3], tris[:, (c + 2) % 3]
        e1 = p[:, (c + 1) % 3] - p[:, c]
        e2 = p[:, (c + 2) % 3] - p[:, c]
        cot = np.einsum("ij,ij->i", e1, e2) / area2
        d = cot[:, None] * (p[:, (c + 1) % 3] - p[:, (c + 2) % 3])
        np.add.at(K, ja, d)
        np.add.at(K, jb, -d)
        np.add.at(A, tris[:, c], area2 / 6.0)
    A[A < 1e-300] = 1.0
    K /= (2.0 * A)[:, None]
    H = 0.5 * np.einsum("ij,ij->i", K, nrm)

    interior = np.zeros(len(flat), dtype=bool)
    interior.reshape(nr, na)[2 : nr - 2, :] = True
    vals = H[interior]
    return {
        "mean": float(vals.mean()),
        "stddev": float(vals.std()),
        "interior_vertices": int(interior.sum()),
        "degenerate_triangles": degenerate,
    }
