"""Sym-formula evaluation and CMC surface meshes.

The immersion is read off the unitary frames literally as
f = (d/d lambda F) F^-1 at lambda = 1 — no mean-curvature prefactor and no
rotational term — and identified with R^3 through the Pauli basis,
x_i = (1/2) Re tr(sigma_i f).  The resulting discrete mean curvature is
whatever this normalization produces; constancy is the meaningful check.

Frames are closed-form at every grid node: the Frobenius series of the
cylinder system times z^A in w = log z, continued to theta = 2 pi, so the
theta = 2 pi column lands back on theta = 0 up to the monodromy, which the
closing conditions turn into an honest seam.  The Runge-Kutta flow over a
spanning tree of the grid (_spanning_tree_frames) is kept as an
independent oracle for the series.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, DEFAULT_CONFIG
from .flow import _integrate_w_line
from .iwasawa import _check_grid, iwasawa_grid
from .loops import LambdaGrid, _adj, _dlambda_at_one, _inv2, _mul2
from .potentials import (
    CylinderParams,
    DelaunayResidue,
    _frobenius_coefficients,
    cylinder_basepoint_frame,  # noqa: F401  (the benchmark's tracer wraps it here)
    delaunay_ab,
    delaunay_residue_matrix,
    mu_eigenvalue,
)

__all__ = [
    "DomainGrid",
    "SurfaceMesh",
    "SymmetryReport",
    "build_surface",
    "delaunay_reference",
    "end_comparison",
    "reflection_symmetry_check",
    "mesh_from_grid",
    "series_frames",
]


# ---------------------------------------------------------------------------
# domain and mesh types

@dataclass(frozen=True)
class DomainGrid:
    """Annulus rho_min <= |z| <= rho_max sampled on a log-polar grid.

    Nodes are z_jk = exp(u_j + i theta_k) with u uniform in
    [log rho_min, log rho_max] (u()) and theta uniform in [0, 2 pi]
    (thetas(), n_angular + 1 values: the last one is theta = 2 pi, where
    the pipelines continue the frames once round before welding the
    seam).  The curvature statistics skip two rings at each end, so
    n_radial >= 5 leaves at least one interior ring.
    """

    rho_min: float
    rho_max: float
    n_radial: int = 128
    n_angular: int = 64

    def __post_init__(self) -> None:
        if not (0.0 < self.rho_min < self.rho_max):
            raise ValueError(
                f"need 0 < rho_min < rho_max, got ({self.rho_min}, {self.rho_max})")
        if self.n_radial < 5:
            raise ValueError("n_radial must be at least 5")
        if self.n_angular < 8:
            raise ValueError("n_angular must be at least 8")

    def u(self) -> np.ndarray:
        return np.linspace(np.log(self.rho_min), np.log(self.rho_max), self.n_radial)

    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_angular + 1) / self.n_angular


@dataclass(frozen=True)
class SurfaceMesh:
    """Grid-structured surface with welded angular seam.

    vertices, normals: (n_radial, n_angular, 3); faces: (F, 4) flat
    row-major vertex indices with angular wraparound.  H_stats holds the
    discrete mean-curvature statistics over interior vertices;
    diagnostics carries pipeline residuals (seam, factorization, Sym);
    it is empty for a mesh assembled directly from points.
    """

    vertices: np.ndarray
    faces: np.ndarray
    normals: np.ndarray
    H_stats: dict
    diagnostics: dict

    @property
    def n_radial(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_angular(self) -> int:
        return self.vertices.shape[1]

    def bbox_diagonal(self) -> float:
        v = self.vertices.reshape(-1, 3)
        return float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))


@dataclass(frozen=True)
class SymmetryReport:
    """Best reflection plane and how well the mesh respects it.

    fitted_plane: (unit normal, offset) with the plane {x . n = offset}.
    max_deviation is relative to the bounding-box diagonal.
    """

    fitted_plane: tuple[np.ndarray, float]
    max_deviation: float


# ---------------------------------------------------------------------------
# Sym formula

def _sym_points(frames: np.ndarray, grid: LambdaGrid):
    """Batched Sym evaluation.

    frames: (..., m, 2, 2) unitary samples; returns (points (..., 3),
    defect (...,)) where defect is the Hermitian-trace-free violation of
    (d_lambda F) F^-1 at lambda = 1.
    """
    f = _mul2(_dlambda_at_one(frames, grid), _inv2(frames[..., 0, :, :]))
    fstar = _adj(f)
    tr = f[..., 0, 0] + f[..., 1, 1]
    defect = np.abs(f - fstar).max(axis=(-2, -1)) + np.abs(tr)
    x1 = 0.5 * (f[..., 0, 1] + f[..., 1, 0]).real
    x2 = 0.5 * (f[..., 1, 0].imag - f[..., 0, 1].imag)
    x3 = 0.5 * (f[..., 0, 0] - f[..., 1, 1]).real
    return np.stack([x1, x2, x3], axis=-1), defect


# ---------------------------------------------------------------------------
# mesh assembly and discrete curvature

def _quad_faces(nr: int, na: int) -> np.ndarray:
    i, j = np.meshgrid(np.arange(nr - 1), np.arange(na), indexing="ij")
    jn = (j + 1) % na
    return np.stack(
        [i * na + j, (i + 1) * na + j, (i + 1) * na + jn, i * na + jn],
        axis=-1,
    ).reshape(-1, 4)


def _vertex_normals(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    flat = verts.reshape(-1, 3)
    q = flat[faces]                                      # (F, 4, 3)
    fn = np.cross(q[:, 3] - q[:, 1], q[:, 2] - q[:, 0])  # diagonal cross
    acc = np.zeros_like(flat)
    for c in range(4):
        np.add.at(acc, faces[:, c], fn)
    norm = np.linalg.norm(acc, axis=1)
    norm[norm < 1e-300] = 1.0
    return (acc / norm[:, None]).reshape(verts.shape)


def _curvature_stats(verts: np.ndarray, faces: np.ndarray, normals: np.ndarray,
                     nr: int, na: int) -> dict:
    """Cotangent-weight discrete mean curvature, H = (K . n)/2.

    K_i = (1/(2 A_i)) sum_j (cot a + cot b)(x_i - x_j) with barycentric
    vertex areas; statistics exclude the two outermost rings at each end.
    Triangles with area below 1e-14 are dropped and counted.
    """
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


def mesh_from_grid(points: np.ndarray, diagnostics: dict | None = None) -> SurfaceMesh:
    """Assemble a welded-seam quad mesh from an (n_radial, n_angular, 3) grid."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[2] != 3:
        raise ValueError("expected points of shape (n_radial, n_angular, 3)")
    if not np.all(np.isfinite(points)):
        bad = np.argwhere(~np.isfinite(points).all(axis=2))
        raise RuntimeError(f"non-finite vertices at grid nodes {bad[:8].tolist()}")
    nr, na = points.shape[:2]
    faces = _quad_faces(nr, na)
    normals = _vertex_normals(points, faces)
    stats = _curvature_stats(points, faces, normals, nr, na)
    return SurfaceMesh(points, faces, normals, stats, diagnostics or {})


# ---------------------------------------------------------------------------
# pipelines

def _frames_to_mesh(frames: np.ndarray, dom: DomainGrid, grid: LambdaGrid,
                    cfg: PipelineConfig) -> SurfaceMesh:
    """Shared tail of both pipelines: factorize, Sym, seam check, weld."""
    nth = dom.n_angular
    F, _, summary = iwasawa_grid(frames, grid, cfg)
    if summary["failed_nodes"]:
        coords = [(k // (nth + 1), k % (nth + 1)) for k in summary["failed_nodes"]]
        raise RuntimeError(f"Iwasawa factorization failed at grid nodes "
                           f"(radial, angular) = {coords[:8]}")
    pts, defect = _sym_points(F, grid)
    sym_defect = float(defect.max())
    if sym_defect > 1e-5:
        warnings.warn(f"Sym output defect {sym_defect:.2e}; frames inconsistent",
                      stacklevel=3)
    welded = pts[:, :nth]
    span = welded.reshape(-1, 3)
    diag = float(np.linalg.norm(span.max(axis=0) - span.min(axis=0)))
    seam = float(np.abs(pts[:, nth] - pts[:, 0]).max()) / max(diag, 1e-300)
    diagnostics = {
        "seam_residual": seam,
        "sym_defect": sym_defect,
        "iwasawa": summary,
    }
    return mesh_from_grid(welded, diagnostics)


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x, stable through x = 0."""
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)


def _exp_residue(w: np.ndarray, A: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """z^A = exp(w A) = cosh(w mu) I + w sinhc(w mu) A for trace-free A.

    w: (...) values of log z; A: (m, 2, 2) with eigenvalues +-mu (m,).
    Returns (..., m, 2, 2).
    """
    arg = w[..., None] * mu
    return (np.cosh(arg)[..., None, None] * np.eye(2)
            + (w[..., None] * _sinhc(arg))[..., None, None] * A)


def series_frames(p: CylinderParams, dom: DomainGrid, grid: LambdaGrid) -> np.ndarray:
    """Cylinder frames on every grid node from the Frobenius series.

        Phi(z) = (a + b lambda)^{1/2} z^A P(z) g2c^{-1} g1c(z)^{-1}

    with w = log z = u + i theta, z^A = exp(w A) and g1c(z)^{-1} =
    diag(e^{-w/2}, e^{w/2}).  P(z) times the constant right factor is one
    (n_angular + 1, terms) x (terms, 4m) product per ring.  Rings are
    built one at a time into the output.

    Returns (n_radial, n_angular + 1, m, 2, 2); the last angular slot is
    the theta = 2 pi continuation, -exp(2 pi i A) times the theta = 0 one.
    """
    lam = grid.points
    coeffs = _frobenius_coefficients(p, lam, dom.rho_max)
    flat = coeffs.reshape(len(coeffs), -1)                   # (terms, 4m)
    powers = 2.0 * np.arange(len(coeffs))
    res = DelaunayResidue(*delaunay_ab(p))
    A = delaunay_residue_matrix(res, lam)
    mu = mu_eigenvalue(res, lam)
    theta = dom.thetas()
    out = np.empty((dom.n_radial, dom.n_angular + 1, grid.m, 2, 2), dtype=complex)
    for i, u in enumerate(dom.u()):
        w = u + 1j * theta
        # einsum, not @: OpenBLAS splits a product this small over threads
        # and can then take ~16 ms per ring on 2 vCPUs instead of ~0.5 ms
        ring = np.einsum("kj,jc->kc", np.exp(np.outer(w, powers)), flat)
        ring = ring.reshape(-1, grid.m, 2, 2)
        out[i] = _mul2(_exp_residue(w, A, mu), ring)
        out[i, ..., 0] *= np.exp(-0.5 * w)[:, None, None]
        out[i, ..., 1] *= np.exp(0.5 * w)[:, None, None]
    return out


def build_surface(p: CylinderParams, dom: DomainGrid, grid: LambdaGrid,
                  cfg: PipelineConfig = DEFAULT_CONFIG) -> SurfaceMesh:
    """CMC cylinder surface for parameter r over the annulus grid.

    Frames are the closed-form series_frames, normalized like the
    basepoint family at z = 1 (which makes the monodromy the unitary loop
    -exp(2 pi i A), so the seam can close).  The theta = 2 pi column is a
    genuine analytic continuation and is compared against theta = 0
    before welding.  No ODE is integrated, so cfg.ode_tol plays no part.
    """
    _check_grid(grid, cfg)
    return _frames_to_mesh(series_frames(p, dom, grid), dom, grid, cfg)


def _spanning_tree_frames(xi, phi0: np.ndarray, dom: DomainGrid,
                          grid: LambdaGrid, cfg: PipelineConfig) -> np.ndarray:
    """Integrate frames over the grid: one angular sweep, then radial rays.

    The Runge-Kutta counterpart of series_frames, started from phi0 at
    z = 1; the tests use it as an independent oracle for the series.
    Returns (n_radial, n_angular + 1, m, 2, 2); the last angular slot is
    the theta = 2 pi continuation (not a copy of theta = 0).
    """
    nth = dom.n_angular
    lam = grid.points
    stations = np.arange(nth + 1) / nth
    sweep = _integrate_w_line(xi, lam, [0.0], [2j * np.pi], phi0[None],
                              cfg.ode_tol, stations=stations)[:, 0]
    theta = dom.thetas()
    u = dom.u()
    out = np.empty((dom.n_radial, nth + 1, grid.m, 2, 2), dtype=complex)

    at_one = np.isclose(u, 0.0, atol=1e-14)
    for i in np.flatnonzero(at_one):
        out[i] = sweep

    for rows in (np.flatnonzero((u < 0) & ~at_one)[::-1],   # descending toward 0
                 np.flatnonzero((u > 0) & ~at_one)):
        if rows.size == 0:
            continue
        u_far = u[rows[-1]]
        ss = u[rows] / u_far
        ray = _integrate_w_line(xi, lam, 1j * theta, u_far + 1j * theta,
                                sweep, cfg.ode_tol, stations=ss)
        for k, i in enumerate(rows):
            out[i] = ray[k]
    return out


def delaunay_reference(res: DelaunayResidue, dom: DomainGrid, grid: LambdaGrid,
                       cfg: PipelineConfig = DEFAULT_CONFIG) -> SurfaceMesh:
    """Delaunay surface of revolution from the pure residue potential.

    The flow for xi = A dz/z has the closed-form solution
    Phi = exp(w A) in w = log z (_exp_residue), so no ODE is needed;
    factorization and Sym are shared with build_surface.
    """
    _check_grid(grid, cfg)
    w = dom.u()[:, None] + 1j * dom.thetas()[None, :]
    frames = _exp_residue(w, delaunay_residue_matrix(res, grid.points),
                          mu_eigenvalue(res, grid.points))
    return _frames_to_mesh(frames, dom, grid, cfg)


# ---------------------------------------------------------------------------
# mesh diagnostics

def reflection_symmetry_check(mesh: SurfaceMesh) -> SymmetryReport:
    """Fit the best reflection plane pairing (u, theta) with (u, -theta).

    The plane normal is the dominant direction of the pair differences;
    the offset puts the plane through the pair midpoints.  Deviation is
    the worst |reflect(v(u, theta)) - v(u, -theta)| over the grid,
    relative to the bounding-box diagonal.
    """
    V = mesh.vertices
    na = mesh.n_angular
    pair = (-np.arange(na)) % na
    W = V[:, pair]
    D = (V - W).reshape(-1, 3)
    M = 0.5 * (V + W).reshape(-1, 3)
    _, _, vt = np.linalg.svd(D, full_matrices=False)
    normal = vt[0]
    offset = float(np.mean(M @ normal))
    reflected = V - 2.0 * ((V @ normal) - offset)[..., None] * normal
    scale = max(mesh.bbox_diagonal(), 1e-300)
    deviation = float(np.abs(reflected - W).max()) / scale
    return SymmetryReport((normal, offset), deviation)


def _axis_profile(mesh: SurfaceMesh, rows: np.ndarray | None = None):
    """Axial coordinate and ring radius against a PCA-fitted axis.

    rows restricts which radial rings participate (default: all).
    Returns (s per ring, mean radius per ring), s increasing with row
    index.  Raises when the rings are not tubular about a line.
    """
    V = mesh.vertices if rows is None else mesh.vertices[rows]
    centroids = V.mean(axis=1)
    c0 = centroids.mean(axis=0)
    X = centroids - c0
    _, sv, vt = np.linalg.svd(X, full_matrices=False)
    if sv[0] < 1e-12 or sv[1] > 0.2 * sv[0]:
        raise ValueError("axis fit failed: ring centroids not collinear "
                         f"(singular values {sv.tolist()})")
    d = vt[0]
    s = (V - c0) @ d                               # (rows, na)
    rho = np.linalg.norm((V - c0) - s[..., None] * d, axis=-1)
    s_ring = s.mean(axis=1)
    if s_ring[-1] < s_ring[0]:
        s_ring, rho = -s_ring, rho
    return s_ring, rho.mean(axis=1)


def _profile_period(s: np.ndarray, rho: np.ndarray) -> float | None:
    """Dominant oscillation period of a radial profile, via peak spacing."""
    inner = (rho[1:-1] > rho[:-2]) & (rho[1:-1] >= rho[2:])
    peaks = np.flatnonzero(inner) + 1
    if len(peaks) < 2:
        return None
    return float(np.median(np.diff(s[peaks])))


def end_comparison(cylinder: SurfaceMesh, reference: SurfaceMesh,
                   n_periods: int = 2) -> float:
    """Relative sup-deviation of end radial profiles (diagnostic).

    Both meshes are reduced to (axial coordinate, ring radius) against
    their own fitted axes, which removes the ambient rigid motion except
    for an axial shift; the shift is fitted by scanning.  The comparison
    window covers n_periods of the reference profile starting at the
    z -> 0 end (row 0).
    """
    s_ref, rho_ref = _axis_profile(reference)
    period = _profile_period(s_ref, rho_ref)
    nr = cylinder.n_radial
    # fit the cylinder's axis on the tubular end region only; the other
    # end is irregular and would drag the fit
    rows = np.arange(max(8, nr // 3))
    s_cyl, rho_cyl = _axis_profile(cylinder, rows)
    span = (n_periods * period) if period is not None else (s_ref[-1] - s_ref[0])
    window = np.abs(s_cyl - s_cyl[0]) <= span
    if window.sum() < 4:
        window = rows < max(4, nr // 4)
    sw, rw = s_cyl[window], rho_cyl[window]

    scale = float(np.abs(rho_ref).max())
    shifts = np.linspace(s_ref[0] - sw[0], s_ref[-1] - sw[-1], 241)
    best = np.inf
    for s0 in shifts:
        ref = np.interp(sw + s0, s_ref, rho_ref)
        best = min(best, float(np.abs(ref - rw).max()))
    return best / max(scale, 1e-300)
