"""Sym-formula evaluation and CMC surface meshes.

The immersion is read off the unitary frames literally as
f = (d/d lambda F) F^-1 at lambda = 1 — no mean-curvature prefactor and no
rotational term — and identified with R^3 through the Pauli basis,
x_i = (1/2) Re tr(sigma_i f).  The resulting discrete mean curvature is
whatever this normalization produces; constancy is the meaningful check.

Frames are closed-form: the Frobenius series of the cylinder system times
z^A in w = log z.  Both pipelines factor and Sym-evaluate only the columns
0 <= theta <= pi / 2 of an even grid (0 <= theta <= pi of an odd one); the
shared tail (_frames_to_mesh) places the others by the rigid motions that
the half turn w -> w + i pi and the reflection symmetry of the
real-coefficient potential (both derived in build_surface) induce on the
points.  series_frames continues the series over the whole grid; the
Runge-Kutta flow over a spanning tree of the grid (_spanning_tree_frames)
is kept as an independent oracle for it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, DEFAULT_CONFIG
from .flow import _integrate_w_line
from .iwasawa import _CHUNK, _check_grid, iwasawa_grid
from .loops import LambdaGrid, _adj, _dlambda_at_one, _exp2, _inv2, _mul2
from .potentials import (
    CylinderParams,
    DelaunayResidue,
    _frobenius_coefficients,
    cylinder_basepoint_frame,  # noqa: F401  (the benchmark's tracer wraps it here)
    delaunay_ab,
    delaunay_residue_matrix,
)

__all__ = [
    "DomainGrid",
    "SurfaceMesh",
    "SymmetryReport",
    "build_surface",
    "delaunay_reference",
    "end_distance",
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
    (thetas(), n_angular + 1 values: the last one is theta = 2 pi).  The
    pipelines factor the columns theta <= pi / 2 of an even grid (theta <=
    pi of an odd one) and place the others, the theta = 2 pi one included,
    by rigid motions of the points before welding the seam: the half turn
    and the reflection of build_surface, which map column k to k +
    n_angular / 2 and to n_angular - k.  The curvature statistics skip two
    rings at each end, so n_radial >= 5 leaves at least one interior ring.
    Both radii must be finite.
    """

    rho_min: float
    rho_max: float
    n_radial: int = 128
    n_angular: int = 64

    def __post_init__(self) -> None:
        if not (0.0 < self.rho_min < self.rho_max < np.inf):
            raise ValueError(
                f"need 0 < rho_min < rho_max, both finite, "
                f"got ({self.rho_min}, {self.rho_max})")
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

    vertices: (n_radial, n_angular, 3); faces: (F, 4) flat row-major
    vertex indices with angular wraparound.  H_stats holds the discrete
    mean-curvature statistics over interior vertices;
    diagnostics carries pipeline residuals (seam, factorization, Sym);
    it is empty for a mesh assembled directly from points.
    """

    vertices: np.ndarray
    faces: np.ndarray
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
    at = faces.T.ravel()                                 # corner by corner
    acc = np.stack([np.bincount(at, np.tile(fn[:, k], 4), len(flat))
                    for k in range(3)], axis=1)
    norm = np.linalg.norm(acc, axis=1)
    norm[norm < 1e-300] = 1.0
    return (acc / norm[:, None]).reshape(verts.shape)


def _curvature_stats(verts: np.ndarray, faces: np.ndarray, normals: np.ndarray,
                     nr: int, na: int) -> dict:
    """Cotangent-weight discrete mean curvature, H = (K . n)/2.

    K_i = (1/(2 A_i)) sum_j (cot a + cot b)(x_i - x_j) with barycentric
    vertex areas; statistics exclude the two outermost rings at each end.
    Triangles with area below 1e-14 are dropped and counted.  Each
    scatter is one np.bincount per component, whose (index, weight) pairs
    are concatenated corner by corner: every vertex sums its terms from
    0.0 in that order, the order of one np.add.at call per corner.
    """
    flat = verts.reshape(-1, 3)
    nrm = normals.reshape(-1, 3)
    tris = np.concatenate([faces[:, [0, 1, 2]], faces[:, [0, 2, 3]]])
    p = flat[tris]
    area2 = np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    good = area2 >= 2e-14
    degenerate = int((~good).sum())
    tris, p, area2 = tris[good], p[good], area2[good]

    # corner c weighs the edge from its next corner a to the one after, b,
    # by its cotangent: K_a gains cot (x_a - x_b), K_b loses as much
    cot = np.empty((3, len(tris)))
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        cot[c] = np.einsum("ij,ij->i", p[:, a] - p[:, c], p[:, b] - p[:, c]) / area2
    del p                                         # the scatters' buffers reuse it
    A = np.bincount(tris.T.ravel(), np.tile(area2 / 6.0, 3), len(flat))
    at = tris.T[[1, 2, 2, 0, 0, 1]].ravel()       # (a, b) of corners 0, 1, 2
    K = np.empty_like(flat)
    d = np.empty((3, 2, len(tris)))
    for k in range(3):                            # one component at a time
        x = flat[:, k][tris.T]
        for c in range(3):
            np.multiply(cot[c], x[(c + 1) % 3] - x[(c + 2) % 3], out=d[c, 0])
            np.negative(d[c, 0], out=d[c, 1])
        K[:, k] = np.bincount(at, d.ravel(), len(flat))
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
    if points.shape[0] < 5:
        # the curvature statistics skip two rings at each end
        raise ValueError(f"need at least 5 rings, got {points.shape[0]}")
    if points.shape[1] < 3:
        # one or two columns close into quads that fold onto themselves
        raise ValueError(f"need at least 3 angular columns, got {points.shape[1]}")
    if not np.all(np.isfinite(points)):
        bad = np.argwhere(~np.isfinite(points).all(axis=2))
        raise RuntimeError(f"non-finite vertices at grid nodes {bad[:8].tolist()}")
    nr, na = points.shape[:2]
    faces = _quad_faces(nr, na)
    stats = _curvature_stats(points, faces, _vertex_normals(points, faces), nr, na)
    return SurfaceMesh(points, faces, stats, diagnostics or {})


# ---------------------------------------------------------------------------
# pipelines

def _factored_columns(n_angular: int) -> int:
    """How many columns theta_0, theta_1, ... the pipelines factor and
    Sym-evaluate: those with theta <= pi / 2 for even n_angular, those
    with theta <= pi for odd (see DomainGrid)."""
    return n_angular // 4 + 1 if n_angular % 2 == 0 else n_angular // 2 + 1


def _frames_to_mesh(frames, A: np.ndarray, dom: DomainGrid, grid: LambdaGrid,
                    parts: list[dict]) -> SurfaceMesh:
    """Shared tail of both pipelines: Sym, rigid motions, defect warning,
    seam, weld.

    frames(lo, hi): (hi - lo, c, m, 2, 2) unitary factors of rings lo ..
    hi - 1 on the c = _factored_columns(n_angular) columns theta_0 ..
    theta_{c-1}, the only ones Sym sees.  A block holds at most _CHUNK
    nodes, so the frames and Sym's temporaries do not grow with n_radial,
    and at m <= 128 every array stays under the 4 MiB at which numpy asks
    the kernel for transparent huge pages (those made the peak memory of
    one run differ from the next).

    A: the (m, 2, 2) residue.  Its half turn U = exp(i pi A) is a unitary
    loop with U(1) = i sigma_x, and F(u, theta + pi) = U F(u, theta) D for
    a constant D (derived in build_surface).  Sym of U F D is Sym(U) +
    U(1) f U(1)^-1, and conjugation by i sigma_x is the rotation R_x:
    (x1, x2, x3) -> (x1, -x2, -x3), so column k + n_angular / 2 sits at
    R_x P_k + Sym(U).  The monodromy is M = +-U^2
    (a constant sign drops out of Sym), so Sym(M) = Sym(U) + R_x Sym(U),
    and F(u, 2 pi - theta) = M conj F(u, theta)(conj lambda) places
    column n_angular - k at (x1, -x2, x3) + Sym(M) from column k (conj
    negates x2).  Composing the two, column n_angular / 2 - k sits at
    (x1, x2, -x3) + (s1, -s2, s3) + Sym(M) from column k, s = Sym(U);
    that fills the columns c .. n_angular // 2 of an even grid, and the
    reflection fills the rest.  Every placed column has the Sym defect of
    its source.  x2 vanishes at theta = 0, so the seam reads |Sym(M)|: the
    closing condition M'(1) = 0 plus roundoff.  parts: the summaries of
    failure-free iwasawa_grid calls, complete once every block is built
    (frames may append to it); their merge goes into the diagnostics.
    """
    nth = dom.n_angular
    half, cols = nth // 2 + 1, _factored_columns(nth)
    pts, defect = np.empty((dom.n_radial, nth + 1, 3)), np.empty((dom.n_radial, cols))
    rows = max(1, _CHUNK // cols)
    for lo in range(0, dom.n_radial, rows):
        hi = min(lo + rows, dom.n_radial)
        pts[lo:hi, :cols], defect[lo:hi] = _sym_points(frames(lo, hi), grid)
    turn, _ = _sym_points(_exp2(np.array(1j * np.pi), A), grid)
    shift = turn + turn * (1.0, -1.0, -1.0)                 # Sym(M)
    src = nth // 2 - np.arange(cols, half)                  # empty for odd nth
    pts[:, cols:half] = pts[:, src] * (1.0, 1.0, -1.0) + turn * (1.0, -1.0, 1.0) + shift
    pts[:, half:] = pts[:, nth - half::-1] * (1.0, -1.0, 1.0) + shift
    sym_defect = float(defect.max())
    if sym_defect > 1e-5:
        warnings.warn(f"Sym output defect {sym_defect:.2e}; frames inconsistent",
                      stacklevel=3)
    welded = pts[:, :nth]
    span = welded.reshape(-1, 3)
    diag = float(np.linalg.norm(span.max(axis=0) - span.min(axis=0)))
    seam = float(np.abs(pts[:, nth] - pts[:, 0]).max()) / max(diag, 1e-300)
    nodes = sum(s["nodes"] for s in parts)
    summary = {
        "nodes": nodes, "failed_nodes": [],
        "unitarity_mean": sum(s["unitarity_mean"] * s["nodes"] for s in parts) / nodes,
        **{k: float(np.max([s[k] for s in parts])) for k in parts[0] if k.endswith("_max")}}
    diagnostics = {
        "seam_residual": seam,
        "sym_defect": sym_defect,
        "iwasawa": summary,
    }
    return mesh_from_grid(welded, diagnostics)


def _series_columns(p: CylinderParams, dom: DomainGrid, grid: LambdaGrid,
                    theta: np.ndarray):
    """series_frames on the angular columns theta, a block of rings at a time.

    Returns rings(lo, hi), the frames of rings lo .. hi - 1, shape
    (hi - lo, columns, m, 2, 2).  P(z) times the constant right factor is
    one (columns, terms) x (terms, 4m) product per ring.
    """
    lam = grid.points
    coeffs = _frobenius_coefficients(p, lam, dom.rho_max)
    flat = coeffs.reshape(len(coeffs), -1)                   # (terms, 4m)
    powers = 2.0 * np.arange(len(coeffs))
    A = delaunay_residue_matrix(DelaunayResidue(*delaunay_ab(p)), lam)

    def rings(lo: int, hi: int) -> np.ndarray:
        out = np.empty((hi - lo, len(theta), grid.m, 2, 2), dtype=complex)
        for i, u in enumerate(dom.u()[lo:hi]):
            w = u + 1j * theta
            # einsum, not @: OpenBLAS splits a product this small over threads
            # and can then take ~16 ms per ring on 2 vCPUs instead of ~0.5 ms
            ring = np.einsum("kj,jc->kc", np.exp(np.outer(w, powers)), flat)
            ring = ring.reshape(-1, grid.m, 2, 2)
            out[i] = _mul2(_exp2(w, A), ring)
            out[i, ..., 0] *= np.exp(-0.5 * w)[:, None, None]
            out[i, ..., 1] *= np.exp(0.5 * w)[:, None, None]
        return out
    return rings


def series_frames(p: CylinderParams, dom: DomainGrid, grid: LambdaGrid) -> np.ndarray:
    """Cylinder frames on every grid node from the Frobenius series.

        Phi(z) = (a + b lambda)^{1/2} z^A P(z) g2c^{-1} g1c(z)^{-1}

    with w = log z = u + i theta, z^A = exp(w A) and g1c(z)^{-1} =
    diag(e^{-w/2}, e^{w/2}).

    Returns (n_radial, n_angular + 1, m, 2, 2); the last angular slot is
    the theta = 2 pi continuation, -exp(2 pi i A) times the theta = 0 one.
    """
    return _series_columns(p, dom, grid, dom.thetas())(0, dom.n_radial)


def build_surface(p: CylinderParams, dom: DomainGrid, grid: LambdaGrid,
                  cfg: PipelineConfig = DEFAULT_CONFIG) -> SurfaceMesh:
    """CMC cylinder surface for parameter r over the annulus grid.

    Frames are the closed-form series frames, normalized like the
    basepoint family at z = 1 (which makes the monodromy the unitary loop
    M = -exp(2 pi i A), with M(1) = I).  Only the columns theta_k,
    k < _factored_columns(n_angular), are built, factored and
    Sym-evaluated: k = 0 .. n_angular // 4 for even n_angular,
    k = 0 .. n_angular // 2 for odd.  Two symmetries of the frames place
    the rest.  Both rest on the uniqueness of the normalized Iwasawa
    splitting (Pressley & Segal, Loop Groups, 1986; Dorfmeister, Pedit &
    Wu, Comm. Anal. Geom. 6, 1998): if Phi' = U Phi D with U a unitary
    loop and D a constant diagonal unitary, then Phi' = (U F D)(D^-1 B D)
    is again a normalized splitting, so F' = U F D.

    The reflection.  The potential has real coefficients in lambda, so
    on |lambda| = 1 Phi(u, -theta)(lambda) = conj Phi(u, theta)(conj
    lambda); conj X(conj lambda) maps unitary loops and normalized plus
    loops to themselves, so F(u, -theta) = conj F(u, theta)(conj lambda).
    One turn multiplies on the left by the unitary M, hence

        F(u, 2 pi - theta) = M conj F(u, theta)(conj lambda).

    The half turn, w -> w + i pi, in three steps: P(z) is even in z, since
    the series has even powers only; z^A = exp(w A) becomes exp(i pi A)
    z^A; and g1c(z)^-1 = diag(e^{-w/2}, e^{w/2}) becomes g1c(z)^-1 D with
    D = diag(-i, i).  For real a, b the residue A is Hermitian on
    |lambda| = 1, so U = exp(i pi A) is a unitary loop, and

        F(u, theta + pi) = U F(u, theta) D.

    _frames_to_mesh places the other columns, the theta = 2 pi one
    included, by the rigid motions these induce on the Sym points.
    Building, factoring and Sym run one block of rings at a time; the
    first block with a failed node raises, naming its nodes.  No ODE is
    integrated, so cfg.ode_tol plays no part.
    """
    _check_grid(grid, cfg)
    cols = _factored_columns(dom.n_angular)
    series = _series_columns(p, dom, grid, dom.thetas()[:cols])
    A = delaunay_residue_matrix(DelaunayResidue(*delaunay_ab(p)), grid.points)
    parts = []

    def frames(lo: int, hi: int) -> np.ndarray:
        F, _, part = iwasawa_grid(series(lo, hi), grid, cfg)
        if part["failed_nodes"]:
            coords = [divmod(k + lo * cols, cols) for k in part["failed_nodes"]]
            raise RuntimeError(f"Iwasawa factorization failed at grid nodes "
                               f"(radial, angular) = {coords[:8]}")
        parts.append(part)
        return F

    return _frames_to_mesh(frames, A, dom, grid, parts)


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

    The flow for xi = A dz/z has the closed-form solution Phi = exp(w A)
    in w = log z = u + i theta (loops._exp2), so no ODE is needed, and
    it splits as exp(i theta A) exp(u A).  For real a, b the residue
    A(lambda) is Hermitian on |lambda| = 1, so exp(i theta A) is a
    unitary loop.  The normalized Iwasawa splitting is unique (Pressley &
    Segal, Loop Groups, 1986; Dorfmeister, Pedit & Wu, Comm. Anal. Geom.
    6, 1998), so exp(u A) = F0 B0 gives Phi = (exp(i theta A) F0) B0 with
    the same B0 on the whole ring.  Only the theta = 0 node of each ring
    is factored, and the turn exp(i theta A) is formed on the columns
    _frames_to_mesh Sym-evaluates only.  The half turn and the reflection
    of build_surface hold here with D = I and M = U^2 = exp(2 pi i A), so
    the tail places the other columns as for the cylinder.
    """
    _check_grid(grid, cfg)
    A = delaunay_residue_matrix(res, grid.points)
    F0, _, summary = iwasawa_grid(_exp2(dom.u(), A), grid, cfg)
    if summary["failed_nodes"]:
        raise RuntimeError(f"Iwasawa factorization failed at reference rings "
                           f"(radial) = {summary['failed_nodes'][:8]}")
    turn = _exp2(1j * dom.thetas()[:_factored_columns(dom.n_angular)], A)
    return _frames_to_mesh(lambda lo, hi: _mul2(turn[None], F0[lo:hi, None]),
                           A, dom, grid, [summary])


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


def end_distance(cylinder: SurfaceMesh, reference: SurfaceMesh) -> np.ndarray:
    """Per-ring distance between a cylinder and its Delaunay reference.

    Both pipelines share one normalization: Phi_cyl = z^A P(z) times right
    factors that leave F unchanged, with P = I + O(z^2), so on the same
    DomainGrid the two vertices at each node (u, theta) approach each
    other as |z| -> 0 with no rigid fit.  Returns, for each ring, the max
    over theta of |v_cyl - v_ref| relative to the cylinder's bounding-box
    diagonal; shape (n_radial,).
    """
    if cylinder.vertices.shape != reference.vertices.shape:
        raise ValueError(f"vertex grids differ: {cylinder.vertices.shape} "
                         f"vs {reference.vertices.shape}")
    gap = np.linalg.norm(cylinder.vertices - reference.vertices, axis=-1)
    return gap.max(axis=1) / cylinder.bbox_diagonal()
