"""Sym evaluation, mesh pipelines, reference surfaces, and diagnostics."""

import tracemalloc
import weakref

import numpy as np
import pytest

from besselcmc import (
    CylinderParams,
    DelaunayResidue,
    DomainGrid,
    LambdaGrid,
    PipelineConfig,
    SurfaceMesh,
    build_surface,
    cylinder_basepoint_frame,
    delaunay_ab,
    delaunay_reference,
    delaunay_residue_matrix,
    end_distance,
    iwasawa_grid,
    make_cylinder_potential,
    mesh_from_grid,
    reflection_symmetry_check,
    series_frames,
)
import besselcmc.flow as flow
import besselcmc.iwasawa as iwasawa
import besselcmc.loops as loops
import besselcmc.potentials as potentials
import besselcmc.surface as surface
from besselcmc.iwasawa import _blocks, _node_bytes
from besselcmc.loops import _mul2
from oracles import curvature_stats_add_at, vertex_normals_add_at

CFG = PipelineConfig(fourier_degree=16, lambda_samples=64)
GRID = LambdaGrid(64)

SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]])


# -------------------------------------------------------------- Sym formula


def test_constant_frame_maps_to_origin():
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]], dtype=complex)
    fam = np.tile(u, (GRID.m, 1, 1))
    pt, defect = surface._sym_points(fam, GRID)
    assert defect <= 1e-5
    assert np.abs(pt).max() < 1e-14


def unitary_axis_family(grid=GRID):
    """F(lam) = exp((lam - 1/lam) sigma2/2): unitary, f(1) = sigma2."""
    th = 2.0 * np.pi * np.arange(grid.m) / grid.m
    s = np.sin(th)
    return (np.cos(s)[:, None, None] * np.eye(2)
            + 1j * np.sin(s)[:, None, None] * SIGMA2)


def hermitian_axis_family(grid=GRID):
    """F(lam) = exp((lam - 1/lam) K), K = [[0,1],[-1,0]]/2 = i sigma2/2.

    On the circle the exponent is -sin(theta) sigma2, which is Hermitian,
    so this family is positive definite rather than unitary; its
    lambda-derivative at 1 is still exactly 2K.
    """
    th = 2.0 * np.pi * np.arange(grid.m) / grid.m
    s = np.sin(th)
    return (np.cosh(s)[:, None, None] * np.eye(2)
            - np.sinh(s)[:, None, None] * SIGMA2)


def spectral_sym_matrix(fam, grid):
    hat = np.fft.fft(fam, axis=0) / grid.m
    k = grid.wavenumbers().astype(float)
    dF1 = np.einsum("k,kab->ab", k, hat)
    return dF1 @ np.linalg.inv(fam[0])


def test_unitary_family_maps_to_axis_point():
    pt, defect = surface._sym_points(unitary_axis_family(), GRID)
    assert defect <= 1e-5
    assert np.abs(pt - np.array([0.0, 1.0, 0.0])).max() < 1e-8


def test_spectral_derivative_matches_closed_form():
    # d_lambda exp((lam - 1/lam) K) at lam = 1 is 2K for commuting exponents
    K = np.array([[0.0, 1.0], [-1.0, 0.0]]) / 2.0
    f = spectral_sym_matrix(hermitian_axis_family(), GRID)
    assert np.abs(f - 2.0 * K).max() < 1e-8
    # formal Pauli coefficients: everything sits on the sigma2 axis
    sig = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                   dtype=complex)
    c = 0.5 * np.einsum("iab,ba->i", sig, f)
    assert abs(c[1] - 1j) < 1e-8
    assert abs(c[0]) < 1e-8 and abs(c[2]) < 1e-8


def test_nonunitary_family_is_flagged():
    pt, defect = surface._sym_points(hermitian_axis_family(), GRID)
    assert defect > 1e-5
    # the Hermitian projection of an anti-Hermitian matrix is empty
    assert np.abs(pt).max() < 1e-8


def test_spectral_matches_finite_differences():
    # same family evaluated off-grid for a centered difference in theta;
    # d_lambda = -i d_theta at lambda = 1
    h = 1e-4

    def closed(th):
        s = np.sin(th)
        return np.cos(s) * np.eye(2) + 1j * np.sin(s) * SIGMA2

    fd = -1j * (closed(h) - closed(-h)) / (2.0 * h)
    spec = spectral_sym_matrix(unitary_axis_family(), GRID)
    assert np.abs(spec - fd @ np.linalg.inv(closed(0.0))).max() < 1e-8


# ------------------------------------------------------------ mesh assembly


def test_mesh_validation():
    with pytest.raises(ValueError):
        mesh_from_grid(np.zeros((4, 8)))
    with pytest.raises(ValueError):           # no interior ring for H_stats
        mesh_from_grid(np.random.default_rng(0).normal(size=(4, 8, 3)))
    for na in (1, 2):                         # quads that fold onto themselves
        with pytest.raises(ValueError, match=f"angular columns, got {na}"):
            mesh_from_grid(np.random.default_rng(0).normal(size=(6, na, 3)))
    pts = np.random.default_rng(0).normal(size=(6, 8, 3))
    pts[2, 3, 1] = np.nan
    with pytest.raises(RuntimeError):
        mesh_from_grid(pts)


def test_face_counts_and_wraparound():
    rng = np.random.default_rng(1)
    mesh = mesh_from_grid(rng.normal(size=(5, 8, 3)))
    assert mesh.faces.shape == (4 * 8, 4)
    assert mesh.faces.min() == 0 and mesh.faces.max() == 5 * 8 - 1
    # first quad spans rows 0-1, columns 0-1
    assert mesh.faces[0].tolist() == [0, 8, 9, 1]
    # seam quad wraps back to column 0
    assert mesh.faces[7].tolist() == [7, 15, 8, 0]


def test_curvature_of_round_cylinder():
    u = np.linspace(0.0, 4.0, 64)
    th = 2.0 * np.pi * np.arange(64) / 64
    V = np.empty((64, 64, 3))
    V[..., 0] = np.cos(th)[None, :]
    V[..., 1] = np.sin(th)[None, :]
    V[..., 2] = u[:, None]
    stats = mesh_from_grid(V).H_stats
    assert abs(stats["mean"] - 0.5) <= 0.01
    assert stats["stddev"] < 1e-10
    assert stats["degenerate_triangles"] == 0


def test_curvature_of_unit_sphere():
    # latitude descending so the grid orientation gives outward normals
    ph = np.linspace(0.85 * np.pi, 0.15 * np.pi, 64)
    th = 2.0 * np.pi * np.arange(64) / 64
    V = np.empty((64, 64, 3))
    V[..., 0] = np.sin(ph)[:, None] * np.cos(th)[None, :]
    V[..., 1] = np.sin(ph)[:, None] * np.sin(th)[None, :]
    V[..., 2] = np.cos(ph)[:, None]
    stats = mesh_from_grid(V).H_stats
    assert abs(stats["mean"] - 1.0) <= 0.02
    assert stats["stddev"] / abs(stats["mean"]) < 0.02


@pytest.mark.parametrize("r, n_radial, n_angular", [
    (-0.25, 8, 8), (-0.25, 8, 9), (-0.25, 8, 10),   # the CI generate grids
    (-0.3, 96, 48),                                 # the benchmark's generate grid
])
def test_mesh_scatters_match_add_at(r, n_radial, n_angular):
    # one bincount per component sums each vertex's terms in np.add.at's order
    mesh = build_surface(CylinderParams(r), DomainGrid(0.3, 3.0, n_radial, n_angular),
                         LambdaGrid(32), PipelineConfig(8, 32))
    normals = vertex_normals_add_at(mesh.vertices, mesh.faces)
    assert np.array_equal(surface._vertex_normals(mesh.vertices, mesh.faces), normals)
    assert mesh.H_stats == curvature_stats_add_at(mesh.vertices, mesh.faces, normals,
                                                  n_radial, n_angular)


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainGrid(1.0, 1.0)
    with pytest.raises(ValueError):
        DomainGrid(0.0, 1.0)
    with pytest.raises(ValueError):
        DomainGrid(0.1, np.inf)
    with pytest.raises(ValueError):
        DomainGrid(0.5, 2.0, n_radial=3)
    with pytest.raises(ValueError):
        DomainGrid(0.5, 2.0, n_radial=4)   # no ring left inside the H statistics
    with pytest.raises(ValueError):
        DomainGrid(0.5, 2.0, n_angular=4)


@pytest.mark.parametrize("pipeline", ["cylinder", "delaunay"])
def test_lambda_grid_too_small_rejected_before_frames(pipeline, monkeypatch):
    def no_frames(*args, **kwargs):
        raise AssertionError("frames built for a grid the degree cannot use")

    monkeypatch.setattr(surface, "_series_columns", no_frames)
    monkeypatch.setattr(surface, "delaunay_residue_matrix", no_frames)
    small, cfg = LambdaGrid(8), PipelineConfig(8, 32)   # degree 8 needs 18 samples
    dom = DomainGrid(0.5, 2.0, 8, 8)
    with pytest.raises(ValueError, match="lambda samples"):
        if pipeline == "cylinder":
            build_surface(CylinderParams(1 / 3), dom, small, cfg)
        else:
            delaunay_reference(DelaunayResidue(0.375, 0.125), dom, small, cfg)


@pytest.mark.parametrize("pipeline", ["cylinder", "delaunay"])
def test_lambda_grid_not_the_configured_size_rejected(pipeline, monkeypatch):
    def no_frames(*args, **kwargs):
        raise AssertionError("frames built on a grid the config does not name")

    monkeypatch.setattr(surface, "_series_columns", no_frames)
    monkeypatch.setattr(surface, "delaunay_residue_matrix", no_frames)
    big, cfg = LambdaGrid(64), PipelineConfig(8, 32)
    dom = DomainGrid(0.5, 2.0, 8, 8)
    with pytest.raises(ValueError, match="lambda_samples=32"):
        if pipeline == "cylinder":
            build_surface(CylinderParams(1 / 3), dom, big, cfg)
        else:
            delaunay_reference(DelaunayResidue(0.375, 0.125), dom, big, cfg)


# ------------------------------------------------------------- series frames

SERIES_GRID = LambdaGrid(32)
SERIES_R = (1 / 3, -0.25, -2.9, 0.9)


def ring_relative(a, b):
    """Per-ring max |a - b| over the ring's largest entry of b."""
    n = b.shape[0]
    return (np.abs(a - b).reshape(n, -1).max(axis=1)
            / np.abs(b).reshape(n, -1).max(axis=1))


@pytest.mark.parametrize("tol, bound", [(1e-10, 1e-9), (1e-13, 1e-12)])
@pytest.mark.parametrize("r", SERIES_R)
@pytest.mark.parametrize("annulus", [(0.3, 3.0), (0.1, 5.0)])
def test_series_frames_match_the_ode(annulus, r, tol, bound):
    # the Runge-Kutta flow along a spanning tree is the independent oracle;
    # the difference is its own error (about 7e-10 and 8e-13 at worst)
    p = CylinderParams(r)
    dom = DomainGrid(*annulus, 5, 8)
    cfg = PipelineConfig(8, SERIES_GRID.m, ode_tol=tol)
    ode = surface._spanning_tree_frames(
        make_cylinder_potential(p), cylinder_basepoint_frame(p, SERIES_GRID.points),
        dom, SERIES_GRID, cfg)
    err = ring_relative(series_frames(p, dom, SERIES_GRID), ode)
    assert (err <= bound).all(), err.max()


@pytest.mark.parametrize("r", SERIES_R)
def test_series_seam_is_the_closed_form_monodromy(r):
    # Phi(theta = 2 pi) = -exp(2 pi i A) Phi(theta = 0), ring by ring
    p = CylinderParams(r)
    frames = series_frames(p, DomainGrid(0.3, 3.0, 5, 8), SERIES_GRID)
    A = delaunay_residue_matrix(DelaunayResidue(*delaunay_ab(p)), SERIES_GRID.points)
    M = -loops._exp2(np.array(2j * np.pi), A)
    err = ring_relative(frames[:, -1], _mul2(M, frames[:, 0]))
    assert (err <= 1e-13).all(), err.max()


@pytest.mark.parametrize("n_angular", [8, 9])
@pytest.mark.parametrize("r", SERIES_R)
def test_series_columns_match_the_series_node_by_node(r, n_angular):
    # the theta-only table against exp(w A) sum_j e^{2jw} C_j diag(e^{-w/2},
    # e^{w/2}) summed at each node of a block that does not start at ring 0
    p, dom = CylinderParams(r), DomainGrid(0.1, 5.0, 7, n_angular)
    theta = dom.thetas()[:surface._factored_columns(n_angular)]
    lam = SERIES_GRID.points
    C = potentials._frobenius_coefficients(p, lam, dom.rho_max)
    A = delaunay_residue_matrix(DelaunayResidue(*delaunay_ab(p)), lam)
    lo, hi = 2, 6
    want = np.empty((hi - lo, len(theta), SERIES_GRID.m, 2, 2), dtype=complex)
    for i, u in enumerate(dom.u()[lo:hi]):
        for k, t in enumerate(theta):
            w = u + 1j * t
            P = sum(np.exp(2 * j * w) * c for j, c in enumerate(C))
            want[i, k] = _mul2(loops._exp2(np.array(w), A), P) @ np.diag(
                [np.exp(-0.5 * w), np.exp(0.5 * w)])
    got = surface._series_columns(p, dom, SERIES_GRID, theta)(lo, hi)
    err = ring_relative(got, want)
    assert (err <= 1e-13).all(), err.max()       # measured <= 1.4e-15


@pytest.mark.parametrize("annulus, degree, m", [((0.3, 3.0, 48, 24), 32, 128),    # surface
                                                ((0.3, 3.0, 96, 48), 8, 32)])     # generate
def test_series_block_working_set(annulus, degree, m):
    # the block is built in place: no block-sized temporary
    dom, grid = DomainGrid(*annulus), LambdaGrid(m)
    cols = surface._factored_columns(dom.n_angular)
    rings = surface._series_columns(CylinderParams(0.3), dom, grid, dom.thetas()[:cols])
    nsec = PipelineConfig(degree, m).section_rows
    (lo, hi), *_ = _blocks(dom.n_radial, cols * _node_bytes(nsec, m))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        block = rings(lo, hi)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # measured 1.36 (surface) and 1.30 (generate): the block, exp(u A) on its
    # rings and one column's temporaries
    assert peak <= 1.5 * block.nbytes, peak / block.nbytes


@pytest.mark.parametrize("r", SERIES_R)
def test_basepoint_frame_is_the_series_at_one(r):
    p = CylinderParams(r)
    dom = DomainGrid(0.5, 2.0, 5, 8)
    assert dom.u()[2] == 0.0                       # the middle ring is |z| = 1
    frames = series_frames(p, dom, SERIES_GRID)
    phi0 = cylinder_basepoint_frame(p, SERIES_GRID.points)
    assert np.abs(frames[2, 0] - phi0).max() <= 1e-14


def test_unconverged_series_raises(monkeypatch):
    monkeypatch.setattr(potentials, "_MAX_TERMS", 3)
    p = CylinderParams(1 / 3)
    with pytest.raises(RuntimeError, match="not converged"):
        cylinder_basepoint_frame(p, SERIES_GRID.points)
    with pytest.raises(RuntimeError, match="not converged"):
        series_frames(p, DomainGrid(0.3, 3.0, 5, 8), SERIES_GRID)


def test_build_surface_integrates_no_ode(monkeypatch):
    def no_ode(*args, **kwargs):
        raise AssertionError("Runge-Kutta step taken")

    monkeypatch.setattr(flow, "_rk_segment", no_ode)
    p, dom = CylinderParams(1 / 3), DomainGrid(0.3, 3.0, 8, 8)
    cfg = PipelineConfig(8, SERIES_GRID.m)
    mesh = build_surface(p, dom, SERIES_GRID, cfg)
    assert mesh.diagnostics["seam_residual"] < 1e-12
    with pytest.raises(AssertionError, match="Runge-Kutta"):   # the patch bites
        surface._spanning_tree_frames(
            make_cylinder_potential(p), cylinder_basepoint_frame(p, SERIES_GRID.points),
            dom, SERIES_GRID, cfg)


# ------------------------------------------------------------- pipeline runs


@pytest.fixture(scope="module")
def cylinder_mesh():
    return build_surface(CylinderParams(1 / 3), DomainGrid(0.3, 3.0, 64, 32),
                         GRID, CFG)


@pytest.fixture(scope="module")
def deep_cylinder_mesh():
    return build_surface(CylinderParams(1 / 3), DomainGrid(0.05, 3.0, 96, 24),
                         GRID, CFG)


def test_seam_closes(cylinder_mesh):
    assert cylinder_mesh.diagnostics["seam_residual"] < 1e-5


def test_sym_defect_small_where_frames_good(cylinder_mesh):
    assert cylinder_mesh.diagnostics["iwasawa"]["unitarity_max"] < 1e-7
    assert cylinder_mesh.diagnostics["sym_defect"] < 1e-6


def test_factorization_clean(cylinder_mesh):
    summary = cylinder_mesh.diagnostics["iwasawa"]
    assert summary["failed_nodes"] == []
    assert summary["reconstruction_max"] < 1e-7


def test_mean_curvature_constant(cylinder_mesh):
    stats = cylinder_mesh.H_stats
    assert stats["stddev"] / abs(stats["mean"]) < 0.05


def test_reflection_symmetry_of_pipeline_mesh(cylinder_mesh):
    rep = reflection_symmetry_check(cylinder_mesh)
    assert rep.max_deviation < 1e-3
    assert abs(np.linalg.norm(rep.fitted_plane[0]) - 1.0) < 1e-12


def test_parameter_changes_shape_not_curvature(cylinder_mesh):
    # same resolution as the fixture so the discrete H values are comparable
    other = build_surface(CylinderParams(-0.25), DomainGrid(0.3, 3.0, 64, 32),
                          GRID, CFG)
    m1 = cylinder_mesh.H_stats["mean"]
    m2 = other.H_stats["mean"]
    assert abs(m1 - m2) / abs(m1) < 0.05       # same normalization
    # but the surfaces are genuinely different shapes: the ring-radius
    # profiles along the axis separate by a few percent of the size
    def ring_radii(mesh):
        c = mesh.vertices.mean(axis=1, keepdims=True)
        return np.linalg.norm(mesh.vertices - c, axis=-1).mean(axis=1)

    gap = np.abs(ring_radii(cylinder_mesh) - ring_radii(other)).max()
    assert gap > 0.01 * cylinder_mesh.bbox_diagonal()


# -------------------------------------------------------- reference surfaces


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


@pytest.fixture(scope="module")
def unduloid_reference():
    return delaunay_reference(DelaunayResidue(0.375, 0.125),
                              DomainGrid(0.001, 5.0, 192, 24), GRID, CFG)


def test_round_cylinder_reference():
    mesh = delaunay_reference(DelaunayResidue(0.25, 0.25),
                              DomainGrid(0.3, 3.0, 48, 16), GRID, CFG)
    V = mesh.vertices
    centroids = V.mean(axis=1)
    c0 = centroids.mean(axis=0)
    _, _, vt = np.linalg.svd(centroids - c0, full_matrices=False)
    axis = vt[0]
    Y = V.reshape(-1, 3) - c0
    dist = np.linalg.norm(Y - (Y @ axis)[:, None] * axis, axis=1)
    assert dist.std() / dist.mean() <= 0.01
    assert abs(dist.mean() - 0.25) < 1e-3


def test_unduloid_profile_periodic(unduloid_reference):
    s, rho = _axis_profile(unduloid_reference)
    assert np.all(np.diff(s) > 0)              # embedded: no doubling back
    period = _profile_period(s, rho)
    assert period is not None
    assert 1.3 < period < 1.6
    # profile repeats after one period within a few percent
    mask = s + period <= s[-1]
    shifted = np.interp(s[mask] + period, s, rho)
    assert np.abs(shifted - rho[mask]).max() / np.abs(rho).max() < 0.02


def test_nodoid_profile_doubles_back():
    mesh = delaunay_reference(DelaunayResidue(0.75, -0.25),
                              DomainGrid(0.05, 3.0, 96, 16), GRID, CFG)
    s, _ = _axis_profile(mesh)
    ds = np.diff(s)
    changes = int(np.sum(np.sign(ds[1:]) != np.sign(ds[:-1])))
    assert changes >= 2                        # self-intersecting profile


def test_reference_seam_and_symmetry(unduloid_reference):
    assert unduloid_reference.diagnostics["seam_residual"] < 1e-5
    rep = reflection_symmetry_check(unduloid_reference)
    assert rep.max_deviation < 1e-6            # surface of revolution


def full_grid_reference(res, dom, grid, cfg):
    """The reference factored at every (u, theta) node: exp(w A) = F B."""
    w = dom.u()[:, None] + 1j * dom.thetas()[None, :]
    frames = loops._exp2(w, delaunay_residue_matrix(res, grid.points))
    F, _, summary = iwasawa_grid(frames, grid, cfg)
    assert summary["failed_nodes"] == []
    pts, _ = surface._sym_points(F, grid)
    return pts[:, :dom.n_angular]


# The unduloid starts at |z| = 0.01: nearer 0 the full-grid oracle's own
# roundoff grows (at |z| = 0.001 its ring radii spread by 1.5e-10, those of
# the rotated reference by 6e-13), and the two differ by 2e-10 of the size.
@pytest.mark.parametrize("res, dom", [
    (DelaunayResidue(0.375, 0.125), DomainGrid(0.01, 5.0, 48, 16)),    # unduloid
    (DelaunayResidue(0.375, 0.125), DomainGrid(0.01, 5.0, 48, 15)),    # odd n_angular
    (DelaunayResidue(0.75, -0.25), DomainGrid(0.05, 3.0, 32, 16)),     # nodoid
    (DelaunayResidue(0.25, 0.25), DomainGrid(0.3, 3.0, 24, 16)),       # round cylinder
    (DelaunayResidue(*delaunay_ab(CylinderParams(-0.3))),
     DomainGrid(0.3, 3.0, 96, 48)),                                     # generate's grid
])
def test_reference_rotates_one_factor_per_ring(res, dom):
    # exp(i theta A) is unitary, so F(u, theta) = exp(i theta A) F(u, 0)
    # by uniqueness of the splitting: one factored node per ring suffices
    mesh = delaunay_reference(res, dom, GRID, CFG)
    assert mesh.diagnostics["iwasawa"]["nodes"] == dom.n_radial
    oracle = full_grid_reference(res, dom, GRID, CFG)
    err = np.abs(mesh.vertices - oracle).max()
    assert err <= 1e-10 * mesh.bbox_diagonal(), err


MIRROR_GRID, MIRROR_CFG = LambdaGrid(128), PipelineConfig(32, 128)


def factored_columns(n):
    """theta <= pi / 2 on an even grid, theta <= pi on an odd one."""
    return n // 4 + 1 if n % 2 == 0 else n // 2 + 1


@pytest.mark.parametrize("n_angular", [24, 25, 26])     # 26: n_angular / 2 odd
@pytest.mark.parametrize("r", [0.3, 1 / 3, -0.25, 0.9, -1.5])
def test_mirrored_columns_match_the_full_grid(r, n_angular, monkeypatch):
    # build_surface factors theta <= pi / 2 (theta <= pi for odd n_angular)
    # and places the rest by the rigid motions that F(u, theta + pi) =
    # U F(u, theta) D and F(u, 2 pi - theta) = M conj F(u, theta)(conj
    # lambda) induce on the points; the oracle factors every node of the
    # series frames and runs Sym on all of them, without the shared tail
    n = n_angular
    cols = factored_columns(n)
    p, dom = CylinderParams(r), DomainGrid(0.3, 3.0, 48, n)
    blocks = []
    factor = surface.iwasawa_grid

    def keep_frames(*args):
        F, B, summary = factor(*args)
        # a block's frames live in the buffer the next block reuses
        blocks.append(F.copy())
        return F, B, summary

    monkeypatch.setattr(surface, "iwasawa_grid", keep_frames)
    mesh = build_surface(p, dom, MIRROR_GRID, MIRROR_CFG)
    assert mesh.diagnostics["iwasawa"]["nodes"] == 48 * cols
    # a block's work buffer holds at most 1 MiB / (64 * 262 B) = 62 nodes at
    # N = 32, m = 128: 12 blocks of 4 rings of 13 columns, or 6 of 8 rings of 7
    assert len(blocks) == (12 if n % 2 else 6)
    F, _, summary = iwasawa_grid(series_frames(p, dom, MIRROR_GRID),
                                 MIRROR_GRID, MIRROR_CFG)
    assert summary["failed_nodes"] == []
    pts, _ = surface._sym_points(F, MIRROR_GRID)
    oracle = mesh_from_grid(pts[:, :n])
    seam = np.abs(pts[:, n] - pts[:, 0]).max() / oracle.bbox_diagonal()
    err = np.abs(np.concatenate(blocks) - F[:, :cols]).max()
    assert err <= 1e-9, err                # measured 0, and <= 1.1e-13 at r = 0.9
    err = np.abs(mesh.vertices - oracle.vertices).max()
    assert err <= 2e-9 * oracle.bbox_diagonal(), err  # measured <= 3.4e-10
    assert mesh.diagnostics["seam_residual"] <= 1e-12
    assert seam <= 1e-12


HALF_TURN_GRID, HALF_TURN_CFG = LambdaGrid(128), PipelineConfig(32, 128)


@pytest.mark.parametrize("r", [1 / 3, -0.25, 0.9, -1.5, -2.5])
def test_half_turn_of_the_factored_frames(r):
    # independent of the shared tail: factor every node of the series frames
    # and check F(u, theta + pi) = U F(u, theta) D, U = exp(i pi A),
    # D = diag(-i, i), the symmetry build_surface places half the grid by
    p, n = CylinderParams(r), 12
    dom = DomainGrid(0.3, 3.0, 8, n)
    F, _, summary = iwasawa_grid(series_frames(p, dom, HALF_TURN_GRID),
                                 HALF_TURN_GRID, HALF_TURN_CFG)
    assert summary["failed_nodes"] == []
    res = DelaunayResidue(*delaunay_ab(p))
    lam = HALF_TURN_GRID.points
    U = loops._exp2(np.array(1j * np.pi), delaunay_residue_matrix(res, lam))
    assert np.abs(U[0] - 1j * np.array([[0, 1], [1, 0]])).max() <= 1e-14
    D = np.diag([-1j, 1j])
    turned = _mul2(_mul2(U, F[:, : n // 2 + 1]), D)
    err = np.abs(F[:, n // 2:] - turned).max()
    # measured 2.0e-11 .. 5.5e-11, and 6.6e-10 at r = -2.5, where it follows
    # the factorization's roundoff floor (unitarity_max 1.2e-9 there)
    assert err <= 1e-9, err


@pytest.mark.parametrize("n_angular", [8, 9, 10])
@pytest.mark.parametrize("pipeline", ["cylinder", "delaunay"])
def test_sym_runs_on_the_factored_columns_only(pipeline, n_angular, monkeypatch):
    # the other columns are rigid motions of the factored ones: Sym sees
    # the cylinder's factored frames, one block at a time, and the half turn
    # U once; the reference's F0, one node a ring, its turn exp(i theta A) on
    # the factored columns and U, each once, and no frames block
    dom, cfg = DomainGrid(0.3, 3.0, 8, n_angular), PipelineConfig(8, SERIES_GRID.m)
    shapes = []
    sym = surface._sym_points

    def recorded(frames, grid):
        shapes.append(frames.shape)
        return sym(frames, grid)

    monkeypatch.setattr(surface, "_sym_points", recorded)
    m, cols = SERIES_GRID.m, factored_columns(n_angular)
    if pipeline == "delaunay":
        delaunay_reference(DelaunayResidue(0.375, 0.125), dom, SERIES_GRID, cfg)
        assert shapes == [(8, m, 2, 2), (cols, m, 2, 2), (m, 2, 2)]
    else:
        build_surface(CylinderParams(1 / 3), dom, SERIES_GRID, cfg)
        blocks = [s for s in shapes if len(s) == 5]
        assert [s for s in shapes if len(s) == 3] == [(m, 2, 2)]
        assert len(blocks) == len(shapes) - 1
        assert sum(np.prod(s[:2]) for s in blocks) == 8 * cols


@pytest.mark.parametrize("pipeline", ["cylinder", "delaunay"])
def test_no_factorization_buffer_outlives_the_points(pipeline, monkeypatch):
    # the frames, the factors and the buffers they are views of are let go
    # before the mesh is assembled: only the points reach the tail
    dom, cfg = DomainGrid(0.3, 3.0, 96, 48), PipelineConfig(8, SERIES_GRID.m)
    refs, alive = [], []
    factor, assemble = surface.iwasawa_grid, surface.mesh_from_grid

    def recorded(phis, *args):
        out = factor(phis, *args)
        refs.extend(weakref.ref(x if x.base is None else x.base) for x in (phis, *out[:2]))
        return out

    def checked(*args):
        alive.extend(ref() is not None for ref in refs)
        return assemble(*args)

    monkeypatch.setattr(surface, "iwasawa_grid", recorded)
    monkeypatch.setattr(surface, "mesh_from_grid", checked)
    if pipeline == "cylinder":
        build_surface(CylinderParams(-0.3), dom, SERIES_GRID, cfg)
    else:
        delaunay_reference(DelaunayResidue(*delaunay_ab(CylinderParams(-0.3))),
                           dom, SERIES_GRID, cfg)
    assert len(alive) == len(refs) > 0
    assert not any(alive), f"{sum(alive)} of {len(alive)} alive"


def test_blocks_factor_in_one_lent_buffer(monkeypatch):
    # build_surface lends one work buffer to each of its blocks in turn:
    # every block's F lies in it, and the mesh has the bits of blocks
    # factored in buffers of their own
    args = (CylinderParams(0.3), DomainGrid(0.3, 3.0, 48, 24), LambdaGrid(128),
            PipelineConfig(32, 128))
    frames = []
    factor = iwasawa.factor_samples

    def recorded(phi, grid, nsec):
        out = factor(phi, grid, nsec)
        frames.append(out[0])
        return out

    monkeypatch.setattr(iwasawa, "factor_samples", recorded)
    lent = build_surface(*args)
    assert len(frames) == 6
    assert all(np.shares_memory(frames[0], f) for f in frames[1:])
    monkeypatch.setattr(surface, "_lend", lambda work: None)
    own = build_surface(*args)
    assert len(frames) == 12
    assert not any(np.shares_memory(frames[6], f) for f in frames[7:])
    assert lent.vertices.tobytes() == own.vertices.tobytes()


def failing_iwasawa_grid(bad):
    """iwasawa_grid that reports node bad (flat index) as failed."""
    def fake(phis, grid, cfg):
        F, B, summary = iwasawa_grid(phis, grid, cfg)
        return F, B, {**summary, "failed_nodes": [bad]}
    return fake


def test_reference_failure_names_the_ring(monkeypatch):
    monkeypatch.setattr(surface, "iwasawa_grid", failing_iwasawa_grid(5))
    with pytest.raises(RuntimeError, match=r"reference rings \(radial\) = \[5\]"):
        delaunay_reference(DelaunayResidue(0.375, 0.125), DomainGrid(0.3, 3.0, 8, 8),
                           SERIES_GRID, PipelineConfig(8, SERIES_GRID.m))


def test_cylinder_failure_names_the_node(monkeypatch):
    # build_surface factors the n_angular // 4 + 1 = 3 columns theta <= pi / 2,
    # so flat node indices run over that quarter grid
    monkeypatch.setattr(surface, "iwasawa_grid", failing_iwasawa_grid(2 * 3 + 1))
    with pytest.raises(RuntimeError, match=r"\(radial, angular\) = \[\(2, 1\)\]"):
        build_surface(CylinderParams(1 / 3), DomainGrid(0.3, 3.0, 8, 8),
                      SERIES_GRID, PipelineConfig(8, SERIES_GRID.m))


def test_cylinder_failure_names_the_node_odd_angular(monkeypatch):
    # 11 angles: the columns theta_0 .. theta_5 are factored
    monkeypatch.setattr(surface, "iwasawa_grid", failing_iwasawa_grid(2 * 6 + 3))
    with pytest.raises(RuntimeError, match=r"\(radial, angular\) = \[\(2, 3\)\]"):
        build_surface(CylinderParams(1 / 3), DomainGrid(0.3, 3.0, 8, 11),
                      SERIES_GRID, PipelineConfig(8, SERIES_GRID.m))


def test_cylinder_failure_in_a_later_block_names_the_node(monkeypatch):
    # a block's work buffer holds at most 1 MiB / (64 * 70 B) = 234 nodes at
    # N = 8, m = 32, 78 rings of the 3 columns at 8 angles, so the 90 rings
    # go in two blocks of 45: the second call starts at ring 45
    calls = []

    def fake(phis, grid, cfg):
        calls.append(len(phis))
        F, B, summary = iwasawa_grid(phis, grid, cfg)
        return F, B, {**summary, "failed_nodes": [5] if len(calls) == 2 else []}

    monkeypatch.setattr(surface, "iwasawa_grid", fake)
    with pytest.raises(RuntimeError, match=r"\(radial, angular\) = \[\(46, 2\)\]"):
        build_surface(CylinderParams(1 / 3), DomainGrid(0.3, 3.0, 90, 8),
                      SERIES_GRID, PipelineConfig(8, SERIES_GRID.m))
    assert calls == [45, 45]


def test_noise_breaks_reflection(unduloid_reference):
    rng = np.random.default_rng(5)
    scale = 0.01 * unduloid_reference.bbox_diagonal() / np.sqrt(3.0)
    noisy = unduloid_reference.vertices + scale * rng.normal(
        size=unduloid_reference.vertices.shape)
    rep = reflection_symmetry_check(mesh_from_grid(noisy))
    assert rep.max_deviation > 5e-3


# -------------------------------------------------------------- end distance


def test_end_distance_self_is_zero(unduloid_reference):
    d = end_distance(unduloid_reference, unduloid_reference)
    assert d.shape == (unduloid_reference.n_radial,)
    assert np.all(d == 0.0)


def test_end_distance_controls(deep_cylinder_mesh):
    dom = DomainGrid(0.05, 3.0, 96, 24)
    a, b = delaunay_ab(CylinderParams(1 / 3))
    right = delaunay_reference(DelaunayResidue(a, b), dom, GRID, CFG)
    wrong = delaunay_reference(DelaunayResidue(0.75, -0.25), dom, GRID, CFG)
    dev_right = end_distance(deep_cylinder_mesh, right)[0]
    dev_wrong = end_distance(deep_cylinder_mesh, wrong)[0]
    assert dev_right < 1e-4
    assert dev_wrong > 0.1
    assert dev_wrong > 100.0 * dev_right


def test_end_distance_rejects_other_grids(deep_cylinder_mesh, unduloid_reference):
    with pytest.raises(ValueError, match="vertex grids differ"):
        end_distance(deep_cylinder_mesh, unduloid_reference)
