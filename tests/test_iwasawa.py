"""Pointwise unitary factorization: oracles, covariance, batching."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from besselcmc import (
    CylinderParams,
    DomainGrid,
    LambdaGrid,
    PathSpec,
    PipelineConfig,
    integrate_frame,
    iwasawa_factor,
    iwasawa_grid,
    make_cylinder_potential,
    series_frames,
)
from besselcmc.iwasawa import _unitarity, factor_samples
from besselcmc.loops import _adj, _chol2, _inv2, _mul2

CFG = PipelineConfig(fourier_degree=8, lambda_samples=32)
GRID = LambdaGrid(32)


def rotation_loop(grid=GRID, amp=0.3):
    """Unitary loop: rotation by the real angle amp*(lam + 1/lam)."""
    th = amp * (grid.points + 1.0 / grid.points)  # real on the circle
    out = np.zeros((grid.m, 2, 2), dtype=complex)
    out[:, 0, 0] = np.cos(th)
    out[:, 0, 1] = np.sin(th)
    out[:, 1, 0] = -np.sin(th)
    out[:, 1, 1] = np.cos(th)
    return out


def plus_loop(grid=GRID):
    """Unipotent holomorphic loop with B(0) = I."""
    lam = grid.points
    out = np.zeros((grid.m, 2, 2), dtype=complex)
    out[:, 0, 0] = 1.0
    out[:, 1, 1] = 1.0
    out[:, 0, 1] = 0.3 * lam + 0.1 * lam**2
    return out


# ------------------------------------------------------------------- oracles


def test_unitary_input_gives_trivial_plus_factor():
    phi = rotation_loop()
    pair = iwasawa_factor(phi, GRID, CFG)
    assert np.abs(pair.B_samples - np.eye(2)).max() < 1e-10
    assert np.abs(pair.F_samples - phi).max() < 1e-10
    assert pair.residuals["unitarity"] < 1e-10
    # reconstruction is |F B - Phi| on the samples, as in iwasawa_grid
    assert pair.residuals["reconstruction"] < 1e-9


def test_constant_positive_diagonal_goes_to_plus_factor():
    phi = np.tile(np.diag([2.0, 0.5]).astype(complex), (GRID.m, 1, 1))
    pair = iwasawa_factor(phi, GRID, CFG)
    assert np.abs(pair.F_samples - np.eye(2)).max() < 1e-10
    assert np.abs(pair.B_samples - np.diag([2.0, 0.5])).max() < 1e-10


def test_constant_matrix_against_cholesky_oracle():
    c = np.array([[1.1, 0.4 + 0.2j], [-0.1j, 0.8]], dtype=complex)
    c = c / np.sqrt(np.linalg.det(c))
    # for a constant matrix the factorization is plain linear algebra:
    # H = C* C = B* B with B = (chol L)*, F = C B^-1
    H = np.conj(c.T) @ c
    B = np.conj(np.linalg.cholesky(H).T)
    F = c @ np.linalg.inv(B)
    pair = iwasawa_factor(np.tile(c, (GRID.m, 1, 1)), GRID, CFG)
    assert np.abs(pair.B_samples - B).max() < 1e-10
    assert np.abs(pair.F_samples - F).max() < 1e-10


def test_recovers_known_product():
    f = rotation_loop()
    b = plus_loop()
    pair = iwasawa_factor(f @ b, GRID, CFG)
    assert np.abs(pair.F_samples - f).max() < 1e-9
    assert np.abs(pair.B_samples - b).max() < 1e-9


def test_refactoring_is_idempotent():
    phi = rotation_loop() @ plus_loop()
    pair = iwasawa_factor(phi, GRID, CFG)
    again = iwasawa_factor(pair.F_samples @ pair.B_samples, GRID, CFG)
    assert np.abs(again.F_samples - pair.F_samples).max() < 1e-9
    assert np.abs(again.B_samples - pair.B_samples).max() < 1e-9


# ---------------------------------------------------------------- invariances


def test_left_unitary_covariance():
    phi = rotation_loop() @ plus_loop()
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]], dtype=complex)  # unitary, det 1
    assert np.abs(u @ np.conj(u.T) - np.eye(2)).max() < 1e-15
    base = iwasawa_factor(phi, GRID, CFG)
    moved = iwasawa_factor(u @ phi, GRID, CFG)
    assert np.abs(moved.B_samples - base.B_samples).max() < 1e-9
    assert np.abs(moved.F_samples - u @ base.F_samples).max() < 1e-9


def test_determinant_splits_without_winding():
    phi = rotation_loop() @ plus_loop()
    pair = iwasawa_factor(phi, GRID, CFG)
    det_f = np.linalg.det(pair.F_samples)
    det_b = np.linalg.det(pair.B_samples)
    assert np.abs(det_f * det_b - np.linalg.det(phi)).max() < 1e-8
    # det F has no winding around the circle
    ang = np.unwrap(np.angle(det_f))
    assert abs(round((ang[-1] - ang[0]) / (2 * np.pi))) == 0


def test_normalization_reported():
    pair = iwasawa_factor(rotation_loop() @ plus_loop(), GRID, CFG)
    assert pair.residuals["normalization"] < 1e-10
    assert pair.residuals["plus_loop_tail"] < 1e-9


# ------------------------------------------------------------------ batching


def cylinder_frames_on_grid(n_rho=8, n_theta=8, rho_lo=0.5, rho_hi=2.0,
                            grid=GRID, tol=1e-10):
    """Frames at an n_rho x n_theta polar grid, each integrated from z0=1."""
    xi = make_cylinder_potential(CylinderParams(1 / 3))
    cfg = PipelineConfig(fourier_degree=8, lambda_samples=grid.m, ode_tol=tol)
    rhos = np.linspace(rho_lo, rho_hi, n_rho)
    thetas = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    out = np.empty((n_rho, n_theta, grid.m, 2, 2), dtype=complex)
    for i, rho in enumerate(rhos):
        for j, th in enumerate(thetas):
            path = PathSpec.line(0.0, math.log(rho) + 1j * th)
            out[i, j] = integrate_frame(xi, path, None, grid, cfg).end()
    return out


def dense_bottom_row(phi, m, nsec):
    """B coefficients from the explicit finite section and LAPACK Cholesky.

    Block (i, j) of the section is H_{j-i}, offsets outside [-m/2, m/2)
    zeroed; B_k is the adjoint of the bottom block row, reversed.
    """
    nb = phi.shape[0]
    hat = np.fft.fft(np.conj(np.swapaxes(phi, -1, -2)) @ phi, axis=1) / m
    j = np.arange(nsec)
    off = j[None, :] - j[:, None]
    resolved = (off >= -(m // 2)) & (off < m // 2)
    toep = np.where(resolved[None, :, :, None, None], hat[:, off % m], 0.0)
    toep = toep.transpose(0, 1, 3, 2, 4).reshape(nb, 2 * nsec, 2 * nsec)
    chol = np.linalg.cholesky(toep)
    bottom = chol[:, -2:, :].reshape(nb, 2, nsec, 2).transpose(0, 2, 1, 3)
    return np.conj(np.swapaxes(bottom[:, ::-1], -1, -2))


@pytest.mark.parametrize("degree, m, n_side", [
    (8, 32, 8),     # section of 18 block rows > m/2: zeroed offsets
    (32, 128, 3),   # section of 66 block rows > m/2
])
def test_schur_kernel_matches_dense_cholesky(degree, m, n_side):
    grid = LambdaGrid(m)
    frames = cylinder_frames_on_grid(n_rho=n_side, n_theta=n_side, grid=grid)
    phi = frames.reshape(-1, m, 2, 2)
    nsec = PipelineConfig(degree, m).section_rows
    _, bk, _ = factor_samples(phi, grid, nsec)
    oracle = dense_bottom_row(phi, m, nsec)
    scale = np.maximum(1.0, np.abs(bk).reshape(len(phi), -1).max(axis=1))
    err = np.abs(bk - oracle).reshape(len(phi), -1).max(axis=1)
    assert (err <= 1e-10 * scale).all(), err.max()


# -------------------------------------------------------------- section size


def annulus_frames(r, degree, m):
    """Pipeline frames of cylinder r at 8x8 nodes of the annulus 0.3:3.0."""
    grid = LambdaGrid(m)
    frames = series_frames(CylinderParams(r), DomainGrid(0.3, 3.0, 8, 8), grid)
    return frames.reshape(-1, m, 2, 2), grid, PipelineConfig(degree, m)


def wide_section_unitary_factor(phi, grid, nsec):
    """F from a finite section of nsec > m block rows.

    The section sees H = Phi* Phi only through H_k, |k| <= m/2.  That
    band-limited symbol is resampled on M >= nsec points and factored as
    L L*, so the loop L* on the M-grid has the same section; its Schur
    coefficients B_0 .. B_{nsec-1} are summed at the m original samples.
    """
    m = grid.m
    big = m
    while big < nsec:
        big *= 2
    hat = np.fft.fft(_mul2(_adj(phi), phi), axis=1) / m
    spec = np.zeros((len(phi), big, 2, 2), dtype=complex)
    spec[:, : m // 2 + 1] = hat[:, : m // 2 + 1]
    spec[:, big - m // 2 :] = hat[:, m // 2 :]
    h = np.fft.ifft(spec, axis=1) * big
    _, bk, _ = factor_samples(_adj(_chol2(h)), LambdaGrid(big), nsec)
    powers = grid.points[:, None] ** np.arange(nsec)
    return _mul2(phi, _inv2(np.einsum("jk,nkab->njab", powers, bk)))


@pytest.mark.parametrize("r, degree, m", [(0.4, 32, 128), (-0.4, 8, 32)])
def test_section_rows_agree_with_twice_the_section(r, degree, m):
    phi, grid, cfg = annulus_frames(r, degree, m)
    assert cfg.section_rows == 2 * degree + 2
    f, _, _ = factor_samples(phi, grid, cfg.section_rows)
    wide = wide_section_unitary_factor(phi, grid, 4 * degree + 2)
    assert np.abs(f - wide).max() <= 1e-10


def test_undersized_section_fails_the_unitarity_bound():
    phi, grid, cfg = annulus_frames(-0.4, 8, 32)
    f, _, _ = factor_samples(phi, grid, cfg.section_rows)
    assert _unitarity(f).max() <= 1e-8          # criterion 8's bound
    small, _, _ = factor_samples(phi, grid, cfg.fourier_degree + 2)
    assert _unitarity(small).max() > 1e-8


@given(st.integers(1, 2048), st.integers(0, 4096))
def test_section_never_exceeds_the_lambda_grid(degree, extra):
    cfg = PipelineConfig(degree, 2 * degree + 2 + extra)
    assert cfg.section_rows <= cfg.lambda_samples


def test_grid_factorization_residuals():
    frames = cylinder_frames_on_grid()
    f, b, summary = iwasawa_grid(frames, GRID, CFG)
    assert summary["nodes"] == 64
    assert summary["failed_nodes"] == []
    assert summary["reconstruction_max"] < 1e-7
    assert summary["unitarity_max"] < 1e-7
    assert f.shape == frames.shape and b.shape == frames.shape


def test_factor_varies_smoothly_along_ray():
    xi = make_cylinder_potential(CylinderParams(1 / 3))
    cfg = PipelineConfig(fourier_degree=8, lambda_samples=GRID.m)

    def factors_at(n_stations):
        rhos = np.linspace(1.0, 2.0, n_stations)
        frames = np.empty((n_stations, GRID.m, 2, 2), dtype=complex)
        for i, rho in enumerate(rhos):
            frames[i] = integrate_frame(
                xi, PathSpec.radial(1.0, rho) if rho > 1 else PathSpec.line(0.0, 0.0),
                None, GRID, cfg).end()
        f, _, _ = iwasawa_grid(frames, GRID, cfg)
        return f

    coarse = factors_at(9)       # h = 1/8
    fine = factors_at(17)        # h = 1/16
    jump = np.abs(np.diff(coarse, axis=0)).max()
    deriv = np.abs(np.diff(fine, axis=0)).max() / (1.0 / 16.0)
    assert jump <= 10.0 * (1.0 / 8.0) * deriv


def test_single_and_grid_front_ends_agree():
    phi = rotation_loop() @ plus_loop()
    pair = iwasawa_factor(phi, GRID, CFG)
    f, b, summary = iwasawa_grid(phi[None], GRID, CFG)
    assert pair.residuals["det_drift"] <= 1e-8   # input not renormalized
    assert np.array_equal(pair.F_samples, f[0])
    assert np.array_equal(pair.B_samples, b[0])
    for key in ("unitarity", "plus_loop_tail", "normalization", "reconstruction"):
        assert pair.residuals[key] == summary[f"{key}_max"], key


def test_failed_node_is_localized():
    frames = np.tile(rotation_loop() @ plus_loop(), (6, 1, 1, 1))
    frames[3] = np.nan
    f, b, summary = iwasawa_grid(frames, GRID, CFG)
    assert summary["failed_nodes"] == [3]
    assert np.isnan(f[3]).all()
    ok = [i for i in range(6) if i != 3]
    assert np.abs(f[ok] @ b[ok] - frames[ok]).max() < 1e-9
    assert summary["reconstruction_max"] < 1e-9  # NaN node excluded


def test_singular_node_is_localized():
    frames = np.tile(rotation_loop() @ plus_loop(), (6, 1, 1, 1))
    frames[1] = rotation_loop()
    clean_f, clean_b, _ = iwasawa_grid(frames, GRID, CFG)
    frames[2] = np.diag([1.0, 0.0])           # H = diag(1, 0) is singular
    with pytest.raises(RuntimeError, match="not positive definite"):
        factor_samples(frames[2:3], GRID, CFG.section_rows)
    f, b, summary = iwasawa_grid(frames, GRID, CFG)
    assert summary["failed_nodes"] == [2]
    assert np.isnan(f[2]).all() and np.isnan(b[2]).all()
    ok = [i for i in range(6) if i != 2]
    assert np.abs(f[ok] - clean_f[ok]).max() <= 1e-12
    assert np.abs(b[ok] - clean_b[ok]).max() <= 1e-12


# ---------------------------------------------------------------- validation


def test_determinant_drift_rejected():
    phi = np.tile(1.001 * np.eye(2, dtype=complex), (GRID.m, 1, 1))
    with pytest.raises(ValueError):
        iwasawa_factor(phi, GRID, CFG)


def test_small_drift_renormalized():
    phi = np.tile((1.0 + 5e-8) * np.eye(2, dtype=complex), (GRID.m, 1, 1))
    pair = iwasawa_factor(phi, GRID, CFG)
    assert pair.residuals["det_drift"] < 1e-6
    assert np.abs(pair.F_samples @ pair.B_samples - np.eye(2)).max() < 1e-7


@pytest.mark.parametrize("front_end", ["factor", "grid"])
def test_lambda_grid_too_small_for_degree_rejected(front_end):
    small = LambdaGrid(8)   # degree 8 needs at least 18 samples
    phi = rotation_loop(small) @ plus_loop(small)
    with pytest.raises(ValueError, match="lambda samples"):
        if front_end == "factor":
            iwasawa_factor(phi, small, CFG)
        else:
            iwasawa_grid(phi[None], small, CFG)


@pytest.mark.parametrize("front_end", ["factor", "grid"])
def test_lambda_grid_not_the_configured_size_rejected(front_end):
    big = LambdaGrid(64)    # CFG says 32 samples
    phi = rotation_loop(big) @ plus_loop(big)
    with pytest.raises(ValueError, match="lambda_samples=32"):
        if front_end == "factor":
            iwasawa_factor(phi, big, CFG)
        else:
            iwasawa_grid(phi[None], big, CFG)


def test_sample_shape_checked():
    with pytest.raises(ValueError):
        iwasawa_factor(np.eye(2, dtype=complex)[None], GRID, CFG)
