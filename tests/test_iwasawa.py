"""Pointwise unitary factorization: oracles, covariance, batching."""

import math
import tracemalloc

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
    build_surface,
    integrate_frame,
    iwasawa_grid,
    make_cylinder_potential,
    series_frames,
)
import besselcmc.iwasawa as iwasawa
import besselcmc.surface as surface
from besselcmc.iwasawa import _unitarity, factor_samples
from besselcmc.loops import _adj, _chol2_entries, _inv2, _mul2
from besselcmc.surface import _factored_columns, _series_columns
from oracles import chol2, fresh_epilogue, radial, reconstruction_full_pass

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


def factor_one(phi):
    """(F, B, summary) of one sampled loop through iwasawa_grid."""
    f, b, summary = iwasawa_grid(phi[None], GRID, CFG)
    return f[0], b[0], summary


# ------------------------------------------------------------------- oracles


def test_unitary_input_gives_trivial_plus_factor():
    phi = rotation_loop()
    f, b, summary = factor_one(phi)
    assert np.abs(b - np.eye(2)).max() < 1e-10
    assert np.abs(f - phi).max() < 1e-10
    assert summary["unitarity_max"] < 1e-10
    # reconstruction is |F B - Phi| on the samples
    assert summary["reconstruction_max"] < 1e-9


def test_constant_positive_diagonal_goes_to_plus_factor():
    phi = np.tile(np.diag([2.0, 0.5]).astype(complex), (GRID.m, 1, 1))
    f, b, _ = factor_one(phi)
    assert np.abs(f - np.eye(2)).max() < 1e-10
    assert np.abs(b - np.diag([2.0, 0.5])).max() < 1e-10


def test_constant_matrix_against_cholesky_oracle():
    c = np.array([[1.1, 0.4 + 0.2j], [-0.1j, 0.8]], dtype=complex)
    c = c / np.sqrt(np.linalg.det(c))
    # for a constant matrix the factorization is plain linear algebra:
    # H = C* C = B* B with B = (chol L)*, F = C B^-1
    H = np.conj(c.T) @ c
    B = np.conj(np.linalg.cholesky(H).T)
    F = c @ np.linalg.inv(B)
    f, b, _ = factor_one(np.tile(c, (GRID.m, 1, 1)))
    assert np.abs(b - B).max() < 1e-10
    assert np.abs(f - F).max() < 1e-10


def test_recovers_known_product():
    f = rotation_loop()
    b = plus_loop()
    got_f, got_b, _ = factor_one(f @ b)
    assert np.abs(got_f - f).max() < 1e-9
    assert np.abs(got_b - b).max() < 1e-9


def test_recovers_a_plus_factor_in_lambda_cubed():
    # H depends on lambda^3 only, so the recursion's q is 0 at its first two
    # steps while v* is not: the stop must bound all of v*, not its top block
    b = plus_loop()
    b[:, 0, 1] = 0.5 * GRID.points**3
    got_f, got_b, _ = factor_one(rotation_loop() @ b)
    assert np.abs(got_f - rotation_loop()).max() < 1e-9
    assert np.abs(got_b - b).max() < 1e-9


def test_refactoring_is_idempotent():
    phi = rotation_loop() @ plus_loop()
    f, b, _ = factor_one(phi)
    again_f, again_b, _ = factor_one(f @ b)
    assert np.abs(again_f - f).max() < 1e-9
    assert np.abs(again_b - b).max() < 1e-9


# ---------------------------------------------------------------- invariances


def test_left_unitary_covariance():
    phi = rotation_loop() @ plus_loop()
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]], dtype=complex)  # unitary, det 1
    assert np.abs(u @ np.conj(u.T) - np.eye(2)).max() < 1e-15
    base_f, base_b, _ = factor_one(phi)
    moved_f, moved_b, _ = factor_one(u @ phi)
    assert np.abs(moved_b - base_b).max() < 1e-9
    assert np.abs(moved_f - u @ base_f).max() < 1e-9


def test_determinant_splits_without_winding():
    phi = rotation_loop() @ plus_loop()
    f, b, _ = factor_one(phi)
    det_f = np.linalg.det(f)
    det_b = np.linalg.det(b)
    assert np.abs(det_f * det_b - np.linalg.det(phi)).max() < 1e-8
    # det F has no winding around the circle
    ang = np.unwrap(np.angle(det_f))
    assert abs(round((ang[-1] - ang[0]) / (2 * np.pi))) == 0


def test_normalization_reported():
    _, _, summary = factor_one(rotation_loop() @ plus_loop())
    assert summary["normalization_max"] < 1e-10
    assert summary["plus_loop_tail_max"] < 1e-9


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
            path = PathSpec(0.0, math.log(rho) + 1j * th)
            out[i, j] = integrate_frame(xi, path, None, grid, cfg)
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


def annulus_frames(r, degree, m):
    """Pipeline frames of cylinder r at 8x8 nodes of the annulus 0.3:3.0."""
    grid = LambdaGrid(m)
    frames = series_frames(CylinderParams(r), DomainGrid(0.3, 3.0, 8, 8), grid)
    return frames.reshape(-1, m, 2, 2), grid, PipelineConfig(degree, m)


def complex_schur_reference(phi, grid, nsec):
    """The block Schur recursion on a complex generator, one 2x2 product
    at a time: factor_samples' steps without the closed-form rotation or
    the real layout.  Returns (F_samples, B_coeffs)."""
    nb, m = phi.shape[0], grid.m
    hat = np.fft.fft(_mul2(_adj(phi), phi), axis=1) / m
    row = np.zeros((nb, nsec, 2, 2), dtype=complex)
    kept = min(nsec, m // 2 + 1)
    row[:, :kept] = hat[:, :kept]
    bk = np.empty_like(row)
    try:
        r0 = chol2(hat[:, 0])
        u = _mul2(_inv2(r0)[:, None], row).transpose(0, 2, 1, 3)
        g = np.concatenate((u, u), axis=1).reshape(nb, 4, 2 * nsec)
        g[:, 2:, :2] = 0.0
        bk[:, -1] = g[:, :2, -2:]
        alpha = _adj(r0)
        theta = np.empty((nb, 4, 4), dtype=complex)
        for k in range(1, nsec):
            g = np.concatenate((g[:, :2, :-2], g[:, 2:, 2:]), axis=1)
            beta = g[:, 2:, :2]
            q = _mul2(beta, _inv2(alpha))
            qs = _adj(q)
            d = alpha - _mul2(qs, beta)
            piv = chol2(_mul2(_adj(alpha), d))
            m1 = _mul2(_adj(piv), _inv2(d))
            m2 = _inv2(chol2(np.eye(2) - _mul2(q, qs)))
            theta[:, :2, :2] = m1
            theta[:, :2, 2:] = -_mul2(m1, qs)
            theta[:, 2:, :2] = -_mul2(m2, q)
            theta[:, 2:, 2:] = m2
            g = theta @ g
            bk[:, -1 - k] = g[:, :2, -2:]
            alpha = _adj(piv)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("not positive definite") from exc
    bk[:, 0] = alpha
    padded = np.zeros((nb, m, 2, 2), dtype=complex)
    padded[:, :nsec] = bk
    bs = np.fft.ifft(padded, axis=1) * m
    return _mul2(phi, _inv2(bs)), bk


@pytest.mark.parametrize("r, degree, m", [
    (0.2, 32, 128), (0.3, 32, 128), (0.4, 32, 128),        # surface workload
    (-0.4, 8, 32), (-0.25, 8, 32), (-0.15, 8, 32),         # generate workload
])
def test_real_kernel_matches_the_complex_recursion(r, degree, m):
    phi, grid, cfg = annulus_frames(r, degree, m)
    f, bk, _ = factor_samples(phi, grid, cfg.section_rows)
    ref_f, ref_bk = complex_schur_reference(phi, grid, cfg.section_rows)
    # H = B* B has condition ~|B|^4 on the circle, so two roundings of the
    # recursion differ by ~eps |B|^2 relative to B (measured: at most
    # 9e-14 |B|^2 on these frames, at the outer ring)
    scale = np.maximum(1.0, np.abs(ref_bk).reshape(len(phi), -1).max(axis=1)) ** 2
    err_b = np.abs(bk - ref_bk).reshape(len(phi), -1).max(axis=1)
    err_f = np.abs(f - ref_f).reshape(len(phi), -1).max(axis=1)
    assert (err_b <= 1e-12 * scale).all(), (err_b / scale).max()
    assert (err_f <= 1e-12 * scale).all(), (err_f / scale).max()


def schur_steps(monkeypatch, phi, grid, nsec):
    """(steps, factor_samples' result): the rotations the recursion applied,
    counted by its Cholesky calls, one before the loop and two per step."""
    calls = []

    def counted(*args):
        calls.append(None)
        return _chol2_entries(*args)

    monkeypatch.setattr(iwasawa, "_chol2_entries", counted)
    out = factor_samples(phi, grid, nsec)
    monkeypatch.undo()
    return (len(calls) - 1) // 2, out


@pytest.mark.parametrize("r, degree, m, most", [
    (0.2, 32, 128, 10), (0.3, 32, 128, 10), (0.4, 32, 128, 10),   # of 65 steps
    (-0.4, 8, 32, 9), (-0.25, 8, 32, 9), (-0.15, 8, 32, 9),       # of 17
])
def test_recursion_stops_at_the_rounding_floor(monkeypatch, r, degree, m, most):
    # the symbol is analytic in an annulus, so q and v* fall geometrically
    # and reach every node's floor long before the section ends (6-8 steps
    # measured at N = 32, 5-7 at N = 8); test_stop_moves_b_by_at_most_its_floor
    # and test_real_kernel_matches_the_complex_recursion check the same
    # frames against the recursion run to the end
    phi, grid, cfg = annulus_frames(r, degree, m)
    steps, _ = schur_steps(monkeypatch, phi, grid, cfg.section_rows)
    assert steps <= most


@pytest.mark.parametrize("r, degree, m", [
    (0.2, 32, 128), (0.3, 32, 128), (0.4, 32, 128),        # surface workload
    (-0.4, 8, 32), (-0.25, 8, 32), (-0.15, 8, 32),         # generate workload
    (0.9, 32, 128), (-1.5, 32, 128), (-2.5, 32, 128),
])
def test_stop_moves_b_by_at_most_its_floor(r, degree, m):
    # a skipped rotation moves u* by about q* v*, both at most sqrt(floor),
    # so the stopped recursion is within floor |B| of the one run to the
    # end, which a floor of 2 forces on every node (measured: at most 0.34
    # of the bound, at r = -1.5)
    phi, grid, cfg = annulus_frames(r, degree, m)
    nsec = cfg.section_rows
    *h, floor = iwasawa._symbol_coefficients(phi, min(nsec, m // 2 + 1))
    work = np.empty(8 * len(phi) * (4 * nsec - 2))
    stopped = iwasawa._bottom_row(*h, floor, nsec, work)
    full = iwasawa._bottom_row(*h, np.full_like(floor, 2.0), nsec, work)
    err = np.abs(stopped - full).reshape(len(phi), -1).max(axis=1)
    bound = floor * np.abs(full).reshape(len(phi), -1).max(axis=1)
    assert (err <= bound).all(), (err / bound).max()


def su2_rotations(count, seed=0):
    """The identity and count random constant SU(2) matrices."""
    rng = np.random.default_rng(seed)
    out = [np.eye(2, dtype=complex)]
    for _ in range(count):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        out.append(np.array([[q[0] + 1j * q[1], q[2] + 1j * q[3]],
                             [-q[2] + 1j * q[3], q[0] - 1j * q[1]]]))
    return out


@pytest.mark.parametrize("r, block", [(-0.3, 0), (-0.2, -1)])
def test_rounding_does_not_move_the_stop(monkeypatch, r, block):
    # U Phi has the same H as Phi for a constant unitary U, but other bits,
    # so a stop decided on q's rounding plateau moves with U.  The block is
    # the first or the last generate block (96:48, N = 8, m = 32), 16 rings.
    # A first-order stop, |q|_F <= eps kappa, moved on both: 12-13 and
    # 11-12 steps
    grid, dom = LambdaGrid(32), DomainGrid(0.3, 3.0, 96, 48)
    cols = _factored_columns(dom.n_angular)
    lo, hi = iwasawa._blocks(dom.n_radial, cols * iwasawa._node_bytes(18, grid.m))[block]
    phi = _series_columns(CylinderParams(r), dom, grid, dom.thetas()[:cols])(lo, hi)
    phi = phi.reshape(-1, grid.m, 2, 2)
    steps = {schur_steps(monkeypatch, u @ phi, grid, 18)[0] for u in su2_rotations(8)}
    assert len(steps) == 1, steps


def test_recursion_runs_to_the_end_short_of_the_floor(monkeypatch):
    # r = -2.9 (rho = 1.45): the outer rings' q never reach their floor
    phi, grid, cfg = annulus_frames(-2.9, 32, 128)
    steps, _ = schur_steps(monkeypatch, phi, grid, cfg.section_rows)
    assert steps == cfg.section_rows - 1
    # the half-circle loop's H is singular on half the circle, so its floor
    # is infinite; on the sections short of indefinite it factors to the end
    for m, nsec in ((32, 9), (128, 16)):
        grid = LambdaGrid(m)
        steps, out = schur_steps(monkeypatch, half_circle_loop(grid)[None], grid, nsec)
        assert steps == nsec - 1
        assert all(np.isfinite(x).all() for x in out)


def test_singular_symbol_holds_its_chunk_to_the_end(monkeypatch):
    # diag(1, 1e-8) is constant, so its q is exactly 0 at every step, but
    # cond H = 1e16 puts its floor eps kappa above 1: it never lets its
    # chunk stop, though the product loop beside it converges at once
    phi = np.stack([rotation_loop() @ plus_loop(), np.tile(np.diag([1.0, 1e-8]), (GRID.m, 1, 1))])
    nsec = CFG.section_rows
    alone, (f, bk, _) = schur_steps(monkeypatch, phi[:1], GRID, nsec)
    held, (both_f, both_bk, _) = schur_steps(monkeypatch, phi, GRID, nsec)
    assert alone < held == nsec - 1
    assert np.abs(both_bk[1, 0] - np.diag([1.0, 1e-8])).max() <= 1e-15
    assert np.abs(both_f[0] - f[0]).max() <= 1e-12
    assert np.abs(both_bk[0] - bk[0]).max() <= 1e-12


def test_nan_node_leaves_the_stop_alone(monkeypatch):
    # a node that never factors takes no part in the stop: the chunk stops
    # at the step it stops at without the node, with the same bits
    phi, grid, cfg = annulus_frames(0.3, 32, 128)
    ok = np.arange(len(phi)) != 5
    clean_steps, clean = schur_steps(monkeypatch, phi[ok], grid, cfg.section_rows)
    phi = phi.copy()
    phi[5] = np.nan
    steps, out = schur_steps(monkeypatch, phi, grid, cfg.section_rows)
    assert steps == clean_steps < cfg.section_rows - 1
    for x, clean_x in zip(out, clean):
        assert np.isnan(x[5]).all()
        assert np.array_equal(x[ok], clean_x)


def raising_nodes(factor, phi, grid, nsec):
    failed = []
    for i in range(len(phi)):
        try:
            factor(phi[i : i + 1], grid, nsec)
        except RuntimeError:
            failed.append(i)
    return failed


def far_annulus_frames():
    """Frames of r = -2.9 out to |z| = 5, where outer rings do not factor."""
    grid = LambdaGrid(128)
    frames = series_frames(CylinderParams(-2.9), DomainGrid(0.1, 5.0, 8, 8), grid)
    return frames, grid, PipelineConfig(32, 128)


def test_real_kernel_fails_where_the_complex_recursion_does():
    frames, grid, cfg = far_annulus_frames()
    phi = frames.reshape(-1, grid.m, 2, 2)
    nsec = cfg.section_rows
    f, bk, bs = factor_samples(phi, grid, nsec)
    bad = np.isnan(bk[:, 0, 0, 0])
    failed = np.flatnonzero(bad).tolist()
    assert failed                        # outer-ring nodes lose definiteness
    assert failed == raising_nodes(complex_schur_reference, phi, grid, nsec)
    assert np.isnan(f[bad]).all() and np.isnan(bk[bad]).all() and np.isnan(bs[bad]).all()
    assert np.isfinite(f[~bad]).all() and np.isfinite(bk[~bad]).all()
    assert np.isfinite(bs[~bad]).all()
    # the good nodes come out as from a call without the failed ones
    good_f, good_bk, good_bs = factor_samples(phi[~bad], grid, nsec)
    assert np.array_equal(f[~bad], good_f)
    assert np.array_equal(bk[~bad], good_bk)
    assert np.array_equal(bs[~bad], good_bs)


def test_failing_chunk_is_one_call(monkeypatch):
    frames, grid, cfg = far_annulus_frames()
    calls = []

    def counted(phi, grid, nsec):
        calls.append(len(phi))
        return factor_samples(phi, grid, nsec)

    monkeypatch.setattr(iwasawa, "factor_samples", counted)
    _, _, summary = iwasawa_grid(frames, grid, cfg)
    assert summary["failed_nodes"]
    # 8 rings of 9 columns; a call holds at most 62 nodes at N = 32, m = 128,
    # so two calls of 36, and every node goes through one of them once
    assert sum(calls) == summary["nodes"] == 72
    assert calls == [36, 36]


@pytest.mark.parametrize("r, degree, m, annulus", [
    (0.3, 32, 128, (0.3, 3.0)),
    (-0.25, 8, 32, (0.3, 3.0)),
    (0.9, 8, 32, (0.3, 3.0)),       # unitarity 1.0: the section is far too short
    (0.9, 8, 32, (0.1, 5.0)),       # 6 nodes fail
    (-2.9, 32, 128, (0.1, 5.0)),    # 2 nodes fail
])
def test_plus_factor_at_zero_is_normalized_by_construction(r, degree, m, annulus):
    # B(0) is the recursion's last pivot: upper triangular with a real
    # positive diagonal, exactly, on every node that factors, however badly
    # the rest of its factorization went; iwasawa_grid's normalization_max
    # relies on it and measures nothing
    grid = LambdaGrid(m)
    phi = series_frames(CylinderParams(r), DomainGrid(*annulus, 8, 8), grid)
    _, bk, _ = factor_samples(phi.reshape(-1, m, 2, 2), grid, PipelineConfig(degree, m).section_rows)
    b0 = bk[:, 0][~np.isnan(bk[:, 0, 0, 0])]
    assert len(b0) >= 64
    diag = b0[:, [0, 1], [0, 1]]
    assert (b0[:, 1, 0] == 0).all()
    assert (diag.imag == 0).all() and (diag.real > 0).all()


# -------------------------------------------------------------- section size


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
    _, bk, _ = factor_samples(_adj(chol2(h)), LambdaGrid(big), nsec)
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


def test_empty_family_gives_empty_factors():
    f, b, summary = iwasawa_grid(np.zeros((3, 0, GRID.m, 2, 2), dtype=complex), GRID, CFG)
    assert f.shape == b.shape == (3, 0, GRID.m, 2, 2)
    assert summary["nodes"] == 0 and summary["failed_nodes"] == []
    assert all(math.isnan(v) for k, v in summary.items() if k not in ("nodes", "failed_nodes"))


def test_factor_varies_smoothly_along_ray():
    xi = make_cylinder_potential(CylinderParams(1 / 3))
    cfg = PipelineConfig(fourier_degree=8, lambda_samples=GRID.m)

    def factors_at(n_stations):
        rhos = np.linspace(1.0, 2.0, n_stations)
        frames = np.empty((n_stations, GRID.m, 2, 2), dtype=complex)
        for i, rho in enumerate(rhos):
            frames[i] = integrate_frame(
                xi, radial(1.0, rho) if rho > 1 else PathSpec(0.0, 0.0),
                None, GRID, cfg)
        f, _, _ = iwasawa_grid(frames, GRID, cfg)
        return f

    coarse = factors_at(9)       # h = 1/8
    fine = factors_at(17)        # h = 1/16
    jump = np.abs(np.diff(coarse, axis=0)).max()
    deriv = np.abs(np.diff(fine, axis=0)).max() / (1.0 / 16.0)
    assert jump <= 10.0 * (1.0 / 8.0) * deriv


def test_failed_node_is_localized():
    frames = np.tile(rotation_loop() @ plus_loop(), (6, 1, 1, 1))
    frames[3] = np.nan
    f, b, summary = iwasawa_grid(frames, GRID, CFG)
    assert summary["failed_nodes"] == [3]
    assert np.isnan(f[3]).all()
    ok = [i for i in range(6) if i != 3]
    assert np.abs(f[ok] @ b[ok] - frames[ok]).max() < 1e-9
    assert summary["reconstruction_max"] < 1e-9  # NaN node excluded


def half_circle_loop(grid=GRID):
    """diag(1, chi), chi = 1 on the first m/2 samples and 0 on the rest.

    Every finite section of chi's Toeplitz matrix is positive definite,
    but its least eigenvalue decays geometrically with the size, so the
    recursion meets a non-positive pivot late, not at the first one.
    """
    out = np.zeros((grid.m, 2, 2), dtype=complex)
    out[:, 0, 0] = 1.0
    out[: grid.m // 2, 1, 1] = 1.0
    return out


@pytest.mark.parametrize("degree, m", [(8, 32), (32, 128)])
def test_pivot_failure_in_the_recursion_gives_nan(degree, m):
    grid = LambdaGrid(m)
    phi = half_circle_loop(grid)[None]
    nsec = PipelineConfig(degree, m).section_rows
    # the early steps pass: the sections of 9 block rows (m = 32) and of
    # 16 (m = 128) have least eigenvalues 1.4e-6 and 1.4e-11, well above
    # rounding; half of m = 128's 66 rows, 33, has 1.8e-25, below it
    early = factor_samples(phi, grid, min(nsec // 2, 16))
    assert all(np.isfinite(x).all() for x in early)
    assert all(np.isnan(x).all() for x in factor_samples(phi, grid, nsec))


def test_pivot_failure_in_the_recursion_is_localized():
    frames = np.tile(rotation_loop() @ plus_loop(), (6, 1, 1, 1))
    frames[1] = rotation_loop()
    clean_f, clean_b, _ = iwasawa_grid(frames, GRID, CFG)
    frames[4] = half_circle_loop()
    f, b, summary = iwasawa_grid(frames, GRID, CFG)
    assert summary["failed_nodes"] == [4]
    assert np.isnan(f[4]).all() and np.isnan(b[4]).all()
    ok = [i for i in range(6) if i != 4]
    assert np.abs(f[ok] - clean_f[ok]).max() <= 1e-12
    assert np.abs(b[ok] - clean_b[ok]).max() <= 1e-12


def test_chunks_agree_with_one_call(monkeypatch):
    # 64 nodes with one that fails: with room for 5 nodes per call it fails
    # in a chunk of 5, and the 13 chunks of 4 or 5 are concatenated into the
    # results
    phi, grid, cfg = annulus_frames(-0.25, 8, 32)
    phi = phi[:64].copy()
    phi[29] = half_circle_loop(grid)
    one_f, one_b, one = iwasawa_grid(phi, grid, cfg)
    monkeypatch.setattr(iwasawa, "_WORK_BYTES",
                        5 * iwasawa._node_bytes(cfg.section_rows, grid.m))
    f, b, summary = iwasawa_grid(phi, grid, cfg)
    assert one["failed_nodes"] == summary["failed_nodes"] == [29]
    assert np.isnan(f[29]).all() and np.isnan(b[29]).all()
    ok = np.arange(len(phi)) != 29
    assert np.abs(f[ok] - one_f[ok]).max() <= 1e-12
    assert np.abs(b[ok] - one_b[ok]).max() <= 1e-12
    assert summary.keys() == one.keys()
    assert summary["nodes"] == 64
    for key in summary.keys() - {"nodes", "failed_nodes"}:
        assert abs(summary[key] - one[key]) <= 1e-12, key


PLANS = {   # r, annulus, grid, degree, m of the benchmark and production builds
    "surface": (0.3, (0.3, 3.0), (48, 24), 32, 128),
    "generate": (-0.3, (0.3, 3.0), (96, 48), 8, 32),
    "production": (1 / 3, (0.1, 2.5), (128, 64), 32, 128),
}


@pytest.mark.parametrize("plan, calls", [
    ("surface", 6),        # 6 blocks of 8 rings x 7 columns
    ("generate", 6),       # 6 blocks of 16 rings x 13 columns
    ("production", 43),    # 42 blocks of 3 rings x 17 columns and one of 2
])
def test_block_plan(monkeypatch, plan, calls):
    # the blocks cover every ring once, differ by at most one ring, and no
    # factor_samples call's work buffer (F's base) is over the budget
    r, annulus, grid_size, degree, m = PLANS[plan]
    p, dom, grid = CylinderParams(r), DomainGrid(*annulus, *grid_size), LambdaGrid(m)
    rings, buffers = [], []
    factor, factor_grid = iwasawa.factor_samples, surface.iwasawa_grid

    def planned(phis, *args):
        # each block's theta = 0 frames, which live in a buffer the next reuses
        rings.append(phis[:, 0].copy())
        return factor_grid(phis, *args)

    def recorded(phi, grid, nsec):
        out = factor(phi, grid, nsec)
        buffers.append(out[0].base.nbytes)
        return out

    monkeypatch.setattr(surface, "iwasawa_grid", planned)
    monkeypatch.setattr(iwasawa, "factor_samples", recorded)
    build_surface(p, dom, grid, PipelineConfig(degree, m))
    every = surface._series_columns(p, dom, grid, dom.thetas()[:1])(0, dom.n_radial)
    assert np.abs(np.concatenate(rings) - every[:, 0]).max() <= 1e-12
    sizes = [len(block) for block in rings]
    assert max(sizes) - min(sizes) <= 1
    assert len(buffers) == len(rings) == calls
    assert max(buffers) <= iwasawa._WORK_BYTES, max(buffers)


@pytest.mark.parametrize("plan, r", [
    ("surface", 0.3), ("generate", -0.2), ("surface", 0.9), ("surface", -2.5),
])
def test_block_plan_moves_vertices_by_rounding_only(monkeypatch, plan, r):
    # against fixed chunks of 256 nodes (36 + 12 rings and 252 + 84 nodes
    # on the surface grid): each call decides its own stop, so the split
    # may move a node's bits, by rounding only (measured 0, 8.2e-16,
    # 9.6e-15 and 5.8e-14 of the diagonal)
    _, annulus, grid_size, degree, m = PLANS[plan]
    args = (CylinderParams(r), DomainGrid(*annulus, *grid_size), LambdaGrid(m),
            PipelineConfig(degree, m))
    planned = build_surface(*args)
    node = iwasawa._node_bytes(args[3].section_rows, m)

    def chunks(count, item_bytes):
        per = max(1, 256 // (item_bytes // node))
        return [(lo, min(lo + per, count)) for lo in range(0, count, per)]

    monkeypatch.setattr(iwasawa, "_blocks", chunks)
    monkeypatch.setattr(surface, "_blocks", chunks)
    chunked = build_surface(*args)
    err = np.abs(planned.vertices - chunked.vertices).max() / chunked.bbox_diagonal()
    assert err <= 1e-13, err


def workload_block(r, degree, m, n_radial, n_angular):
    """(phi, grid, nsec): the first block build_surface factors on the
    annulus 0.3:3.0, its first rings of the factored columns."""
    grid, dom = LambdaGrid(m), DomainGrid(0.3, 3.0, n_radial, n_angular)
    cols, nsec = _factored_columns(dom.n_angular), PipelineConfig(degree, m).section_rows
    (lo, hi), *_ = iwasawa._blocks(n_radial, cols * iwasawa._node_bytes(nsec, m))
    phi = _series_columns(CylinderParams(r), dom, grid, dom.thetas()[:cols])(lo, hi)
    return phi.reshape(-1, m, 2, 2), grid, nsec


BLOCKS = {"surface": (0.3, 32, 128, 48, 24),     # 8 rings x 7 columns
          "generate": (-0.3, 8, 32, 96, 48),     # 16 rings x 13 columns
          "wide": (0.3, 8, 64, 24, 12)}          # 2 m > 4 nsec - 2: 24 rings x 4 columns


def test_one_block_working_set():
    # the first block build_surface factors at 48x24, N = 32, m = 128:
    # 8 rings of the 7 columns theta <= pi / 2, 56 nodes
    block, grid, _ = workload_block(*BLOCKS["surface"])
    cfg = PipelineConfig(32, 128)
    assert len(block) == 56
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        iwasawa_grid(block, grid, cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # F, B's samples and B's 66 coefficients alone take 2.5 times the input
    assert peak <= 7 * block.nbytes, peak / block.nbytes


@pytest.mark.parametrize("block", BLOCKS)
def test_factors_own_their_memory(block):
    # F is written into the call's work buffer once the Schur generator is
    # done with it, so no output may alias another, phi, or a later call's
    phi, grid, nsec = workload_block(*BLOCKS[block])
    out = factor_samples(phi, grid, nsec)
    for i, x in enumerate(out):
        assert not np.shares_memory(x, phi)
        for y in out[i + 1:]:
            assert not np.shares_memory(x, y)
    kept = [x.copy() for x in out]
    factor_samples(su2_rotations(1)[1] @ phi[::-1], grid, nsec)
    for x, y in zip(out, kept):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("block", BLOCKS)
def test_lent_buffer_serves_one_call(block):
    # a lent buffer holds one call's F and B samples, apart, with the bits
    # of a buffer of the call's own; the next call factors in new memory,
    # and so does a call handed a buffer too small for it
    phi, grid, nsec = workload_block(*BLOCKS[block])
    want = factor_samples(phi, grid, nsec)
    work = np.empty(len(phi) * iwasawa._node_bytes(nsec, grid.m) // 8 + 5)
    iwasawa._lend(work)
    got = factor_samples(phi, grid, nsec)
    assert np.shares_memory(got[0], work) and np.shares_memory(got[2], work)
    assert not np.shares_memory(got[0], got[2])
    for x, y in zip(want, got):
        assert x.tobytes() == y.tobytes()
    again = factor_samples(phi, grid, nsec)
    assert not any(np.shares_memory(x, work) for x in again)
    iwasawa._lend(work[:len(work) // 2])
    short = factor_samples(phi, grid, nsec)
    assert not any(np.shares_memory(x, work) for x in short)
    assert not any(np.shares_memory(x, work) for x in factor_samples(phi, grid, nsec))


@pytest.mark.parametrize("block", BLOCKS)
def test_factors_keep_the_bits_of_a_fresh_epilogue(block):
    # F in the generator's memory is the same arithmetic as F in a new stack
    phi, grid, nsec = workload_block(*BLOCKS[block])
    f, bk, bs = factor_samples(phi, grid, nsec)
    want_f, want_bs = fresh_epilogue(phi, bk.transpose(0, 2, 3, 1), grid.m)
    assert f.tobytes() == want_f.tobytes()
    assert bs.tobytes() == want_bs.tobytes()


@pytest.mark.parametrize("r, annulus, grid_size, degree, m", [
    (0.3, (0.3, 3.0), (48, 24), 32, 128),       # surface workload
    (-0.3, (0.3, 3.0), (96, 48), 8, 32),        # generate workload
    (1 / 3, (0.1, 2.5), (128, 64), 32, 128),    # production build
    (0.9, (0.3, 3.0), (48, 24), 32, 128),
    (-2.5, (0.3, 3.0), (48, 24), 32, 128),
])
def test_reconstruction_reads_the_node_with_the_largest_plus_factor(
        monkeypatch, r, annulus, grid_size, degree, m):
    # reconstruction_max is read on one node of each iwasawa_grid call; on
    # the build it comes within 0.5 of the pass over every node (measured:
    # 0.94-1, and 0.32 at r = -2.5 had the node been picked by max |B_k|)
    full = []

    def recorded(phis, grid, cfg):
        f, bs, summary = iwasawa_grid(phis, grid, cfg)
        full.append(np.nanmax(reconstruction_full_pass(
            *(x.reshape(-1, m, 2, 2) for x in (f, bs, phis)))))
        return f, bs, summary

    monkeypatch.setattr(surface, "iwasawa_grid", recorded)
    mesh = build_surface(CylinderParams(r), DomainGrid(*annulus, *grid_size),
                         LambdaGrid(m), PipelineConfig(degree, m))
    ratio = mesh.diagnostics["iwasawa"]["reconstruction_max"] / max(full)
    assert 0.5 <= ratio <= 1.0, ratio


def test_singular_node_is_localized():
    frames = np.tile(rotation_loop() @ plus_loop(), (6, 1, 1, 1))
    frames[1] = rotation_loop()
    clean_f, clean_b, _ = iwasawa_grid(frames, GRID, CFG)
    frames[2] = np.diag([1.0, 0.0])           # H = diag(1, 0) is singular
    assert all(np.isnan(x).all() for x in factor_samples(frames[2:3], GRID, CFG.section_rows))
    f, b, summary = iwasawa_grid(frames, GRID, CFG)
    assert summary["failed_nodes"] == [2]
    assert np.isnan(f[2]).all() and np.isnan(b[2]).all()
    ok = [i for i in range(6) if i != 2]
    assert np.abs(f[ok] - clean_f[ok]).max() <= 1e-12
    assert np.abs(b[ok] - clean_b[ok]).max() <= 1e-12


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize("front_end", ["grid"])
def test_lambda_grid_too_small_for_degree_rejected(front_end):
    small = LambdaGrid(8)   # degree 8 needs at least 18 samples
    phi = rotation_loop(small) @ plus_loop(small)
    with pytest.raises(ValueError, match="lambda samples"):
        iwasawa_grid(phi[None], small, CFG)


@pytest.mark.parametrize("front_end", ["grid"])
def test_lambda_grid_not_the_configured_size_rejected(front_end):
    big = LambdaGrid(64)    # CFG says 32 samples
    phi = rotation_loop(big) @ plus_loop(big)
    with pytest.raises(ValueError, match="lambda_samples=32"):
        iwasawa_grid(phi[None], big, CFG)


def test_sample_shape_checked():
    with pytest.raises(ValueError):
        iwasawa_grid(np.eye(2, dtype=complex)[None], GRID, CFG)
