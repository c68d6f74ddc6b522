"""End-to-end acceptance gates for the cylinder pipeline.

One test per criterion, each printing the measured residuals next to the
bound it is gated on.  Criteria with stated wall-clock budgets assert the
elapsed time of the work they cover.
"""

import math
import time

import numpy as np
import pytest

from besselcmc import (
    CylinderParams,
    DelaunayResidue,
    DomainGrid,
    LambdaGrid,
    PathSpec,
    PipelineConfig,
    RunConfig,
    bessel_integrate,
    build_surface,
    cylinder_basepoint_frame,
    delaunay_ab,
    delaunay_reference,
    end_comparison,
    exp_delaunay_monodromy,
    frame_from_scalar,
    integrate_frame,
    iwasawa_grid,
    make_bessel_potential,
    make_cylinder_potential,
    make_delaunay_potential,
    monodromy,
    mu_eigenvalue,
    reflection_symmetry_check,
    series_frames,
    verify_gauge_chain,
    verify_mu_alpha_identity,
)

R_SET = (1 / 3, -0.25, 1 / math.sqrt(2), -1 / math.pi)

CFG64 = PipelineConfig(fourier_degree=16, lambda_samples=64)
GRID64 = LambdaGrid(64)


@pytest.fixture(scope="module")
def monodromy_reports():
    """Dressed-frame monodromy for every tested r at 64 lambda samples."""
    t0 = time.monotonic()
    out = {}
    for r in R_SET:
        p = CylinderParams(r)
        res = DelaunayResidue(*delaunay_ab(p))
        phi0 = cylinder_basepoint_frame(p, GRID64.points)
        M, rep = monodromy(make_cylinder_potential(p), GRID64, CFG64,
                           frame0=phi0, res=res)
        out[r] = (M, rep)
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def pipeline_mesh():
    """Production-resolution r=1/3 surface: 128x64 on [0.3, 3]."""
    cfg = PipelineConfig(fourier_degree=32, lambda_samples=128)
    t0 = time.monotonic()
    mesh = build_surface(CylinderParams(1 / 3), DomainGrid(0.3, 3.0, 128, 64),
                         LambdaGrid(128), cfg)
    return mesh, time.monotonic() - t0


@pytest.fixture(scope="module")
def factorization_frames():
    """Raw pipeline frames on a small grid, for refactoring at several degrees.

    The frames depend only on the sample count, so the same family can be
    factored at degree 4, 8, 16, 32 to expose how the plus-loop tail falls
    with the truncation degree.
    """
    grid = LambdaGrid(128)
    dom = DomainGrid(0.3, 3.0, 16, 8)
    return series_frames(CylinderParams(1 / 3), dom, grid), grid


def test_criterion_01_delaunay_closed_form_oracle():
    grid = LambdaGrid(16)
    cfg = PipelineConfig(fourier_degree=4, lambda_samples=16)
    t0 = time.monotonic()
    worst = 0.0
    for a, b in ((0.375, 0.125), (0.75, -0.25)):
        res = DelaunayResidue(a, b)
        M, _ = monodromy(make_delaunay_potential(res), grid, cfg)
        dev = float(np.abs(M - exp_delaunay_monodromy(res, grid.points)).max())
        print(f"criterion-01 residue ({a}, {b}): monodromy defect {dev:.3e} "
              f"(bound 1e-08)")
        worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    print(f"criterion-01 elapsed {elapsed:.2f}s (budget 10s)")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_monodromy_unitarity(monodromy_reports):
    reports, elapsed = monodromy_reports
    for r, (_, rep) in reports.items():
        print(f"criterion-02 r={r:+.6f}: unitarity {rep.unitarity_error:.3e} "
              f"(bound 1e-06)")
        assert rep.unitarity_error <= 1e-6
    print(f"criterion-02 elapsed {elapsed:.2f}s (budget 60s)")
    assert elapsed < 60.0


def test_criterion_03_closing_conditions(monodromy_reports):
    reports, _ = monodromy_reports
    for r, (_, rep) in reports.items():
        print(f"criterion-03 r={r:+.6f}: identity {rep.identity_error:.3e} "
              f"(bound 1e-08), derivative {rep.derivative_error:.3e} (bound 1e-05)")
        assert rep.identity_error <= 1e-8
        assert rep.derivative_error <= 1e-5


def test_criterion_04_trace_law(monodromy_reports):
    reports, _ = monodromy_reports
    for r in (1 / 3, -0.25):
        M, rep = reports[r]
        print(f"criterion-04 r={r:+.6f}: trace-law residual "
              f"{rep.trace_law_error:.3e} (bound 1e-06)")
        assert rep.trace_law_error <= 1e-6
        # the sign is pinned at lambda = 1: tr M = 2 there, and the
        # opposite-sign pairing misses by 4
        res = DelaunayResidue(*delaunay_ab(CylinderParams(r)))
        mu1 = mu_eigenvalue(res, 1.0)
        tr1 = np.trace(M[0])
        assert abs(tr1 - 2.0) <= 1e-6
        assert abs(tr1 - 2.0 * np.cos(2.0 * np.pi * mu1)) > 3.9


def test_criterion_05_eigenvalue_identity():
    lam = LambdaGrid(64).points
    for r in R_SET:
        dev = verify_mu_alpha_identity(CylinderParams(r), lam)
        print(f"criterion-05 r={r:+.6f}: mu^2 identity residual {dev:.3e} "
              f"(bound 1e-12)")
        assert dev <= 1e-12


def test_criterion_06_gauge_chain():
    for r in (1 / 3, -0.25):
        errs = verify_gauge_chain(CylinderParams(r), n_points=100)
        print(f"criterion-06 r={r:+.6f}: reduced {errs['reduced']:.3e}, "
              f"cylinder {errs['cylinder']:.3e} (bounds 1e-10)")
        assert errs["reduced"] <= 1e-10
        assert errs["cylinder"] <= 1e-10


def test_criterion_07_scalar_matrix_cross_validation():
    path = PathSpec.line(0.0, math.log(3.0))
    grid = LambdaGrid(4)
    cfg = PipelineConfig(fourier_degree=1, lambda_samples=4)
    phi0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for alpha in (0.0, 0.5, 0.3 + 0.1j):
        y1 = bessel_integrate(alpha, path, 1.0, 0.0, cfg)
        y2 = bessel_integrate(alpha, path, 0.0, 1.0, cfg)
        scal = frame_from_scalar(y1, y2, lambda z: 1.0 / z)
        sol = integrate_frame(make_bessel_potential(alpha), path, phi0, grid, cfg)
        frame_dev = float(np.abs(sol.end()[0] - scal).max())
        zw_drift = abs(y1.z * (y1.dy * y2.y - y2.dy * y1.y) - (-1.0))
        print(f"criterion-07 alpha={alpha}: frame deviation {frame_dev:.3e} "
              f"(bound 1e-07), weighted-Wronskian drift {zw_drift:.3e} (bound 1e-09)")
        assert frame_dev <= 1e-7
        assert zw_drift <= 1e-9


def test_criterion_08_factorization_quality(factorization_frames):
    frames, grid = factorization_frames
    tails = {}
    for degree in (4, 8, 16, 32):
        cfg = PipelineConfig(fourier_degree=degree, lambda_samples=128)
        _, _, summary = iwasawa_grid(frames, grid, cfg)
        assert summary["failed_nodes"] == []
        tails[degree] = summary["plus_loop_tail_max"]
        if degree == 32:
            print(f"criterion-08 degree 32: unitarity {summary['unitarity_max']:.3e}, "
                  f"tail {summary['plus_loop_tail_max']:.3e}, "
                  f"reconstruction {summary['reconstruction_max']:.3e} (bounds 1e-08)")
            assert summary["unitarity_max"] <= 1e-8
            assert summary["plus_loop_tail_max"] <= 1e-8
            assert summary["reconstruction_max"] <= 1e-8
    print(f"criterion-08 tail vs degree: 4 -> {tails[4]:.3e}, 8 -> {tails[8]:.3e}, "
          f"16 -> {tails[16]:.3e} (each doubling must at least halve the tail)")
    assert tails[8] <= 0.5 * tails[4]
    assert tails[16] <= 0.5 * tails[8]


def test_criterion_09_seam_and_curvature(pipeline_mesh):
    mesh, elapsed = pipeline_mesh
    seam = mesh.diagnostics["seam_residual"]
    spread = mesh.H_stats["stddev"] / abs(mesh.H_stats["mean"])
    print(f"criterion-09 seam {seam:.3e} (bound 1e-05); H = "
          f"{mesh.H_stats['mean']:.4f} +/- {mesh.H_stats['stddev']:.4f}, "
          f"spread {100 * spread:.2f}% (bound 5%); elapsed {elapsed:.1f}s "
          f"(budget 120s)")
    assert seam <= 1e-5
    assert spread <= 0.05
    assert elapsed < 120.0


def test_criterion_10_reflection_symmetry(pipeline_mesh):
    mesh13, _ = pipeline_mesh
    mesh14 = build_surface(CylinderParams(-0.25), DomainGrid(0.3, 3.0, 64, 64),
                           GRID64, CFG64)
    for label, mesh in (("+1/3", mesh13), ("-1/4", mesh14)):
        rep = reflection_symmetry_check(mesh)
        print(f"criterion-10 r={label}: plane deviation {rep.max_deviation:.3e} "
              f"(bound 1e-03)")
        assert rep.max_deviation <= 1e-3


def test_criterion_11_residue_signs_and_round_cylinder():
    for r in R_SET + (0.999, -5.0, -100.0):
        a, b = delaunay_ab(CylinderParams(r))
        assert np.sign(a * b) == np.sign(r)
    print("criterion-11 sign(a*b) == sign(r) for all tested r")

    mesh = delaunay_reference(DelaunayResidue(0.25, 0.25),
                              DomainGrid(0.3, 3.0, 48, 16), GRID64, CFG64)
    V = mesh.vertices
    centroids = V.mean(axis=1)
    c0 = centroids.mean(axis=0)
    _, _, vt = np.linalg.svd(centroids - c0, full_matrices=False)
    axis = vt[0]
    Y = V.reshape(-1, 3) - c0
    dist = np.linalg.norm(Y - (Y @ axis)[:, None] * axis, axis=1)
    ratio = dist.std() / dist.mean()
    print(f"criterion-11 round-cylinder axis distance stddev/mean "
          f"{ratio:.3e} (bound 1e-02)")
    assert ratio <= 0.01


def test_criterion_12_end_profile_trend():
    p = CylinderParams(1 / 3)
    res = DelaunayResidue(*delaunay_ab(p))
    devs = []
    for rho_min in (0.2, 0.1, 0.05):
        dom = DomainGrid(rho_min, 3.0, 64, 32)
        mesh = build_surface(p, dom, GRID64, CFG64)
        ref = delaunay_reference(res, dom, GRID64, CFG64)
        devs.append(end_comparison(mesh, ref))
    print(f"criterion-12 profile deviation vs rho_min: "
          f"0.2 -> {devs[0]:.3e}, 0.1 -> {devs[1]:.3e}, 0.05 -> {devs[2]:.3e} "
          f"(must decrease monotonically)")
    assert devs[0] > devs[1] > devs[2]
