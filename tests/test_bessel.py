"""Scalar second-order oracle against closed forms and the 2x2 flow."""

import cmath
import math

import numpy as np
import pytest

from besselcmc import (
    LambdaGrid,
    PathSpec,
    PipelineConfig,
    ScalarSolution,
    bessel_integrate,
    cli,
    frame_from_scalar,
    integrate_frame,
    make_bessel_potential,
    monodromy,
    scalar_residual,
)
from oracles import circle, radial

CFG = PipelineConfig(fourier_degree=4, lambda_samples=16)

NU = lambda z: 1.0 / z


def rho_of(alpha):
    return lambda z: -z + alpha * alpha / z


# ------------------------------------------------------------- closed forms


def half_order_closed_form():
    # for alpha = 1/2 the equation is solved by sqrt(2/(pi z)) sin z
    c = math.sqrt(2.0 / math.pi)

    def y_exact(z):
        return c * cmath.sin(z) / cmath.sqrt(z)

    def dy_exact(z):
        return c * (cmath.cos(z) / cmath.sqrt(z) - 0.5 * cmath.sin(z) * z**-1.5)

    return y_exact, dy_exact


def test_half_integer_order_closed_form():
    y_exact, dy_exact = half_order_closed_form()
    sol = bessel_integrate(0.5, radial(1.0, 2.0), y_exact(1.0), dy_exact(1.0), CFG)
    assert abs(sol.y - y_exact(2.0)) < 1e-9
    assert abs(sol.dy - dy_exact(2.0)) < 1e-9
    assert abs(scalar_residual(NU, rho_of(0.5), sol, sol.z)) < 1e-9


def test_zero_data_stays_zero():
    sol = bessel_integrate(0.7, radial(1.0, 3.0), 0.0, 0.0, CFG)
    assert sol.y == 0.0 and sol.dy == 0.0


def test_order_zero_against_taylor_series():
    # z y'' + y' + z y = 0 about z = 1:
    #   (k+2)(k+1) c_{k+2} = -[(k+1)^2 c_{k+1} + c_k + c_{k-1}]
    c = [0.7, -0.4]
    for k in range(12):
        prev = c[k - 1] if k >= 1 else 0.0
        c.append(-((k + 1) ** 2 * c[k + 1] + c[k] + prev) / ((k + 2) * (k + 1)))
    u = 0.1
    y_ref = sum(ck * u**k for k, ck in enumerate(c))
    dy_ref = sum(k * ck * u ** (k - 1) for k, ck in enumerate(c) if k >= 1)
    sol = bessel_integrate(0.0, radial(1.0, 1.1), c[0], c[1], CFG)
    assert abs(sol.y - y_ref) < 1e-10
    assert abs(sol.dy - dy_ref) < 1e-10


def test_constant_function_misses_equation_by_one():
    # y = 1 at z = 1, order 0: the residual is -rho*nu*y = z^2/z^2 ... = 1
    probe = ScalarSolution(y=1.0, dy=0.0, alpha=0.0, z=1.0, d2y=0.0)
    res = scalar_residual(NU, rho_of(0.0), probe, 1.0)
    assert abs(res - 1.0) < 1e-6


# -------------------------------------------------------- fundamental frames


def fundamental_pair(alpha, path, cfg=CFG):
    y1 = bessel_integrate(alpha, path, 1.0, 0.0, cfg)
    y2 = bessel_integrate(alpha, path, 0.0, 1.0, cfg)
    return y1, y2


def test_frame_assembly_rejects_bad_pairs():
    path = radial(1.0, 2.0)
    y1, y2 = fundamental_pair(0.3, path)
    with pytest.raises(ValueError):
        frame_from_scalar(y1, y1, NU)  # degenerate
    with pytest.raises(ValueError):
        frame_from_scalar(y1, bessel_integrate(0.4, path, 0.0, 1.0, CFG), NU)
    other = bessel_integrate(0.3, radial(1.0, 2.5), 0.0, 1.0, CFG)
    with pytest.raises(ValueError):
        frame_from_scalar(y1, other, NU)


def test_weighted_wronskian_constant():
    # z W(z) is conserved; the chosen initial data fixes it at -1
    for w_end in (math.log(2.0), math.log(3.0), math.log(2.0) + 1.0j):
        path = PathSpec(0.0, w_end)
        y1, y2 = fundamental_pair(0.3, path)
        zw = y1.z * (y1.dy * y2.y - y2.dy * y1.y)
        assert abs(zw - (-1.0)) < 1e-9


def test_scalar_frame_matches_matrix_flow():
    alpha = 0.3
    path = radial(1.0, 2.0)
    y1, y2 = fundamental_pair(alpha, path)
    frame_scalar = frame_from_scalar(y1, y2, NU)

    grid = LambdaGrid(4)
    phi0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    end = integrate_frame(make_bessel_potential(alpha), path, phi0, grid, CFG)
    assert np.abs(end[0] - frame_scalar).max() < 1e-7


def test_scalar_and_matrix_monodromy_traces_agree():
    alpha = 0.3
    y1, y2 = fundamental_pair(alpha, circle())
    frame_end = frame_from_scalar(y1, y2, NU)
    phi0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    tr_scalar = np.trace(frame_end @ np.linalg.inv(phi0))

    M, _ = monodromy(make_bessel_potential(alpha), LambdaGrid(4), CFG)
    assert abs(tr_scalar - np.trace(M[0])) < 1e-7


# ----------------------------------------------------------- batched family


def test_batched_family_matches_single_runs():
    y_exact, dy_exact = half_order_closed_form()
    path = PathSpec(0.0, math.log(3.0))
    alpha = np.array([0.0, 0.5, 0.3 + 0.1j, 1.0, 0.5])
    y0 = np.array([1.0, 0.0, 0.3, 0.0, y_exact(1.0)])
    dy0 = np.array([0.0, 1.0, 0.9, 1.0, dy_exact(1.0)])
    family = bessel_integrate(alpha, path, y0, dy0, CFG)
    assert len(family) == len(alpha)
    for sol, a, y, dy in zip(family, alpha, y0, dy0):
        single = bessel_integrate(a, path, y, dy, CFG)
        assert sol.alpha == single.alpha and sol.z == single.z
        for field in ("y", "dy", "d2y"):
            assert abs(getattr(sol, field) - getattr(single, field)) <= 1e-9
    half = family[-1]
    assert abs(half.y - y_exact(3.0)) < 1e-9
    assert abs(half.dy - dy_exact(3.0)) < 1e-9


def test_batched_family_broadcasts_in_c_order():
    path = radial(1.0, 2.0)
    family = bessel_integrate(np.array([[0.3], [0.7]]), path, [1.0, 0.0], [0.0, 1.0], CFG)
    members = [(0.3, 1.0, 0.0), (0.3, 0.0, 1.0), (0.7, 1.0, 0.0), (0.7, 0.0, 1.0)]
    assert len(family) == len(members)
    for sol, (alpha, y0, dy0) in zip(family, members):
        assert sol.alpha == alpha
        assert abs(sol.y - bessel_integrate(alpha, path, y0, dy0, CFG).y) <= 1e-9


def test_bessel_check_sees_a_shifted_order(monkeypatch):
    """Negative control: the frame side at order alpha + 1e-6 against the
    scalar side at alpha fails the check's frame_deviation bound."""
    residuals, thresholds = cli._check_bessel(cli.RunConfig(r=0.5))
    assert residuals["frame_deviation"] <= thresholds["frame_deviation"]
    real = cli.make_bessel_potential
    monkeypatch.setattr(cli, "make_bessel_potential",
                        lambda alpha: real(lambda lam: np.asarray(alpha(lam)) + 1e-6))
    shifted, _ = cli._check_bessel(cli.RunConfig(r=0.5))
    assert shifted["frame_deviation"] > thresholds["frame_deviation"]
    assert shifted["wronskian_drift"] == residuals["wronskian_drift"]


def test_residual_reported_along_complex_path():
    alpha = 0.3 + 0.1j
    path = PathSpec(0.0, math.log(2.0) + 0.8j)
    sol = bessel_integrate(alpha, path, 0.3, 0.9, CFG)
    assert abs(scalar_residual(NU, rho_of(alpha), sol, sol.z)) < 1e-8
