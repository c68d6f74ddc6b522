"""Frame integration, monodromy closing conditions, and the trace law."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from besselcmc import (
    CylinderParams,
    DelaunayResidue,
    LambdaGrid,
    PathSpec,
    PipelineConfig,
    alpha_of,
    bessel_integrate,
    closing_report,
    cylinder_basepoint_frame,
    delaunay_ab,
    delaunay_residue_matrix,
    gauge_transform,
    integrate_frame,
    lambda_gauge,
    make_bessel_potential,
    make_cylinder_potential,
    monodromy,
    mu_eigenvalue,
    trace_law_check,
)
from besselcmc import bessel, flow
from besselcmc.flow import _rk_segment
from besselcmc.loops import _exp2, _mat2, _mul2
from besselcmc.potentials import PotentialSpec
from oracles import circle, full_circuit_monodromy, make_delaunay_potential, radial

CFG = PipelineConfig(fourier_degree=4, lambda_samples=16)


def zero_potential():
    def evaluate(z, lam):
        zero = np.zeros(np.broadcast(z, lam).shape, dtype=complex)
        return zero, zero

    return PotentialSpec(evaluate, "zero")


def _expm(X, order=24):
    """Dense matrix exponential by scaling-and-squaring a Taylor sum."""
    X = np.asarray(X, dtype=complex)
    n = max(0, int(math.ceil(math.log2(max(1.0, float(np.abs(X).max()))))) + 4)
    Y = X / 2.0**n
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, order + 1):
        term = term @ Y / k
        out = out + term
    for _ in range(n):
        out = out @ out
    return out


# -------------------------------------------------------------- integration


def test_zero_potential_keeps_frame():
    grid = LambdaGrid(8)
    rng = np.random.default_rng(0)
    phi0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    end = integrate_frame(zero_potential(), PathSpec(0.0, 1.0 + 2.0j),
                          phi0, grid, CFG)
    assert np.abs(end - phi0).max() < 1e-12


def test_det_drift_small_on_radial_ray():
    xi = make_cylinder_potential(CylinderParams(1 / 3))
    end = integrate_frame(xi, radial(1.0, 2.0), None, LambdaGrid(16),
                          PipelineConfig(fourier_degree=4, lambda_samples=16))
    assert np.abs(np.linalg.det(end) - 1.0).max() < 1e-10


def test_path_concatenation_matches_single_segment():
    xi = make_cylinder_potential(CylinderParams(-0.25))
    grid = LambdaGrid(16)
    one = integrate_frame(xi, PathSpec(0.0, math.log(2.0)), None, grid, CFG)
    mid = math.log(1.5)
    half = integrate_frame(xi, PathSpec(0.0, mid), None, grid, CFG)
    two = integrate_frame(xi, PathSpec(mid, math.log(2.0)), half, grid, CFG)
    assert np.abs(one - two).max() < 2e-9


def test_initial_frame_shape_checked():
    with pytest.raises(ValueError):
        integrate_frame(zero_potential(), circle(),
                        np.eye(2, dtype=complex)[None].repeat(4, 0),
                        LambdaGrid(8), CFG)


# ------------------------------------------------------- closed-form oracle


def test_delaunay_monodromy_matches_closed_form():
    res = DelaunayResidue(0.375, 0.125)
    grid = LambdaGrid(16)
    M, rep = monodromy(make_delaunay_potential(res), grid, CFG, res=res)
    want = _exp2(np.array(2j * np.pi), delaunay_residue_matrix(res, grid.points))
    assert np.abs(M - want).max() < 1e-8
    # the pure residue system closes on +exp(2 pi i A): its trace is
    # +2 cos(2 pi mu), the opposite sign from the gauged cylinder loop
    # that the report's trace_law_error is built for
    tr = np.trace(M, axis1=1, axis2=2)
    mu = mu_eigenvalue(res, grid.points)
    assert np.abs(tr - 2.0 * np.cos(2.0 * np.pi * mu)).max() < 1e-8
    assert abs(rep.trace_law_error - 4.0) < 1e-8


def test_exp_delaunay_at_lambda_one_is_minus_identity():
    # mu(1) = a + b = 1/2 for every admissible residue, so M(1) = -I exactly
    for a in (0.375, 0.25, 0.75):
        res = DelaunayResidue(a, 0.5 - a)
        M = _exp2(np.array(2j * np.pi), delaunay_residue_matrix(res, 1.0))
        assert np.abs(M + np.eye(2)).max() < 1e-15


def test_exp_delaunay_through_vanishing_residue():
    # a = b = 1/4: A(-1) = 0, mu = 0; the sinc continuation gives exactly I
    res = DelaunayResidue(0.25, 0.25)
    assert np.abs(delaunay_residue_matrix(res, -1.0)).max() == 0.0
    M = _exp2(np.array(2j * np.pi), delaunay_residue_matrix(res, -1.0))
    assert np.abs(M - np.eye(2)).max() == 0.0


def test_exp_delaunay_against_taylor_exponential():
    res = DelaunayResidue(0.375, 0.125)
    for lam in (1j, np.exp(0.3j), np.exp(-2.1j)):
        A = delaunay_residue_matrix(res, lam)
        want = _expm(2j * np.pi * A)
        assert np.abs(_exp2(np.array(2j * np.pi), A) - want).max() < 1e-12


@pytest.mark.parametrize("res", [
    (DelaunayResidue(0.375, 0.125), 0.0),         # unduloid
    (DelaunayResidue(0.75, -0.25), 0.0),          # nodoid
    (DelaunayResidue(0.25, 0.25), 0.0),           # round cylinder: mu(-1) = 0
    (DelaunayResidue(0.375, 0.125), 0.3 - 0.2j),  # diagonal d: mu^2 = d^2 + A01 A10
])
@pytest.mark.parametrize("w", [
    math.log(0.3), math.log(3.0),      # real
    1.1j, 2j * np.pi,                  # imaginary
    0.4 + 2j,                          # complex
    3e-5, 1e-5j,                       # |w mu| < 1e-4: the sinhc polynomial
])
def test_exp2_against_taylor_exponential(res, w):
    residue, d = res
    grid = LambdaGrid(16)
    A = delaunay_residue_matrix(residue, grid.points) + d * np.diag([1.0, -1.0])
    got = _exp2(np.array(w), A)
    want = np.stack([_expm(w * a) for a in A])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ----------------------------------------------------------- cylinder runs


def test_cylinder_monodromy_is_identity_at_lambda_one():
    xi = make_cylinder_potential(CylinderParams(1 / 3))
    M, _ = monodromy(xi, LambdaGrid(16), CFG)
    assert np.abs(M[0] - np.eye(2)).max() < 1e-8


def test_dressed_cylinder_monodromy_unitary():
    p = CylinderParams(-0.25)
    grid = LambdaGrid(64)
    cfg = PipelineConfig(fourier_degree=16, lambda_samples=64)
    frame0 = cylinder_basepoint_frame(p, grid.points)
    _, rep = monodromy(make_cylinder_potential(p), grid, cfg, frame0=frame0)
    assert rep.unitarity_error < 1e-6
    # the identity-seeded run is only conjugate to the unitary loop
    _, raw = monodromy(make_cylinder_potential(p), grid, cfg)
    assert raw.unitarity_error > 1e-3


def test_closing_conditions_away_from_default_r():
    p = CylinderParams(1 / math.sqrt(2))
    grid = LambdaGrid(64)
    cfg = PipelineConfig(fourier_degree=16, lambda_samples=64)
    frame0 = cylinder_basepoint_frame(p, grid.points)
    _, rep = monodromy(make_cylinder_potential(p), grid, cfg, frame0=frame0)
    assert rep.identity_error < 1e-8
    assert rep.derivative_error < 1e-5


# ---------------------------------------------------------------- trace law


def test_trace_law_sign_pinned_at_lambda_one():
    p = CylinderParams(1 / 3)
    grid = LambdaGrid(16)
    xi = make_cylinder_potential(p)
    M, _ = monodromy(xi, grid, CFG)
    a, b = delaunay_ab(p)
    mu1 = mu_eigenvalue(DelaunayResidue(a, b), 1.0)
    # tr M(1) = 2 and 2 cos(2 pi mu(1)) = -2: only the plus sign closes
    assert abs(np.trace(M[0]) - 2.0) < 1e-8
    assert abs(np.trace(M[0]) + 2.0 * np.cos(2.0 * np.pi * mu1)) < 1e-8
    assert abs(np.trace(M[0]) - 2.0 * np.cos(2.0 * np.pi * mu1)) > 3.9


def test_trace_law_residual_small():
    p = CylinderParams(1 / 3)
    a, b = delaunay_ab(p)
    cfg = PipelineConfig(fourier_degree=16, lambda_samples=64)
    defect = trace_law_check(make_cylinder_potential(p), DelaunayResidue(a, b),
                             LambdaGrid(64), cfg)
    assert defect < 1e-6


@pytest.mark.parametrize("r", [1 / 3, -0.25, 1 / math.sqrt(2), -1 / math.pi])
def test_trace_law_same_under_both_seeds(r):
    # the basepoint frame conjugates M by a lambda-dependent matrix, which
    # leaves the trace alone, so verify and generate can share one formula
    p = CylinderParams(r)
    res = DelaunayResidue(*delaunay_ab(p))
    grid = LambdaGrid(64)
    cfg = PipelineConfig(fourier_degree=16, lambda_samples=64)
    xi = make_cylinder_potential(p)
    _, raw = monodromy(xi, grid, cfg, res=res)
    _, seeded = monodromy(xi, grid, cfg, res=res,
                          frame0=cylinder_basepoint_frame(p, grid.points))
    assert abs(raw.trace_law_error - seeded.trace_law_error) <= 1e-9


def test_trace_law_wrong_residue_fails():
    p = CylinderParams(1 / 3)
    wrong = DelaunayResidue(0.75, -0.25)
    defect = trace_law_check(make_cylinder_potential(p), wrong,
                             LambdaGrid(16), CFG)
    assert defect > 0.1


# ------------------------------------------------------------ closing report


def test_closing_report_identity_family():
    grid = LambdaGrid(16)
    M = np.tile(np.eye(2, dtype=complex), (16, 1, 1))
    rep = closing_report(M, grid)
    assert rep.unitarity_error == 0.0
    assert rep.identity_error == 0.0
    assert rep.derivative_error < 1e-14
    assert math.isnan(rep.trace_law_error)


def test_closing_report_spectral_derivative():
    grid = LambdaGrid(16)
    lam = grid.points
    M = np.zeros((16, 2, 2), dtype=complex)
    M[:, 0, 0] = lam
    M[:, 1, 1] = 1.0 / lam
    rep = closing_report(M, grid)
    # d/d-lambda of diag(lam, 1/lam) at lam = 1 is diag(1, -1)
    assert abs(rep.derivative_error - 1.0) < 1e-12
    assert rep.identity_error < 1e-14
    assert rep.unitarity_error < 1e-14


def test_closing_report_sign_tracking():
    grid = LambdaGrid(8)
    M = np.tile(-np.eye(2, dtype=complex), (8, 1, 1))
    rep = closing_report(M, grid)
    # M(1) = -I closes as well as M(1) = I: the distance is to the nearer
    assert rep.identity_error == 0.0


# ------------------------------------------------------------- invariances


def test_monodromy_conjugation_covariance():
    p = CylinderParams(1 / 3)
    grid = LambdaGrid(16)
    xi = make_cylinder_potential(p)
    M0, _ = monodromy(xi, grid, CFG)
    C = np.array([[1.0, 0.7], [0.3, 1.21]], dtype=complex)  # det = 1
    C /= np.sqrt(np.linalg.det(C))
    MC, _ = monodromy(xi, grid, CFG, frame0=C)
    want = C @ M0 @ np.linalg.inv(C)
    assert np.abs(MC - want).max() < 1e-8


def test_tighter_tolerance_reduces_defect():
    res = DelaunayResidue(0.375, 0.125)
    grid = LambdaGrid(16)
    xi = make_delaunay_potential(res)
    want = _exp2(np.array(2j * np.pi), delaunay_residue_matrix(res, grid.points))
    defects = []
    for tol in (1e-4, 1e-6, 1e-8):
        cfg = PipelineConfig(fourier_degree=4, lambda_samples=16, ode_tol=tol)
        M, _ = monodromy(xi, grid, cfg)
        defects.append(np.abs(M - want).max())
    assert defects[2] < defects[0] / 10
    assert defects[2] < 1e-8


# ------------------------------------------------------------- half circuit

# the thresholds of `besselcmc verify monodromy`
CLOSING_BOUNDS = {"unitarity_error": 1e-6, "identity_error": 1e-8,
                  "derivative_error": 1e-5, "trace_law_error": 1e-6}
GRID128 = LambdaGrid(128)
CFG128 = PipelineConfig(fourier_degree=32, lambda_samples=128)


def declared_potentials():
    """Every constructor that declares a half turn, with its argument."""
    res = DelaunayResidue(0.375, 0.125)
    return {
        "cylinder(1/3)": make_cylinder_potential(CylinderParams(1 / 3)),
        "cylinder(-2.9)": make_cylinder_potential(CylinderParams(-2.9)),
        "bessel(0.3+0.1i)": make_bessel_potential(0.3 + 0.1j),
        "bessel(alpha(lambda))": make_bessel_potential(
            lambda lam: alpha_of(CylinderParams(-0.25), lam)),
        "delaunay": make_delaunay_potential(res),
    }


def perturbed_cylinder(p: CylinderParams, eps: float) -> PotentialSpec:
    """The cylinder potential with Q - eps / z^2: the half turn survives
    (sigma3, as for the cylinder), but the monodromy no longer closes."""
    xi = make_cylinder_potential(p)

    def evaluate(z, lam):
        up, lo = xi.evaluate(z, lam)
        return up, lo - eps * lam / (z * z)

    return PotentialSpec(evaluate, f"perturbed({eps})", xi.half_turn)


@pytest.mark.parametrize("name", list(declared_potentials()))
def test_declared_half_turn_holds(name):
    # (-z) xi(-z) = D (z xi(z)) D^-1, the symmetry the half circuit uses
    xi = declared_potentials()[name]
    D = xi.half_turn
    assert np.abs(D @ D - np.eye(2)).max() == 0.0
    rng = np.random.default_rng(5)
    z = rng.uniform(0.2, 3.0, 200) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    lam = np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    turned = -z[:, None, None] * xi(-z, lam)
    want = D @ (z[:, None, None] * xi(z, lam)) @ np.linalg.inv(D)
    assert np.abs(turned - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("r", [1 / 3, -0.25, 1 / math.sqrt(2), -1 / math.pi, 0.9, -2.9])
def test_half_circuit_matches_full_circuit_cylinder(r):
    # from the basepoint frame, as `verify monodromy` runs it; measured
    # at most 3.2e-12, and 4.9e-10 at r = -2.9 next to the r <= -3 limit
    p = CylinderParams(r)
    res = DelaunayResidue(*delaunay_ab(p))
    xi = make_cylinder_potential(p)
    frame0 = cylinder_basepoint_frame(p, GRID128.points)
    M, rep = monodromy(xi, GRID128, CFG128, frame0=frame0, res=res)
    want, full = full_circuit_monodromy(xi, GRID128, CFG128, frame0=frame0, res=res)
    assert np.abs(M - want).max() <= 1e-8
    for key, bound in CLOSING_BOUNDS.items():
        assert getattr(rep, key) <= bound and getattr(full, key) <= bound, key


@pytest.mark.parametrize("name", ["bessel(0.3+0.1i)", "delaunay"])
def test_half_circuit_matches_full_circuit_identity_turn(name):
    # D = I: K = Phi(i pi) Phi(0)^-1 is the half-circuit monodromy itself
    xi = declared_potentials()[name]
    M, _ = monodromy(xi, GRID128, CFG128)
    want, _ = full_circuit_monodromy(xi, GRID128, CFG128)
    assert np.abs(M - want).max() <= 1e-8


def test_half_circuit_sees_a_monodromy_that_does_not_close():
    # negative control: Q - eps / z^2 keeps the half turn but breaks the
    # closing conditions; both paths agree (1.1e-12) and every residual
    # fails its bound (3.4e-3, 6.3e-3, 5.7e-3 and 8.5e-3 measured)
    p = CylinderParams(1 / 3)
    res = DelaunayResidue(*delaunay_ab(p))
    xi = perturbed_cylinder(p, 1e-3)
    frame0 = cylinder_basepoint_frame(p, GRID128.points)
    M, rep = monodromy(xi, GRID128, CFG128, frame0=frame0, res=res)
    want, full = full_circuit_monodromy(xi, GRID128, CFG128, frame0=frame0, res=res)
    assert np.abs(M - want).max() <= 1e-8
    for key, bound in CLOSING_BOUNDS.items():
        assert getattr(rep, key) > 100 * bound, key
        assert abs(getattr(rep, key) - getattr(full, key)) <= 1e-8, key


def test_half_circuit_sees_a_wrong_basepoint_frame():
    # the frame of r + 1e-3 does not unitarize the monodromy of r: 8.3e-4
    p = CylinderParams(1 / 3)
    xi = make_cylinder_potential(p)
    frame0 = cylinder_basepoint_frame(CylinderParams(1 / 3 + 1e-3), GRID128.points)
    _, rep = monodromy(xi, GRID128, CFG128, frame0=frame0)
    _, full = full_circuit_monodromy(xi, GRID128, CFG128, frame0=frame0)
    assert rep.unitarity_error > 100 * CLOSING_BOUNDS["unitarity_error"]
    assert abs(rep.unitarity_error - full.unitarity_error) <= 1e-9


def test_lambda_gauged_cylinder_integrates_to_the_conjugate_frame():
    # Lambda is z-independent, so dg = 0 keeps the coefficient off-diagonal:
    # Lambda^-1 xi Lambda = [[0, c01 / lambda], [lambda c10, 0]], whose
    # frame from I is Lambda^-1 Phi Lambda
    p, grid = CylinderParams(0.5), LambdaGrid(8)
    cyl = make_cylinder_potential(p)

    def evaluate(z, lam):
        up, lo = cyl.evaluate(z, lam)
        return up / lam, lam * lo

    gauged = PotentialSpec(evaluate, "cylinder.Lambda")
    rng = np.random.default_rng(3)
    z = rng.uniform(0.5, 2.0, 50) * np.exp(1j * rng.uniform(-2.7, 2.7, 50))
    lam = np.exp(1j * rng.uniform(-2.7, 2.7, 50))
    want = gauge_transform(cyl, lambda_gauge())(z, lam)
    assert np.abs(gauged(z, lam) - want).max() <= 1e-15 * np.abs(want).max()
    end = integrate_frame(gauged, radial(1.0, 2.0), None, grid, CFG)
    g = lambda_gauge().evaluate(1.0, grid.points)
    phi = integrate_frame(cyl, radial(1.0, 2.0), None, grid, CFG)
    assert np.abs(end - np.linalg.inv(g) @ phi @ g).max() <= 1e-9 * np.abs(phi).max()


def test_path_into_the_puncture_raises_on_the_coefficient():
    # the flow calls evaluate without the pole check: where 1/z overflows,
    # w about -709.8 on this path, the coefficient is not finite and the
    # step loop raises, before exp(w) could underflow to z = 0
    xi = make_bessel_potential(0.3)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite coefficient"):
            integrate_frame(xi, PathSpec(0.0, -800.0), None, LambdaGrid(8), CFG)


def test_monodromy_needs_a_declared_half_turn():
    p = CylinderParams(0.5)
    bare = PotentialSpec(make_cylinder_potential(p).evaluate, "cylinder, no half turn")
    assert bare.half_turn is None
    for xi in (bare, zero_potential()):
        with pytest.raises(ValueError, match=re.escape(xi.description)):
            monodromy(xi, LambdaGrid(8), CFG)


# -------------------------------------------------------- DOP853 inner loop

def test_dop853_tableau_order_conditions():
    # a mistyped constant breaks one of these by far more than the roundoff
    # bound 4 eps sum |terms| (perturbing any constant in its 8th digit does)
    eps4 = 4 * np.finfo(float).eps
    b, c = np.array(flow._B), flow._C
    for k in range(1, 9):                       # quadrature of order 8
        terms = b * c ** (k - 1)
        assert abs(terms.sum() - 1 / k) <= eps4 * np.abs(terms).sum(), k
    assert len(flow._A) == len(c) == len(b) == 12
    for i, row in enumerate(flow._A):            # row sums are the nodes
        assert len(row) == i
        assert abs(sum(row) - c[i]) <= eps4 * (sum(map(abs, row)) + c[i]), i
    for e in (flow._E5, flow._E3):                # both error sums are differences
        assert len(e) == 12
        assert abs(sum(e)) <= eps4 * sum(map(abs, e))


def test_rk_segment_local_order_eight():
    # one accepted step of y' = y A from I is exp(h A) up to C h^9: halving
    # h divides the error by about 2^9 (473 and 503 measured); a 5th-order
    # step divides it by at most 2^6 = 64
    A = 2j * delaunay_residue_matrix(DelaunayResidue(0.375, 0.125), LambdaGrid(8).points)
    y0 = np.tile(np.eye(2, dtype=complex), (8, 1, 1))
    errors = []
    for h in (0.8, 0.4, 0.2):
        coeff, calls = counted(lambda s: constant_planes(A, s))
        y, _ = _rk_segment(coeff, y0, 0.0, h, 1e300, h0=h)
        assert calls[0] == 1
        errors.append(np.abs(y - _exp2(np.array(h), A)).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 2 ** 8.5, errors


def test_monodromy_takes_few_steps(monkeypatch):
    # the half circuit of `verify monodromy` at r = 1/3: 21 attempted
    # steps measured; a 5th-order pair takes 93
    calls = [0]
    real = flow._rk_segment

    def stepper(coeff, *args, **kwargs):
        wrapped, n = counted(coeff)
        try:
            return real(wrapped, *args, **kwargs)
        finally:
            calls[0] += n[0]

    monkeypatch.setattr(flow, "_rk_segment", stepper)
    p = CylinderParams(1 / 3)
    monodromy(make_cylinder_potential(p), GRID128, CFG128,
              frame0=cylinder_basepoint_frame(p, GRID128.points))
    assert 0 < calls[0] <= 30


def reference_rk_segment(coeff, y, s0, s1, rtol, atol=1e-14, h0=None):
    """The plain DOP853 loop: one coefficient call per stage (element [0]
    of a one-point call's planes, assembled into a 2x2 stack), generic
    matmul stage products and generator stage sums, with the same
    controller as flow._rk_segment."""
    span = s1 - s0
    h = h0 if h0 is not None else span / 32.0
    h = math.copysign(min(abs(h), abs(span)), span)
    s = s0
    k = [None] * 12
    while (s1 - s) * np.sign(span) > 1e-15 * abs(span):
        if abs(h) > abs(s1 - s):
            h = s1 - s
        for i in range(12):
            yi = y + h * sum(a * kj for a, kj in zip(flow._A[i], k))
            up, lo = coeff(np.array([s + flow._C[i] * h]))
            k[i] = yi @ _mat2(0, up[0], lo[0], 0)
        y8 = y + h * sum(b * ki for b, ki in zip(flow._B, k) if b != 0.0)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y8))
        err5 = h * sum(e * ki for e, ki in zip(flow._E5, k) if e != 0.0)
        err3 = h * sum(e * ki for e, ki in zip(flow._E3, k) if e != 0.0)
        sq5 = np.sum(np.abs(err5 / scale) ** 2, axis=(-2, -1))
        sq3 = np.sum(np.abs(err3 / scale) ** 2, axis=(-2, -1))
        deno = sq5 + 0.01 * sq3
        ratio = sq5 / np.sqrt(4 * np.where(deno > 0, deno, 1.0))
        worst = float(ratio.max())
        if worst <= 1.0:
            s = s + h
            y = y8
        grow = 0.9 * worst ** -0.125 if worst > 0 else 5.0
        h = h * min(5.0, max(0.2, grow))
        if abs(h) < 1e-13 * abs(span):
            raise RuntimeError(f"step-size underflow at path parameter {s!r}")
    return y, h


def counted(coeff):
    calls = [0]

    def wrapped(s):
        calls[0] += 1
        return coeff(s)

    return wrapped, calls


def constant_planes(c, s):
    """The entry planes of a constant off-diagonal coefficient c, a
    (..., 2, 2) stack, at every stage point s."""
    return tuple(np.broadcast_to(c[..., i, 1 - i], s.shape + c.shape[:-2])
                 for i in range(2))


def cylinder_ray_coeff(n_rays=4, m=32):
    """Coefficient planes of n_rays radial rays |z| in [1, 2.5], the
    layout of the surface sweep: (n_rays, m) per plane and stage point."""
    xi = make_cylinder_potential(CylinderParams(-0.25))
    lam = LambdaGrid(m).points[None, :]
    theta = np.linspace(0.0, 2.0 * np.pi, n_rays, endpoint=False)[:, None]
    w0, dw = 1j * theta, math.log(2.5) + 0j * theta

    def coeff(s):
        z = np.exp(w0 + s[:, None, None] * dw)
        up, lo = xi.evaluate(z, lam)
        return up * (z * dw), lo * (z * dw)

    y0 = np.tile(np.eye(2, dtype=complex), (n_rays, m, 1, 1))
    return coeff, y0


def bessel_state_coeff(alpha=0.7, w1=math.log(3.0) + 0.5j):
    """Row-vector Bessel system: one-member planes per stage point against
    a (1, 2, 2) state."""
    a2 = alpha * alpha

    def coeff(s):
        return (a2 - np.exp(2.0 * s * w1))[:, None] * w1, np.full((len(s), 1), w1)

    y0 = np.array([[[1.0, 0.3], [0.0, 0.0]]], dtype=complex)
    return coeff, y0


@pytest.mark.parametrize("case", ["cylinder_rays", "bessel_state"])
def test_rk_segment_matches_plain_loop(case):
    coeff, y0 = cylinder_ray_coeff() if case == "cylinder_rays" else bessel_state_coeff()
    new_coeff, new_calls = counted(coeff)
    old_coeff, old_calls = counted(coeff)
    y_new, h_new = _rk_segment(new_coeff, y0, 0.0, 1.0, 1e-10)
    y_old, h_old = reference_rk_segment(old_coeff, y0, 0.0, 1.0, 1e-10)
    assert old_calls[0] == 12 * new_calls[0] > 72     # one call per attempted step
    assert y_new.shape == y_old.shape == y0.shape
    assert np.abs(y_new - y_old).max() <= 1e-12 * np.abs(y_old).max()
    # the next step size follows the error estimate, a difference of
    # nearly equal stage sums, so it carries amplified roundoff
    assert abs(h_new - h_old) <= 1e-6 * abs(h_old)


_FINITE = st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("family", ["frame", "rays", "bessel"])
@given(data=st.data())
def test_stage_product_is_mul2_of_the_assembled_stack(family, data):
    # the planes' shapes per stage: a frame family (integrate_frame) has
    # members (1, m), with c01 = 1/lam (cylinder) or 1/z (Bessel potential);
    # the spanning-tree ray sweep (rays, m); the Bessel scalar family (n,)
    # with one shared c10; m = 128 with 8 rays crosses _mul2's loop switch
    m = data.draw(st.sampled_from([4, 16, 128]), label="m")
    n = data.draw(st.integers(1, 8), label="rays or n")
    members, up_shape, lo_shape = {
        "frame": ((1, m), data.draw(st.sampled_from([(1, 1), (1, m)])), (1, m)),
        "rays": ((n, m), (n, m), (n, m)),
        "bessel": ((n,), (n,), (1,)),
    }[family]
    y = data.draw(arrays(complex, members + (2, 2), elements=_FINITE), label="y")
    up = data.draw(arrays(complex, up_shape, elements=_FINITE), label="c01")
    lo = data.draw(arrays(complex, lo_shape, elements=_FINITE), label="c10")
    out = np.empty_like(y)
    flow._stage(out, y, up[..., None], lo[..., None])
    assert np.array_equal(out, _mul2(y, _mat2(0, up, lo, 0)))


def test_rk_segment_step_underflow_raises():
    # eigenvalues +-1e12, as diag(1e12, -1e12) has
    stiff = 1e12 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    y0 = np.eye(2, dtype=complex)[None]
    with pytest.raises(RuntimeError, match="step-size underflow"):
        _rk_segment(lambda s: constant_planes(stiff[None], s), y0, 0.0, 1.0, 1e-10)


def test_rk_segment_overflowing_trial_step_is_rejected():
    # y = 1e300 I rotating at rate 50 (y' = y 50i sigma1, eigenvalues
    # +-50i): the stages of the trial step h = 1 overflow, and it is
    # rejected with the minimum factor 0.2, with no warning; the steps
    # then settle near h = 0.0066
    rate = 50j * np.array([[0.0, 1.0], [1.0, 0.0]])
    lengths = []

    def coeff(s):
        lengths.append(s[-1] - s[0])
        return constant_planes(rate[None], s)

    y0 = 1e300 * np.eye(2, dtype=complex)[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, _ = _rk_segment(coeff, y0, 0.0, 1.0, 1e-10, h0=1.0)
    assert lengths[:2] == [1.0, 0.2]
    want = 1e300 * (np.cos(50.0) * np.eye(2) + 1j * np.sin(50.0) * rate / 50j)
    assert np.abs(y[0] - want).max() <= 1e-8 * 1e300


def test_rk_segment_nan_error_raises():
    # a NaN error norm rejects every step, and the step size cannot shrink
    # past the span it is clamped to; the bound turns a hang into a failure
    calls = [0]

    def nan_coeff(s):
        calls[0] += 1
        assert calls[0] < 1000, "the NaN step repeats"
        nan = np.full(s.shape + (1,), np.nan, dtype=complex)
        return nan, nan

    y0 = np.eye(2, dtype=complex)[None]
    with pytest.raises(RuntimeError, match="path parameter 0.0"):
        _rk_segment(nan_coeff, y0, 0.0, 1.0, 1e-10)
    assert calls[0] == 1
    with pytest.raises(RuntimeError, match="path parameter"):
        bessel_integrate(float("nan"), PathSpec(0.0, 1.0), 1.0, 0.0)


def closing_and_bessel_outputs():
    """The cylinder monodromy (r = 1/3, m = 128, from the basepoint frame)
    and a scalar Bessel solution (alpha = 0.3 + 0.1i, z: 1 -> 3)."""
    p, grid = CylinderParams(1 / 3), LambdaGrid(128)
    cfg = PipelineConfig(fourier_degree=32, lambda_samples=128)
    M, _ = monodromy(make_cylinder_potential(p), grid, cfg,
                     frame0=cylinder_basepoint_frame(p, grid.points))
    return M, bessel_integrate(0.3 + 0.1j, radial(1.0, 3.0), 1.0, 0.0, cfg)


def test_batched_coefficient_adds_no_rounding(monkeypatch):
    """One coefficient call on all twelve stage points gives the bits of
    twelve one-point calls, for both producers of stage stacks."""
    M, sol = closing_and_bessel_outputs()
    patched = set()

    def per_point(module):
        real = module._rk_segment

        def stepper(coeff, *args, **kwargs):
            patched.add(module.__name__)

            def one_point_calls(s):
                calls = [coeff(s[i:i + 1]) for i in range(len(s))]
                return tuple(np.concatenate(plane) for plane in zip(*calls))

            return real(one_point_calls, *args, **kwargs)
        return stepper

    for module in (flow, bessel):
        monkeypatch.setattr(module, "_rk_segment", per_point(module))
    M1, sol1 = closing_and_bessel_outputs()
    assert patched == {"besselcmc.flow", "besselcmc.bessel"}    # both patches bite
    assert np.array_equal(M1, M)
    for field in ("y", "dy", "d2y"):
        assert np.array_equal(getattr(sol1, field), getattr(sol, field))
