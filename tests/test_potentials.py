"""Potentials, gauges, residue data, and the identities tying them together."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from besselcmc import (
    CylinderParams,
    DelaunayResidue,
    GaugeSpec,
    LambdaGrid,
    PipelineConfig,
    alpha_of,
    bessel_gauge_g1,
    bessel_gauge_g2,
    cylinder_basepoint_frame,
    delaunay_ab,
    delaunay_residue_matrix,
    gauge_transform,
    lambda_gauge,
    make_bessel_potential,
    make_cylinder_potential,
    monodromy,
    mu_eigenvalue,
    t_of_lambda,
    verify_gauge_chain,
    verify_mu_alpha_identity,
    verify_symmetry_relations,
)
from besselcmc import potentials
from besselcmc.potentials import _frobenius_coefficients
from oracles import make_delaunay_potential

R_VALUES = st.one_of(st.floats(-6.0, -1e-3), st.floats(1e-3, 0.999))


# ------------------------------------------------------------ point values


def test_bessel_point_values():
    xi = make_bessel_potential(0.0)
    assert np.allclose(xi(1.0, 1.0), [[0, 1], [-1, 0]], atol=1e-15)
    xi = make_bessel_potential(0.5)
    assert np.allclose(xi(1.0, 1.0), [[0, 1], [-0.75, 0]], atol=1e-15)
    assert abs(xi(2.0, 1.0)[0, 1] - 0.5) < 1e-15


def test_cylinder_point_values():
    p = CylinderParams(1 / 3)
    xi = make_cylinder_potential(p)
    # t(1) = 0, so the Schwarzian term drops and Q = -1
    assert np.allclose(xi(1.0, 1.0), [[0, 1], [-1, 0]], atol=1e-15)
    # t(-1) = 1:  Q = -r/4 - 1 = -13/12, entries (1/lam, lam*Q)
    v = xi(1.0, -1.0)
    assert abs(v[0, 1] - (-1.0)) < 1e-15
    assert abs(v[1, 0] - 13 / 12) < 1e-15


def test_delaunay_point_values():
    res = DelaunayResidue(0.375, 0.125)
    xi = make_delaunay_potential(res)
    assert np.allclose(xi(1.0, 1.0), [[0, 0.5], [0.5, 0]], atol=1e-15)
    assert np.allclose(xi(1.0, -1.0), [[0, -0.25], [-0.25, 0]], atol=1e-15)
    assert np.abs(xi(2.0, 1.0) - xi(1.0, 1.0) / 2).max() < 1e-15


def test_pole_evaluation_rejected():
    with pytest.raises(ValueError):
        make_cylinder_potential(CylinderParams(0.5))(0.0, 1.0)
    with pytest.raises(ValueError):
        make_bessel_potential(0.0)(np.array([1.0, 0.0]), 1.0)


# Reference evaluators: the potentials with both arguments broadcast first.

def _reference_bessel(alpha):
    def evaluate(z, lam):
        a = np.asarray(alpha(lam) if callable(alpha) else alpha, dtype=complex)
        z, a = np.broadcast_arrays(z, a)
        xi = np.zeros(z.shape + (2, 2), dtype=complex)
        xi[..., 0, 1] = 1.0 / z
        xi[..., 1, 0] = -z + a * a / z
        return xi
    return evaluate


def _reference_cylinder(p):
    def evaluate(z, lam):
        z, lam = np.broadcast_arrays(z, lam)
        Q = -p.r * t_of_lambda(lam) / (4.0 * z * z) - 1.0
        xi = np.zeros(z.shape + (2, 2), dtype=complex)
        xi[..., 0, 1] = 1.0 / lam
        xi[..., 1, 0] = lam * Q
        return xi
    return evaluate


def _reference_delaunay(res):
    def evaluate(z, lam):
        z, lam = np.broadcast_arrays(z, lam)
        return delaunay_residue_matrix(res, lam) / z[..., None, None]
    return evaluate


_P = CylinderParams(-0.25)
_RES = DelaunayResidue(*delaunay_ab(_P))
_EVALUATORS = {
    "cylinder": (make_cylinder_potential(_P), _reference_cylinder(_P)),
    "bessel_const": (make_bessel_potential(0.7), _reference_bessel(0.7)),
    "bessel_callable": (make_bessel_potential(lambda l: alpha_of(_P, l)),
                        _reference_bessel(lambda l: alpha_of(_P, l))),
    "delaunay": (make_delaunay_potential(_RES), _reference_delaunay(_RES)),
}
_RAYS = 1.3 * np.exp(1j * np.linspace(0.0, 6.0, 3))


@pytest.mark.parametrize("name", sorted(_EVALUATORS))
@pytest.mark.parametrize("z, lam", [
    (_RAYS[:, None], LambdaGrid(16).points[None, :]),   # (B, 1) x (1, m)
    (0.8 + 0.3j, LambdaGrid(16).points),                # scalar z, array lambda
    (_RAYS, np.exp(0.4j)),                              # array z, scalar lambda
], ids=["rays", "scalar_z", "scalar_lambda"])
def test_evaluators_match_broadcast_reference(name, z, lam):
    xi, reference = _EVALUATORS[name]
    got = xi(z, lam)
    want = reference(np.asarray(z, dtype=complex), np.asarray(lam, dtype=complex))
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(_EVALUATORS))
def test_pole_checked_on_every_call(name):
    xi, _ = _EVALUATORS[name]
    xi(_RAYS, 1.0)
    with pytest.raises(ValueError, match="pole z=0"):
        xi(np.append(_RAYS, 0.0), 1.0)


# --------------------------------------------------------------- residue data


def test_delaunay_ab_values():
    a, b = delaunay_ab(CylinderParams(0.75))
    assert abs(a - 0.375) < 1e-15 and abs(b - 0.125) < 1e-15
    a, b = delaunay_ab(CylinderParams(-3.0))
    assert abs(a - 0.75) < 1e-15 and abs(b + 0.25) < 1e-15


@given(R_VALUES)
def test_ab_product_is_r_over_16(r):
    a, b = delaunay_ab(CylinderParams(r))
    assert abs(a + b - 0.5) < 1e-15
    assert abs(a * b - r / 16) < 1e-14 * max(1.0, abs(r))
    assert np.sign(a * b) == np.sign(r)


def test_mu_squared_point_value():
    # a=3/8, b=1/8 at lam=i: lam + 1/lam = 0, so mu^2 = 9/64 + 1/64 = 5/32
    res = DelaunayResidue(0.375, 0.125)
    assert abs(mu_eigenvalue(res, 1j) ** 2 - 5 / 32) < 1e-15
    # at lam=1 the square is (a+b)^2 = 1/4 for every admissible residue
    assert abs(mu_eigenvalue(res, 1.0) - 0.5) < 1e-15


def test_residue_matrix_eigenvalues():
    res = DelaunayResidue(0.375, 0.125)
    lam = LambdaGrid(16).points
    A = delaunay_residue_matrix(res, lam)
    mu = mu_eigenvalue(res, lam)
    ev = np.linalg.eigvals(A)
    # sort both eigenvalue pairs the same way before comparing
    worst = 0.0
    for k in range(len(lam)):
        got = sorted(ev[k], key=lambda w: (w.real, w.imag))
        want = sorted([mu[k], -mu[k]], key=lambda w: (w.real, w.imag))
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    assert worst < 1e-13


def test_param_validation():
    for bad in (0.0, 1.0, 2.5, np.inf, np.nan):
        with pytest.raises(ValueError):
            CylinderParams(bad)
    with pytest.raises(ValueError):
        DelaunayResidue(0.3, 0.3)
    # the closing condition is on a+b only; negative b is legal
    DelaunayResidue(0.75, -0.25)
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="ode_tol"):
            PipelineConfig(ode_tol=tol)


@pytest.mark.parametrize("abc", [
    (np.nan, 0.25),                         # NaN compares False in the a+b check
    (0.25, np.nan),
    (np.inf, -np.inf),
    (0.25 + 0.1j, 0.25 - 0.1j),             # complex, yet a+b = 1/2
])
def test_residue_rejects_nonfinite_or_complex(abc):
    with pytest.raises(ValueError, match="finite real"):
        DelaunayResidue(*abc)


def test_residue_accepts_numpy_and_int_reals():
    lam = LambdaGrid(16).points
    for res in (DelaunayResidue(np.float64(0.375), np.float32(0.125)),
                DelaunayResidue(1, np.float64(-0.5))):
        A = delaunay_residue_matrix(res, lam)
        assert np.abs(A - np.conj(np.swapaxes(A, -1, -2))).max() < 1e-15   # Hermitian


def test_t_real_on_circle():
    lam = LambdaGrid(64).points
    t = t_of_lambda(lam)
    assert np.abs(t.imag).max() < 1e-15
    assert t.real.min() > -1e-15 and t.real.max() < 1 + 1e-15


def test_alpha_at_lambda_one():
    assert abs(alpha_of(CylinderParams(-0.25), 1.0) - 0.5) < 1e-16


# -------------------------------------------------------------------- gauges


def _fd_derivative(g: GaugeSpec, z, lam, h=1e-6):
    return (g.evaluate(z + h, lam) - g.evaluate(z - h, lam)) / (2 * h)


@pytest.mark.parametrize("gauge", [
    bessel_gauge_g1(), bessel_gauge_g2(), lambda_gauge(),
], ids=lambda g: g.description)
def test_gauge_derivative_consistent(gauge):
    z = 1.3 + 0.4j
    lam = np.exp(0.7j)
    fd = _fd_derivative(gauge, z, lam)
    assert np.abs(fd - gauge.derivative(z, lam)).max() < 1e-8


@pytest.mark.parametrize("gauge, value, derivative", [
    (bessel_gauge_g1(),
     lambda z, lam: [[z ** -0.5, 0], [0, z ** 0.5]],
     lambda z, lam: [[-0.5 * z ** -1.5, 0], [0, 0.5 * z ** -0.5]]),
    (bessel_gauge_g2(),
     lambda z, lam: [[1, 0], [0.5 / z, 1]],
     lambda z, lam: [[0, 0], [-0.5 / (z * z), 0]]),
    (lambda_gauge(),                 # dg/dz: four constant entries
     lambda z, lam: [[lam ** 0.5, 0], [0, lam ** -0.5]],
     lambda z, lam: [[0, 0], [0, 0]]),
], ids=["g1", "g2", "Lambda"])
def test_gauges_broadcast_z_against_lambda(gauge, value, derivative):
    z = 1.3 * np.exp(1j * np.linspace(-2.0, 2.0, 3))[:, None]     # (3, 1)
    lam = LambdaGrid(16).points[None, :]                          # (1, 16)
    zb, lb = np.broadcast_arrays(z, lam)
    for stack, entries in ((gauge.evaluate, value), (gauge.derivative, derivative)):
        got = stack(z, lam)
        assert got.shape == (3, 16, 2, 2)
        want = entries(zb, lb)
        for i in range(2):
            for j in range(2):
                assert np.allclose(got[..., i, j], want[i][j], rtol=1e-15, atol=0)


@given(st.integers(0, 2**32 - 1))
def test_gauge_action_composes(seed):
    # (xi.g1).g2 agrees with xi.(g1 g2) built as a single product gauge
    rng = np.random.default_rng(seed)
    xi = make_bessel_potential(0.3)
    g1, g2 = bessel_gauge_g1(), bessel_gauge_g2()

    def prod_eval(z, lam):
        return g1.evaluate(z, lam) @ g2.evaluate(z, lam)

    def prod_deriv(z, lam):
        return (g1.derivative(z, lam) @ g2.evaluate(z, lam)
                + g1.evaluate(z, lam) @ g2.derivative(z, lam))

    g12 = GaugeSpec(prod_eval, prod_deriv, description="g1*g2")
    z = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-2.7, 2.7))
    lam = np.exp(1j * rng.uniform(-np.pi, np.pi))
    two_step = gauge_transform(gauge_transform(xi, g1), g2)(z, lam)
    one_step = gauge_transform(xi, g12)(z, lam)
    assert np.abs(two_step - one_step).max() < 1e-10


@given(R_VALUES, st.integers(0, 2**32 - 1))
def test_potentials_trace_free(r, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    lam = np.exp(1j * rng.uniform(-np.pi, np.pi))
    p = CylinderParams(r)
    a, b = delaunay_ab(p)
    for xi in (make_cylinder_potential(p), make_delaunay_potential(DelaunayResidue(a, b)),
               make_bessel_potential(alpha_of(p, lam))):
        v = xi(z, lam)
        assert abs(v[..., 0, 0] + v[..., 1, 1]) < 1e-14


# ---------------------------------------------------------- chain identities


def test_gauge_chain_reaches_cylinder():
    out = verify_gauge_chain(CylinderParams(1 / 3))
    assert out["reduced"] < 1e-10
    assert out["cylinder"] < 1e-10


def test_gauge_chain_detects_wrong_order(monkeypatch):
    # the order fed into the Bessel potential is off by 0.1; the targets are not
    real = potentials.make_bessel_potential
    monkeypatch.setattr(potentials, "make_bessel_potential",
                        lambda alpha: real(lambda lam: alpha(lam) + 0.1))
    out = verify_gauge_chain(CylinderParams(1 / 3))
    assert out["reduced"] > 1e-2
    assert out["cylinder"] > 1e-2


@given(R_VALUES)
def test_mu_alpha_identity(r):
    lam = LambdaGrid(64).points
    assert verify_mu_alpha_identity(CylinderParams(r), lam) < 1e-12


def test_symmetry_relations_hold_for_cylinder():
    p = CylinderParams(-0.25)
    xi = make_cylinder_potential(p)
    rng = np.random.default_rng(17)
    samples = [(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi)),
                np.exp(1j * rng.uniform(-np.pi, np.pi))) for _ in range(50)]
    assert verify_symmetry_relations(xi, samples) < 1e-12


def test_symmetry_relations_flag_broken_potential():
    from besselcmc.potentials import PotentialSpec

    p = CylinderParams(-0.25)
    base = make_cylinder_potential(p)

    def crooked(z, lam):
        up, lo = base.evaluate(z, lam)
        return up, lo + 0.1j  # imaginary offset breaks the reality relation

    xi = PotentialSpec(crooked, "crooked")
    samples = [(1.2 + 0.3j, np.exp(0.9j))]
    assert verify_symmetry_relations(xi, samples) > 0.1


# ------------------------------------------------------- basepoint frame


def _kronecker_coefficients(p, lam, n_terms):
    """The Frobenius coefficients with each step (2j + ad_A) P_2j = P_2j-2 N1
    solved as a 4x4 linear system on row-major vec, the right factor
    (a + b lambda)^1/2 g2c^-1 folded in by a generic inverse."""
    a, b = delaunay_ab(p)
    A = delaunay_residue_matrix(DelaunayResidue(a, b), lam)
    m = len(lam)
    det = a + b * lam
    eye2 = np.eye(2)
    K = (np.einsum("mij,kl->mikjl", A, eye2)
         - np.einsum("ij,mkl->mikjl", eye2, np.transpose(A, (0, 2, 1)))).reshape(m, 4, 4)
    P = np.tile(np.eye(2, dtype=complex), (m, 1, 1))
    terms = [P]
    for j in range(1, n_terms):
        rhs = np.zeros_like(P)
        rhs[:, :, 0] = P[:, :, 1] * (-lam / det)[:, None]
        P = np.linalg.solve(2 * j * np.eye(4) + K, rhs.reshape(m, 4, 1)).reshape(m, 2, 2)
        terms.append(P)
    g2c = np.zeros((m, 2, 2), dtype=complex)
    g2c[:, 0, 0], g2c[:, 1, 0], g2c[:, 1, 1] = 1.0, -lam / 2, det
    return np.stack(terms) @ (np.sqrt(det)[:, None, None] * np.linalg.inv(g2c))


@pytest.mark.parametrize("r", [1 / 3, -0.25, 0.9, -1.5, -2.5, -2.9])
def test_frobenius_resolvent_matches_kronecker_solve(r):
    p = CylinderParams(r)
    lam = LambdaGrid(128).points
    got = _frobenius_coefficients(p, lam, 2.5)
    want = _kronecker_coefficients(p, lam, len(got))
    assert len(got) > 8
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def test_basepoint_frame_unimodular():
    lam = LambdaGrid(32).points
    for r in (1 / 3, -0.25, 0.9):
        phi0 = cylinder_basepoint_frame(CylinderParams(r), lam)
        assert phi0.shape == (32, 2, 2)
        assert np.abs(np.linalg.det(phi0) - 1.0).max() < 1e-10


def test_basepoint_frame_resonant_range_rejected():
    lam = LambdaGrid(8).points
    for r in (-3.0, -5.0):
        with pytest.raises(ValueError, match="cannot be unitarized"):
            cylinder_basepoint_frame(CylinderParams(r), lam)


def test_monodromy_is_a_jordan_block_at_r_minus_three():
    # why r <= -3 is rejected: at lambda = -1, where 2 mu = 2, the monodromy
    # has trace -2 and det 1 but is not -I, so it is not diagonalizable and
    # no change of basepoint frame makes it unitary
    grid = LambdaGrid(32)
    assert abs(grid.points[16] + 1.0) < 1e-15
    M, _ = monodromy(make_cylinder_potential(CylinderParams(-3.0)), grid,
                     PipelineConfig(8, 32, 1e-12))
    m = M[16]
    assert abs(np.trace(m) + 2.0) <= 1e-8
    assert abs(np.linalg.det(m) - 1.0) <= 1e-8
    assert np.abs(m + np.eye(2)).max() > 1.0
