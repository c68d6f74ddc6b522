"""The lambda grid and the closed-form 2x2 kernels against numpy references."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from besselcmc import LambdaGrid
from besselcmc.loops import _ENTRIES_FROM, _det2, _dlambda_at_one, _inv2, _mat2, _mul2, _rdiv2
from oracles import chol2


def random_stack(rng, shape):
    return (rng.normal(size=(*shape, 2, 2))
            + 1j * rng.normal(size=(*shape, 2, 2)))


def hpd_stack(rng, shape):
    """Hermitian positive-definite stack, lowest eigenvalue >= 0.1."""
    a = random_stack(rng, shape)
    return a @ np.conj(np.swapaxes(a, -1, -2)) + 0.1 * np.eye(2)


# --------------------------------------------------------------------- grid


def test_lambda_grid_validation():
    for bad in (0, 2, 3, 12, -8):
        with pytest.raises(ValueError):
            LambdaGrid(bad)


def test_lambda_grid_on_unit_circle():
    g = LambdaGrid(32)
    assert np.abs(np.abs(g.points) - 1.0).max() < 1e-15
    assert g.points[0] == 1.0
    ks = g.wavenumbers()
    assert ks.min() == -16 and ks.max() == 15


# ------------------------------------------------------------------ kernels


def test_mat2_broadcasts_its_entries():
    col = np.arange(1.0, 7.0)[:, None]                 # (6, 1)
    row = 1j * np.arange(16.0)[None, :]                # (1, 16)
    got = _mat2(col, 0, row, 2.5)
    assert got.shape == (6, 16, 2, 2) and got.dtype == complex
    assert np.array_equal(got[..., 0, 0], np.broadcast_to(col, (6, 16)))
    assert np.array_equal(got[..., 1, 0], np.broadcast_to(row, (6, 16)))
    assert not got[..., 0, 1].any() and (got[..., 1, 1] == 2.5).all()
    # array entries of one shape; a 0-d entry; scalars only
    same = _mat2(col, col, 0, -col)
    assert same.shape == (6, 1, 2, 2)
    assert np.array_equal(same, col[..., None, None] * np.array([[1, 1], [0, -1]]))
    assert _mat2(np.asarray(3.0), col, 0, 0).shape == (6, 1, 2, 2)
    assert np.array_equal(_mat2(1, 0, 2j, 1), np.array([[1, 0], [2j, 1]]))


# (1, m) stacks (the monodromy's K), a broadcast of one matrix per node
# against a row of them, single-node stacks; the (nodes, m) stacks of a
# factored block (the series frames, and H = Phi* Phi, F = Phi B^-1 and
# the residuals of the tests' reference recursion) and that recursion's
# first generator row R0^-1 [H_0 .. H_65].  All but the single-node stack hold
# at least _ENTRIES_FROM matrices and their one-node slices fewer, so the
# two forms of the product meet.
@pytest.mark.parametrize("sa, sb", [
    ((25, 128), (25, 128)),
    ((256, 1), (256, 34)),
    ((1, 128), (1, 128)),
    ((256, 128), (256, 128)),
    ((256, 1), (256, 66)),
])
def test_mul2_matches_matmul(sa, sb):
    rng = np.random.default_rng(0)
    a, b = random_stack(rng, sa), random_stack(rng, sb)
    got = _mul2(a, b)
    want = np.matmul(a, b)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-14 * np.abs(want).max()
    # both forms take the same sums in the same order
    assert max(a.size, b.size) // 4 >= _ENTRIES_FROM or sa == (1, 128)
    nodes = np.concatenate([_mul2(a[i:i + 1], b[i:i + 1]) for i in range(sa[0])])
    assert np.array_equal(got, nodes)


@given(st.integers(0, 2**32 - 1))
def test_inv2_and_det2_match_linalg(seed):
    rng = np.random.default_rng(seed)
    # diagonal shift keeps every matrix far from singular
    a = random_stack(rng, (64,)) + 6.0 * np.eye(2)
    want_det = np.linalg.det(a)
    assert np.abs(_det2(a) - want_det).max() < 1e-14 * np.abs(want_det).max()
    want_inv = np.linalg.inv(a)
    assert np.abs(_inv2(a) - want_inv).max() < 1e-14 * np.abs(want_inv).max()
    b = random_stack(rng, (64,))
    want_div = b @ want_inv
    assert np.abs(_rdiv2(b, a) - want_div).max() < 1e-14 * np.abs(want_div).max()


@given(st.integers(0, 2**32 - 1))
def test_chol2_matches_cholesky_reading_lower_triangle(seed):
    rng = np.random.default_rng(seed)
    h = hpd_stack(rng, (3, 40))
    want = np.linalg.cholesky(h)
    garbage = h.copy()
    garbage[..., 0, 1] = 1e3 * (rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40)))
    got = chol2(garbage)
    assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()
    assert np.all(got[..., 0, 1] == 0.0)
    assert np.all(got[..., 0, 0].imag == 0.0) and np.all(got[..., 1, 1].imag == 0.0)


@pytest.mark.parametrize("bad", [
    [[1.0, 0.0], [2.0, 1.0]],        # indefinite: second pivot 1 - 4 < 0
    [[-1.0, 0.0], [0.0, 1.0]],       # indefinite: first pivot < 0
    [[np.nan, 0.0], [0.0, 1.0]],     # NaN first pivot
    [[1.0, 0.0], [0.0, np.nan]],     # NaN second pivot
])
def test_chol2_rejects_non_positive_pivot(bad):
    h = hpd_stack(np.random.default_rng(1), (5,))
    h[3] = np.array(bad, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        chol2(h)


@pytest.mark.parametrize("m", [16, 128])
def test_dlambda_at_one_is_weighted_coefficient_sum(m):
    rng = np.random.default_rng(m)
    grid = LambdaGrid(m)
    ks = np.arange(-(m // 2) + 1, m // 2)            # |k| < m/2
    coeffs = random_stack(rng, (3, ks.size))          # X_k for three loops
    powers = grid.points[:, None] ** ks               # (m, n)
    samples = np.einsum("jk,bkxy->bjxy", powers, coeffs)
    want = np.einsum("k,bkxy->bxy", ks.astype(float), coeffs)
    got = _dlambda_at_one(samples, grid)
    assert got.shape == (3, 2, 2)
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
