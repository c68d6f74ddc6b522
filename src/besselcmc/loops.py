"""The lambda-circle and the 2x2 kernels every pipeline stage shares.

A loop is a map lambda -> X(lambda) into 2x2 complex matrices, held as its
samples on a uniform power-of-two grid of the unit circle (LambdaGrid),
with lambda = 1 as the first sample.  Every 2x2 stack the package builds
comes from one constructor, _mat2(a00, a01, a10, a11), which broadcasts
its four entries.  Products, inverses, determinants and Cholesky factors
of such stacks are taken in closed form (_mul2, _inv2, _rdiv2, _det2,
_chol2_entries), which is cheaper than generic batched linear algebra on
2x2 matrices, and so is the exponential exp(w A) of a trace-free residue
(_exp2); no np.linalg call touches a 2x2 stack.  The one derivative the
pipeline needs, d/d-lambda at lambda = 1, is spectral: one weighted sum
over the samples (_dlambda_at_one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LambdaGrid"]


@dataclass(frozen=True)
class LambdaGrid:
    """Uniform samples lambda_j = exp(2*pi*i*j/m) of the unit circle."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 4 or (self.m & (self.m - 1)) != 0:
            raise ValueError(f"m must be a power of two >= 4, got {self.m}")

    @property
    def points(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.m) / self.m)

    def wavenumbers(self) -> np.ndarray:
        """Signed exponents in FFT order: 0, 1, ..., m/2-1, -m/2, ..., -1."""
        return (np.fft.fftfreq(self.m) * self.m).astype(int)


_ENTRY = ((..., 0, 0), (..., 0, 1), (..., 1, 0), (..., 1, 1))


def _mat2(a00, a01, a10, a11) -> np.ndarray:
    """The complex stack [[a00, a01], [a10, a11]] of broadcastable entries.

    Entries are arrays or scalars; the stack has their broadcast shape.
    No call is left in the Runge-Kutta step loop (the flow multiplies
    coefficient planes, flow._stage), so no shortcut is taken here.
    """
    entries = (a00, a01, a10, a11)
    out = np.empty(np.broadcast(*entries).shape + (2, 2), dtype=complex)
    for ij, e in zip(_ENTRY, entries):
        out[ij] = e
    return out


def _det2(a: np.ndarray) -> np.ndarray:
    """Closed-form determinant of a stack of 2x2 matrices."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def _inv2(a: np.ndarray) -> np.ndarray:
    """Closed-form inverse of a stack of 2x2 matrices."""
    return (_mat2(a[..., 1, 1], -a[..., 0, 1], -a[..., 1, 0], a[..., 0, 0])
            / _det2(a)[..., None, None])


def _norm2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a|^2 + |b|^2 of two complex entry planes, as a real plane: a
    diagonal entry of X* X (a, b a column of X) or of X X* (a row)."""
    return a.real ** 2 + a.imag ** 2 + (b.real ** 2 + b.imag ** 2)


def _rdiv2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b^-1 = a adj(b) / det(b) for stacks of 2x2 matrices.

    Formed entry by entry, so no inverse stack is built: the temporaries
    are entry planes of the broadcast shape.
    """
    r = 1.0 / _det2(b)
    return _mat2((a[..., 0, 0] * b[..., 1, 1] - a[..., 0, 1] * b[..., 1, 0]) * r,
                 (a[..., 0, 1] * b[..., 0, 0] - a[..., 0, 0] * b[..., 0, 1]) * r,
                 (a[..., 1, 0] * b[..., 1, 1] - a[..., 1, 1] * b[..., 1, 0]) * r,
                 (a[..., 1, 1] * b[..., 0, 0] - a[..., 1, 0] * b[..., 0, 1]) * r)


def _adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a stack of matrices."""
    return np.conj(np.swapaxes(a, -1, -2))


# Stacks of at least this many matrices take _mul2's per-entry loop.  On
# 2 vCPUs (timeit, two runs) the broadcast wins at 128 matrices (12 us
# against 16, 18 against 25), the two tie near 256 and the loop wins by
# 1.4x at 512 and by 4x at (256, 32) (217 us against 847).  The remaining
# callers' stacks: m = 128 for the monodromy's K and the closing
# residuals, thousands for the series rings and the factorization, and
# 256 to 511 only for some of the reference's rings and of the Frobenius
# recursion.  Moving the switch down to 256 gained no op_s on the surface
# and generate benchmarks (two 4-5 s runs each) and cost 0.1 MB of peak
# RSS on surface, so it stays at 512.
_ENTRIES_FROM = 512


def _mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Closed-form product of (broadcastable) stacks of 2x2 matrices.

    Generic matmul on small stacks pays a per-matrix dispatch that costs
    more than the eight products.  The broadcast form runs a length-2
    inner loop per matrix, which is slow on large stacks such as a batch
    of (nodes, m) samples; from _ENTRIES_FROM matrices on, one output
    entry is taken at a time instead.  Both forms take the same sums in
    the same order, so their bits agree.  The size test reads .size only,
    the cheapest test: most calls are on small stacks, such as the
    Frobenius recursion's (m,) stacks.
    """
    if max(a.size, b.size) < 4 * _ENTRIES_FROM:
        return a[..., :, 0:1] * b[..., 0:1, :] + a[..., :, 1:2] * b[..., 1:2, :]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    for i in range(2):
        for j in range(2):
            np.multiply(a[..., i, 0], b[..., 0, j], out=out[..., i, j])
            out[..., i, j] += a[..., i, 1] * b[..., 1, j]
    return out


def _exp2(w: np.ndarray, A: np.ndarray) -> np.ndarray:
    """exp(w A) = cosh(w mu) I + w sinhc(w mu) A for trace-free A.

    w: (...) exponents, e.g. values of log z; A: (m, 2, 2).  A is
    trace-free, so A^2 = mu^2 I with mu^2 = -det A; cosh and sinhc(x) =
    sinh(x)/x are even, so either root of mu^2 serves.  sinhc is
    continued through x = 0 by its Taylor polynomial.  Returns
    (..., m, 2, 2).
    """
    arg = w[..., None] * np.sqrt(-_det2(A))
    small = np.abs(arg) < 1e-4
    safe = np.where(small, 1.0, arg)
    sinhc = np.where(small, 1.0 + arg * arg / 6.0, np.sinh(safe) / safe)
    return (np.cosh(arg)[..., None, None] * np.eye(2)
            + (w[..., None] * sinhc)[..., None, None] * A)


def _chol2_entries(h00: np.ndarray, h10: np.ndarray, h11: np.ndarray):
    """Lower Cholesky factor (l00, l10, l11) of Hermitian 2x2 matrices
    given by their real diagonal h00, h11 and lower entry h10.

    Nothing is checked: the matrix is positive definite exactly where
    l00 > 0 and l11 > 0, the roots of its two pivots.  Elsewhere l00 or
    l11 is zero or NaN (a NaN pivot included), and the division and the
    root warn unless the caller silences them.
    """
    l00 = np.sqrt(h00)
    l10 = h10 / l00
    return l00, l10, np.sqrt(h11 - (l10.real ** 2 + l10.imag ** 2))


def _dlambda_at_one(samples: np.ndarray, grid: LambdaGrid) -> np.ndarray:
    """Spectral d/d-lambda at lambda = 1 of (..., m, 2, 2) grid samples.

    The sum over the Fourier coefficients of k X_k, with the Nyquist term
    at k = -m/2 as in LambdaGrid.wavenumbers.  Since X_k = (1/m) sum_j x_j
    exp(-2 pi i j k / m), that sum is one weighted sum over the samples,
    sum_j w_j x_j with w = fft(k) / m, and no FFT of the samples is taken.
    """
    weights = np.fft.fft(grid.wavenumbers()) / grid.m
    lead = samples.shape[:-3]
    return (weights @ samples.reshape(lead + (grid.m, 4))).reshape(lead + (2, 2))
