"""The lambda-circle and the 2x2 kernels every pipeline stage shares.

A loop is a map lambda -> X(lambda) into 2x2 complex matrices, held as its
samples on a uniform power-of-two grid of the unit circle (LambdaGrid),
with lambda = 1 as the first sample.  Products, inverses, determinants
and Cholesky factors of such sample stacks are taken in closed form
(_mul2, _inv2, _det2, _chol2), which is cheaper than generic batched
linear algebra on 2x2 matrices.  The one derivative the pipeline
needs, d/d-lambda at lambda = 1, is spectral (_dlambda_at_one).
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
            raise ValueError("m must be a power of two >= 4")

    @property
    def points(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.m) / self.m)

    def wavenumbers(self) -> np.ndarray:
        """Signed exponents in FFT order: 0, 1, ..., m/2-1, -m/2, ..., -1."""
        return (np.fft.fftfreq(self.m) * self.m).astype(int)


def _det2(a: np.ndarray) -> np.ndarray:
    """Closed-form determinant of a stack of 2x2 matrices."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def _inv2(a: np.ndarray) -> np.ndarray:
    """Closed-form inverse of a stack of 2x2 matrices."""
    det = _det2(a)
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 1, 1] = a[..., 0, 0]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    return out / det[..., None, None]


def _adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a stack of matrices."""
    return np.conj(np.swapaxes(a, -1, -2))


def _mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Closed-form product of (broadcastable) stacks of 2x2 matrices.

    Generic matmul on small stacks pays a per-matrix dispatch that costs
    more than the eight products.
    """
    return a[..., :, 0:1] * b[..., 0:1, :] + a[..., :, 1:2] * b[..., 1:2, :]


def _chol2(h: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a stack of Hermitian 2x2 matrices.

    Reads the lower triangle only, as LAPACK does, and gives the factor a
    real positive diagonal.  Raises LinAlgError unless every matrix in the
    stack is positive definite (a NaN pivot counts as not positive).
    """
    d0 = h[..., 0, 0].real
    if not (d0 > 0).all():
        raise np.linalg.LinAlgError("2x2 matrix not positive definite")
    l00 = np.sqrt(d0)
    l10 = h[..., 1, 0] / l00
    d1 = h[..., 1, 1].real - (l10.real ** 2 + l10.imag ** 2)
    if not (d1 > 0).all():
        raise np.linalg.LinAlgError("2x2 matrix not positive definite")
    out = np.zeros_like(h)
    out[..., 0, 0] = l00
    out[..., 1, 0] = l10
    out[..., 1, 1] = np.sqrt(d1)
    return out


def _dlambda_at_one(samples: np.ndarray, grid: LambdaGrid) -> np.ndarray:
    """Spectral d/d-lambda at lambda = 1 of (..., m, 2, 2) grid samples.

    The sum over the Fourier coefficients of k X_k.
    """
    hat = np.fft.fft(samples, axis=-3) / grid.m
    return np.einsum("k,...kab->...ab", grid.wavenumbers().astype(float), hat)
