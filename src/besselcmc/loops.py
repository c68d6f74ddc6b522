"""Arithmetic of 2x2 matrix loops on the unit circle.

A loop is a map lambda -> X(lambda) into 2x2 complex matrices, stored
either as a truncated Laurent series (coefficient representation) or as
samples on a uniform unit-circle grid.  Coefficients are the home of
d/d-lambda and truncation bookkeeping; samples are the home of pointwise
products and factorizations.  The two are connected by the FFT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LaurentLoop",
    "LambdaGrid",
    "loop_eval",
    "loop_mul",
    "loop_star",
    "samples_to_coeffs",
    "coeffs_to_samples",
    "identity_loop",
]


@dataclass(frozen=True)
class LaurentLoop:
    """Truncated Laurent series sum_k coeffs[k-lo] * lambda^k.

    lo        lowest stored exponent
    coeffs    array (hi-lo+1, 2, 2); exponent k lives at index k-lo
    degree    truncation degree N: exponents beyond +-N are treated as zero
    tail      norm of mass discarded by the operation that built this loop
    overflow  True when that discarded mass exceeded the configured bound
    """

    lo: int
    coeffs: np.ndarray
    degree: int = 32
    tail: float = 0.0
    overflow: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[1:] != (2, 2):
            raise ValueError("coeffs must have shape (n, 2, 2)")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite loop coefficients")
        object.__setattr__(self, "coeffs", c)

    @property
    def hi(self) -> int:
        return self.lo + self.coeffs.shape[0] - 1

    def exponents(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)


def identity_loop(degree: int = 32) -> LaurentLoop:
    return LaurentLoop(0, np.eye(2, dtype=complex)[None], degree=degree)


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


def loop_eval(x: LaurentLoop, lam: complex | np.ndarray) -> np.ndarray:
    """Evaluate the series at lam (scalar or array); shape (..., 2, 2)."""
    lam = np.asarray(lam, dtype=complex)
    if x.lo < 0 and np.any(lam == 0):
        raise ValueError("loop with negative exponents evaluated at lambda = 0")
    powers = lam[..., None] ** x.exponents()  # (..., n)
    return np.einsum("...k,kab->...ab", powers, x.coeffs)


def _truncate(lo: int, coeffs: np.ndarray, degree: int, tail_tol: float) -> LaurentLoop:
    ks = np.arange(lo, lo + coeffs.shape[0])
    keep = np.abs(ks) <= degree
    tail = 0.0
    if not keep.all():
        tail = float(np.abs(coeffs[~keep]).max(initial=0.0))
    kept = coeffs[keep]
    ks = ks[keep]
    if kept.shape[0] == 0:
        kept = np.zeros((1, 2, 2), dtype=complex)
        ks = np.array([0])
    return LaurentLoop(int(ks[0]), kept, degree=degree,
                       tail=tail, overflow=tail > tail_tol)


def loop_mul(x: LaurentLoop, y: LaurentLoop, tail_tol: float = 1e-9) -> LaurentLoop:
    """Cauchy product truncated to the common degree.

    Discarded coefficient mass is reported on the result; the overflow
    flag trips when it exceeds tail_tol.
    """
    n, p = x.coeffs.shape[0], y.coeffs.shape[0]
    degree = min(x.degree, y.degree)
    out = np.zeros((n + p - 1, 2, 2), dtype=complex)
    # matrix-valued polynomial product; loop over the shorter factor
    for i in range(n):
        out[i : i + p] += np.einsum("ab,kbc->kac", x.coeffs[i], y.coeffs)
    return _truncate(x.lo + y.lo, out, degree, tail_tol)


def loop_star(x: LaurentLoop) -> LaurentLoop:
    """Adjoint loop x*(lambda) = x(1/conj(lambda))^dagger.

    On the unit circle this is the pointwise conjugate transpose; at the
    coefficient level (x*)_k = (x_{-k})^dagger.
    """
    flipped = np.conj(np.transpose(x.coeffs[::-1], (0, 2, 1)))
    return LaurentLoop(-x.hi, flipped, degree=x.degree, tail=x.tail)


def samples_to_coeffs(values: np.ndarray, degree: int, tail_tol: float = 1e-9) -> LaurentLoop:
    """Fit a Laurent loop of the given degree to unit-circle samples.

    values has shape (m, 2, 2) on a LambdaGrid; requires m >= 2*degree+2.
    Aliased mass beyond +-degree is reported as tail.
    """
    values = np.asarray(values, dtype=complex)
    m = values.shape[0]
    if m < 2 * degree + 2:
        raise ValueError(f"grid of {m} samples too small for degree {degree}")
    hat = np.fft.fft(values, axis=0) / m  # hat[k] multiplies lambda^k, k mod m
    ks = (np.fft.fftfreq(m) * m).astype(int)
    order = np.argsort(ks)
    return _truncate(int(ks[order][0]), hat[order], degree, tail_tol)


def coeffs_to_samples(x: LaurentLoop, grid: LambdaGrid) -> np.ndarray:
    """Evaluate the loop on the grid; shape (m, 2, 2)."""
    m = grid.m
    if x.hi - x.lo + 1 > m:
        return loop_eval(x, grid.points)
    spec = np.zeros((m, 2, 2), dtype=complex)
    spec[np.mod(x.exponents(), m)] = x.coeffs
    return np.fft.ifft(spec, axis=0) * m
