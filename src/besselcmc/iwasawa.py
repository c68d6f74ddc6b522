"""Pointwise loop-group Iwasawa factorization Phi = F B.

F is unitary on every unit-circle sample, B extends holomorphically into
the disk (nonnegative exponents only) with upper-triangular B(0) whose
diagonal is real positive.  The method is the finite-section Bauer scheme:
sample H = Phi* Phi; the coefficients of B are the bottom block row of the
Cholesky factor of the block Toeplitz matrix of H's Fourier coefficients,
cut to 2N+2 block rows for degree N (never more than the m samples, so B
needs no folding).  A block Schur recursion on the displacement generator
produces the row in O(nsec^2) work per node without forming the matrix.
Everything is batched over nodes, and the per-node 2x2 algebra uses the
closed-form kernels of loops.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, DEFAULT_CONFIG
from .loops import LambdaGrid, _adj, _chol2, _det2, _inv2, _mul2

__all__ = ["IwasawaPair", "iwasawa_factor", "iwasawa_grid", "factor_samples"]


@dataclass(frozen=True)
class IwasawaPair:
    """One factorization Phi = F B with residual diagnostics.

    F_samples / B_samples are the factors on the grid samples.
    residuals: unitarity, plus_loop_tail, reconstruction, normalization
    (the per-node values iwasawa_grid summarizes) and det_drift.
    """

    residuals: dict
    F_samples: np.ndarray
    B_samples: np.ndarray


def factor_samples(phi: np.ndarray, grid: LambdaGrid, nsec: int):
    """Bauer factorization of a batch of sampled loops.

    phi: (B, m, 2, 2) samples on the grid, det == 1 assumed.
    nsec: finite-section size (number of block rows, at most m); B
    coefficients come out for exponents 0 .. nsec-1.
    Returns (F_samples (B,m,2,2), B_coeffs (B,nsec,2,2), B_samples).

    The section T (block (i, j) = H_{j-i}) is never built.  Its
    displacement T - Z T Z* = G J G*, with Z the block down-shift and
    J = diag(I, -I), has a generator G = [u v] of two block columns, and
    the block Schur recursion turns G into the Cholesky factor of T one
    block column per step (Kailath & Sayed, Fast Reliable Algorithms for
    Matrices with Structure, SIAM 1999).  Only the last block of each column
    is kept: that bottom block row, reversed and adjoined, is B.
    """
    nb, m = phi.shape[0], grid.m
    if not np.isfinite(phi).all():
        # catch bad nodes here and let the caller localize them
        raise RuntimeError("loop samples contain non-finite entries")
    hat = np.fft.fft(_mul2(_adj(phi), phi), axis=1) / m   # H_k at index k mod m
    # first block row H_0 .. H_{nsec-1}; offsets beyond the m resolved
    # coefficients are genuinely tiny (m >= 2N+2 and H decays): zero them
    # rather than alias-wrap, so the section stays a true Toeplitz matrix
    # of the interpolated symbol
    row = np.zeros((nb, nsec, 2, 2), dtype=complex)
    kept = min(nsec, m // 2 + 1)
    row[:, :kept] = hat[:, :kept]
    bk = np.empty_like(row)
    try:
        r0 = _chol2(hat[:, 0])
        # G* as (nb, 4, 2 nsec): u* = R0^-1 [H_0 .. H_{nsec-1}] (the first
        # column of the factor, adjoined), v* = u* with its first block 0
        u = _mul2(_inv2(r0)[:, None], row).transpose(0, 2, 1, 3)
        g = np.concatenate((u, u), axis=1).reshape(nb, 4, 2 * nsec)
        g[:, 2:, :2] = 0.0
        bk[:, -1] = g[:, :2, -2:]
        alpha = _adj(r0)               # top block of u*: the last pivot, adjoined
        theta = np.empty((nb, 4, 4), dtype=complex)
        for k in range(1, nsec):
            # shift u down one block; v's top block is zero and drops out
            g = np.concatenate((g[:, :2, :-2], g[:, 2:, 2:]), axis=1)
            beta = g[:, 2:, :2]
            q = _mul2(beta, _inv2(alpha))             # K* with K = a^-1 b
            qs = _adj(q)
            # the new pivot: L L* = a a* - b b* = a (I - K K*) a*
            d = alpha - _mul2(qs, beta)               # (I - K K*) a*
            piv = _chol2(_mul2(_adj(alpha), d))
            # J-unitary rotation that zeroes v's top block and leaves the
            # pivot on u's: [u v] -> [(u - v K*) M1, (v - u K) M2]
            m1 = _mul2(_adj(piv), _inv2(d))
            m2 = _inv2(_chol2(np.eye(2) - _mul2(q, qs)))
            theta[:, :2, :2] = m1
            theta[:, :2, 2:] = -_mul2(m1, qs)
            theta[:, 2:, :2] = -_mul2(m2, q)
            theta[:, 2:, 2:] = m2
            g = theta @ g
            bk[:, -1 - k] = g[:, :2, -2:]
            alpha = _adj(piv)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            "finite-section Gram matrix not positive definite; the loop may "
            "not admit this factorization, or the section is too large for "
            f"the sample count (section {nsec}, {m} samples)") from exc
    bk[:, 0] = alpha                   # the last pivot, exactly triangular
    # B on the grid: one inverse FFT of the coefficients, zero-padded to m
    padded = np.zeros((nb, m, 2, 2), dtype=complex)
    padded[:, :nsec] = bk
    bs = np.fft.ifft(padded, axis=1) * m
    return _mul2(phi, _inv2(bs)), bk, bs


def _plus_tail(bk: np.ndarray, degree: int) -> np.ndarray:
    """Per-node mass of B beyond the loop degree (convergence indicator)."""
    return np.abs(bk[:, degree + 1 :]).reshape(bk.shape[0], -1).max(axis=1)


def _unitarity(f: np.ndarray) -> np.ndarray:
    return np.abs(_mul2(f, _adj(f)) - np.eye(2)).reshape(f.shape[0], -1).max(axis=1)


def _normalization(bk: np.ndarray) -> np.ndarray:
    """Deviation of B(0) from upper triangular with real positive diagonal."""
    b0 = bk[:, 0]
    diag = np.stack([b0[:, 0, 0], b0[:, 1, 1]], axis=1)
    return np.maximum(
        np.abs(b0[:, 1, 0]),
        np.maximum(np.abs(diag.imag).max(axis=1), np.maximum(0.0, -diag.real.min(axis=1))),
    )


def _check_grid(grid: LambdaGrid, cfg: PipelineConfig) -> None:
    """Reject a lambda grid with fewer than 2N+2 samples for degree N, or
    one whose size is not the config's lambda_samples."""
    if grid.m < 2 * cfg.fourier_degree + 2:
        raise ValueError(
            f"{grid.m} lambda samples too few for degree {cfg.fourier_degree} "
            f"(need >= {2 * cfg.fourier_degree + 2})")
    if grid.m != cfg.lambda_samples:
        raise ValueError(
            f"lambda grid has {grid.m} samples but the config sets "
            f"lambda_samples={cfg.lambda_samples}")


def _factor_batch(phi: np.ndarray, grid: LambdaGrid, cfg: PipelineConfig):
    """factor_samples plus the per-node residuals of both front ends.

    phi: (B, m, 2, 2) samples.  Returns (F_samples, B_coeffs, B_samples,
    residuals); residuals maps unitarity, plus_loop_tail, normalization
    and reconstruction |F B - Phi| on the samples to (B,) arrays.
    """
    _check_grid(grid, cfg)
    f, bk, bs = factor_samples(phi, grid, cfg.section_rows)
    residuals = {
        "unitarity": _unitarity(f),
        "plus_loop_tail": _plus_tail(bk, cfg.fourier_degree),
        "normalization": _normalization(bk),
        "reconstruction": np.abs(_mul2(f, bs) - phi).reshape(phi.shape[0], -1).max(axis=1),
    }
    return f, bk, bs, residuals


def iwasawa_factor(phi, grid: LambdaGrid,
                   cfg: PipelineConfig = DEFAULT_CONFIG) -> IwasawaPair:
    """Factor a single loop given as (m, 2, 2) samples on the grid.

    The loop must have unit determinant; small drift is renormalized away
    (and reported as det_drift), anything beyond 1e-6 is rejected.  The
    other residuals are computed as in iwasawa_grid, for this one node.
    """
    samples = np.asarray(phi, dtype=complex)
    if samples.shape != (grid.m, 2, 2):
        raise ValueError(f"expected ({grid.m}, 2, 2) samples, got {samples.shape}")
    det = _det2(samples)
    drift = float(np.abs(det - 1.0).max())
    if drift > 1e-6:
        raise ValueError(f"determinant drifts from 1 by {drift:.2e}; not an SL(2) loop")
    if drift > 1e-8:
        samples = samples / np.sqrt(det)[:, None, None]

    f, bk, bs, res = _factor_batch(samples[None], grid, cfg)
    residuals = {k: float(v[0]) for k, v in res.items()}
    tail = residuals["plus_loop_tail"]
    if tail > 1e-3 * max(1.0, float(np.abs(bk).max())):
        raise RuntimeError(
            f"finite section did not converge (tail mass {tail:.2e} beyond "
            f"degree {cfg.fourier_degree}); increase the degree or section size")
    residuals["det_drift"] = drift
    return IwasawaPair(residuals, f[0], bs[0])


_CHUNK = 256  # nodes per batch; bounds the (nodes, 4, 2 nsec) generator stack


def iwasawa_grid(phis, grid: LambdaGrid,
                 cfg: PipelineConfig = DEFAULT_CONFIG):
    """Factor a whole family of sampled loops, chunked to bound memory.

    phis: (..., m, 2, 2) samples; leading axes index the grid of nodes.
    Chunks are factored one after another in the calling thread.
    Returns (F_samples, B_samples, summary); summary collects worst-case
    and mean residuals plus the indices of any nodes whose factorization
    failed.
    """
    phis = np.asarray(phis, dtype=complex)
    lead = phis.shape[:-3]
    flat = phis.reshape((-1, grid.m, 2, 2))
    n = flat.shape[0]
    f_all = np.empty_like(flat)
    b_all = np.empty_like(flat)
    res = {k: np.empty(n) for k in
           ("unitarity", "plus_loop_tail", "normalization", "reconstruction")}
    failed: list[int] = []

    def stats(lo: int, hi: int) -> None:
        f, _, bs, r = _factor_batch(flat[lo:hi], grid, cfg)
        f_all[lo:hi], b_all[lo:hi] = f, bs
        for k, v in r.items():
            res[k][lo:hi] = v

    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        try:
            stats(lo, hi)
        except RuntimeError:
            # localize the offending nodes, keep going
            for i in range(lo, hi):
                try:
                    stats(i, i + 1)
                except RuntimeError:
                    failed.append(i)
                    f_all[i] = b_all[i] = np.nan

    ok = np.ones(n, dtype=bool)
    ok[failed] = False
    def worst(x):
        return float(x[ok].max()) if ok.any() else float("nan")
    summary = {
        "nodes": n,
        "failed_nodes": sorted(failed),
        "unitarity_mean": float(res["unitarity"][ok].mean()) if ok.any() else float("nan"),
        **{f"{k}_max": worst(v) for k, v in res.items()},
    }
    return (f_all.reshape(lead + (grid.m, 2, 2)),
            b_all.reshape(lead + (grid.m, 2, 2)), summary)
