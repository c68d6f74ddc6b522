"""Pointwise loop-group Iwasawa factorization Phi = F B.

F is unitary on every unit-circle sample, B extends holomorphically into
the disk (nonnegative exponents only) with upper-triangular B(0) whose
diagonal is real positive.  The method is the finite-section Bauer scheme:
sample H = Phi* Phi, build the block Toeplitz matrix of its Fourier
coefficients, Cholesky-factor it, and read the coefficients of B off the
bottom block row.  Everything is batched over nodes; a 2x2 closed-form
inverse keeps the per-sample algebra vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, DEFAULT_CONFIG
from .loops import (LambdaGrid, LaurentLoop, _inv2, coeffs_to_samples, loop_mul,
                    samples_to_coeffs)

__all__ = ["IwasawaPair", "iwasawa_factor", "iwasawa_grid", "factor_samples"]


@dataclass(frozen=True)
class IwasawaPair:
    """One factorization Phi = F B with residual diagnostics.

    F, B are loops fitted at the configured degree; F_samples / B_samples
    keep the raw grid values (the surface pipeline works with those).
    residuals: unitarity, plus_loop_tail, reconstruction, normalization,
    det_drift.
    """

    F: LaurentLoop
    B: LaurentLoop
    residuals: dict
    F_samples: np.ndarray
    B_samples: np.ndarray


def factor_samples(phi: np.ndarray, grid: LambdaGrid, nsec: int):
    """Bauer factorization of a batch of sampled loops.

    phi: (B, m, 2, 2) samples on the grid, det == 1 assumed.
    nsec: finite-section size (number of block rows); B coefficients come
    out for exponents 0 .. nsec-1.
    Returns (F_samples (B,m,2,2), B_coeffs (B,nsec,2,2), B_samples).
    """
    nb, m = phi.shape[0], grid.m
    if not np.isfinite(phi).all():
        # LAPACK's Cholesky passes NaN through without signalling, so
        # catch bad nodes here and let the caller localize them
        raise RuntimeError("loop samples contain non-finite entries")
    star = np.conj(np.transpose(phi, (0, 1, 3, 2)))
    hat = np.fft.fft(star @ phi, axis=1) / m          # H_k at index k mod m
    j = np.arange(nsec)
    off = j[None, :] - j[:, None]                     # block (i, j) holds H_{j-i}
    # offsets beyond the m resolved coefficients are genuinely tiny
    # (m >= 2N+2 and H decays); zero them rather than alias-wrap, so the
    # section stays a true Toeplitz matrix of the interpolated symbol
    resolved = (off >= -(m // 2)) & (off < m // 2)
    toep = np.where(resolved[None, :, :, None, None], hat[:, off % m], 0.0)
    toep = toep.transpose(0, 1, 3, 2, 4).reshape(nb, 2 * nsec, 2 * nsec)
    try:
        chol = np.linalg.cholesky(toep)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            "finite-section Gram matrix not positive definite; the loop may "
            "not admit this factorization, or the section is too large for "
            f"the sample count (section {nsec}, {m} samples)") from exc
    bottom = chol[:, -2:, :].reshape(nb, 2, nsec, 2).transpose(0, 2, 1, 3)
    bk = np.conj(np.transpose(bottom[:, ::-1], (0, 1, 3, 2)))
    powers = grid.points[None, :] ** np.arange(nsec)[:, None]   # (n, m)
    bs = np.einsum("bkij,km->bmij", bk, powers)
    return phi @ _inv2(bs), bk, bs


def _plus_tail(bk: np.ndarray, degree: int) -> np.ndarray:
    """Per-node mass of B beyond the loop degree (convergence indicator)."""
    if bk.shape[1] <= degree + 1:
        return np.zeros(bk.shape[0])
    return np.abs(bk[:, degree + 1 :]).reshape(bk.shape[0], -1).max(axis=1)


def _unitarity(f: np.ndarray) -> np.ndarray:
    fstar = np.conj(np.transpose(f, (0, 1, 3, 2)))
    return np.abs(f @ fstar - np.eye(2)).reshape(f.shape[0], -1).max(axis=1)


def _normalization(bk: np.ndarray) -> np.ndarray:
    """Deviation of B(0) from upper triangular with real positive diagonal."""
    b0 = bk[:, 0]
    diag = np.stack([b0[:, 0, 0], b0[:, 1, 1]], axis=1)
    return np.maximum(
        np.abs(b0[:, 1, 0]),
        np.maximum(np.abs(diag.imag).max(axis=1), np.maximum(0.0, -diag.real.min(axis=1))),
    )


def iwasawa_factor(phi, grid: LambdaGrid,
                   cfg: PipelineConfig = DEFAULT_CONFIG) -> IwasawaPair:
    """Factor a single loop given as a LaurentLoop or (m, 2, 2) samples.

    The loop must have unit determinant; small drift is renormalized away
    (and reported), anything beyond 1e-6 is rejected.
    """
    if isinstance(phi, LaurentLoop):
        samples = coeffs_to_samples(phi, grid)
    else:
        samples = np.asarray(phi, dtype=complex)
        if samples.shape != (grid.m, 2, 2):
            raise ValueError(f"expected ({grid.m}, 2, 2) samples, got {samples.shape}")
    det = samples[:, 0, 0] * samples[:, 1, 1] - samples[:, 0, 1] * samples[:, 1, 0]
    drift = float(np.abs(det - 1.0).max())
    if drift > 1e-6:
        raise ValueError(f"determinant drifts from 1 by {drift:.2e}; not an SL(2) loop")
    if drift > 1e-8:
        samples = samples / np.sqrt(det)[:, None, None]

    nsec = cfg.section_rows
    f, bk, bs = factor_samples(samples[None], grid, nsec)
    tail = float(_plus_tail(bk, cfg.fourier_degree)[0])
    if tail > 1e-3 * max(1.0, float(np.abs(bk).max())):
        raise RuntimeError(
            f"finite section did not converge (tail mass {tail:.2e} beyond "
            f"degree {cfg.fourier_degree}); increase the degree or section size")
    f_loop = samples_to_coeffs(f[0], cfg.fourier_degree)
    b_loop = LaurentLoop(0, bk[0, : cfg.fourier_degree + 1],
                         degree=cfg.fourier_degree, tail=tail)
    recon = coeffs_to_samples(loop_mul(f_loop, b_loop), grid)
    residuals = {
        "unitarity": float(_unitarity(f)[0]),
        "plus_loop_tail": b_loop.tail,
        "reconstruction": float(np.abs(recon - samples).max()),
        "normalization": float(_normalization(bk)[0]),
        "det_drift": drift,
    }
    return IwasawaPair(f_loop, b_loop, residuals, f[0], bs[0])


_CHUNK = 64  # nodes per factorization batch; bounds the Toeplitz stack's memory


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
    nsec = cfg.section_rows
    f_all = np.empty_like(flat)
    b_all = np.empty_like(flat)
    unit = np.empty(n)
    tail = np.empty(n)
    norm = np.empty(n)
    recon = np.empty(n)
    failed: list[int] = []

    def stats(sl, f, bk, bs) -> None:
        f_all[sl], b_all[sl] = f, bs
        unit[sl] = _unitarity(f)
        tail[sl] = _plus_tail(bk, cfg.fourier_degree)
        norm[sl] = _normalization(bk)
        recon[sl] = np.abs(f @ bs - flat[sl]).reshape(f.shape[0], -1).max(axis=1)

    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        try:
            f, bk, bs = factor_samples(flat[lo:hi], grid, nsec)
        except RuntimeError:
            # localize the offending nodes, keep going
            for i in range(lo, hi):
                try:
                    f1, bk1, bs1 = factor_samples(flat[i : i + 1], grid, nsec)
                except RuntimeError:
                    failed.append(i)
                    f_all[i] = np.nan
                    b_all[i] = np.nan
                    unit[i] = tail[i] = norm[i] = recon[i] = np.nan
                    continue
                stats(slice(i, i + 1), f1, bk1, bs1)
            continue
        stats(slice(lo, hi), f, bk, bs)

    ok = np.ones(n, dtype=bool)
    ok[failed] = False
    def worst(x):
        return float(x[ok].max()) if ok.any() else float("nan")
    summary = {
        "nodes": n,
        "failed_nodes": sorted(failed),
        "unitarity_max": worst(unit),
        "unitarity_mean": float(unit[ok].mean()) if ok.any() else float("nan"),
        "plus_loop_tail_max": worst(tail),
        "reconstruction_max": worst(recon),
        "normalization_max": worst(norm),
    }
    return (f_all.reshape(lead + (grid.m, 2, 2)),
            b_all.reshape(lead + (grid.m, 2, 2)), summary)
