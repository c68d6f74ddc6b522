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
from .loops import LambdaGrid, _inv2

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


def _factor_batch(phi: np.ndarray, grid: LambdaGrid, cfg: PipelineConfig):
    """factor_samples plus the per-node residuals of both front ends.

    phi: (B, m, 2, 2) samples.  Returns (F_samples, B_coeffs, B_samples,
    residuals); residuals maps unitarity, plus_loop_tail, normalization
    and reconstruction |F B - Phi| on the samples to (B,) arrays.
    """
    if grid.m < 2 * cfg.fourier_degree + 2:
        raise ValueError(
            f"{grid.m} lambda samples too few for degree {cfg.fourier_degree} "
            f"(need >= {2 * cfg.fourier_degree + 2})")
    f, bk, bs = factor_samples(phi, grid, cfg.section_rows)
    residuals = {
        "unitarity": _unitarity(f),
        "plus_loop_tail": _plus_tail(bk, cfg.fourier_degree),
        "normalization": _normalization(bk),
        "reconstruction": np.abs(f @ bs - phi).reshape(phi.shape[0], -1).max(axis=1),
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
    det = samples[:, 0, 0] * samples[:, 1, 1] - samples[:, 0, 1] * samples[:, 1, 0]
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
