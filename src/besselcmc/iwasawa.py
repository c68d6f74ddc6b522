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
closed-form kernels of loops.py.  The generator is held in real
arithmetic (float rows for the real and imaginary parts of its complex
rows), and each step's J-unitary rotation is built in closed form from a
few per-node scalars and applied as one real 8x8 product per node.
"""

from __future__ import annotations

import numpy as np

from .config import PipelineConfig, DEFAULT_CONFIG
from .loops import LambdaGrid, _adj, _chol2, _chol2_entries, _inv2, _mul2

__all__ = ["iwasawa_grid", "factor_samples"]


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

    G* is held in real arithmetic as float rows [Re u*, Im u*, Re v*,
    Im v*], shape (B, 8, 2 nsec).  Each step shifts u* one block right,
    reads the per-node scalars a = the last pivot, adjoined (upper
    triangular, real positive diagonal), and b = v*'s top block, and
    applies the real 8x8 embedding of the J-unitary rotation
    Theta = [[M1, -M1 q*], [-M2 q, M2]] that zeroes b:
      q = b a^-1, by back substitution;
      L L* = a* a - b* b, the next pivot (Hermitian: lower triangle only);
      M1 = L^-1 a*, lower triangular.  With d = a - q* b = (I - q* q) a
      the rotation must map u*'s top block a to L*, so M1 = L* d^-1; and
      L^-1 a* d = L^-1 a* (I - q* q) a = L^-1 L L* = L*;
      M2 = chol(I - q q*)^-1, lower triangular.
    A pivot that is not positive (NaN included) raises RuntimeError.
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
    # u*'s last block per step, the per-node scalars and the rotation
    # carry the node axis last, so each closed-form operation runs over
    # one contiguous run of nodes
    bk = np.empty((nsec, 4, 2, nb))
    b = np.empty((2, 2, nb), dtype=complex)
    theta = np.zeros((4, 4, nb), dtype=complex)   # M1, M2: upper entry stays 0
    # rot[n] is the real embedding of theta[..., n]: by real and imaginary
    # part each (destination, source) block is [[Re, -Im], [Im, Re]], i.e.
    # parts[bd, pd, i, bs, ps, j] = rot[:, 4 bd + 2 pd + i, 4 bs + 2 ps + j]
    parts = np.empty((2, 2, 2, 2, 2, 2, nb))
    rot = parts.reshape(64, nb).T.reshape(nb, 8, 8)
    blocks = theta.reshape(2, 2, 2, 2, nb)
    try:
        r0 = _chol2(hat[:, 0])
        # u* = R0^-1 [H_0 .. H_{nsec-1}] (the first column of the factor,
        # adjoined), v* = u* with its first block 0
        u = _mul2(_inv2(r0)[:, None], row).transpose(0, 2, 1, 3)
        u = u.reshape(nb, 2, 2 * nsec)
        g = np.empty((nb, 8, 2 * nsec))
        g[:, 0:2], g[:, 2:4] = u.real, u.imag
        g[:, 4:] = g[:, :4]
        g[:, 4:, :2] = 0.0
        bk[-1] = g[:, :4, -2:].transpose(1, 2, 0)
        # a = [[a00, a01], [0, a11]], the last pivot adjoined
        a00, a01, a11 = r0[:, 0, 0].real, np.conj(r0[:, 1, 0]), r0[:, 1, 1].real
        for k in range(1, nsec):
            # shift u down one block; v's top block is zero and drops out
            g = np.concatenate((g[:, :4, :-2], g[:, 4:, 2:]), axis=1)
            top = np.ascontiguousarray(g[:, 4:, :2].transpose(1, 2, 0))
            b.real, b.imag = top[:2], top[2:]        # v*'s top block
            q = np.empty_like(b)                     # q = b a^-1
            q[:, 0] = b[:, 0] / a00
            q[:, 1] = (b[:, 1] - q[:, 0] * a01) / a11
            # the new pivot: L L* = a* a - b* b
            bb = (top * top).sum(axis=0)
            l00, l10, l11 = _chol2_entries(
                a00 * a00 - bb[0],
                np.conj(a01) * a00 - (b[:, 0] * np.conj(b[:, 1])).sum(axis=0),
                a01.real ** 2 + a01.imag ** 2 + a11 * a11 - bb[1])
            m00, m11 = a00 / l00, a11 / l11
            m10 = (np.conj(a01) - l10 * m00) / l11
            # M2 = C^-1 with C C* = I - q q*
            qq = (q.real ** 2 + q.imag ** 2).sum(axis=1)
            c00, c10, c11 = _chol2_entries(
                1.0 - qq[0], -(q[1] * np.conj(q[0])).sum(axis=0), 1.0 - qq[1])
            n00, n11 = 1.0 / c00, 1.0 / c11
            n10 = -c10 * n00 / c11
            # Theta = [[M1, -M1 q*], [-M2 q, M2]]
            qs = np.conj(q)
            theta[0, 0], theta[1, 0], theta[1, 1] = m00, m10, m11
            theta[2, 2], theta[3, 2], theta[3, 3] = n00, n10, n11
            m1, m2 = theta[:2, :2], theta[2:, 2:]
            theta[:2, 2:] = -(m1[:, :1] * qs[:, 0] + m1[:, 1:] * qs[:, 1])
            theta[2:, :2] = -(m2[:, :1] * q[0] + m2[:, 1:] * q[1])
            parts[:, 0, :, :, 0] = parts[:, 1, :, :, 1] = blocks.real
            parts[:, 1, :, :, 0] = blocks.imag
            np.negative(blocks.imag, out=parts[:, 0, :, :, 1])
            g = rot @ g
            bk[-1 - k] = g[:, :4, -2:].transpose(1, 2, 0)
            a00, a01, a11 = l00, np.conj(l10), l11
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            "finite-section Gram matrix not positive definite; the loop may "
            "not admit this factorization, or the section is too large for "
            f"the sample count (section {nsec}, {m} samples)") from exc
    bk = np.moveaxis(bk[:, :2] + 1j * bk[:, 2:], -1, 0)
    # B_0 is the last pivot, exactly triangular
    bk[:, 0, 0, 0], bk[:, 0, 0, 1], bk[:, 0, 1, 1] = a00, a01, a11
    bk[:, 0, 1, 0] = 0.0
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
    """Reject a lambda grid whose size is not the config's lambda_samples;
    PipelineConfig already holds that to at least 2N+2 for degree N."""
    if grid.m != cfg.lambda_samples:
        raise ValueError(
            f"{grid.m} lambda samples, but the config sets lambda_samples="
            f"{cfg.lambda_samples} (at least {cfg.section_rows} for degree "
            f"{cfg.fourier_degree})")


_CHUNK = 256  # nodes per batch; bounds the real (nodes, 8, 2 nsec) generator stack


def iwasawa_grid(phis, grid: LambdaGrid,
                 cfg: PipelineConfig = DEFAULT_CONFIG):
    """Factor a whole family of sampled loops, chunked to bound memory.

    phis: (..., m, 2, 2) samples; leading axes index the nodes (one loop
    is phis[None]).  Chunks are factored one after another in the calling
    thread; a chunk that raises is retried node by node, and nodes that
    still fail get NaN factors.  Returns (F_samples, B_samples, summary);
    summary holds the node count, the failed node indices, the mean
    unitarity and the worst unitarity, plus_loop_tail, normalization and
    reconstruction |F B - Phi| over the nodes that factored.
    """
    _check_grid(grid, cfg)
    phis = np.asarray(phis, dtype=complex)
    if phis.shape[-3:] != (grid.m, 2, 2):
        raise ValueError(f"expected (..., {grid.m}, 2, 2) samples, got {phis.shape}")
    lead = phis.shape[:-3]
    flat = phis.reshape((-1, grid.m, 2, 2))
    n = flat.shape[0]
    f_all = np.empty_like(flat)
    b_all = np.empty_like(flat)
    res = {k: np.empty(n) for k in
           ("unitarity", "plus_loop_tail", "normalization", "reconstruction")}
    failed: list[int] = []

    def stats(lo: int, hi: int) -> None:
        phi = flat[lo:hi]
        f, bk, bs = factor_samples(phi, grid, cfg.section_rows)
        f_all[lo:hi], b_all[lo:hi] = f, bs
        res["unitarity"][lo:hi] = _unitarity(f)
        res["plus_loop_tail"][lo:hi] = _plus_tail(bk, cfg.fourier_degree)
        res["normalization"][lo:hi] = _normalization(bk)
        res["reconstruction"][lo:hi] = (
            np.abs(_mul2(f, bs) - phi).reshape(hi - lo, -1).max(axis=1))

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
