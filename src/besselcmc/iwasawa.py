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

Failure is data, not an exception.  Each node's rotation touches only
its own generator rows, so a node whose pivot is not positive (or whose
samples are not finite) is marked and the batch carries on; its factors
come out NaN, and the other nodes' numbers are the same bits as in a
batch without it.  iwasawa_grid makes one factor_samples call per chunk
and reads the failed nodes from the NaN ones.

The working set of a block is kept lean: H is taken as three entry
planes of (nodes, m) samples, each transformed along its contiguous last
axis; the generator lives in two flat buffers allocated once per call;
B's samples are one inverse FFT of its coefficient planes; and F, the
residuals and iwasawa_grid's result are formed without a copy of any
(nodes, m, 2, 2) stack.  On a 252-node block at N = 32, m = 128 (1.97 MiB
of samples) iwasawa_grid peaks at 4.4 times the samples' bytes under
tracemalloc, results included, against 9.0 times with stacked H, hat,
generator and output temporaries.
"""

from __future__ import annotations

import numpy as np

from .config import PipelineConfig, DEFAULT_CONFIG
from .loops import LambdaGrid, _chol2_entries, _norm2, _rdiv2

__all__ = ["iwasawa_grid", "factor_samples"]


def _symbol_coefficients(phi: np.ndarray, kept: int):
    """H_0 .. H_{kept-1} of H = Phi* Phi as four (nodes, kept) entry planes.

    H's diagonal is two real planes and its lower entry one complex
    plane, each with its samples on the contiguous last axis; H01 =
    conj(H10) on the circle gives the upper entry's coefficients H01_k =
    conj(H10_{-k}).  The real planes take the complex FFT, not rfft: the
    two round differently, and the sections just short of indefinite
    (tests' half-circle loop, least eigenvalue 1.8e-25 at 33 block rows
    of m = 128) then pass up to 53 block rows, against 26 with rfft.
    """
    m = phi.shape[1]
    p00, p01, p10, p11 = phi[..., 0, 0], phi[..., 0, 1], phi[..., 1, 0], phi[..., 1, 1]
    c00 = np.fft.fft(_norm2(p00, p10), norm="forward")[:, :kept]
    c11 = np.fft.fft(_norm2(p01, p11), norm="forward")[:, :kept]
    c10 = np.fft.fft(np.conj(p01) * p00 + np.conj(p11) * p10, norm="forward")
    return c00, np.conj(c10[:, -np.arange(kept) % m]), c10[:, :kept], c11


def _bottom_row(h00, h01, h10, h11, nsec: int) -> np.ndarray:
    """B_0 .. B_{nsec-1} from the block Schur recursion on the section.

    h00 .. h11: H_k's entries for k < kept, (nodes, kept); the section's
    offsets from kept on are zero.  Returns (nodes, 2, 2, nsec) complex,
    B_k[i, j] at [:, i, j, k].  See factor_samples for the steps.  A node
    is ok while the diagonals of its first R0 and of every step's two
    Cholesky factors are > 0 (NaN is not); the nodes that are not get NaN
    coefficients.
    """
    nb, kept = h00.shape
    bk = np.empty((nb, 2, 2, nsec), dtype=complex)
    # the per-node scalars and the rotation carry the node axis last, so
    # each closed-form operation runs over one contiguous run of nodes
    b = np.empty((2, 2, nb), dtype=complex)
    theta = np.zeros((4, 4, nb), dtype=complex)   # M1, M2: upper entry stays 0
    # rot[n] is the real embedding of theta[..., n]: by real and imaginary
    # part each (destination, source) block is [[Re, -Im], [Im, Re]], i.e.
    # parts[bd, pd, i, bs, ps, j] = rot[:, 4 bd + 2 pd + i, 4 bs + 2 ps + j]
    parts = np.empty((2, 2, 2, 2, 2, 2, nb))
    rot = parts.reshape(64, nb).T.reshape(nb, 8, 8)
    blocks = theta.reshape(2, 2, 2, 2, nb)
    # the generator and its shift, one flat buffer each: step k writes
    # contiguous prefixes of width w = 2 (nsec - k); at 256 nodes and
    # N = 32 each holds 2.2 MB, under the 4 MiB from which numpy asks
    # for huge pages
    w = 2 * nsec
    gbuf, sbuf = np.empty(nb * 8 * w), np.empty(nb * 8 * (w - 2))
    # u* = R0^-1 [H_0 .. H_{nsec-1}] (the first column of the factor,
    # adjoined), v* = u* with its first block 0; R0 R0* = H_0, and
    # R0^-1 = [[1 / l00, 0], [s10, 1 / l11]]
    l00, l10, l11 = _chol2_entries(h00[:, 0].real, h10[:, 0], h11[:, 0].real)
    ok = (l00 > 0) & (l11 > 0)
    s10 = (-l10 / (l00 * l11))[:, None]
    g = gbuf.reshape(nb, 8, nsec, 2)
    g[:, :, kept:] = 0.0
    for j, (x0, x1) in enumerate(((h00, h10), (h01, h11))):   # column j of H_k
        u0, u1 = x0 / l00[:, None], s10 * x0 + x1 / l11[:, None]
        g[:, 0, :kept, j], g[:, 2, :kept, j] = u0.real, u0.imag
        g[:, 1, :kept, j], g[:, 3, :kept, j] = u1.real, u1.imag
    g[:, 4:] = g[:, :4]
    g[:, 4:, 0] = 0.0
    g = gbuf.reshape(nb, 8, w)
    bk.real[..., -1], bk.imag[..., -1] = g[:, :2, -2:], g[:, 2:4, -2:]
    # a = [[a00, a01], [0, a11]], the last pivot adjoined
    a00, a01, a11 = l00, np.conj(l10), l11
    for k in range(1, nsec):
        w -= 2
        shifted = sbuf[:nb * 8 * w].reshape(nb, 8, w)
        # shift u down one block; v's top block is zero and drops out
        np.concatenate((g[:, :4, :-2], g[:, 4:, 2:]), axis=1, out=shifted)
        top = np.ascontiguousarray(shifted[:, 4:, :2].transpose(1, 2, 0))
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
        ok &= (l00 > 0) & (l11 > 0) & (c00 > 0) & (c11 > 0)
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
        g = np.matmul(rot, shifted, out=gbuf[:nb * 8 * w].reshape(nb, 8, w))
        bk.real[..., -1 - k], bk.imag[..., -1 - k] = g[:, :2, -2:], g[:, 2:4, -2:]
        a00, a01, a11 = l00, np.conj(l10), l11
    # B_0 is the last pivot, exactly triangular
    bk[:, 0, 0, 0], bk[:, 0, 1, 0], bk[:, 1, 1, 0] = a00, a01, a11
    bk[:, 1, 0, 0] = 0.0
    bk[~ok] = np.nan
    return bk


def factor_samples(phi: np.ndarray, grid: LambdaGrid, nsec: int):
    """Bauer factorization of a batch of sampled loops.

    phi: (B, m, 2, 2) samples on the grid, det == 1 assumed.
    nsec: finite-section size (number of block rows, at most m); B
    coefficients come out for exponents 0 .. nsec-1.
    Returns (F_samples (B,m,2,2), B_coeffs (B,nsec,2,2), B_samples).
    B_coeffs and B_samples are transposed views of (B, 2, 2, nsec) and
    (B, 2, 2, m) arrays, so each entry plane is contiguous.

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
    The shift and the product write into the same two buffers at every
    step.  B's samples are one inverse FFT of its coefficient planes,
    zero-padded to m inside the transform, and F = Phi adj(B) / det(B)
    entry by entry (loops._rdiv2).  On a 252-node block at N = 32, m = 128
    this takes 40 ms on 2 vCPUs (timeit min over 30 calls, three runs),
    against 44-60 ms with stacked temporaries.

    Nothing is raised for a node that does not factor: where a pivot of
    its recursion is not positive (a NaN in its samples makes the first
    one NaN), its F, B coefficients and B samples are all NaN, and as the
    steps go node by node the other nodes are untouched.  The arithmetic
    on such a node divides by zero and takes roots of negatives, so the
    call runs under one np.errstate that silences those two warnings.
    """
    m = grid.m
    with np.errstate(divide="ignore", invalid="ignore"):
        # first block row H_0 .. H_{nsec-1}; offsets beyond the m resolved
        # coefficients are genuinely tiny (m >= 2N+2 and H decays): zero
        # them rather than alias-wrap, so the section stays a true Toeplitz
        # matrix of the interpolated symbol
        bk = _bottom_row(*_symbol_coefficients(phi, min(nsec, m // 2 + 1)), nsec)
        bs = np.fft.ifft(bk, n=m, norm="forward").transpose(0, 3, 1, 2)
        return _rdiv2(phi, bs), bk.transpose(0, 3, 1, 2), bs


def _plus_tail(bk: np.ndarray, degree: int) -> np.ndarray:
    """Per-node mass of B beyond the loop degree (convergence indicator)."""
    return np.abs(bk[:, degree + 1 :]).max(axis=(1, 2, 3))


def _unitarity(f: np.ndarray) -> np.ndarray:
    """Per-node max |F F* - I| over the samples, from F's entry planes."""
    f00, f01, f10, f11 = f[..., 0, 0], f[..., 0, 1], f[..., 1, 0], f[..., 1, 1]
    dev = np.abs(f00 * np.conj(f10) + f01 * np.conj(f11))
    for a, b in ((f00, f01), (f10, f11)):
        np.maximum(dev, np.abs(_norm2(a, b) - 1.0), out=dev)
    return dev.max(axis=1)


def _reconstruction(f: np.ndarray, bs: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Per-node max |F B - Phi| over the samples, one entry plane at a time."""
    dev = np.zeros(phi.shape[:-2])
    for i in range(2):
        for j in range(2):
            np.maximum(dev, np.abs(f[..., i, 0] * bs[..., 0, j]
                                   + f[..., i, 1] * bs[..., 1, j] - phi[..., i, j]),
                       out=dev)
    return dev.max(axis=1)


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
    is phis[None]).  Each chunk is one factor_samples call, made one
    after another in the calling thread.  A node that does not factor
    comes back with NaN F and B, and the chunk's other nodes factor as
    they would without it.  Input that fits one chunk comes back as
    factor_samples' own arrays, reshaped; the chunks of a larger family
    are concatenated.  Returns (F_samples, B_samples, summary); summary
    holds the node count, the failed node indices (the NaN nodes), the
    mean unitarity and the worst unitarity, plus_loop_tail,
    normalization and reconstruction |F B - Phi| over the nodes that
    factored (NaN where none did).  The normalization, B(0)'s deviation
    from upper triangular with real positive diagonal, is 0 by
    construction: B(0) is the recursion's last pivot (_bottom_row).
    """
    _check_grid(grid, cfg)
    phis = np.asarray(phis, dtype=complex)
    if phis.shape[-3:] != (grid.m, 2, 2):
        raise ValueError(f"expected (..., {grid.m}, 2, 2) samples, got {phis.shape}")
    lead = phis.shape[:-3]
    flat = phis.reshape((-1, grid.m, 2, 2))
    n = flat.shape[0]
    # an empty family has nothing to factor and stands for its own factors
    parts = [factor_samples(flat[lo:lo + _CHUNK], grid, cfg.section_rows)
             for lo in range(0, n, _CHUNK)] or [(flat, flat, flat)]
    f, bk, bs = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    res = {"unitarity": _unitarity(f),
           "plus_loop_tail": _plus_tail(bk, cfg.fourier_degree),
           "normalization": np.zeros(n),
           "reconstruction": _reconstruction(f, bs, flat)}
    ok = ~np.isnan(bk[:, 0, 0, 0])

    def worst(x):
        return float(x[ok].max()) if ok.any() else float("nan")
    summary = {
        "nodes": n,
        "failed_nodes": np.flatnonzero(~ok).tolist(),
        "unitarity_mean": float(res["unitarity"][ok].mean()) if ok.any() else float("nan"),
        **{f"{k}_max": worst(v) for k, v in res.items()},
    }
    return f.reshape(lead + (grid.m, 2, 2)), bs.reshape(lead + (grid.m, 2, 2)), summary
