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

The recursion stops once it has converged.  A frame's symbol H is
analytic in an annulus about the circle, so the recursion's reflection
coefficients q fall geometrically until they reach rounding.  Each node
has the floor eps kappa, kappa a bound on the condition number of H on
the circle.  A rotation moves the generator by about q* v*, a product of
two small factors, so once every node that still factors has |q|^2 and
every |v_j a^-1|^2 at its floor, the rotations left would move B by about
eps kappa |B|, and the rest of B is read off the generator as it stands.
On the surface benchmark's blocks at N = 32 that is after 6-8 of the 65
steps.  A node whose floor reaches 1 (H singular to working precision)
never lets its chunk stop, and where v* never reaches the floor every
step runs, with the bits of the full recursion.

Failure is data, not an exception.  Each node's rotation touches only
its own generator rows, so a node whose pivot is not positive (or whose
samples are not finite) is marked and the batch carries on; its factors
come out NaN.  A good node's bits depend on the step at which its chunk
stopped, but not on the failed nodes: a node that fails at its first
pivot (NaN samples make it NaN) takes no part in the stop, so the other
nodes are the same bits as in a batch without it, and a node that fails
later holds the stop back only until its pivot fails, which moves the
others by rounding.  iwasawa_grid makes one factor_samples call per
chunk and reads the failed nodes from the NaN ones.

The working set of a block is kept lean: H is taken as three entry
planes of (nodes, m) samples, each transformed along its contiguous last
axis; each factor_samples call factors in one work buffer, which holds
the generator and its shift and then, once B's coefficients are read
off and the generator is dead, F itself and after it B's samples, one
inverse FFT of its coefficient planes; and the residuals and
iwasawa_grid's result are formed without a copy of any (nodes, m,
2, 2) stack.  No array of a call is larger than its work buffer.  The
buffer is the call's own, or one its caller lends it (_lend):
build_surface lends each of its blocks in turn the same buffer, so that
a build's largest arrays are not freed, mapped again and faulted in
afresh block after block.

Blocks are sized by their bytes, not by a node count (_blocks): the work
buffer takes _node_bytes(nsec, m) per node and at most _WORK_BYTES =
1 MiB, which is 62 nodes at N = 32, m = 128 and 234 at N = 8, m = 32,
and a build's rings go in the fewest such blocks, whose sizes differ by
at most one ring.  The surface benchmark's 48 rings of 7 columns are 6
calls of 56 nodes, generate's 96 of 13 are 6 of 208 (and its
reference's 96 nodes one call), a 128x64 build's are 43 of 34-51.  A
56-node block peaks at 4.6 times its samples' bytes (0.44 MiB), results
included.
"""

from __future__ import annotations

import threading

import numpy as np

from .config import PipelineConfig, DEFAULT_CONFIG
from .loops import LambdaGrid, _chol2_entries, _norm2, _rdiv2

__all__ = ["iwasawa_grid", "factor_samples"]


def _symbol_coefficients(phi: np.ndarray, kept: int):
    """H_0 .. H_{kept-1} of H = Phi* Phi as four (nodes, kept) entry planes,
    and each node's rounding floor for the squared size of the recursion's
    q and v* (_bottom_row).

    H's diagonal is two real planes and its lower entry one complex
    plane, each with its samples on the contiguous last axis; H01 =
    conj(H10) on the circle gives the upper entry's coefficients H01_k =
    conj(H10_{-k}).  The real planes take the complex FFT, not rfft: the
    two round differently, and the sections just short of indefinite
    (tests' half-circle loop, least eigenvalue 1.8e-25 at 33 block rows
    of m = 128) then pass up to 53 block rows, against 26 with rfft.

    The floor is eps kappa, with kappa = max over the circle of
    (tr H)^2 / det H, a bound on the condition number of H(lambda) (tr^2 /
    det >= sigma_1 / sigma_2), unchanged when Phi is scaled; for the
    pipeline's frames det H = |det Phi|^2 = 1 and kappa = max (tr H)^2.
    """
    m = phi.shape[1]
    p00, p01, p10, p11 = phi[..., 0, 0], phi[..., 0, 1], phi[..., 1, 0], phi[..., 1, 1]
    n00, n11 = _norm2(p00, p10), _norm2(p01, p11)
    det = p00 * p11 - p01 * p10
    kappa = ((n00 + n11) ** 2 / (det.real ** 2 + det.imag ** 2)).max(axis=1)
    c00 = np.fft.fft(n00, norm="forward")[:, :kept]
    c11 = np.fft.fft(n11, norm="forward")[:, :kept]
    c10 = np.fft.fft(np.conj(p01) * p00 + np.conj(p11) * p10, norm="forward")
    return (c00, np.conj(c10[:, -np.arange(kept) % m]), c10[:, :kept], c11,
            np.finfo(float).eps * kappa)


def _reflection_bound(v, a00, a01, a11, scratch) -> np.ndarray:
    """Per node, max_j |v_j|_F^2 |a^-1|_F^2 over v*'s blocks v_j, a bound
    on max_j |v_j a^-1|_F^2 that needs no temporary of v's size.

    v: the generator's rows [Re v*, Im v*], (nodes, 4, 2 J) for J blocks
    of two columns; a = [[a00, a01], [0, a11]] per node, a^-1 =
    [[1/a00, -a01/(a00 a11)], [0, 1/a11]]; scratch: a flat float buffer
    of at least v.size entries, free to overwrite, for v's squares.  The
    sums take 0.18 ms at 252 nodes and 120 columns, einsum over
    (nodes, 4, J, 2) 0.49 ms (2 vCPUs).
    """
    vv = np.square(v, out=scratch[:v.size].reshape(v.shape)).sum(axis=1)
    vv = (vv[:, ::2] + vv[:, 1::2]).max(axis=1)   # each block's, then the largest
    return vv * (1.0 / a00 ** 2 + 1.0 / a11 ** 2
                 + (a01.real ** 2 + a01.imag ** 2) / (a00 * a11) ** 2)


def _bottom_row(h00, h01, h10, h11, floor, nsec: int, work: np.ndarray) -> np.ndarray:
    """B_0 .. B_{nsec-1} from the block Schur recursion on the section.

    h00 .. h11: H_k's entries for k < kept, (nodes, kept); the section's
    offsets from kept on are zero.  Returns (nodes, 2, 2, nsec) complex,
    B_k[i, j] at [:, i, j, k]; floor: each node's eps kappa, (nodes,);
    work: a flat float buffer of at least 8 nodes (4 nsec - 2) entries
    for the generator and its shift, free to overwrite.
    See factor_samples for the steps and the stop.  A node is ok while
    the diagonals of its first R0 and of every step's two Cholesky factors
    are > 0 (NaN is not); the nodes that are not get NaN coefficients and
    take no part in the stop.
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
    # the generator and its shift, two flat parts of work: step k writes
    # contiguous prefixes of width w = 2 (nsec - k).  Nothing here is
    # left in work once B is read off, and factor_samples writes F there
    w = 2 * nsec
    gbuf, sbuf = work[:nb * 8 * w], work[nb * 8 * w:nb * 8 * (2 * w - 2)]
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
    # a node whose floor is not below 1 (H singular to working precision)
    # never lets its chunk stop
    floor = np.where(floor < 1.0, floor, -1.0)
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
        qq = (q.real ** 2 + q.imag ** 2).sum(axis=1)
        # stop once every block v_j of v* has |v_j a^-1|^2 <= floor on every
        # node that still factors: a rotation moves u* by about q* v*, a
        # product of two such factors, so the rotations left would move B
        # by about the floor.  q = b a^-1 with b v*'s top block, so |q|^2 <=
        # floor is implied; it is the cheap test run first.  v* is bounded
        # whole because q need not fall monotonically (a symbol in lambda^3
        # has q = 0 at steps 1 and 2).  g is dead once shifted is formed,
        # so its memory takes v*'s squares
        if (((qq[0] + qq[1] <= floor) | ~ok).all()
                and ((_reflection_bound(shifted[:, 4:], a00, a01, a11, gbuf)
                      <= floor) | ~ok).all()):
            # the rest of B is u*'s blocks as they stand
            u = shifted[:, :4].reshape(nb, 2, 2, nsec - k, 2).transpose(1, 0, 2, 4, 3)
            bk.real[..., :nsec - k], bk.imag[..., :nsec - k] = u
            break
        # the new pivot: L L* = a* a - b* b
        bb = (top * top).sum(axis=0)
        l00, l10, l11 = _chol2_entries(
            a00 * a00 - bb[0],
            np.conj(a01) * a00 - (b[:, 0] * np.conj(b[:, 1])).sum(axis=0),
            a01.real ** 2 + a01.imag ** 2 + a11 * a11 - bb[1])
        m00, m11 = a00 / l00, a11 / l11
        m10 = (np.conj(a01) - l10 * m00) / l11
        # M2 = C^-1 with C C* = I - q q*
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
    (B, 2, 2, m) arrays, so each entry plane is contiguous.  F and
    B_samples lie apart in the call's work buffer, which is its own
    unless one was lent to it (_lend).

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
    The shift and the product write into the same two parts of the
    call's one work buffer, 8 B max(4 nsec - 2, 2 m) floats, at every
    step.  B's samples are one inverse FFT of its coefficient planes,
    zero-padded to m inside the transform, and F = Phi adj(B) / det(B)
    entry by entry (loops._rdiv2); both are written into that buffer, F
    into its first 8 B m floats and B's samples into the next 8 B m: the
    generator is dead once B's coefficients are read off.  The caller
    owns the three results: none shares memory with phi, with one another or
    with another call's results.  F and B's samples are views of the work
    buffer, which lives as long as either does.

    q is the step's reflection coefficient, and the recursion stops at the
    first step k at which every block v_j of v* has |v_j|_F^2 |a^-1|_F^2
    <= floor on every node that still factors, floor = eps kappa with
    kappa = max over the samples of (tr H)^2 / det H >= cond H
    (_symbol_coefficients).  A rotation moves u* by about q* v*, with
    |q|_F and every |v_j a^-1|_F at most sqrt(floor), so the rotations
    left would move B by about floor |B|: B_0 .. B_{nsec-1-k} are then
    u*'s blocks of the shifted generator, and B_0 is still the exact
    triangular pivot.  As q = b a^-1 and b is v*'s top block, |q|_F^2 <=
    floor is implied, and it is tested first because it is cheap.  All
    of v* is bounded because q need not fall monotonically: a symbol in
    lambda^3 has q = 0 at its first two steps.  A node with floor >= 1
    never lets its chunk stop.  The chunks of the surface benchmark
    (r = 0.2, 0.3, 0.4) stop after 6, 7 and 8 of 65 steps, generate's
    (N = 8) after 5-7 of 17, and at r = 0.9 after 22-23 of 65; B moves from
    the full recursion's by at most 0.34 eps kappa |B| per node.  At
    r = -2.9 (N = 32) the outer rings never reach the floor and every
    step runs.  On a 56-node block at N = 32, m = 128 (the surface
    benchmark's) the call takes 2.9-3.9 ms at r = 0.3, 5.1-5.7 ms at
    r = 0.9 and 9-13 ms when all 65 steps run (r = -2.9), against 23-26,
    31-36 and 40-49 ms for 252 nodes, on 2 vCPUs (timeit min over 30
    calls, three runs, in one warm process).

    Nothing is raised for a node that does not factor: where a pivot of
    its recursion is not positive (a NaN in its samples makes the first
    one NaN), its F, B coefficients and B samples are all NaN, and as the
    steps go node by node the other nodes' rotations are untouched; such a
    node counts for the stop only until its pivot fails (see the module
    docstring).  The arithmetic on such a node divides by zero and takes
    roots of negatives, so the call runs under one np.errstate that
    silences those two warnings.
    """
    nb, m = len(phi), grid.m
    # the call's one work buffer: the generator and its shift, then F and
    # B's samples; a buffer lent by the caller (_lend) if it is big enough
    size = nb * _node_bytes(nsec, m) // 8
    work, _spare.work = getattr(_spare, "work", None), None
    work = np.empty(size) if work is None or work.size < size else work[:size]
    with np.errstate(divide="ignore", invalid="ignore"):
        # first block row H_0 .. H_{nsec-1}; offsets beyond the m resolved
        # coefficients are genuinely tiny (m >= 2N+2 and H decays): zero
        # them rather than alias-wrap, so the section stays a true Toeplitz
        # matrix of the interpolated symbol
        bk = _bottom_row(*_symbol_coefficients(phi, min(nsec, m // 2 + 1)), nsec, work)
        # F in the buffer's first 8 nb m floats, B's samples in the next
        f, bs = work[:16 * nb * m].view(complex).reshape(2, nb, 4 * m)
        bs = np.fft.ifft(bk, n=m, norm="forward",
                         out=bs.reshape(nb, 2, 2, m)).transpose(0, 3, 1, 2)
        f = _rdiv2(phi, bs, out=f.reshape(nb, m, 2, 2))
        return f, bk.transpose(0, 3, 1, 2), bs


_spare = threading.local()


def _lend(work: np.ndarray | None) -> None:
    """Hand a flat float buffer to the next factor_samples call in this
    thread, which factors in it if it holds that call's work buffer, so
    that the call's F and B samples are views of it; None takes a lent
    buffer back.  A call takes the buffer either way, so it serves one
    call only.  build_surface lends one buffer to each of its blocks in
    turn, each block's F being dead (Sym has read it) before the next is
    factored: a block's largest arrays are then not freed and mapped
    again, and their pages not faulted in afresh, block after block.
    """
    _spare.work = work


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
    """Per-node max |F B - Phi| over the samples, one entry plane at a time.

    factor_samples forms F = Phi adj(B) / det B, so F B = Phi by
    construction and this reads rounding only, however poor B is: at
    r = -2.9 (N = 32, annulus 0.3:3.0) it reads 3.0e-10 where the
    unitarity reads 2.2e-2.  So iwasawa_grid runs it on one node per
    call, not on all of them (the pass over every node cost 1.5 of a
    16.3 ms block); tests/oracles.py keeps that pass.
    """
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


# the most a factor_samples call's work buffer may take: below 1 MiB the
# surface benchmark slows down (by 10% at 0.75 MiB), and above it
# generate's peak memory grows (by 0.9 MB at 1.5 MiB, where the surface
# op would run 5% faster); at 4 MiB numpy asks the kernel for transparent
# huge pages, which made the peak memory of one run differ from the next
_WORK_BYTES = 1 << 20


def _node_bytes(nsec: int, m: int) -> int:
    """Bytes per node of a factor_samples call's work buffer: the
    generator and its shift, 8 (4 nsec - 2) floats, and then F, 8 m,
    followed by B's samples, 8 m more."""
    return 64 * max(4 * nsec - 2, 2 * m)


def _blocks(count: int, item_bytes: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds that split count items of item_bytes each into the
    fewest blocks of at most _WORK_BYTES, as even as can be: their sizes
    differ by at most one item.  An item larger than the budget is a
    block of its own.  The items are nodes of a factor_samples call
    (item_bytes = _node_bytes) or rings of a build.
    """
    most = max(1, _WORK_BYTES // item_bytes)
    k = -(-count // most)
    return [(i * count // k, (i + 1) * count // k) for i in range(k)]


def iwasawa_grid(phis, grid: LambdaGrid,
                 cfg: PipelineConfig = DEFAULT_CONFIG):
    """Factor a whole family of sampled loops, chunked to bound memory.

    phis: (..., m, 2, 2) samples; leading axes index the nodes (one loop
    is phis[None]).  The nodes go in the fewest chunks whose work buffer
    stays within _WORK_BYTES, as even as can be (_blocks); each chunk is
    one factor_samples call, made one after another in the calling
    thread.  A node that does not factor comes back with NaN F and B, and
    the chunk's other nodes factor as they would without it.  Input that
    fits one chunk comes back as factor_samples' own arrays, reshaped;
    the chunks of a larger family are concatenated.  Returns (F_samples, B_samples, summary); summary
    holds the node count, the failed node indices (the NaN nodes), the
    mean unitarity and the worst unitarity, plus_loop_tail and
    normalization over the nodes that factored, and the reconstruction
    |F B - Phi| of one of them (each NaN where none did).  The
    normalization, B(0)'s deviation from upper triangular with real
    positive diagonal, is 0 by construction: B(0) is the recursion's last
    pivot (_bottom_row).  The reconstruction reads rounding by
    construction, since F = Phi adj(B) / det B (_reconstruction), and
    that rounding grows with |B|.  So it is read on one node, the factored
    node with the largest sum of |B_k|'s entries, a bound on |B| over the
    disk.  A build's reconstruction_max, the largest over its calls, then
    reads 0.94-1 times the largest over every node on the benchmarks'
    builds, the production build and at r = 0.9 and -2.5; picked by the
    largest entry of B's samples or coefficients, r = -2.5 read 0.32.
    Unitarity and plus_loop_tail carry the factorization's error.
    """
    _check_grid(grid, cfg)
    phis = np.asarray(phis, dtype=complex)
    if phis.shape[-3:] != (grid.m, 2, 2):
        raise ValueError(f"expected (..., {grid.m}, 2, 2) samples, got {phis.shape}")
    lead = phis.shape[:-3]
    flat = phis.reshape((-1, grid.m, 2, 2))
    n = flat.shape[0]
    # an empty family has nothing to factor and stands for its own factors
    parts = ([factor_samples(flat[lo:hi], grid, cfg.section_rows)
             for lo, hi in _blocks(n, _node_bytes(cfg.section_rows, grid.m))]
             or [(flat, flat, flat)])
    f, bk, bs = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    ok = ~np.isnan(bk[:, 0, 0, 0])
    good = np.flatnonzero(ok)
    # the factored node with the largest sum of |B_k|'s entries, a bound
    # on |B| over the disk (none if none factored)
    top = good[np.argsort(np.abs(bk).sum(axis=(1, 2, 3))[good])[-1:]]
    res = {"unitarity": _unitarity(f)[good],
           "plus_loop_tail": _plus_tail(bk, cfg.fourier_degree)[good],
           "normalization": np.zeros(len(good)),
           "reconstruction": _reconstruction(f[top], bs[top], flat[top])}

    def worst(x):
        return float(x.max()) if x.size else float("nan")
    summary = {
        "nodes": n,
        "failed_nodes": np.flatnonzero(~ok).tolist(),
        "unitarity_mean": float(res["unitarity"].mean()) if good.size else float("nan"),
        **{f"{k}_max": worst(v) for k, v in res.items()},
    }
    return f.reshape(lead + (grid.m, 2, 2)), bs.reshape(lead + (grid.m, 2, 2)), summary
