#!/usr/bin/env python3
"""Plus-loop tail vs truncation degree for one family of pipeline frames.

The frames are built once from the Frobenius series (they depend on the
sample count, not on the truncation degree), then refactored at a range
of degrees.  The tail mass beyond the degree should fall geometrically
until it hits the roundoff floor.

    python scripts/factorization_convergence.py --r 0.3333 --degrees 4 8 16 32
"""

import argparse

import numpy as np

from besselcmc import (
    CylinderParams,
    DomainGrid,
    LambdaGrid,
    PipelineConfig,
    iwasawa_grid,
    series_frames,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--r", type=float, default=1 / 3)
    ap.add_argument("--degrees", nargs="+", type=int, default=[4, 8, 16, 32])
    ap.add_argument("--lambda-samples", type=int, default=128)
    ap.add_argument("--annulus", default="0.3:3.0")
    ap.add_argument("--grid", default="16:8")
    args = ap.parse_args()

    rho = tuple(float(x) for x in args.annulus.split(":"))
    nr, na = (int(x) for x in args.grid.split(":"))
    m = args.lambda_samples
    p = CylinderParams(args.r)
    grid = LambdaGrid(m)

    print(f"series frames: r={args.r}, annulus {rho}, "
          f"{nr}x{na} nodes, {m} lambda samples")
    frames = series_frames(p, DomainGrid(*rho, nr, na), grid)

    print(f"{'degree':>7} {'tail':>12} {'unitarity':>12} {'reconstruction':>15}")
    prev = None
    for deg in sorted(args.degrees):
        c = PipelineConfig(fourier_degree=deg, lambda_samples=m)
        _, _, s = iwasawa_grid(frames, grid, c)
        ratio = "" if prev is None else f"  ({prev / s['plus_loop_tail_max']:.1e}x)"
        print(f"{deg:>7} {s['plus_loop_tail_max']:>12.3e} "
              f"{s['unitarity_max']:>12.3e} {s['reconstruction_max']:>15.3e}{ratio}")
        prev = s["plus_loop_tail_max"]

    noise = np.finfo(float).eps * m
    print(f"(rough noise floor for reference: {noise:.1e})")


if __name__ == "__main__":
    main()
