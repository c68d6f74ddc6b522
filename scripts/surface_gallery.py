#!/usr/bin/env python3
"""Export a small gallery of cylinder surfaces and their rotational twins.

Builds the two figure-worthy parameter values (r = 1/3 bulging, r = -1/4
with the opposite neck behavior) plus the pure-residue references
(unduloid, nodoid, round cylinder) and writes OBJ meshes into --out-dir.
Each cylinder is compared with its own Delaunay reference on the same
domain (end_distance); the innermost-ring distance is printed, and with
matplotlib installed the per-ring distance is drawn against |z|.
"""

import argparse
from pathlib import Path

import numpy as np

from besselcmc import (
    CylinderParams,
    DelaunayResidue,
    DomainGrid,
    LambdaGrid,
    PipelineConfig,
    build_surface,
    delaunay_ab,
    delaunay_reference,
    end_distance,
    export_mesh,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("gallery"))
    ap.add_argument("--degree", type=int, default=16)
    ap.add_argument("--lambda-samples", type=int, default=64)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    grid = LambdaGrid(args.lambda_samples)
    cfg = PipelineConfig(fourier_degree=args.degree,
                         lambda_samples=args.lambda_samples)
    dom = DomainGrid(0.3, 3.0, 96, 48)

    distances = {}
    for r, name in ((1 / 3, "cylinder-bulge"), (-0.25, "cylinder-neck")):
        mesh = build_surface(CylinderParams(r), dom, grid, cfg)
        path = args.out_dir / f"{name}.obj"
        export_mesh(mesh, "obj", path)
        a, b = delaunay_ab(CylinderParams(r))
        reference = delaunay_reference(DelaunayResidue(a, b), dom, grid, cfg)
        distances[name] = end_distance(mesh, reference)
        print(f"{path}  r={r:+.4f} (a={a:.4f}, b={b:+.4f})  "
              f"seam {mesh.diagnostics['seam_residual']:.1e}  "
              f"H {mesh.H_stats['mean']:.4f} +/- {mesh.H_stats['stddev']:.4f}  "
              f"end distance at |z| = {dom.rho_min}: {distances[name][0]:.1e}")

    references = (
        (DelaunayResidue(0.375, 0.125), DomainGrid(0.01, 4.0, 160, 32), "unduloid"),
        (DelaunayResidue(0.75, -0.25), DomainGrid(0.05, 3.0, 96, 32), "nodoid"),
        (DelaunayResidue(0.25, 0.25), DomainGrid(0.3, 3.0, 64, 32), "round-cylinder"),
    )
    for res, rdom, name in references:
        mesh = delaunay_reference(res, rdom, grid, cfg)
        path = args.out_dir / f"{name}.obj"
        export_mesh(mesh, "obj", path)
        print(f"{path}  residue ({res.a:+.3f}, {res.b:+.3f})")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping end-distance figure")
        return

    fig, ax = plt.subplots(figsize=(7, 4))
    for name, d in distances.items():
        ax.loglog(np.exp(dom.u()), d, label=name)
    ax.set_xlabel("|z|")
    ax.set_ylabel("end distance / bbox diagonal")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(args.out_dir / "end-distance.png", dpi=150)
    print(f"{args.out_dir / 'end-distance.png'}")


if __name__ == "__main__":
    main()
