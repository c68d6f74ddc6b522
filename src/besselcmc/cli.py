"""Command-line driver: config resolution, pipeline orchestration, mesh
export, and machine-readable verification reports.

Exit codes are a stable contract:
    0  success (all gated residuals within thresholds)
    1  a verification check ran and failed
    2  bad input (arguments, config file, parameter ranges)
    3  numerical failure inside the pipeline

Reports are JSON objects with the fixed keys `check`, `residuals`,
`thresholds`, `config`, `pass`.  Same config, same numbers: nothing in a
report depends on thread order or wall-clock time.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .bessel import bessel_integrate, frame_from_scalar, scalar_residual
from .config import DEFAULT_CONFIG, PipelineConfig
from .flow import PathSpec, integrate_frame, monodromy, trace_law_check
from .loops import LambdaGrid
from .potentials import (
    CylinderParams,
    DelaunayResidue,
    cylinder_basepoint_frame,
    delaunay_ab,
    make_bessel_potential,
    make_cylinder_potential,
    verify_gauge_chain,
    verify_mu_alpha_identity,
    verify_symmetry_relations,
)
from .surface import (
    DomainGrid,
    SurfaceMesh,
    build_surface,
    delaunay_reference,
    reflection_symmetry_check,
)

__all__ = ["RunConfig", "cmd_generate", "cmd_verify", "export_mesh", "main"]

@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters.  Flags override config-file entries,
    which override the defaults below."""

    r: float
    fourier_degree: int = DEFAULT_CONFIG.fourier_degree
    lambda_samples: int = DEFAULT_CONFIG.lambda_samples
    ode_tol: float = DEFAULT_CONFIG.ode_tol
    annulus: tuple[float, float] = (0.1, 2.5)
    grid: tuple[int, int] = (128, 64)
    out: str | None = None
    mesh_format: str | None = None  # None: infer from the out suffix

    def params(self) -> CylinderParams:
        return CylinderParams(self.r)

    def pipeline(self) -> PipelineConfig:
        return PipelineConfig(fourier_degree=self.fourier_degree,
                              lambda_samples=self.lambda_samples,
                              ode_tol=self.ode_tol)

    def lambda_grid(self) -> LambdaGrid:
        return LambdaGrid(self.lambda_samples)

    def domain(self) -> DomainGrid:
        return DomainGrid(self.annulus[0], self.annulus[1],
                          self.grid[0], self.grid[1])


# ---------------------------------------------------------------------------
# mesh export

def _fmt(x: float) -> str:
    return "%.17g" % x


def export_mesh(mesh: SurfaceMesh, fmt: str, path) -> None:
    """Write the welded quad mesh as ASCII OBJ or PLY.

    Output is byte-stable: identical meshes produce identical files.
    OBJ uses 1-based `f` indices; PLY counts from 0 as usual.
    """
    verts = mesh.vertices.reshape(-1, 3)
    faces = mesh.faces
    lines = []
    if fmt == "obj":
        for v in verts:
            lines.append(f"v {_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}")
        for f in faces:
            lines.append("f %d %d %d %d" % (f[0] + 1, f[1] + 1, f[2] + 1, f[3] + 1))
    elif fmt == "ply":
        lines += [
            "ply",
            "format ascii 1.0",
            f"element vertex {len(verts)}",
            "property double x",
            "property double y",
            "property double z",
            f"element face {len(faces)}",
            "property list uchar int vertex_indices",
            "end_header",
        ]
        for v in verts:
            lines.append(f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}")
        for f in faces:
            lines.append("4 %d %d %d %d" % (f[0], f[1], f[2], f[3]))
    else:
        raise ValueError(f"unknown mesh format {fmt!r} (use obj or ply)")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# verification checks: each returns (residuals, thresholds)

def _check_monodromy(cfg: RunConfig):
    p = cfg.params()
    grid = cfg.lambda_grid()
    res = DelaunayResidue(*delaunay_ab(p))
    phi0 = cylinder_basepoint_frame(p, grid.points)
    _, rep = monodromy(make_cylinder_potential(p), grid, cfg.pipeline(),
                       frame0=phi0, res=res)
    thresholds = {"unitarity_error": 1e-6, "identity_error": 1e-8,
                  "derivative_error": 1e-5, "trace_law_error": 1e-6}
    return rep.fields(), thresholds


def _check_trace_law(cfg: RunConfig):
    p = cfg.params()
    res = DelaunayResidue(*delaunay_ab(p))
    err = trace_law_check(make_cylinder_potential(p), res,
                          cfg.lambda_grid(), cfg.pipeline())
    return {"trace_law_error": err}, {"trace_law_error": 1e-6}


def _check_mu_alpha(cfg: RunConfig):
    err = verify_mu_alpha_identity(cfg.params(), LambdaGrid(64).points)
    return {"mu_alpha_residual": err}, {"mu_alpha_residual": 1e-12}


def _check_gauge(cfg: RunConfig, sabotage: float = 0.0):
    errs = verify_gauge_chain(cfg.params(), n_points=100, seed=7,
                              alpha_offset=sabotage)
    return ({"reduced_form": errs["reduced"], "cylinder_form": errs["cylinder"]},
            {"reduced_form": 1e-10, "cylinder_form": 1e-10})


def _check_symmetry(cfg: RunConfig):
    rng = np.random.default_rng(23)
    zs = rng.uniform(0.5, 2.0, 40) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    lams = np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    samples = [(1.0 + 1.0j, np.exp(1j * np.pi / 3.0))] + list(zip(zs, lams))
    err = verify_symmetry_relations(make_cylinder_potential(cfg.params()), samples)
    return {"symmetry_residual": err}, {"symmetry_residual": 1e-12}


def _check_bessel(cfg: RunConfig):
    """Scalar-vs-matrix cross-validation along z: 1 -> 3.

    The scalar fundamental system (y(1), z y'(1)) = (1,0) and (0,1)
    assembles the same frame the 2x2 flow transports, the Wronskian
    z (y1' y2 - y2' y1) stays constant, and re-substitution into the
    generic second-order form leaves only the differentiation noise of
    the check itself.
    """
    pcfg = cfg.pipeline()
    path = PathSpec.line(0.0, complex(np.log(3.0)))
    grid = LambdaGrid(4)  # the potential ignores lambda; smallest legal grid

    def nu(z):
        return 1.0 / z

    frame_dev = wronskian_drift = equation_residual = 0.0
    for alpha in (0.0, 0.5, 0.3 + 0.1j):
        y1 = bessel_integrate(alpha, path, 1.0, 0.0, pcfg)
        y2 = bessel_integrate(alpha, path, 0.0, 1.0, pcfg)
        scal = frame_from_scalar(y1, y2, nu)
        sol = integrate_frame(make_bessel_potential(alpha), path,
                              np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
                              grid, pcfg)
        frame_dev = max(frame_dev, float(np.abs(sol.end() - scal).max()))
        zw = y1.z * (y1.dy * y2.y - y2.dy * y1.y)
        wronskian_drift = max(wronskian_drift, abs(zw - (-1.0)))

        def rho(z, a=alpha):
            return -z + a * a / z

        equation_residual = max(equation_residual,
                                abs(scalar_residual(nu, rho, y1, y1.z)),
                                abs(scalar_residual(nu, rho, y2, y2.z)))
    residuals = {"frame_deviation": frame_dev,
                 "wronskian_drift": wronskian_drift,
                 "equation_residual": equation_residual}
    thresholds = {"frame_deviation": 1e-7, "wronskian_drift": 1e-9,
                  "equation_residual": 1e-6}
    return residuals, thresholds


_CHECK_FUNCS = {
    "monodromy": _check_monodromy,
    "gauge": _check_gauge,
    "symmetry": _check_symmetry,
    "bessel": _check_bessel,
    "trace-law": _check_trace_law,
    "mu-alpha": _check_mu_alpha,
}
CHECKS = tuple(_CHECK_FUNCS)


# ---------------------------------------------------------------------------
# reports

def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, (complex, np.complexfloating)):
        return {"re": float(x.real), "im": float(x.imag)}
    return x


def _passes(residuals: dict, thresholds: dict) -> bool:
    # NaN compares False, so a missing-data residual fails its gate.
    return all(float(residuals[k]) <= bound for k, bound in thresholds.items())


def _report(check: str, residuals: dict, thresholds: dict, cfg: RunConfig) -> dict:
    return {
        "check": check,
        "residuals": _jsonable(residuals),
        "thresholds": _jsonable(thresholds),
        "config": _jsonable(asdict(cfg)),
        "pass": _passes(residuals, thresholds),
    }


def _dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# commands

def cmd_verify(cfg: RunConfig, which: str, sabotage: float = 0.0) -> dict:
    """Run one named check; returns the report dict.

    sabotage is the gauge check's negative control; any other check
    rejects a nonzero value.
    """
    if which not in _CHECK_FUNCS:
        raise ValueError(
            f"unknown check {which!r} (choose from {', '.join(CHECKS)})")
    if which == "gauge":
        residuals, thresholds = _check_gauge(cfg, sabotage)
    elif sabotage:
        raise ValueError(f"--sabotage applies to the gauge check only, not {which!r}")
    else:
        residuals, thresholds = _CHECK_FUNCS[which](cfg)
    return _report(which, residuals, thresholds, cfg)


def cmd_generate(cfg: RunConfig) -> tuple[dict, list[str]]:
    """Full pipeline run: cylinder mesh, Delaunay reference mesh, report.

    The pass verdict gates on seam closure and the monodromy closing
    residuals; mean curvature and reflection symmetry are reported as
    informational residuals (their own thresholds live in the
    verification suite, where grid resolution is controlled).
    """
    if cfg.out is None:
        raise ValueError("generate requires --out <path>")
    # settle the output format before any pipeline work
    out = Path(cfg.out)
    fmt = cfg.mesh_format or out.suffix.lstrip(".").lower() or "obj"
    if fmt not in ("obj", "ply"):
        raise ValueError(f"unknown mesh format {fmt!r} (use obj or ply)")
    p = cfg.params()
    pcfg = cfg.pipeline()
    grid = cfg.lambda_grid()
    dom = cfg.domain()
    res = DelaunayResidue(*delaunay_ab(p))

    closing, thresholds = _check_monodromy(cfg)

    mesh = build_surface(p, dom, grid, pcfg)
    reference = delaunay_reference(res, dom, grid, pcfg)
    sym = reflection_symmetry_check(mesh)

    suffix = out.suffix or f".{fmt}"
    ref_path = out.with_name(f"{out.stem}-reference{suffix}")
    report_path = out.with_name(f"{out.stem}-report.json")
    export_mesh(mesh, fmt, out)
    export_mesh(reference, fmt, ref_path)

    normal, offset = sym.fitted_plane
    residuals = {
        **closing,
        "seam_residual": mesh.diagnostics["seam_residual"],
        "sym_point_defect": mesh.diagnostics["sym_defect"],
        "mean_curvature": mesh.H_stats,
        "symmetry": {"max_deviation": sym.max_deviation,
                     "plane_normal": normal,
                     "plane_offset": offset},
        "iwasawa": mesh.diagnostics["iwasawa"],
        "reference_seam_residual": reference.diagnostics["seam_residual"],
    }
    thresholds["seam_residual"] = 1e-5
    report = _report("generate", residuals, thresholds, cfg)
    Path(report_path).write_text(_dump_report(report), encoding="ascii")
    return report, [str(out), str(ref_path), str(report_path)]


# ---------------------------------------------------------------------------
# argument and config-file handling

def _annulus_arg(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    if not _:
        raise ValueError(f"annulus must be 'rho_min:rho_max', got {text!r}")
    return (float(lo), float(hi))


def _grid_arg(text: str) -> tuple[int, int]:
    n, _, m = text.partition(":")
    if not _:
        raise ValueError(f"grid must be 'n_radial:n_angular', got {text!r}")
    return (int(n), int(m))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselcmc",
        description="CMC cylinder surfaces from the Bessel equation: "
                    "generate meshes or verify pipeline identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--r", type=float, default=None,
                        help="family parameter, in (-inf, 1) and nonzero")
        sp.add_argument("--degree", dest="fourier_degree", metavar="DEGREE",
                        type=int, default=None,
                        help="Fourier truncation degree N (default 32)")
        sp.add_argument("--lambda-samples", type=int, default=None,
                        help="unit-circle samples m, a power of two >= 2N+2 "
                             "(default 128)")
        sp.add_argument("--tol", dest="ode_tol", metavar="TOL",
                        type=float, default=None,
                        help="ODE relative tolerance of the closing and verification "
                             "checks; mesh frames are closed-form (default 1e-10)")
        sp.add_argument("--annulus", type=_annulus_arg, default=None,
                        metavar="RHO_MIN:RHO_MAX",
                        help="domain annulus (default 0.1:2.5)")
        sp.add_argument("--grid", type=_grid_arg, default=None,
                        metavar="N_RADIAL:N_ANGULAR",
                        help="mesh resolution (default 128:64)")
        sp.add_argument("--out", default=None, help="output path")
        sp.add_argument("--format", dest="mesh_format",
                        choices=("obj", "ply"), default=None,
                        help="mesh format (default: from the --out suffix)")
        sp.add_argument("--config", default=None,
                        help="key=value config file; flags take precedence")

    gen = sub.add_parser(
        "generate",
        help="build the cylinder mesh, its Delaunay reference, and a report")
    add_common(gen)

    ver = sub.add_parser(
        "verify", help="run one verification check and report residuals")
    ver.add_argument("check", choices=CHECKS)
    add_common(ver)
    ver.add_argument("--sabotage", type=float, default=0.0,
                     help="offset added to the Bessel order inside the gauge "
                          "chain (negative control for the gauge check only; "
                          "any nonzero value must make it fail)")
    return parser


_FILE_KEYS = {
    "r": ("r", float),
    "degree": ("fourier_degree", int),
    "lambda_samples": ("lambda_samples", int),
    "tol": ("ode_tol", float),
    "annulus": ("annulus", _annulus_arg),
    "grid": ("grid", _grid_arg),
    "out": ("out", str),
    "format": ("mesh_format", str),
}


def _parse_config_file(text: str) -> dict:
    """key=value lines; '#' starts a comment; keys match the long flags."""
    vals = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"config line {lineno} is not key=value: {raw!r}")
        key = key.strip().replace("-", "_")
        if key not in _FILE_KEYS:
            raise ValueError(
                f"unknown config key {key!r} (known: {', '.join(sorted(_FILE_KEYS))})")
        dest, conv = _FILE_KEYS[key]
        vals[dest] = conv(value.strip())
    return vals


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Flags over config-file entries; RunConfig supplies the rest."""
    vals = {}
    if args.config is not None:
        vals = _parse_config_file(Path(args.config).read_text(encoding="utf-8"))
    for f in fields(RunConfig):
        flag = getattr(args, f.name)
        if flag is not None:
            vals[f.name] = flag
    if vals.get("r") is None:
        raise ValueError("missing parameter r: pass --r or set r= in the config file")
    return RunConfig(**vals)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: bad usage -> 2, --help -> 0
        return int(exc.code) if exc.code else 0

    try:
        cfg = _resolve_config(args)
        if args.command == "generate":
            report, paths = cmd_generate(cfg)
            for path in paths:
                print(f"wrote {path}")
        else:
            report = cmd_verify(cfg, args.check, sabotage=args.sabotage)
            if cfg.out is not None:
                Path(cfg.out).write_text(_dump_report(report), encoding="ascii")
                print(f"wrote {cfg.out}")
            else:
                sys.stdout.write(_dump_report(report))
    except (np.linalg.LinAlgError, RuntimeError, FloatingPointError) as exc:
        # LinAlgError subclasses ValueError, so it has to be caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if cfg.out is not None or args.command == "generate":
        print(f"{report['check']}: {'pass' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
