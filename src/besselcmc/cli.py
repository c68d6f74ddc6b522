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
    end_distance,
    reflection_symmetry_check,
)

__all__ = ["RunConfig", "cmd_generate", "cmd_verify", "export_mesh", "main"]

@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters.  Flags override config-file entries,
    which override the defaults below.  Construction builds the library
    objects below, whose validators raise ValueError, and checks
    mesh_format, so every command rejects every bad setting, including
    the ones its check ignores, before any work."""

    r: float
    fourier_degree: int = DEFAULT_CONFIG.fourier_degree
    lambda_samples: int = DEFAULT_CONFIG.lambda_samples
    ode_tol: float = DEFAULT_CONFIG.ode_tol
    annulus: tuple[float, float] = (0.1, 2.5)
    grid: tuple[int, int] = (128, 64)
    out: str | None = None
    mesh_format: str | None = None  # None: infer from the out suffix

    def __post_init__(self) -> None:
        for build in (self.params, self.pipeline, self.lambda_grid, self.domain):
            build()
        if self.mesh_format not in (None, "obj", "ply"):
            raise ValueError(f"unknown mesh format {self.mesh_format!r} (use obj or ply)")

    def params(self) -> CylinderParams:
        return CylinderParams(self.r)

    def pipeline(self) -> PipelineConfig:
        return PipelineConfig(fourier_degree=self.fourier_degree,
                              lambda_samples=self.lambda_samples,
                              ode_tol=self.ode_tol)

    def lambda_grid(self) -> LambdaGrid:
        try:
            return LambdaGrid(self.lambda_samples)
        except ValueError as exc:
            raise ValueError(f"--lambda-samples: {exc}") from None

    def domain(self) -> DomainGrid:
        return DomainGrid(self.annulus[0], self.annulus[1],
                          self.grid[0], self.grid[1])


# ---------------------------------------------------------------------------
# mesh export

def export_mesh(mesh: SurfaceMesh, fmt: str, path) -> None:
    """Write the welded quad mesh as ASCII OBJ or PLY.

    Output is byte-stable: identical meshes produce identical files, and
    %.17g coordinates parse back to the same doubles.  OBJ uses 1-based
    `f` indices; PLY counts from 0 as usual.
    """
    verts = mesh.vertices.reshape(-1, 3)
    faces = mesh.faces
    if fmt == "obj":
        head, faces = [], faces + 1
        vline, fline = "v %.17g %.17g %.17g\n", "f %d %d %d %d\n"
    elif fmt == "ply":
        head = [
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
        vline, fline = "%.17g %.17g %.17g\n", "4 %d %d %d %d\n"
    else:
        raise ValueError(f"unknown mesh format {fmt!r} (use obj or ply)")
    with open(path, "w", encoding="ascii") as out:
        out.writelines(h + "\n" for h in head)
        # a block of rows at a time, formatted by one % per block: every row
        # of a 96x48 mesh as Python objects at once raised the peak RSS of
        # `generate` by 2 MB
        for rows, line in ((verts, vline), (faces, fline)):
            for lo in range(0, len(rows), 1024):
                blk = rows[lo:lo + 1024]
                out.write((line * len(blk)) % tuple(blk.ravel().tolist()))


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
    return asdict(rep), thresholds


def _check_trace_law(cfg: RunConfig):
    p = cfg.params()
    res = DelaunayResidue(*delaunay_ab(p))
    err = trace_law_check(make_cylinder_potential(p), res,
                          cfg.lambda_grid(), cfg.pipeline())
    return {"trace_law_error": err}, {"trace_law_error": 1e-6}


def _check_mu_alpha(cfg: RunConfig):
    err = verify_mu_alpha_identity(cfg.params(), LambdaGrid(64).points)
    return {"mu_alpha_residual": err}, {"mu_alpha_residual": 1e-12}


def _check_gauge(cfg: RunConfig):
    errs = verify_gauge_chain(cfg.params())
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
    """Scalar-vs-matrix cross-validation along z: 1 -> 3 at four orders.

    One scalar family carries both initial conditions (y(1), z y'(1)) =
    (1,0) and (0,1) of every order, one bessel_integrate run; one matrix
    family carries the four orders on the four samples of the smallest
    legal lambda grid (the Bessel potential reads lambda only through its
    order), one integrate_frame run.  The two families keep their own step
    control, so the frame assembled from the scalar fundamental system
    checks the 2x2 flow against an independent integration.  Also: the
    Wronskian z (y1' y2 - y2' y1) stays constant, and re-substitution into
    the generic second-order form leaves only the differentiation noise of
    the check itself.
    """
    pcfg = cfg.pipeline()
    path = PathSpec(0.0, complex(np.log(3.0)))
    orders = np.array([0.0, 0.5, 0.3 + 0.1j, 1.0])

    def nu(z):
        return 1.0 / z

    sols = bessel_integrate(orders[:, None], path, [1.0, 0.0], [0.0, 1.0], pcfg)
    pairs = list(zip(sols[::2], sols[1::2]))
    scal = np.array([frame_from_scalar(y1, y2, nu) for y1, y2 in pairs])
    end = integrate_frame(make_bessel_potential(lambda lam: orders), path,
                          np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
                          LambdaGrid(len(orders)), pcfg)
    frame_dev = float(np.abs(end - scal).max())
    wronskian_drift = max(abs(y1.z * (y1.dy * y2.y - y2.dy * y1.y) - (-1.0))
                          for y1, y2 in pairs)

    def rho(a):
        return lambda z: -z + a * a / z

    equation_residual = max(abs(scalar_residual(nu, rho(y.alpha), y, y.z)) for y in sols)
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

def _require_out_dir(out) -> None:
    """Fail before any work when the output path's directory is missing."""
    if out is not None and not Path(out).parent.is_dir():
        raise ValueError(f"output directory {str(Path(out).parent)!r} does not exist")


def cmd_verify(cfg: RunConfig, which: str) -> dict:
    """Run one named check; returns the report dict."""
    if which not in _CHECK_FUNCS:
        raise ValueError(
            f"unknown check {which!r} (choose from {', '.join(CHECKS)})")
    residuals, thresholds = _CHECK_FUNCS[which](cfg)
    return _report(which, residuals, thresholds, cfg)


def cmd_generate(cfg: RunConfig) -> tuple[dict, list[str]]:
    """Full pipeline run: cylinder mesh, Delaunay reference mesh, report.

    The pass verdict gates on seam closure and the monodromy closing
    residuals; mean curvature, reflection symmetry and the per-ring
    distance to the Delaunay reference (end_distance) are reported as
    informational residuals (their own thresholds live in the
    verification suite, where grid resolution is controlled).  Both meshes
    place the columns they do not factor by the half turn and the
    reflection, so the two seams and the cylinder's symmetry.max_deviation
    read |Sym(M)|, the closing condition M'(1) = 0 plus roundoff, not an
    independent check.
    """
    if cfg.out is None:
        raise ValueError("generate requires --out <path>")
    # settle the output format and directory before any pipeline work
    out = Path(cfg.out)
    fmt = cfg.mesh_format or out.suffix.lstrip(".").lower() or "obj"
    if fmt not in ("obj", "ply"):
        raise ValueError(f"unknown mesh format {fmt!r} (use obj or ply)")
    _require_out_dir(out)
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
        "reference_distance": end_distance(mesh, reference),
    }
    thresholds["seam_residual"] = 1e-5
    report = _report("generate", residuals, thresholds, cfg)
    Path(report_path).write_text(_dump_report(report), encoding="ascii")
    return report, [str(out), str(ref_path), str(report_path)]


# ---------------------------------------------------------------------------
# argument and config-file handling

def _pair_arg(text: str, convert, form: str) -> tuple:
    """'a:b' converted entrywise.  Raises ArgumentTypeError, whose message
    argparse prints; a ValueError's text it replaces by the function name."""
    a, colon, b = text.partition(":")
    try:
        if colon:
            return (convert(a), convert(b))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")


def _annulus_arg(text: str) -> tuple[float, float]:
    return _pair_arg(text, float, "RHO_MIN:RHO_MAX, two numbers")


def _grid_arg(text: str) -> tuple[int, int]:
    return _pair_arg(text, int, "N_RADIAL:N_ANGULAR, two integers")


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
        sp.add_argument("--format", dest="mesh_format", metavar="FORMAT", default=None,
                        help="mesh format, obj or ply (default: from the --out suffix)")
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
    return parser


def _parse_config_file(text: str) -> list[str]:
    """key=value lines as --key=value flags; '#' starts a comment.  Keys
    are the long flag names, with '_' or '-'; the value stays attached, so
    the flag parser names an unknown key."""
    flags = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if not eq or not key:
            raise ValueError(f"config line {lineno} is not key=value: {raw!r}")
        if "config".startswith(key):  # what --config would match
            raise ValueError(f"config line {lineno}: a config file cannot name another")
        flags.append(f"--{key}={value.strip()}")
    return flags


def _resolve_config(argv: list[str]) -> tuple[argparse.Namespace, RunConfig]:
    """Parse the flags, and with --config parse again with the file's lines
    as flags right after the subcommand, so the command line's flags win;
    RunConfig supplies the rest."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        at = argv.index(args.command) + 1
        text = Path(args.config).read_text(encoding="utf-8")
        args = parser.parse_args(argv[:at] + _parse_config_file(text) + argv[at:])
    vals = {f.name: getattr(args, f.name) for f in fields(RunConfig)
            if getattr(args, f.name) is not None}
    if "r" not in vals:
        raise ValueError("missing parameter r: pass --r or set r= in the config file")
    return args, RunConfig(**vals)


def main(argv=None) -> int:
    try:
        args, cfg = _resolve_config(sys.argv[1:] if argv is None else list(argv))
        if args.command == "generate":
            report, paths = cmd_generate(cfg)
            for path in paths:
                print(f"wrote {path}")
        else:
            _require_out_dir(cfg.out)
            report = cmd_verify(cfg, args.check)
            if cfg.out is not None:
                Path(cfg.out).write_text(_dump_report(report), encoding="ascii")
                print(f"wrote {cfg.out}")
            else:
                sys.stdout.write(_dump_report(report))
    except SystemExit as exc:  # argparse: bad usage -> 2, --help -> 0
        return int(exc.code) if exc.code else 0
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
