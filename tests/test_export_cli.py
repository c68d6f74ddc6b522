"""Mesh export formats and the command-line contract (exit codes, reports)."""

import json

import numpy as np
import pytest

from besselcmc import RunConfig, SurfaceMesh, export_mesh, mesh_from_grid
from besselcmc import cli, potentials
from besselcmc.cli import cmd_verify, main

REPORT_KEYS = {"check", "residuals", "thresholds", "config", "pass"}


def single_quad_mesh():
    verts = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                      [[0.0, 1.0, 0.0], [1.0, 1.0, 0.25]]])
    faces = np.array([[0, 1, 3, 2]])
    return SurfaceMesh(verts, faces, {}, {})


# ------------------------------------------------------------------- export


def test_obj_single_quad(tmp_path):
    path = tmp_path / "quad.obj"
    export_mesh(single_quad_mesh(), "obj", path)
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert lines[-1] == "f 1 2 4 3"            # 1-based indices


def test_ply_single_quad(tmp_path):
    path = tmp_path / "quad.ply"
    export_mesh(single_quad_mesh(), "ply", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    assert "element vertex 4" in lines
    assert "element face 1" in lines
    assert lines[-1] == "4 0 1 3 2"            # 0-based indices
    assert len(lines) == 9 + 4 + 1


def test_welded_grid_counts(tmp_path):
    rng = np.random.default_rng(3)
    mesh = mesh_from_grid(rng.normal(size=(6, 8, 3)))
    path = tmp_path / "grid.obj"
    export_mesh(mesh, "obj", path)
    lines = path.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 6 * 8
    assert sum(1 for l in lines if l.startswith("f ")) == 5 * 8


def test_export_byte_stable(tmp_path):
    mesh = mesh_from_grid(np.random.default_rng(4).normal(size=(5, 8, 3)))
    for fmt in ("obj", "ply"):
        p1 = tmp_path / f"a.{fmt}"
        p2 = tmp_path / f"b.{fmt}"
        export_mesh(mesh, fmt, p1)
        export_mesh(mesh, fmt, p2)
        assert p1.read_bytes() == p2.read_bytes()


def per_line_export(mesh, fmt):
    """Reference text: header, then one % per vertex and per face."""
    verts, faces = mesh.vertices.reshape(-1, 3), mesh.faces
    if fmt == "obj":
        head = ""
        lines = ["v %.17g %.17g %.17g\n" % tuple(v) for v in verts.tolist()]
        lines += ["f %d %d %d %d\n" % tuple(f) for f in (faces + 1).tolist()]
    else:
        head = (f"ply\nformat ascii 1.0\nelement vertex {len(verts)}\n"
                "property double x\nproperty double y\nproperty double z\n"
                f"element face {len(faces)}\n"
                "property list uchar int vertex_indices\nend_header\n")
        lines = ["%.17g %.17g %.17g\n" % tuple(v) for v in verts.tolist()]
        lines += ["4 %d %d %d %d\n" % tuple(f) for f in faces.tolist()]
    return (head + "".join(lines)).encode("ascii")


@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_block_export_matches_per_line_form(fmt, tmp_path):
    # 1200 vertices and 1170 faces: both cross the 1024-row block boundary
    mesh = mesh_from_grid(np.random.default_rng(5).normal(size=(40, 30, 3)))
    verts = mesh.vertices.copy()
    verts[0, 0] = [-0.0, 5e-324, 1e300]
    mesh = SurfaceMesh(verts, mesh.faces, {}, {})
    path = tmp_path / f"grid.{fmt}"
    export_mesh(mesh, fmt, path)
    assert path.read_bytes() == per_line_export(mesh, fmt)


@pytest.mark.parametrize("fmt, prefix, skip", [("obj", "v ", 0), ("ply", "", 9)])
def test_export_coordinates_round_trip(fmt, prefix, skip, tmp_path):
    # %.17g carries every double: signed zero, subnormals and huge values
    mesh = single_quad_mesh()
    verts = mesh.vertices.copy()
    verts[0, 0] = [-0.0, 5e-324, 1e300]
    verts[1, 1] = [1 / 3, -np.pi * 1e-300, np.nextafter(1.0, 2.0)]
    mesh = SurfaceMesh(verts, mesh.faces, {}, {})
    path = tmp_path / f"quad.{fmt}"
    export_mesh(mesh, fmt, path)
    lines = path.read_text().splitlines()[skip:skip + 4]
    assert all(l.startswith(prefix) for l in lines)
    parsed = np.array([[float(x) for x in l[len(prefix):].split()] for l in lines])
    assert parsed.shape == (4, 3)
    assert parsed.tobytes() == verts.reshape(-1, 3).tobytes()   # -0.0 keeps its sign


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export_mesh(single_quad_mesh(), "stl", tmp_path / "x.stl")


# ----------------------------------------------------------------- verify


def test_verify_prints_report_to_stdout(capsys):
    code = main(["verify", "mu-alpha", "--r", "0.5"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    assert set(report) == REPORT_KEYS
    assert report["check"] == "mu-alpha"
    assert report["pass"] is True
    assert report["residuals"]["mu_alpha_residual"] <= 1e-12


def test_verify_monodromy_passes(capsys):
    code = main(["verify", "monodromy", "--r", "-0.25",
                 "--degree", "16", "--lambda-samples", "64"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True
    assert report["residuals"]["unitarity_error"] <= 1e-6


def test_verify_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "gauge", "--r", "0.5", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert f"wrote {out}" in stdout
    assert "gauge: pass" in stdout
    report = json.loads(out.read_text())
    assert set(report) == REPORT_KEYS


def test_sabotaged_gauge_check_fails(tmp_path, monkeypatch, capsys):
    # the gauge chain fed a Bessel order off by 0.1 drives the CLI's failing verdict
    real = potentials.make_bessel_potential
    monkeypatch.setattr(potentials, "make_bessel_potential",
                        lambda alpha: real(lambda lam: alpha(lam) + 0.1))
    out = tmp_path / "gauge.json"
    code = main(["verify", "gauge", "--r", "0.5", "--out", str(out)])
    assert code == 1
    assert "gauge: FAIL" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert report["residuals"]["reduced_form"] > 1e-10


@pytest.mark.parametrize("check", sorted(set(cli.CHECKS) - {"gauge"}))
def test_sabotage_rejected_outside_gauge_check(check, capsys):
    # --sabotage is no option of any check: argparse rejects it as bad usage
    code = main(["verify", check, "--r", "0.3333", "--sabotage", "0.5"])
    assert code == 2
    assert "sabotage" in capsys.readouterr().err


def test_symmetry_and_trace_law_checks(capsys):
    assert main(["verify", "symmetry", "--r", "-0.25"]) == 0
    code = main(["verify", "trace-law", "--r", "0.3333333333333333",
                 "--degree", "16", "--lambda-samples", "64"])
    assert code == 0
    capsys.readouterr()


# --------------------------------------------------------------- exit codes


@pytest.mark.parametrize("r", ["0", "1", "1.5"])
def test_out_of_range_r_is_bad_input(r, capsys):
    assert main(["verify", "mu-alpha", "--r", r]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "monodromy", "--tol", "nan"],     # a NaN error norm never ends a step
    ["verify", "monodromy", "--tol", "inf"],     # no error control at all
    ["generate", "--annulus", "0.1:inf"],
])
def test_nonfinite_setting_is_bad_input(argv, tmp_path, capsys):
    assert main(argv + ["--r", "0.5", "--out", str(tmp_path / "x.obj")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, form", [
    ("--annulus", "0.1", "RHO_MIN:RHO_MAX"),
    ("--annulus", "0.1:x", "RHO_MIN:RHO_MAX"),
    ("--grid", "8:x", "N_RADIAL:N_ANGULAR"),
    ("--grid", "8", "N_RADIAL:N_ANGULAR"),
    ("--grid", "8:2.5", "N_RADIAL:N_ANGULAR"),
])
def test_malformed_pair_keeps_its_message(flag, value, form, capsys):
    # argparse prints a converter's ArgumentTypeError, but replaces a
    # ValueError's text by "invalid <function name> value"
    assert main(["verify", "mu-alpha", "--r", "0.5", flag, value]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected {form}" in err and repr(value) in err
    assert "invalid" not in err


def test_lambda_grid_error_names_the_setting(capsys):
    argv = ["verify", "mu-alpha", "--r", "0.5", "--degree", "8", "--lambda-samples", "48"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--lambda-samples" in err and "48" in err


# one bad value per setting; each command must reject every one of them,
# including the settings its own check never reads
BAD_SETTINGS = [
    (["--r", "5"], "r must lie"),
    (["--degree", "0"], "fourier_degree"),
    (["--annulus", "0.1:inf"], "rho_max"),
    (["--tol", "nan"], "ode_tol"),
    (["--lambda-samples", "48"], "lambda_samples=48"),
    (["--grid", "2:3"], "n_radial"),
]


@pytest.mark.parametrize("bad, named", BAD_SETTINGS,
                         ids=["=".join(b).lstrip("-") for b, _ in BAD_SETTINGS])
@pytest.mark.parametrize("command", [["verify", c] for c in cli.CHECKS] + [["generate"]],
                         ids="-".join)
def test_every_command_rejects_every_bad_setting(command, bad, named, tmp_path,
                                                 monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the settings were checked")

    monkeypatch.setattr(cli, "_CHECK_FUNCS", dict.fromkeys(cli.CHECKS, no_work))
    monkeypatch.setattr(cli, "monodromy", no_work)
    monkeypatch.setattr(cli, "build_surface", no_work)
    out = tmp_path / "x.obj"
    assert main(command + ["--r", "0.5"] + bad + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_run_config_rejects_unknown_mesh_format():
    with pytest.raises(ValueError, match="stl"):
        RunConfig(r=0.5, mesh_format="stl")


def test_unknown_check_is_bad_input(capsys):
    assert main(["verify", "bogus", "--r", "0.5"]) == 2


def test_missing_r_is_bad_input(capsys):
    assert main(["verify", "mu-alpha"]) == 2
    assert "r" in capsys.readouterr().err


def test_unwritable_out_is_bad_input(capsys):
    code = main(["verify", "mu-alpha", "--r", "0.5",
                 "--out", "/nonexistent-dir/zz/report.json"])
    assert code == 2


def test_verify_rejects_missing_directory_before_check(tmp_path, monkeypatch, capsys):
    def no_check(cfg):
        raise AssertionError("check ran before the directory was checked")

    monkeypatch.setattr(cli, "_CHECK_FUNCS", dict.fromkeys(cli.CHECKS, no_check))
    out = tmp_path / "nodir" / "x.json"
    assert main(["verify", "monodromy", "--r", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "output directory" in err and "nodir" in err and "does not exist" in err
    assert not out.parent.exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# ----------------------------------------------------------------- generate


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gen")
    out = tmp / "surf.obj"
    argv = ["generate", "--r", "0.3333333333333333",
            "--degree", "16", "--lambda-samples", "64",
            "--annulus", "0.5:2.0", "--grid", "12:8", "--out", str(out)]
    code = main(argv)
    return tmp, out, argv, code


def test_generate_writes_three_files(generated, capsys):
    tmp, out, _, code = generated
    assert code == 0
    assert out.exists()
    assert (tmp / "surf-reference.obj").exists()
    assert (tmp / "surf-report.json").exists()
    report = json.loads((tmp / "surf-report.json").read_text())
    assert set(report) == REPORT_KEYS
    assert report["check"] == "generate"
    assert report["pass"] is True
    assert report["residuals"]["seam_residual"] <= 1e-5
    assert "mean_curvature" in report["residuals"]
    assert "symmetry" in report["residuals"]
    distance = report["residuals"]["reference_distance"]
    assert len(distance) == report["config"]["grid"][0]
    assert np.all(np.isfinite(distance))


def test_generate_deterministic(generated):
    tmp, out, argv, _ = generated
    mesh_bytes = out.read_bytes()
    report_bytes = (tmp / "surf-report.json").read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == mesh_bytes
    assert (tmp / "surf-report.json").read_bytes() == report_bytes


# Report keys are only added, never renamed: these are the literal key
# paths under residuals, thresholds and config, nested dicts included.
CONFIG_KEYS = {"config." + k for k in ("r", "fourier_degree", "lambda_samples",
                                       "ode_tol", "annulus", "grid", "out",
                                       "mesh_format")}
CLOSING_KEYS = {"unitarity_error", "identity_error", "derivative_error",
                "trace_law_error"}
VERIFY_KEYS = {
    "monodromy": CLOSING_KEYS,
    "trace-law": {"trace_law_error"},
    "mu-alpha": {"mu_alpha_residual"},
    "gauge": {"reduced_form", "cylinder_form"},
    "symmetry": {"symmetry_residual"},
    "bessel": {"frame_deviation", "wronskian_drift", "equation_residual"},
}


def _key_paths(tree: dict, prefix: str) -> set:
    paths = set()
    for k, v in tree.items():
        paths.add(prefix + k)
        if isinstance(v, dict):
            paths |= _key_paths(v, f"{prefix}{k}.")
    return paths


def _section_keys(report: dict) -> set:
    return set().union(*(_key_paths(report[s], s + ".")
                         for s in ("residuals", "thresholds", "config")))


def test_generate_report_keys(tmp_path):
    out = tmp_path / "keys.obj"
    assert main(["generate", "--r", "-0.25", "--degree", "8", "--lambda-samples", "32",
                 "--annulus", "0.3:3.0", "--grid", "8:8", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "keys-report.json").read_text())
    residuals = CLOSING_KEYS | {
        "seam_residual", "sym_point_defect", "reference_seam_residual",
        "reference_distance",
        "mean_curvature", "mean_curvature.mean", "mean_curvature.stddev",
        "mean_curvature.interior_vertices", "mean_curvature.degenerate_triangles",
        "symmetry", "symmetry.max_deviation", "symmetry.plane_normal",
        "symmetry.plane_offset",
        "iwasawa", "iwasawa.nodes", "iwasawa.failed_nodes", "iwasawa.unitarity_mean",
        "iwasawa.unitarity_max", "iwasawa.reconstruction_max",
        "iwasawa.plus_loop_tail_max", "iwasawa.normalization_max",
    }
    thresholds = CLOSING_KEYS | {"seam_residual"}
    assert _section_keys(report) == ({"residuals." + k for k in residuals}
                                     | {"thresholds." + k for k in thresholds}
                                     | CONFIG_KEYS)


@pytest.mark.parametrize("check", cli.CHECKS)
def test_verify_report_keys(check):
    report = cmd_verify(RunConfig(r=-0.25, fourier_degree=8, lambda_samples=32), check)
    keys = VERIFY_KEYS[check]
    assert _section_keys(report) == ({"residuals." + k for k in keys}
                                     | {"thresholds." + k for k in keys}
                                     | CONFIG_KEYS)


def test_default_generate_is_cmc(tmp_path):
    # the default annulus and grid stay where the mesh resolves H
    out = tmp_path / "default.obj"
    assert main(["generate", "--r", "0.3333333333333333", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "default-report.json").read_text())
    h = report["residuals"]["mean_curvature"]
    assert h["stddev"] <= 0.05 * abs(h["mean"])


def test_generate_requires_out(capsys):
    assert main(["generate", "--r", "0.5"]) == 2
    assert "out" in capsys.readouterr().err


def test_generate_rejects_format_before_pipeline(tmp_path, monkeypatch, capsys):
    def no_pipeline(*args, **kwargs):
        raise AssertionError("pipeline ran before the format was checked")

    monkeypatch.setattr(cli, "build_surface", no_pipeline)
    monkeypatch.setattr(cli, "monodromy", no_pipeline)
    assert main(["generate", "--r", "0.5", "--out", str(tmp_path / "m.stl")]) == 2
    assert "stl" in capsys.readouterr().err


def test_generate_rejects_missing_directory_before_pipeline(tmp_path, monkeypatch, capsys):
    def no_pipeline(*args, **kwargs):
        raise AssertionError("pipeline ran before the directory was checked")

    monkeypatch.setattr(cli, "build_surface", no_pipeline)
    monkeypatch.setattr(cli, "monodromy", no_pipeline)
    out = tmp_path / "nodir" / "c.obj"
    assert main(["generate", "--r", "0.5", "--out", str(out)]) == 2
    assert "nodir" in capsys.readouterr().err
    assert not out.parent.exists()


def test_generate_ply_format(tmp_path):
    out = tmp_path / "surf.ply"
    code = main(["generate", "--r", "0.5", "--degree", "16",
                 "--lambda-samples", "64", "--annulus", "0.5:2.0",
                 "--grid", "12:8", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "ply"
    assert (tmp_path / "surf-reference.ply").exists()


# ------------------------------------------------------------- config files


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# sample config\n"
        "r = 0.3333333333333333\n"
        "degree = 16\n"
        "lambda_samples = 64\n"
        "annulus = 0.5:2.0\n"
        "grid = 24:16\n")
    out = tmp_path / "c.obj"
    code = main(["generate", "--config", str(cfgfile),
                 "--grid", "12:8", "--out", str(out)])
    assert code == 0
    report = json.loads((tmp_path / "c-report.json").read_text())
    assert report["config"]["grid"] == [12, 8]          # flag wins
    assert report["config"]["annulus"] == [0.5, 2.0]    # file fills the rest
    capsys.readouterr()


def test_config_file_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("r = 0.5\nwavelength = 3\n")
    assert main(["verify", "mu-alpha", "--config", str(cfgfile)]) == 2
    assert "wavelength" in capsys.readouterr().err


def test_config_file_bad_line(tmp_path, capsys):
    cfgfile = tmp_path / "bad2.cfg"
    cfgfile.write_text("r 0.5\n")
    assert main(["verify", "mu-alpha", "--config", str(cfgfile)]) == 2
    capsys.readouterr()


def test_cmd_verify_rejects_unknown_check():
    with pytest.raises(ValueError):
        cmd_verify(RunConfig(r=0.5), "nonsense")


def test_config_file_format_checked_for_verify(tmp_path, capsys):
    cfgfile = tmp_path / "fmt.cfg"
    cfgfile.write_text("r = 0.5\nformat = stl\n")
    assert main(["verify", "mu-alpha", "--config", str(cfgfile)]) == 2
    assert "stl" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["lambda-samples", "lambda_samples"])
def test_config_key_acts_as_its_flag(key, tmp_path, capsys):
    cfgfile = tmp_path / "m.cfg"
    cfgfile.write_text(f"r = -0.25\ndegree = 16\n{key} = 64\n")
    assert main(["verify", "mu-alpha", "--config", str(cfgfile)]) == 0
    from_file = capsys.readouterr().out
    assert main(["verify", "mu-alpha", "--r", "-0.25", "--degree", "16",
                 "--lambda-samples", "64"]) == 0
    assert capsys.readouterr().out == from_file
    assert json.loads(from_file)["config"]["lambda_samples"] == 64


def test_config_file_unknown_key_keeps_its_value(tmp_path, capsys):
    # "gauge" must not be taken for the check positional
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("r = 0.5\nsabotage = gauge\n")
    assert main(["verify", "mu-alpha", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert "--sabotage=gauge" in captured.err
    assert captured.out == ""


def test_config_file_cannot_name_a_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "self.cfg"
    cfgfile.write_text(f"r = 0.5\nconfig = {cfgfile}\n")
    assert main(["verify", "mu-alpha", "--config", str(cfgfile)]) == 2
    assert "config line 2" in capsys.readouterr().err
