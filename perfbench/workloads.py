"""The benchmark's three workloads: one operation each, a tiny variant of it
for warm-up and the smoke test, and a correctness check that applies the
acceptance-suite bounds to the operation's own output.

Every operation receives a plain `r`; the caller draws it from the
workload's interval.  Why each interval:

- surface, r in [0.2, 0.4] (unduloids): at this 48x24 grid the interior H
  spread stays at 3.0-4.3% across the interval, under the 5% bound of
  acceptance criterion 9.  It grows with r: r = 0.5 gives 8.7%, which is
  discretization error, not a pipeline fault.
- verify, r in [-0.6, 0.6] minus {0}: every check passes on the whole
  interval, including r within 1e-12 of 0, so the drawn r cannot fail.
- generate, r in [-0.4, -0.15] (nodoids): at 96x48 with degree 8 the plus-
  loop tail grows toward r = -0.4 (3.9e-9 there, bound 1e-8) and H spread
  stays near 2.1-2.6%.  Nodoids, so the factorization sees r < 0 too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from besselcmc import (CylinderParams, DomainGrid, LambdaGrid, PipelineConfig,
                       build_surface, cli)

ACCEPTANCE_R = (1 / 3, -0.25, 1 / math.sqrt(2), -1 / math.pi)

# Acceptance-suite bounds (tests/test_acceptance.py, criteria 8-10).
FACTOR_BOUND = 1e-8       # Iwasawa unitarity, reconstruction, plus-loop tail
SEAM_BOUND = 1e-5
SYM_BOUND = 1e-5          # Sym defect, the level surface.py warns at
H_SPREAD_BOUND = 0.05     # interior stddev / |mean| of the discrete H
REFLECTION_BOUND = 1e-3   # reflection-plane max_deviation


@dataclass
class OpResult:
    """What the correctness check makes of one operation's output.

    work: frame-grid nodes of the cylinder, or verification checks run.
    margin: max over gated residuals of log10(residual / bound); < 0 passes.
    digest: hash of the exported files, for the determinism check.
    """

    work: int
    failures: list[str]
    margin: float
    h_spread: float | None = None
    digest: str | None = None


class _Gates:
    def __init__(self) -> None:
        self.failures: list[str] = []
        self.margins: list[float] = []

    def check(self, name: str, value, bound: float, in_margin: bool = True) -> None:
        value = float(value)
        if not value <= bound:                      # NaN fails too
            self.failures.append(f"{name} {value:.3e} above {bound:g}")
        if in_margin:
            self.margins.append(math.log10(max(value, 1e-300) / bound)
                                if value == value else math.inf)

    def mesh(self, iwasawa: dict, seam, sym_defect, h_stats: dict) -> float:
        """Gate a cylinder mesh; returns its H spread."""
        if iwasawa["failed_nodes"]:
            self.failures.append(f"{len(iwasawa['failed_nodes'])} nodes failed to factor")
        for key in ("unitarity_max", "reconstruction_max", "plus_loop_tail_max"):
            self.check(key, iwasawa[key], FACTOR_BOUND)
        self.check("seam", seam, SEAM_BOUND)
        self.check("sym_defect", sym_defect, SYM_BOUND)
        spread = h_stats["stddev"] / abs(h_stats["mean"])
        self.check("H_spread", spread, H_SPREAD_BOUND, in_margin=False)
        return spread

    def result(self, work: int, **extra) -> OpResult:
        return OpResult(work, self.failures, max(self.margins), **extra)


@dataclass(frozen=True)
class Workload:
    """call(r, tiny, scratch) is the timed operation; check(raw) is not timed.

    repeat_first: the second operation reuses the first one's r, so two
    exports of the same surface can be compared byte for byte.
    """

    name: str
    interval: tuple[float, float]
    work_unit: str
    call: Callable[[float, bool, Path], Any]
    check: Callable[[Any], OpResult]
    repeat_first: bool = False


# ---------------------------------------------------------------------------
# surface: one production-resolution build_surface

def _surface_call(r: float, tiny: bool, scratch: Path):
    dom, degree, m = ((0.3, 3.0, 8, 8), 8, 32) if tiny else ((0.3, 3.0, 48, 24), 32, 128)
    return build_surface(CylinderParams(r), DomainGrid(*dom), LambdaGrid(m),
                         PipelineConfig(degree, m))


def _surface_check(mesh) -> OpResult:
    gates = _Gates()
    d = mesh.diagnostics
    spread = gates.mesh(d["iwasawa"], d["seam_residual"], d["sym_defect"], mesh.H_stats)
    return gates.result(mesh.n_radial * (mesh.n_angular + 1), h_spread=spread)


# ---------------------------------------------------------------------------
# verify: the six cmd_verify checks for the acceptance r values and the drawn r

def _verify_call(r: float, tiny: bool, scratch: Path):
    rs, degree, m = ((r,), 4, 16) if tiny else (ACCEPTANCE_R + (r,), 32, 128)
    return [cli.cmd_verify(cli.RunConfig(r=x, fourier_degree=degree, lambda_samples=m), check)
            for x in rs for check in cli.CHECKS]


def _verify_check(reports: list[dict]) -> OpResult:
    gates = _Gates()
    for rep in reports:
        r = rep["config"]["r"]
        for key, bound in rep["thresholds"].items():
            gates.check(f"{rep['check']} r={r:+.6f} {key}", rep["residuals"][key], bound)
    return gates.result(len(reports))


# ---------------------------------------------------------------------------
# generate: the whole CLI run, exports and report included

def _generate_call(r: float, tiny: bool, scratch: Path):
    degree, m, grid = ("4", "16", "8:8") if tiny else ("8", "32", "96:48")
    out = scratch / "cylinder.obj"
    argv = ["generate", "--r", repr(r), "--degree", degree, "--lambda-samples", m,
            "--annulus", "0.3:3.0", "--grid", grid, "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, out


def _generate_check(raw) -> OpResult:
    code, out = raw
    if code not in (0, 1):      # bad input or numerical failure: no report written
        return OpResult(0, [f"generate exited with code {code}"], math.inf)
    gates = _Gates()
    if code != 0:
        gates.failures.append(f"generate exited with code {code}")
    report = json.loads(out.with_name(f"{out.stem}-report.json").read_text())
    res = report["residuals"]
    spread = gates.mesh(res["iwasawa"], res["seam_residual"], res["sym_point_defect"],
                        res["mean_curvature"])
    gates.check("reflection max_deviation", res["symmetry"]["max_deviation"],
                REFLECTION_BOUND, in_margin=False)
    digest = hashlib.sha256()
    for path in (out, out.with_name(f"{out.stem}-reference{out.suffix}")):
        digest.update(path.read_bytes())
    nr, na = report["config"]["grid"]
    return gates.result(nr * (na + 1), h_spread=spread, digest=digest.hexdigest())


WORKLOADS = {
    "surface": Workload("surface", (0.2, 0.4), "nodes", _surface_call, _surface_check),
    "verify": Workload("verify", (-0.6, 0.6), "checks", _verify_call, _verify_check),
    "generate": Workload("generate", (-0.4, -0.15), "nodes", _generate_call,
                         _generate_check, repeat_first=True),
}
