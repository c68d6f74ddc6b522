"""CMC cylinder surfaces from the Bessel equation via loop-group factorization.

Pipeline: a holomorphic sl2 potential with one puncture -> frames solving
d Phi = Phi xi over a lambda family -> pointwise Iwasawa splitting into a
unitary loop and a positive plus-loop -> Sym formula -> immersed surface
mesh in R^3, plus verification helpers for every closing condition and
gauge identity along the way.
"""

from .config import PipelineConfig, DEFAULT_CONFIG
from .loops import LambdaGrid
from .potentials import (
    CylinderParams,
    DelaunayResidue,
    GaugeSpec,
    PotentialSpec,
    alpha_of,
    bessel_gauge_g1,
    bessel_gauge_g2,
    cylinder_basepoint_frame,
    delaunay_ab,
    delaunay_residue_matrix,
    gauge_transform,
    lambda_gauge,
    make_bessel_potential,
    make_cylinder_potential,
    mu_eigenvalue,
    t_of_lambda,
    verify_gauge_chain,
    verify_mu_alpha_identity,
    verify_symmetry_relations,
)
from .flow import (
    MonodromyReport,
    PathSpec,
    closing_report,
    integrate_frame,
    monodromy,
    trace_law_check,
)
from .bessel import ScalarSolution, bessel_integrate, frame_from_scalar, scalar_residual
from .iwasawa import iwasawa_grid
from .surface import (
    DomainGrid,
    SurfaceMesh,
    SymmetryReport,
    build_surface,
    delaunay_reference,
    end_distance,
    mesh_from_grid,
    reflection_symmetry_check,
    series_frames,
)
from .cli import RunConfig, export_mesh

__version__ = "0.1.0"
