"""Pointwise pseudohermitian geometry of strictly pseudoconvex hypersurfaces.

The package computes, from a single defining expression rho (and optionally
holomorphic map components F with rho = |F|^2 + pluriharmonic), the full
per-point geometry of the level set {rho = 0}: moving frame and Levi matrix,
transverse field and curvature, bordered-Hessian determinant, Tanaka-Webster
connection coefficients, Ricci data, second fundamental form with mean
curvature and torsion, umbilicity tests, Kohn-Laplacian values on
pluriharmonic restrictions, and quadrature-based eigenvalue bounds.

Everything is computed on (K, m) batches of points; ``curvature_batch`` gives
the per-point geometry of a surface, and a single point is a one-row batch.
"""

from .dsl import parse_expr, parse_surface_file
from .errors import (
    BadParams,
    CrgeoError,
    DegenerateFrame,
    DomainError,
    DslError,
    GeometryError,
    InputError,
    NoCrossing,
    NonTransversal,
    NonpositiveJ,
    NotEigenmap,
    NotOnSurface,
    NotPluriharmonic,
    NotRealValued,
    NotStarShaped,
    NotStrictlyPseudoconvex,
    RankDeficientNormalBasis,
    SingularSystem,
    UnknownSurface,
    UnreadableFile,
    UnwritableFile,
    ZeroEnergy,
)
from .gallery import SurfaceSpec, curvature_batch, gallery, load_surface, scan_surface
from .hypersurface import HypersurfaceChart, fefferman_det, transverse_solve
from .immersion import ImmersionSpec
from .quadrature import (
    QuadratureRule,
    RadialChart,
    integrate,
    monte_carlo,
    parse_quad_flag,
    product_grid,
    quasi_monte_carlo,
)
from .report import TOOL_VERSION as __version__, Report, scan_csv
from .spectral import (
    EigenBoundReport,
    PluriharmonicFunction,
    TakahashiReport,
    reilly_bound,
    takahashi_check,
    tension_bound,
)
from . import symbolic
