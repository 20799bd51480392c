"""Pointwise pseudohermitian geometry of strictly pseudoconvex hypersurfaces.

The package computes, from a single defining expression rho (and optionally
holomorphic map components F with rho = |F|^2 + pluriharmonic), the full
per-point geometry of the level set {rho = 0}: moving frame and Levi matrix,
transverse field and curvature, bordered-Hessian determinant, Tanaka-Webster
connection coefficients, Ricci data, second fundamental form with mean
curvature and torsion, umbilicity tests, Kohn-Laplacian values on
pluriharmonic restrictions, and quadrature-based eigenvalue bounds.
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
from .gallery import SurfaceSpec, gallery, load_surface, scan_surface
from .hypersurface import (
    ConnectionData,
    FrameData,
    HypersurfaceChart,
    conformal_transverse,
    connection_coeffs,
    fefferman_det,
    frame_at,
    loghess_J,
    ricci_liluk,
    transverse_solve,
)
from .immersion import (
    CurvatureData,
    ImmersionSpec,
    SecondFundamentalForm,
    UmbilicityReport,
    gauss_curvature,
    second_fundamental_form,
    torsion_from_II,
    umbilicity_report,
)
from .quadrature import (
    QuadratureRule,
    RadialChart,
    integrate,
    monte_carlo,
    parse_quad_flag,
    product_grid,
    quasi_monte_carlo,
    radial_solve,
)
from .report import TOOL_VERSION as __version__, Report, scan_csv
from .spectral import (
    EigenBoundReport,
    PluriharmonicFunction,
    TakahashiReport,
    boxb_pluriharmonic,
    dbarb_energy_density,
    reilly_bound,
    takahashi_check,
    tension_bound,
)
from . import symbolic
