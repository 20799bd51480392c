"""Exception types shared across the package.

The CLI maps these onto exit codes: input/parse problems exit 2, geometry
failures exit 3, invariant-suite breaches exit 4.
"""


class CrgeoError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CrgeoError):
    """Malformed user input: DSL text, surface files, CLI parameters."""


class DslError(InputError):
    """Expression or surface-file text could not be parsed."""


class UnknownSurface(InputError):
    """Requested gallery surface name does not exist."""


class BadParams(InputError):
    """Gallery or command-line parameters are out of the admissible range."""


class UnreadableFile(InputError):
    """An input file could not be opened or decoded."""


class UnwritableFile(InputError):
    """An output file could not be opened or written."""


class NotRealValued(InputError, ValueError):
    """The defining expression (rho, or |F|^2 + psi) or the conformal exponent sigma is not real-valued."""


class NotPluriharmonic(InputError):
    """A loaded F is not holomorphic, or a loaded psi or plurifamily function has a
    nonvanishing mixed second derivative."""


class DomainError(CrgeoError):
    """Numeric evaluation hit a singular subexpression (log 0, 1/0)."""

    def __init__(self, message, subexpression=None):
        super().__init__(message)
        self.subexpression = subexpression


class GeometryError(CrgeoError):
    """Base class for per-point geometric failures."""


class NotOnSurface(GeometryError):
    """|rho(p)| exceeds the on-surface tolerance."""


class DegenerateFrame(GeometryError):
    """All first derivatives of rho are below the frame threshold."""


class NotStrictlyPseudoconvex(GeometryError):
    """Levi matrix has a non-positive eigenvalue at the point."""


class SingularSystem(GeometryError):
    """Transverse linear system is rank-deficient (cond > 1e12)."""


class NonpositiveJ(GeometryError):
    """Bordered-Hessian determinant is not positive where required."""


class RankDeficientNormalBasis(GeometryError):
    """Orthonormal basis of the normal space could not be completed."""


class NotEigenmap(GeometryError):
    """No common eigenvalue fits the componentwise Kohn-Laplacian test."""


class ZeroEnergy(GeometryError):
    """All map components are CR; the tension quotient is undefined."""


class NoCrossing(GeometryError):
    """Ray from the origin misses the surface within the search bound T_MAX."""


class NonTransversal(GeometryError):
    """Radial root found, but the ray is tangent to the surface there."""


class NotStarShaped(GeometryError):
    """Surface cannot be charted radially from the origin."""
