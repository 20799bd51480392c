"""Built-in example surfaces, their samplers, and the batched surface scan.

Each gallery entry wires together everything the analysis pipeline needs:
the chart, the holomorphic components when the defining function has the
squared-norm shape, a distinguished pluriharmonic family when one exists,
the conformal exponent relating it to a round base chart, and point
generators (random on-surface samples and deterministic scan grids).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import symbolic as sym
from .errors import BadParams, NotStarShaped, UnknownSurface
from .hypersurface import HypersurfaceChart, _frame_batch, _require_real, _ricci_batch
from .immersion import UMBILIC_TOLERANCE, ImmersionSpec, _sff_batch
from .quadrature import MAX_NODES, RadialChart, radial_points, sphere_point
from .spectral import PluriharmonicFunction


@dataclass
class SurfaceSpec:
    """A fully wired gallery surface.

    ``builder`` is the gallery key of the builder that made it, "custom" for a
    surface file, whose ``name`` is its path: closed-form oracles key on it.
    """

    name: str
    params: dict
    chart: HypersurfaceChart
    immersion: ImmersionSpec | None = None
    sigma: sym.Expr | None = None
    plurifamily: list = field(default_factory=list)
    star_shaped: bool = True
    _sampler: object = None
    builder: str = "custom"

    @property
    def dim(self):
        return self.chart.m

    @property
    def n(self):
        return self.chart.n

    def radial(self) -> RadialChart:
        if not self.star_shaped:
            raise NotStarShaped(f"{self.name} has no radial chart about the origin")
        return RadialChart(self.chart)

    def random_points(self, k: int, seed: int = 0) -> np.ndarray:
        """k exactly-on-surface points, deterministic in the seed."""
        rng = np.random.default_rng(seed)
        if self._sampler is not None:
            return self._sampler(k, rng)
        U = rng.standard_normal((k, 2 * self.dim))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        return radial_points(self.radial(), U)

    def scan_grid(self, budget: int):
        """Deterministic grid of on-surface points covering the whole surface.

        Returns (points (K, m), spacing): ``budget`` is a total point target,
        spread over the chart angles; polar angles get odd node counts so the
        inclusive [0, pi] grids contain the endpoints and the equator.
        ``spacing`` estimates the largest gap between neighboring points.
        """
        if self._sampler is not None:
            return self._sampler.scan_grid(budget)
        angles, step = _angle_grid(budget, 2 * self.dim - 2, 1)
        P = radial_points(self.radial(), sphere_point(angles))
        spacing = step * float(np.max(np.abs(P)))
        return P, spacing


def _odd(k):
    return k if k % 2 == 1 else k + 1


def _nodes_per_axis(budget, n_axes):
    """Nodes per axis of a product grid of about ``budget`` = grid^3 points;
    fewer than 3 is rejected, naming the smallest grid that gives 3, or, over
    15 axes, saying that no grid within ``MAX_NODES`` points does."""
    # a budget past the float range gives a grid past any ceiling all the same
    q = int(round(min(budget, sys.float_info.max) ** (1.0 / n_axes)))
    if q < 3:
        # round(2.5) == 2, so 3 nodes need grid^3 > 2.5^n_axes
        least = math.floor(2.5 ** (n_axes / 3)) + 1
        hint = (f"no grid within the ceiling of {MAX_NODES} points gives 3" if least**3 > MAX_NODES
                else f"the smallest accepted grid is {least}")
        raise BadParams(f"scan budget {budget} gives {q} nodes per axis over {n_axes} axes, "
                        f"at least 3 are needed: {hint}")
    return q


def _angle_grid(budget, n_polar, n_azimuth):
    """Product grid over [0,pi]^n_polar x [0,2pi)^n_azimuth; polar counts odd.

    Returns (angles (K, n_polar + n_azimuth), largest step); a grid of more
    than ``MAX_NODES`` points is rejected before it is built."""
    q = _nodes_per_axis(budget, n_polar + n_azimuth)
    polar_count = _odd(q)
    count = polar_count**n_polar * q**n_azimuth
    if count > MAX_NODES:
        raise BadParams(f"scan grid of {polar_count}^{n_polar} x {q}^{n_azimuth} = {count} points "
                        f"exceeds the ceiling of {MAX_NODES} points")
    axes = [np.linspace(0.0, np.pi, polar_count)] * n_polar
    axes += [np.linspace(0.0, 2 * np.pi, q, endpoint=False)] * n_azimuth
    grids = np.meshgrid(*axes, indexing="ij")
    angles = np.stack([g.ravel() for g in grids], axis=1)
    steps = [np.pi / (polar_count - 1)] * n_polar + [2 * np.pi / q]
    return angles, max(steps)


# ---- builders ---------------------------------------------------------------


def _identity_vars(m):
    return [sym.var(j) for j in range(m)]


def _real_param(value, name):
    x = float(value)
    if not math.isfinite(x):
        raise BadParams(f"parameter {name} must be finite, got {x}")
    return x


def _int_param(value, name):
    x = _real_param(value, name)
    if not x.is_integer():
        raise BadParams(f"parameter {name} must be an integer, got {x}")
    return int(x)


def _cr_dimension(n):
    """The CR dimension n as an int, checked before anything is built: at least 1,
    and with m = n + 1, m^3 within ``MAX_NODES``, as a frame batch evaluates the
    m^3 third jets of every point (so n <= 99)."""
    n = _int_param(n, "n")
    if n < 1:
        raise BadParams("CR dimension n must be at least 1")
    if (n + 1) ** 3 > MAX_NODES:
        raise BadParams(f"CR dimension n = {n} is too large: a frame batch evaluates (n + 1)^3 third jets "
                        f"per point, at most {MAX_NODES}")
    return n


def _build_sphere(r=1.0, n=1):
    radius = _real_param(r, "r")
    n = _cr_dimension(n)
    if not (radius > 0 and 0 < radius * radius < math.inf):
        raise BadParams(f"sphere radius must be positive, with r^2 a positive finite float: r={radius}")
    m = n + 1
    F = _identity_vars(m)
    imm = ImmersionSpec(F, dim=m, psi=sym.const(-(radius**2)), name=f"sphere(r={radius},n={n})")
    family = [
        PluriharmonicFunction(sym.var(j, conjugated=True), label=f"conj(z{j + 1})")
        for j in range(m)
    ]
    return SurfaceSpec(
        name="sphere",
        params={"r": radius, "n": n},
        chart=imm.chart,
        immersion=imm,
        plurifamily=family,
        builder="sphere",
    )


def _build_ellipsoid(A=(0.1, 0.2, 0.3), dim=None):
    A = tuple(_real_param(a, "A") for a in np.atleast_1d(A))
    m = len(A) if dim is None else _int_param(dim, "dim")
    if m < 2:
        raise BadParams("ellipsoid needs ambient dimension at least 2")
    if len(A) != m:
        raise BadParams(f"ellipsoid expects one coefficient per coordinate: len(A)={len(A)}, dim={m}")
    _cr_dimension(m - 1)
    if max(abs(a) for a in A) >= 1:
        raise BadParams(f"|A_j| >= 1 breaks strict pseudoconvexity on the scan region: A={A}")
    zs = _identity_vars(m)
    quad = sym.const(0)
    for a, z in zip(A, zs):
        quad = sym.add(quad, sym.mul(sym.const(a), sym.mul(z, z)))
    psi = sym.add(sym.re(quad), sym.const(-1))
    imm = ImmersionSpec(zs, dim=m, psi=psi, name=f"ellipsoid(A={A})")
    return SurfaceSpec(
        name="ellipsoid",
        params={"A": A, "dim": m},
        chart=imm.chart,
        immersion=imm,
        builder="ellipsoid",
    )


def _build_whitney(n=1):
    n = _cr_dimension(n)
    m = n + 1
    zs, w = _identity_vars(m)[:-1], sym.var(m - 1)
    F = zs + [sym.mul(z, w) for z in zs] + [sym.mul(w, w)]
    imm = ImmersionSpec(F, dim=m, name=f"whitney(n={n})")
    sigma = sym.log(sym.add(sym.const(1), sym.abs2(w)))
    return SurfaceSpec(
        name="whitney",
        params={"n": n},
        chart=imm.chart,
        immersion=imm,
        sigma=sigma,
        builder="whitney",
    )


class _ReinhardtSampler:
    """Exact sampling of { sum_j (log|z_j|^2)^2 = 1 } via log-moduli and phases."""

    def __init__(self, m):
        self.m = m

    def __call__(self, k, rng):
        L = rng.standard_normal((k, self.m))
        L /= np.linalg.norm(L, axis=1, keepdims=True)
        phases = rng.uniform(0.0, 2 * np.pi, size=(k, self.m))
        return np.exp(L / 2.0) * np.exp(1j * phases)

    def scan_grid(self, budget):
        # axes: (m-2) polar + 1 azimuth for the log-moduli sphere, m phases
        m = self.m
        angles, step = _angle_grid(budget, m - 2, m + 1)
        L = sphere_point(angles[:, : m - 1])
        P = np.exp(L / 2.0) * np.exp(1j * angles[:, m - 1 :])
        return P, step * float(np.e**0.5)


def _build_reinhardt(n=1):
    n = _cr_dimension(n)
    m = n + 1
    rho = sym.const(-1)
    family = []
    for j in range(m):
        lg = sym.log(sym.abs2(sym.var(j)))
        rho = sym.add(rho, sym.intpow(lg, 2))
        family.append(PluriharmonicFunction(lg, label=f"log|z{j + 1}|^2"))
    chart = HypersurfaceChart(rho, m, name=f"reinhardt(n={n})")
    return SurfaceSpec(
        name="reinhardt",
        params={"n": n},
        chart=chart,
        plurifamily=family,
        star_shaped=False,
        _sampler=_ReinhardtSampler(m),
        builder="reinhardt",
    )


def _build_custom(fields: dict, name="custom"):
    m = _cr_dimension(fields["dim"] - 1) + 1
    rho = fields["rho"]
    sigma = fields.get("sigma")
    if sigma is not None:
        _require_real(sigma, "sigma")
    if "psi" in fields and "F" not in fields:
        raise BadParams("psi is the pluriharmonic part of |F|^2 + psi and needs F")
    imm = None
    if "F" in fields:
        imm = ImmersionSpec(fields["F"], dim=m, psi=fields.get("psi"), name=name)
        # relative to |rho|, as in _require_real, so c rho with sqrt(c) F and c psi loads
        if not sym.vanishes([sym.add(rho, sym.neg(imm.chart.rho))], rho, 1e-9):
            raise BadParams("rho does not match |F|^2 + psi for the given F and psi")
        chart = imm.chart
    else:
        chart = HypersurfaceChart(rho, m, name=name)
    return SurfaceSpec(
        name=name,
        params={"dim": m},
        chart=chart,
        immersion=imm,
        sigma=sigma,
    )


_BUILDERS = {
    "sphere": _build_sphere,
    "ellipsoid": _build_ellipsoid,
    "whitney": _build_whitney,
    "reinhardt": _build_reinhardt,
}

GALLERY_DOC = {
    "sphere": "round sphere |Z|^2 = r^2; params r=1.0, n=1",
    "ellipsoid": "|Z|^2 + Re sum A_j z_j^2 = 1; params A=(0.1,0.2,0.3), dim=len(A)",
    "whitney": "level set |W|^2 = 1 for W = (z, zw, w^2)-type quadratic map; params n=1",
    "reinhardt": "sum_j (log|z_j|^2)^2 = 1 torus bundle; params n=1",
    "custom": "surface file via --surface-file (keys rho, dim, F, psi, sigma)",
}


def gallery(name: str, **params) -> SurfaceSpec:
    """Construct a built-in surface by name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownSurface(
            f"unknown surface {name!r}; available: {sorted(_BUILDERS)} or custom via file"
        ) from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise BadParams(f"bad parameters for {name}: {exc}") from exc


def load_surface(fields: dict, name="custom") -> SurfaceSpec:
    return _build_custom(fields, name=name)


# ---- batched surface scan ----------------------------------------------------


def curvature_batch(surface: SurfaceSpec, P):
    """Geometry of ``analyze`` and ``scan`` at a (K, m) batch of on-surface points P:
    the SFF batch when the surface carries an immersion, else the frame batch
    alone, then the Ricci data.  A single point p is the batch ``p[None, :]``.

    Returns (fb, f, ric, R, L): the frame batch (``fb.h``, ``fb.r``, ``fb.J``, ...),
    the SFF field dict of ``immersion._sff_batch`` or None, the Ricci form, the
    scalar curvature and the frame Hessian of log J, each stacked over the K points.
    """
    if surface.immersion is not None:
        fb, f = _sff_batch(surface.immersion, P)
    else:
        fb, f = _frame_batch(surface.chart, P), None
    return (fb, f) + _ricci_batch(surface.chart, fb)


def scan_surface(surface: SurfaceSpec, budget: int, umbilic_tolerance=UMBILIC_TOLERANCE):
    """Whole-surface scan: curvature scalars and umbilicity at grid points.

    Returns a dict of equal-length arrays plus the grid spacing estimate.
    ``II0norm2``/``is_umbilic`` are present only when the surface carries an
    immersion.
    """
    P, spacing = surface.scan_grid(budget)
    fb, f, _, R, L = curvature_batch(surface, P)
    out = {"points": P, "spacing": spacing}
    if f is not None:
        out["II0norm2"] = f["II0"]
        out["Hnorm2"] = f["Hnorm2"]
        out["is_umbilic"] = f["II0"] < umbilic_tolerance
    out["r"] = fb.r
    out["J"] = fb.J
    out["scalarR"] = R
    out["min_eig_L"] = np.linalg.eigvalsh(L)[:, 0]
    return out
