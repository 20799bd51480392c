"""Kohn-Laplacian values on pluriharmonic restrictions and eigenvalue bounds.

On a level set of a plurisubharmonic potential, the Kohn Laplacian of the
restriction of a pluriharmonic function f~ reduces to a first-order formula
driven by the transverse field: box_b f = n * sum_j conj(xi^j) d f~/dzbar^j.
That formula powers everything here: the tangential energy density
|dbar_b f|^2, eigenmap detection for holomorphic immersions (with the induced
sphere radius), the mean-curvature upper bound for the first positive
eigenvalue, and the energy/tension quotient bound.

The densities read the caller's per-point batch: ``_boxb_batch`` takes the
transverse field and ``_energy_density_batch`` the frame batch, so a caller
that evaluates several functions on one point set solves the transverse
system once.  Each takes a whole family and returns one column per
function from one program of the family's dbar jets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symbolic as sym
from .errors import NotEigenmap, NotPluriharmonic, ZeroEnergy
from .hypersurface import HypersurfaceChart, _frame_batch, dbar_b_norm2, eval_arrays, transverse_solve
from .immersion import ImmersionSpec
from .quadrature import QuadratureRule, RadialChart, integrate

EIGEN_TOL = 1e-8
ENERGY_FLOOR = 1e-12
CONSTANCY_TOL = 1e-9


class PluriharmonicFunction:
    """A label plus the ambient extension f~, validated pluriharmonic."""

    def __init__(self, ftilde: sym.Expr, label: str = ""):
        self.ftilde = ftilde
        self.label = label
        self._checked = False

    def ensure_valid(self):
        if not self._checked:
            if not sym.is_pluriharmonic(self.ftilde):
                raise NotPluriharmonic(
                    f"{self.label or 'function'} has a nonvanishing mixed second derivative"
                )
            self._checked = True

    def __repr__(self):
        return f"PluriharmonicFunction({self.label or sym.to_text(self.ftilde)})"


@dataclass
class EigenBoundReport:
    """Shared result record for the mean-curvature and tension bounds.

    Fields not produced by a given bound stay None.  ``upper_bound`` is
    n * mean_H2 by construction for the mean-curvature route;
    ``tension_bound`` is total_tension / energy for the quotient route.
    In certified-constant mode (no quadrature) energy and total_tension are
    per-unit-volume constants and ``volume`` is None.
    """

    volume: float | None = None
    mean_H2: float | None = None
    upper_bound: float | None = None
    energy: float | None = None
    total_tension: float | None = None
    tension_bound: float | None = None
    samples_used: int = 0
    volume_error: float | None = None
    mean_error: float | None = None


@dataclass
class TakahashiReport:
    lam: float
    radius: float
    is_eigen: bool
    is_pseudohermitian: bool
    worst_eigen_residual: float
    worst_radius_residual: float


def _xi_batch(chart, P):
    return transverse_solve(chart, P)


def _boxb_batch(chart, fs, P, xi):
    """(K, F) Kohn Laplacian of each f~|_M of a family fs at points P, xi their transverse field."""
    for f in fs:
        f.ensure_valid()
    dbar = eval_arrays([sym.jets([f.ftilde for f in fs], chart.m, "b")], P)[0]
    return chart.n * np.einsum("kj,kfj->kf", np.conj(xi), dbar)


def _energy_density_batch(chart, fs, fb):
    """(K, F) |dbar_b f|^2 of each f of a family fs at a frame batch's points: nonnegative, zero where f is CR."""
    dbar = eval_arrays([sym.jets([f.ftilde for f in fs], chart.m, "b")], fb.P)[0]
    return dbar_b_norm2(fb, np.conj(dbar).swapaxes(1, 2))


def takahashi_check(spec: ImmersionSpec, sample) -> TakahashiReport:
    """Fit a common eigenvalue in box_b conj(F^d) = lambda conj(F^d) on a (K, m) sample.

    The eigenvalue is fitted at the first sample point and verified at the
    rest; on success the induced sphere radius sqrt(n/lambda) is checked
    against |F|, and the transverse field is checked to push onto the
    sphere's own (lambda/n) F, which is the Reeb-matching condition.
    """
    P = np.asarray(sample, dtype=complex)
    chart, n = spec.chart, spec.n
    xi, _ = _xi_batch(chart, P)

    Fv, dF = eval_arrays([spec.F, sym.jets(spec.F, spec.dim, "h")], P)
    dF_xi = np.einsum("kdj,kj->kd", dF, xi)
    boxb = n * np.conj(dF_xi)

    Fbar = np.conj(Fv)
    anchor = np.abs(Fbar[0]) > 1e-8
    if not np.any(anchor):
        raise NotEigenmap("all components vanish at the first sample point")
    cands = boxb[0][anchor] / Fbar[0][anchor]
    lam = cands[0]
    if np.max(np.abs(cands - lam)) > EIGEN_TOL * (1 + abs(lam)):
        raise NotEigenmap(
            f"componentwise ratios disagree: spread {np.max(np.abs(cands - lam)):.3e}"
        )
    scale = max(1.0, float(np.max(np.abs(Fbar))))
    resid = float(np.max(np.abs(boxb - lam * Fbar)))
    if resid > EIGEN_TOL * scale * (1 + abs(lam)):
        raise NotEigenmap(f"eigen residual {resid:.3e} across samples")
    if abs(lam.imag) > EIGEN_TOL * (1 + abs(lam)) or lam.real <= 0:
        raise NotEigenmap(f"fitted eigenvalue {lam} is not positive real")
    lam = float(lam.real)

    radius = float(np.sqrt(n / lam))
    radius_resid = float(np.max(np.abs(np.linalg.norm(Fv, axis=1) - radius)))
    reeb_resid = float(np.max(np.abs(dF_xi - (lam / n) * Fv)))
    return TakahashiReport(
        lam=lam,
        radius=radius,
        is_eigen=True,
        is_pseudohermitian=bool(radius_resid < 1e-8 and reeb_resid < 1e-6),
        worst_eigen_residual=resid,
        worst_radius_residual=radius_resid,
    )


def reilly_bound(spec: ImmersionSpec, quad: QuadratureRule) -> EigenBoundReport:
    """Upper bound n * mean(|H|^2) for the first positive eigenvalue.

    |H|^2 equals the transverse curvature of the induced chart, so the
    integrand needs only the chart jets at each quadrature node.
    """
    chart = spec.chart
    rc = RadialChart(chart)

    def h2_density(P):
        _, r = _xi_batch(chart, P)
        return r

    total_h2, err_h2 = integrate(rc, h2_density, quad)
    volume, err_vol = integrate(rc, lambda P: np.ones(P.shape[0]), quad)
    mean = total_h2 / volume
    return EigenBoundReport(
        volume=volume,
        mean_H2=mean,
        upper_bound=chart.n * mean,
        volume_error=err_vol,
        mean_error=abs(err_h2 / volume) + abs(mean * err_vol / volume),
        samples_used=quad.samples or quad.resolution,
    )


def tension_bound(
    chart: HypersurfaceChart,
    f_components,
    quad: QuadratureRule | None = None,
    sample_points=None,
) -> EigenBoundReport:
    """Quotient bound total_tension / energy for the first eigenvalue.

    With a quadrature rule, both quantities are integrated over the surface.
    Without one, the densities are certified constant on ``sample_points``
    (max - min at most CONSTANCY_TOL·(1 + mean|vals|)) and the bound is the
    ratio of the constants -- the route for surfaces no radial chart covers.
    """
    fs = list(f_components)
    if not fs:  # no jets to evaluate, and no energy
        raise ZeroEnergy("all components are CR; the quotient is undefined")
    for f in fs:
        f.ensure_valid()

    # columns added left to right: numpy's sum groups 8 or more of them pairwise
    def energy_density(P):
        return sum(_energy_density_batch(chart, fs, _frame_batch(chart, P)).T)

    def tension_density(P):
        xi, _ = _xi_batch(chart, P)
        return sum(np.abs(_boxb_batch(chart, fs, P, xi).T) ** 2)

    if quad is not None:
        rc = RadialChart(chart)
        energy, _ = integrate(rc, energy_density, quad)
        tension, _ = integrate(rc, tension_density, quad)
        volume, err_vol = integrate(rc, lambda P: np.ones(P.shape[0]), quad)
        floor = ENERGY_FLOOR * max(1.0, volume)
        samples = quad.samples or quad.resolution
    else:
        if sample_points is None:
            raise ZeroEnergy("certified-constant mode needs sample_points")
        P = np.asarray(sample_points, dtype=complex)
        e_vals = energy_density(P)
        t_vals = tension_density(P)
        for name, vals in (("energy", e_vals), ("tension", t_vals)):
            spread = float(np.max(vals) - np.min(vals))
            if spread > CONSTANCY_TOL * (1.0 + float(np.mean(np.abs(vals)))):
                raise ZeroEnergy(
                    f"{name} density is not constant (spread {spread:.3e}); "
                    "use a quadrature rule instead"
                )
        energy = float(np.mean(e_vals))
        tension = float(np.mean(t_vals))
        volume = err_vol = None
        floor = ENERGY_FLOOR
        samples = P.shape[0]
    if energy < floor:
        raise ZeroEnergy("all components are CR; the quotient is undefined")
    return EigenBoundReport(
        volume=volume,
        energy=energy,
        total_tension=tension,
        tension_bound=tension / energy,
        volume_error=err_vol,
        samples_used=samples,
    )
