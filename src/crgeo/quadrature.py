"""Radial charts over the unit sphere and contact-volume quadrature.

A star-shaped surface {rho = 0} is parametrized by unit directions
u in R^{2m} ~ C^m through the first positive radial root of rho.  Integrals
against the contact volume form theta ^ (dtheta)^n are computed by pulling
the form back through that parametrization: theta = i dbar-rho and
dtheta = i ddbar-rho are evaluated exactly from the chart's symbolic jets on
finite-difference tangent vectors of the parametrization (step 1e-6).

Every batch runs one block at a time, so working memory is bounded by the
block, not by the node set: a radial solve takes at most RAY_BLOCK rays, and
a node block's rays (each node's ray and its 2(d-1) rays shifted by one step
in one angle) go into one radial solve, after which the density and the
volume form run on that block's nodes alone.  Each row is computed on its
own, so the blocking changes the number of batch calls and no value.

The pullback enters through its absolute value, which fixes the orientation
so that the integral of the density 1 is positive.  Node evaluation is pure;
sums use numpy's deterministic pairwise reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, NoCrossing, NonTransversal, NotStarShaped
from .hypersurface import HypersurfaceChart, _bordered, _levi_form, _on_surface, _real, eval_arrays

ROOT_TOL = 1e-12
TRANSVERSAL_FLOOR = 1e-10
FD_STEP = 1e-6
T_MAX = 10.0  # rays are searched for a crossing over t in (0, T_MAX]
MAX_NODES = 10**6  # largest grid, sample set or scan; larger requests are rejected before allocating
RAY_BLOCK = 4096  # most rays per radial solve, which bounds its working memory
SCAN_BLOCK = 512  # most points per geometry batch of a scan, which bounds its working memory
_PREFIX = {"product-grid": "grid", "monte-carlo": "mc", "quasi-monte-carlo": "qmc"}


@dataclass
class RadialChart:
    """Radial graph data: a chart star-shaped about the origin."""

    chart: HypersurfaceChart


@dataclass(frozen=True)
class QuadratureRule:
    """A product grid over the angle box, seeded Monte Carlo, or seeded
    quasi-Monte Carlo (randomly shifted Halton points).

    ``resolution`` is the base per-angle node count for product grids;
    ``samples``/``seed`` drive the two sampled variants.
    """

    kind: str
    resolution: int = 0
    samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _PREFIX:
            raise BadParams(f"unknown quadrature kind {self.kind!r}")
        if self.kind == "product-grid" and self.resolution < 3:
            raise BadParams("grid resolution must be at least 3")
        if self.kind != "product-grid" and self.samples < 8:
            raise BadParams(f"{self.kind} sample count must be at least 8")
        if self.samples > MAX_NODES:
            raise BadParams(f"{self.samples} samples exceed the ceiling of {MAX_NODES}")
        if self.seed < 0:
            raise BadParams(f"quadrature seed must be nonnegative, got {self.seed}")

    def describe(self):
        if self.kind == "product-grid":
            return f"grid:{self.resolution}"
        return f"{_PREFIX[self.kind]}:{self.samples}:{self.seed}"


def product_grid(resolution: int) -> QuadratureRule:
    return QuadratureRule(kind="product-grid", resolution=int(resolution))


def monte_carlo(samples: int, seed: int = 0) -> QuadratureRule:
    return QuadratureRule(kind="monte-carlo", samples=int(samples), seed=int(seed))


def quasi_monte_carlo(samples: int, seed: int = 0) -> QuadratureRule:
    return QuadratureRule(kind="quasi-monte-carlo", samples=int(samples), seed=int(seed))


def parse_quad_flag(text: str) -> QuadratureRule:
    """Parse ``grid:<n>``, ``mc:<samples>[:<seed>]`` or ``qmc:<samples>[:<seed>]``."""
    parts = text.split(":")
    try:
        if parts[0] == "grid" and len(parts) == 2:
            return product_grid(int(parts[1]))
        if parts[0] in ("mc", "qmc") and len(parts) in (2, 3):
            seed = int(parts[2]) if len(parts) == 3 else 0
            return (monte_carlo if parts[0] == "mc" else quasi_monte_carlo)(int(parts[1]), seed)
    except ValueError as exc:
        raise BadParams(f"malformed quadrature flag {text!r}") from exc
    raise BadParams(f"malformed quadrature flag {text!r} (use grid:<n>, mc:<n>:<seed> or qmc:<n>:<seed>)")


# ---- spherical coordinates -----------------------------------------------


def sphere_point(angles: np.ndarray) -> np.ndarray:
    """Unit vectors in R^d from (K, d-1) generalized spherical angles."""
    K, dm1 = angles.shape
    d = dm1 + 1
    u = np.empty((K, d))
    sin_prod = np.ones(K)
    for i in range(dm1):
        u[:, i] = sin_prod * np.cos(angles[:, i])
        sin_prod = sin_prod * np.sin(angles[:, i])
    u[:, d - 1] = sin_prod
    return u


def sphere_angles(u: np.ndarray) -> np.ndarray:
    """Inverse of sphere_point away from the coordinate poles."""
    K, d = u.shape
    angles = np.empty((K, d - 1))
    tail = np.linalg.norm(u, axis=1)
    for i in range(d - 2):
        tail = np.sqrt(np.maximum(tail**2 - u[:, i] ** 2, 0.0))
        angles[:, i] = np.arctan2(tail, u[:, i])
    angles[:, d - 2] = np.arctan2(u[:, d - 1], u[:, d - 2])
    return angles


def sphere_jacobian(angles: np.ndarray) -> np.ndarray:
    """Density of the round measure w.r.t. the angle box: prod sin^{d-1-i}."""
    K, dm1 = angles.shape
    jac = np.ones(K)
    for i in range(dm1 - 1):
        jac = jac * np.sin(angles[:, i]) ** (dm1 - 1 - i)
    return jac


def sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _to_complex(u):
    return u[:, 0::2] + 1j * u[:, 1::2]


def _blocks(K, size):
    """Slices cutting range(K) into the fewest blocks of at most ``size``, with
    np.array_split's near-equal lengths: no block is shorter than another by
    more than one, so there is no one-point tail."""
    count = max(1, -(-K // size))
    q, r = divmod(K, count)
    edges = [i * q + min(i, r) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


# ---- radial root finding ---------------------------------------------------


def _rho_on_ray(rc, Z, t):
    return np.real(rc.chart.rho_at(t[:, None] * Z))


def _radial_batch(rc: RadialChart, U: np.ndarray, labels=None) -> np.ndarray:
    """Smallest positive radial root for each unit direction (K, 2m).

    The ray search steps t by 1.5x from 1e-4 T_MAX to T_MAX, bisects the
    first bracket 60 times and polishes with 6 Newton steps: 92 ``rho_at``
    calls and 7 gradient evaluations per batch, each on all K directions.  Every ray
    takes the same steps in t, so a ray's root does not depend on the other
    rays of the batch.  Errors name ray i as ``labels[i]`` (default i)."""
    K = U.shape[0]
    labels = np.arange(K) if labels is None else labels
    Z = np.asfortranarray(_to_complex(U))  # contiguous columns for evaluation
    t = np.full(K, 1e-4 * T_MAX)
    s_prev = np.sign(_rho_on_ray(rc, Z, t))
    lo = t.copy()
    hi = np.full(K, np.nan)
    changes = np.zeros(K, dtype=int)
    while np.min(t) < T_MAX:
        t_next = np.minimum(t * 1.5, T_MAX)
        s = np.sign(_rho_on_ray(rc, Z, t_next))
        flip = (s != s_prev) & (s_prev != 0)
        first = flip & np.isnan(hi)
        hi[first] = t_next[first]
        lo[first] = t[first]
        changes += flip
        s_prev, t = s, t_next
    if np.any(np.isnan(hi)):
        i = int(np.argmax(np.isnan(hi)))
        raise NoCrossing(f"ray {labels[i]} misses the surface for t in (0, {T_MAX}]")
    if np.any(changes > 1):
        i = int(np.argmax(changes))
        raise NotStarShaped(
            f"ray {labels[i]} crosses the surface {changes[i]} times: not star-shaped about the origin"
        )

    # lo only moves to points where rho has the sign it has at lo
    s_lo = np.sign(_rho_on_ray(rc, Z, lo))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = np.sign(_rho_on_ray(rc, Z, mid)) == s_lo
        np.copyto(lo, mid, where=left)
        np.copyto(hi, mid, where=~left)
    t = 0.5 * (lo + hi)

    for step in range(7):  # the seventh pass only reads the residual and slope at the root
        P = t[:, None] * Z
        val = np.real(rc.chart.rho_at(P))
        grad = eval_arrays([rc.chart.jets("h")], P)[0]
        slope = 2.0 * np.real(np.einsum("kj,kj->k", grad, Z))
        if step == 6:
            break
        t = t - val / np.where(np.abs(slope) < TRANSVERSAL_FLOOR, np.inf, slope)
    _on_surface(val, P, grad, ROOT_TOL, NoCrossing, "radial polish stalled at |rho| = {:.3e} on ray {}", labels)
    if np.min(np.abs(slope)) < TRANSVERSAL_FLOOR:
        i = int(np.argmin(np.abs(slope)))
        raise NonTransversal(f"|d rho/dt| = {abs(slope[i]):.2e} at the root of ray {labels[i]}")
    if np.min(slope) < 0:
        i = int(np.argmin(slope))
        raise NonTransversal(f"d rho/dt = {slope[i]:.2e} < 0 at the root of ray {labels[i]}")
    return t


def radial_points(rc: RadialChart, U: np.ndarray, labels=None) -> np.ndarray:
    """On-surface points for a batch of unit directions, solved in blocks of at
    most RAY_BLOCK rays; errors name ray i as ``labels[i]`` (default i)."""
    labels = np.arange(U.shape[0]) if labels is None else labels
    t = np.concatenate([_radial_batch(rc, U[b], labels[b]) for b in _blocks(U.shape[0], RAY_BLOCK)])
    return t[:, None] * _to_complex(U) + 0j  # signed zeros of U become 0, so "-0" never reaches a report


# ---- contact volume form ----------------------------------------------------


def _pfaffian(D):
    """Pfaffian of stacked antisymmetric (K, 2k, 2k) matrices, recursively."""
    size = D.shape[-1]
    if size == 2:
        return D[:, 0, 1]
    acc = np.zeros(D.shape[0], dtype=D.dtype)
    rest0 = list(range(1, size))
    for pos, j in enumerate(rest0):
        rest = np.array([r for r in rest0 if r != j])
        minor = D[:, rest[:, None], rest[None, :]]
        acc = acc + ((-1) ** pos) * D[:, 0, j] * _pfaffian(minor)
    return acc


def contact_volume_density(chart: HypersurfaceChart, P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """theta ^ (dtheta)^n evaluated on tangent vectors V (K, 2n+1, m).

    Tangent vectors are given by their complex coordinate components; theta
    and dtheta come from the chart's exact first and second jets at P.  The
    form is n! times the Pfaffian of dtheta(V_i, V_j) bordered by theta(V_i).
    """
    grad, hess = eval_arrays([chart.jets("h"), chart.jets("hb")], P)
    beta = 1j * np.conj(np.einsum("kj,kij->ki", grad, V))
    A = _levi_form(V, hess)
    M = _bordered(0.0, beta, -beta, 1j * (A - np.swapaxes(A, 1, 2)))
    return _real(math.factorial(chart.n) * _pfaffian(M), 1e-6, "volume form", NonTransversal)


def _grid_nodes(res: int, d: int):
    """Gauss-Legendre x uniform product nodes over the angle box of S^{d-1}."""
    k_phi = max(4, res)
    nodes = res ** (d - 2) * k_phi
    if nodes > MAX_NODES:
        raise BadParams(f"grid:{res} needs {nodes} nodes on S^{d - 1}, over the ceiling of {MAX_NODES}")
    x, w = np.polynomial.legendre.leggauss(res)
    axes = [0.5 * np.pi * (x + 1.0)] * (d - 2) + [2.0 * np.pi * np.arange(k_phi) / k_phi]
    weights = [0.5 * np.pi * w] * (d - 2) + [np.full(k_phi, 2.0 * np.pi / k_phi)]
    grids = np.meshgrid(*axes, indexing="ij")
    wgrids = np.meshgrid(*weights, indexing="ij")
    angles = np.stack([g.ravel() for g in grids], axis=1)
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return angles, w


def _eval_on_angles(rc: RadialChart, density, angles):
    """|pullback| * density at each angle node, via FD tangents (step 1e-6).

    The stencil of a node is its own angles and the 2(d-1) sets shifted by
    +-FD_STEP in one angle.  Nodes go in near-equal blocks of at most
    RAY_BLOCK // (2d-1) (``_blocks``), and the stencil rays of a block are
    stacked set by set ([centre, +e_0, ..., +e_{d-2}, -e_0, ..., -e_{d-2}])
    into one radial solve, whose errors name the node.  The density and the
    volume form then run on that block's nodes, so no array spans all nodes
    but the result.  ``density`` returns (K,) values, or (K, F) for F
    densities on the same nodes; the result has its shape."""
    chart = rc.chart
    d = 2 * chart.m
    K = angles.shape[0]
    sets = 2 * d - 1
    step = FD_STEP * np.eye(d - 1)[:, None, :]  # (d-1, 1, d-1): one shifted angle per set
    out = None
    for b in _blocks(K, RAY_BLOCK // sets):
        a = angles[b]
        stacked = np.concatenate([a[None], a + step, a - step]).reshape(-1, d - 1)
        labels = np.tile(np.arange(b.start, b.stop), sets)
        Q = radial_points(rc, sphere_point(stacked), labels).reshape(sets, a.shape[0], chart.m)
        V = np.swapaxes(Q[1:d] - Q[d:], 0, 1) / (2 * FD_STEP)
        dens = np.asarray(density(Q[0]), dtype=float)
        vals = (np.abs(contact_volume_density(chart, Q[0], V)) * dens.T).T
        if out is None:
            out = np.empty((K,) + vals.shape[1:])
        out[b] = vals
    return out


def _halton(samples: int, d: int) -> np.ndarray:
    """Points 1..samples of the Halton sequence in [0, 1)^d (first d primes)."""
    primes = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    out = np.zeros((samples, d))
    for col, p in enumerate(primes):
        i, f = np.arange(1, samples + 1), 1.0
        while i.any():
            f /= p
            out[:, col] += f * (i % p)
            i //= p
    return out


def _sample_directions(rule: QuadratureRule, d: int) -> np.ndarray:
    """Unit directions in R^d: normalized Gaussians, drawn by numpy's
    generator for Monte Carlo and, for quasi-Monte Carlo, by Box-Muller on
    Halton points shifted modulo 1 by one seeded uniform vector
    (Cranley-Patterson rotation)."""
    if rule.kind == "monte-carlo":
        U = np.random.default_rng(rule.seed).standard_normal((rule.samples, d))
    else:
        x = (_halton(rule.samples, d) + np.random.default_rng(rule.seed).random(d)) % 1.0
        radius = np.sqrt(-2.0 * np.log1p(-x[:, 0::2]))  # 1 - x > 0, so the log stays finite
        U = np.empty_like(x)
        U[:, 0::2] = radius * np.cos(2.0 * np.pi * x[:, 1::2])
        U[:, 1::2] = radius * np.sin(2.0 * np.pi * x[:, 1::2])
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    return U


def integrate(rc: RadialChart, density, rule: QuadratureRule):
    """Integral of ``density`` against theta ^ (dtheta)^n over the surface.

    Returns (value, error_estimate): refinement-halving error for grids,
    the one-sigma sample error of plain Monte Carlo for both sampled rules
    (randomized quasi-Monte Carlo errors typically stay well below it).
    """
    d = 2 * rc.chart.m
    if rule.kind == "product-grid":
        values = []
        for res in (rule.resolution, max(3, rule.resolution // 2)):
            angles, w = _grid_nodes(res, d)
            values.append(float(np.sum(w * _eval_on_angles(rc, density, angles))))
        return values[0], abs(values[0] - values[1])
    angles = sphere_angles(_sample_directions(rule, d))
    contrib = _eval_on_angles(rc, density, angles) / sphere_jacobian(angles)
    area = sphere_area(d)
    return float(area * np.mean(contrib)), float(area * np.std(contrib) / math.sqrt(rule.samples))
